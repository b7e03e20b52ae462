import pytest

from plbvp.exprlang import to_text
from plbvp.problemfile import (
    ProblemConfig,
    ProblemFileError,
    SolverSettings,
    dump_problem,
    load_problem,
    loads_problem,
)
from plbvp.solver import Discretization

EX41_TEXT = """\
# three-point BVP instance
[problem]
alpha = 2.5
eta = 0.5
p = 1.5
a = "exp(t)"
f = "0.5*t*ln(u+1)"

[solver]
tol = 1e-9
"""


def test_load_minimal_with_defaults():
    config = loads_problem(EX41_TEXT)
    pb = config.problem
    assert pb.alpha == 2.5 and pb.eta == 0.5 and pb.p == 1.5
    assert to_text(pb.a) == "exp(t)"
    assert pb.discretization.panels == 256
    assert config.solver.tol == 1e-9
    assert config.solver.max_iter == 80
    assert config.rho == 0.5


def test_omitted_keys_take_the_dataclass_defaults():
    config = loads_problem(EX41_TEXT.replace("tol = 1e-9", "max_iter = 12"))
    assert config.problem.discretization == Discretization()
    assert config.solver == SolverSettings(max_iter=12)
    assert config.rho == ProblemConfig(problem=config.problem).rho
    text = EX41_TEXT + "\n[discretization]\ngrading = 1.5\n"
    assert loads_problem(text).problem.discretization == Discretization(grading=1.5)


def test_unquoted_expressions_accepted():
    config = loads_problem(EX41_TEXT.replace('"exp(t)"', "exp(t)"))
    assert to_text(config.problem.a) == "exp(t)"


def test_line_numbered_value_diagnostics():
    bad = EX41_TEXT.replace("alpha = 2.5", "alpha = wide")
    with pytest.raises(ProblemFileError) as err:
        loads_problem(bad, path="case.problem")
    assert "case.problem:3" in str(err.value)
    assert err.value.line == 3


def test_line_numbered_expression_diagnostics():
    bad = EX41_TEXT.replace('f = "0.5*t*ln(u+1)"', 'f = "0.5*t*ln(u+1"')
    with pytest.raises(ProblemFileError) as err:
        loads_problem(bad)
    assert err.value.line == 7
    assert "f(t, u)" in str(err.value)


def test_invariant_violation_cites_problem_section():
    bad = EX41_TEXT.replace("alpha = 2.5", "alpha = 3.5")
    with pytest.raises(ProblemFileError) as err:
        loads_problem(bad)
    assert "alpha" in str(err.value)
    assert err.value.line == 2  # the [problem] section header


def test_a_expression_may_only_use_t():
    bad = EX41_TEXT.replace('a = "exp(t)"', 'a = "exp(u)"')
    with pytest.raises(ProblemFileError) as err:
        loads_problem(bad)
    assert "only t" in str(err.value) or "unknown identifier" in str(err.value)


def test_unknown_section_and_key():
    with pytest.raises(ProblemFileError):
        loads_problem(EX41_TEXT + "\n[extras]\nx = 1\n")
    with pytest.raises(ProblemFileError):
        loads_problem(EX41_TEXT.replace("tol = 1e-9", "tolerance = 1e-9"))


def test_duplicate_key_rejected():
    with pytest.raises(ProblemFileError):
        loads_problem(EX41_TEXT + "\n[cone]\nrho = 0.5\nrho = 0.6\n")


def test_missing_problem_section():
    with pytest.raises(ProblemFileError):
        loads_problem("[solver]\ntol = 1e-9\n")


def test_missing_mandatory_key():
    with pytest.raises(ProblemFileError) as err:
        loads_problem(EX41_TEXT.replace("p = 1.5\n", ""))
    assert "'p'" in str(err.value)


def test_key_outside_section():
    with pytest.raises(ProblemFileError):
        loads_problem("alpha = 2.5\n")


def test_interpolation_accepts_only_cubic():
    text = EX41_TEXT + "\n[discretization]\ninterpolation = cubic\n"
    assert loads_problem(text).problem == loads_problem(EX41_TEXT).problem
    with pytest.raises(ProblemFileError) as err:
        loads_problem(text.replace("= cubic", "= linear"), path="case.problem")
    assert err.value.line == 13
    assert "case.problem:13" in str(err.value)
    assert "cubic (PCHIP) is the only interpolation rule" in str(err.value)


def test_round_trip_identity(tmp_path):
    config = loads_problem(EX41_TEXT)
    text = dump_problem(config)
    again = loads_problem(text)
    assert again.problem == config.problem
    assert again.solver == config.solver
    assert again.rho == config.rho
    # and canonical text is a fixed point of dump(load(.))
    assert dump_problem(again) == text
    path = tmp_path / "case.problem"
    path.write_text(text, encoding="utf-8")
    assert load_problem(path).problem == config.problem
