"""Problem definition files.

A problem file is a sectioned key = value text document:

    [problem]
    alpha = 2.5
    eta = 0.5
    p = 1.5
    a = "exp(t)"
    f = "0.5*t*ln(u+1)"

    [discretization]
    panels = 256
    points_per_panel = 4
    grading = 2.0
    interpolation = cubic

    [solver]
    tol = 1e-10
    max_iter = 80
    damping = 1.0

    [cone]
    rho = 0.5

The table _FORMAT states this format once; loading and dump_problem follow
it.  Only [problem] is mandatory; an omitted key takes the default shown,
that of its field of Discretization, SolverSettings or ProblemConfig.
points_per_panel sets the Gauss points per cell of the solver's
fractional-integral operator and per panel of the theorem checks.
interpolation accepts only cubic, the shape-preserving PCHIP that is the
package's one interpolation rule; the key is kept so that files which
state it still load.
Lines starting with '#' or ';' are comments.  Expression values may be
quoted or bare.  All diagnostics carry the offending line number.
"""

from dataclasses import dataclass, field

from . import exprlang
from .solver import Discretization, Problem, SolverSettings

__all__ = ["ProblemFileError", "SolverSettings", "ProblemConfig",
           "load_problem", "loads_problem", "dump_problem"]


class ProblemFileError(ValueError):
    """Problem file diagnostic with source location."""

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        self.line = line
        self.path = path
        where = path or "<problem>"
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class ProblemConfig:
    problem: Problem
    solver: SolverSettings = field(default_factory=SolverSettings)
    rho: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")


def _interpolation(raw: str) -> str:
    if raw != Discretization.interpolation:
        raise ValueError(f"{raw!r}: cubic (PCHIP) is the only interpolation rule")
    return raw


# section: {key: (converter, name in diagnostics)}, sections and keys in file order
_FORMAT = {
    "problem": {
        "alpha": (float, "alpha"), "eta": (float, "eta"), "p": (float, "p"),
        "a": (lambda raw: exprlang.parse(raw, variables=("t",)), "expression for a(t)"),
        "f": (exprlang.parse, "expression for f(t, u)"),
    },
    "discretization": {
        "panels": (int, "panels"), "points_per_panel": (int, "points_per_panel"),
        "grading": (float, "grading"), "interpolation": (_interpolation, "interpolation"),
    },
    "solver": {"tol": (float, "tol"), "max_iter": (int, "max_iter"),
               "damping": (float, "damping")},
    "cone": {"rho": (float, "rho")},
}


def _parse_lines(text: str, path: str | None):
    """Map section -> {key: (raw value, line number)}, with duplicate checks."""
    sections: dict = {}
    current = None
    section_lines: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _FORMAT:
                raise ProblemFileError(f"unknown section [{name}]", lineno, path)
            if name in sections:
                raise ProblemFileError(f"duplicate section [{name}]", lineno, path)
            sections[name] = {}
            section_lines[name] = lineno
            current = name
            continue
        if "=" not in line:
            raise ProblemFileError("expected 'key = value'", lineno, path)
        if current is None:
            raise ProblemFileError("key outside of any section", lineno, path)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _FORMAT[current]:
            raise ProblemFileError(f"unknown key {key!r} in [{current}]", lineno, path)
        if key in sections[current]:
            raise ProblemFileError(f"duplicate key {key!r}", lineno, path)
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1]
        sections[current][key] = (value, lineno)
    if "problem" not in sections:
        raise ProblemFileError("missing mandatory [problem] section", None, path)
    return sections, section_lines


def loads_problem(text: str, path: str | None = None) -> ProblemConfig:
    sections, section_lines = _parse_lines(text, path)
    stated = {}  # section -> {key: value}, converted in table order
    for name, keys in _FORMAT.items():
        values = stated[name] = {}
        for key, (convert, what) in keys.items():
            if key not in sections.get(name, {}):
                if name == "problem":
                    raise ProblemFileError(f"missing key {key!r}", None, path)
                continue
            raw, lineno = sections[name][key]
            try:
                values[key] = convert(raw)
            except ValueError as exc:  # an ExprError is a ValueError
                raise ProblemFileError(f"bad {what}: {exc}", lineno, path) from exc
    stated["discretization"].pop("interpolation", None)  # checked, not stored

    def _build(name, factory, **kwargs):
        try:
            return factory(**stated[name], **kwargs)
        except ValueError as exc:
            raise ProblemFileError(str(exc), section_lines.get(name), path) from exc

    discretization = _build("discretization", Discretization)
    problem = _build("problem", Problem, discretization=discretization)
    settings = _build("solver", SolverSettings)
    return _build("cone", ProblemConfig, problem=problem, solver=settings)


def load_problem(path) -> ProblemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_problem(fh.read(), path=str(path))


def dump_problem(config: ProblemConfig) -> str:
    """Canonical problem file text; reloading yields an identical config."""
    pb = config.problem
    sources = {"problem": pb, "discretization": pb.discretization,
               "solver": config.solver, "cone": config}
    lines = []
    for name, keys in _FORMAT.items():
        lines.append(f"[{name}]")
        for key in keys:
            value = getattr(sources[name], key)
            if isinstance(value, exprlang.Expr):
                value = f'"{exprlang.to_text(value)}"'
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
