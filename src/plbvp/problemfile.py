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

Only [problem] is mandatory; omitted sections take the defaults shown.
points_per_panel sets the Gauss points per cell of the solver's
fractional-integral operator and per panel of the theorem checks.
Lines starting with '#' or ';' are comments.  Expression values may be
quoted or bare.  All diagnostics carry the offending line number.
"""

from dataclasses import dataclass, field

from . import exprlang
from .solver import Discretization, Problem

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
class SolverSettings:
    tol: float = 1e-10
    max_iter: int = 80
    damping: float = 1.0

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")


@dataclass(frozen=True)
class ProblemConfig:
    problem: Problem
    solver: SolverSettings = field(default_factory=SolverSettings)
    rho: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")


_SECTIONS = {
    "problem": ("alpha", "eta", "p", "a", "f"),
    "discretization": ("panels", "points_per_panel", "grading", "interpolation"),
    "solver": ("tol", "max_iter", "damping"),
    "cone": ("rho",),
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
            if name not in _SECTIONS:
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
        if key not in _SECTIONS[current]:
            raise ProblemFileError(f"unknown key {key!r} in [{current}]", lineno, path)
        if key in sections[current]:
            raise ProblemFileError(f"duplicate key {key!r}", lineno, path)
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1]
        sections[current][key] = (value, lineno)
    if "problem" not in sections:
        raise ProblemFileError("missing mandatory [problem] section", None, path)
    return sections, section_lines


def _take(section: dict, key: str, convert, default=None, *,
          required: bool = False, path=None, what=""):
    if key not in section:
        if required:
            raise ProblemFileError(f"missing key {key!r}", None, path)
        return default
    raw, lineno = section[key]
    try:
        return convert(raw)
    except exprlang.ExprError as exc:
        raise ProblemFileError(f"bad {what or key}: {exc}", lineno, path) from exc
    except ValueError as exc:
        raise ProblemFileError(f"bad {what or key}: {exc}", lineno, path) from exc


def loads_problem(text: str, path: str | None = None) -> ProblemConfig:
    sections, section_lines = _parse_lines(text, path)
    prob = sections["problem"]

    alpha = _take(prob, "alpha", float, required=True, path=path)
    eta = _take(prob, "eta", float, required=True, path=path)
    p = _take(prob, "p", float, required=True, path=path)
    a = _take(prob, "a", lambda s: exprlang.parse(s, variables=("t",)),
              required=True, path=path, what="expression for a(t)")
    f = _take(prob, "f", exprlang.parse, required=True, path=path,
              what="expression for f(t, u)")

    disc_sec = sections.get("discretization", {})
    disc_kwargs = dict(
        panels=_take(disc_sec, "panels", int, 256, path=path),
        points_per_panel=_take(disc_sec, "points_per_panel", int, 4, path=path),
        grading=_take(disc_sec, "grading", float, 2.0, path=path),
        interpolation=_take(disc_sec, "interpolation", str, "cubic", path=path),
    )
    solver_sec = sections.get("solver", {})
    solver_kwargs = dict(
        tol=_take(solver_sec, "tol", float, 1e-10, path=path),
        max_iter=_take(solver_sec, "max_iter", int, 80, path=path),
        damping=_take(solver_sec, "damping", float, 1.0, path=path),
    )
    rho = _take(sections.get("cone", {}), "rho", float, 0.5, path=path)

    def _build(factory, kwargs, section_name):
        try:
            return factory(**kwargs)
        except ValueError as exc:
            raise ProblemFileError(str(exc), section_lines.get(section_name),
                                   path) from exc

    discretization = _build(Discretization, disc_kwargs, "discretization")
    problem = _build(Problem, dict(alpha=alpha, eta=eta, p=p, a=a, f=f,
                                   discretization=discretization), "problem")
    settings = _build(SolverSettings, solver_kwargs, "solver")
    try:
        return ProblemConfig(problem=problem, solver=settings, rho=rho)
    except ValueError as exc:
        raise ProblemFileError(str(exc), section_lines.get("cone"), path) from exc


def load_problem(path) -> ProblemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_problem(fh.read(), path=str(path))


def dump_problem(config: ProblemConfig) -> str:
    """Canonical problem file text; reloading yields an identical config."""
    pb = config.problem
    d = pb.discretization
    s = config.solver
    lines = [
        "[problem]",
        f"alpha = {pb.alpha!r}",
        f"eta = {pb.eta!r}",
        f"p = {pb.p!r}",
        f'a = "{exprlang.to_text(pb.a)}"',
        f'f = "{exprlang.to_text(pb.f)}"',
        "",
        "[discretization]",
        f"panels = {d.panels}",
        f"points_per_panel = {d.points_per_panel}",
        f"grading = {d.grading!r}",
        f"interpolation = {d.interpolation}",
        "",
        "[solver]",
        f"tol = {s.tol!r}",
        f"max_iter = {s.max_iter}",
        f"damping = {s.damping!r}",
        "",
        "[cone]",
        f"rho = {config.rho!r}",
        "",
    ]
    return "\n".join(lines)
