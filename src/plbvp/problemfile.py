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

Only [problem] is mandatory; omitted keys take the defaults shown, those of
Discretization, SolverSettings and ProblemConfig.
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


def _interpolation(raw: str) -> str:
    if raw != "cubic":
        raise ValueError(f"{raw!r}: cubic (PCHIP) is the only interpolation rule")
    return raw


def _take(section: dict, key: str, convert, *, path=None, what=""):
    if key not in section:
        raise ProblemFileError(f"missing key {key!r}", None, path)
    raw, lineno = section[key]
    try:
        return convert(raw)
    except ValueError as exc:  # an ExprError is a ValueError
        raise ProblemFileError(f"bad {what or key}: {exc}", lineno, path) from exc


def _stated(section: dict, converters, path) -> dict:
    """The converted keys of section that it states, as keyword arguments."""
    return {key: _take(section, key, convert, path=path)
            for key, convert in converters if key in section}


def loads_problem(text: str, path: str | None = None) -> ProblemConfig:
    sections, section_lines = _parse_lines(text, path)
    prob = sections["problem"]

    alpha = _take(prob, "alpha", float, path=path)
    eta = _take(prob, "eta", float, path=path)
    p = _take(prob, "p", float, path=path)
    a = _take(prob, "a", lambda s: exprlang.parse(s, variables=("t",)),
              path=path, what="expression for a(t)")
    f = _take(prob, "f", exprlang.parse, path=path, what="expression for f(t, u)")

    disc_sec = sections.get("discretization", {})
    disc_kwargs = _stated(disc_sec, (("panels", int), ("points_per_panel", int),
                                     ("grading", float)), path)
    _stated(disc_sec, (("interpolation", _interpolation),), path)  # validated, not stored
    solver_kwargs = _stated(sections.get("solver", {}), (
        ("tol", float), ("max_iter", int), ("damping", float)), path)
    cone_kwargs = _stated(sections.get("cone", {}), (("rho", float),), path)

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
        return ProblemConfig(problem=problem, solver=settings, **cone_kwargs)
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
        "interpolation = cubic",
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
