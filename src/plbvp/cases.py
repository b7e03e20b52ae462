"""Bundled reproduction cases ex41, ex42 and ex43.

A bundled case is the :class:`plbvp.problemfile.ProblemConfig` of its
example plus its check's flags: the keyword arguments, theorem included,
with which ``plbvp check`` checks the hypotheses the example illustrates.
The checks for ex41 and ex42 do not involve eta, which those sources leave
free in (0, 1); the bundled problems pin eta = 1/2 so that the solver has a
concrete instance.
"""

from dataclasses import dataclass

from .exprlang import parse
from .problemfile import ProblemConfig
from .solver import Problem

__all__ = ["BundledCase", "CASES"]


@dataclass(frozen=True, kw_only=True)
class BundledCase(ProblemConfig):
    flags: dict  # the keyword arguments of the check, theorem included


def _problem(alpha, eta, p, a, f) -> Problem:
    return Problem(alpha=alpha, eta=eta, p=p,
                   a=parse(a, variables=("t",)), f=parse(f))


CASES = {
    "ex41": BundledCase(
        problem=_problem(alpha=2.5, eta=0.5, p=1.5,
                         a="exp(t)", f="0.5*t*ln(u+1)"),
        flags={"theorem": "3.3", "nu": 1.0},
    ),
    "ex42": BundledCase(
        problem=_problem(alpha=2.6, eta=0.5, p=1.5,
                         a="t", f="exp(-t)*sin(u)^2"),
        flags={"theorem": "3.5", "k_env": "exp(-t)", "L": 2.0},
    ),
    "ex43": BundledCase(
        problem=_problem(alpha=2.5, eta=0.5, p=3.5,
                         a="2.5*t*sqrt(t)", f="(348+sqrt(u)+t)/400"),
        rho=0.5,
        flags={"theorem": "3.1", "rho1": 1.0 / 120.0, "rho2": 1.0},
    ),
}
