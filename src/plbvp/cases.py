"""Bundled reproduction cases ex41, ex42 and ex43.

A bundled case is the :class:`plbvp.problemfile.ProblemConfig` of its
example plus its check's flags: the keyword arguments, theorem included,
with which ``plbvp check`` checks the hypotheses the example illustrates.
The checks for ex41 and ex42 do not involve eta, which those sources leave
free in (0, 1); the bundled problems pin eta = 1/2 so that the solver has a
concrete instance.

``CASES`` maps each id to its case.  A case is built when it is first
asked for, and the same object is returned from then on, so
``reproduce ex43`` builds, and validates, ex43 alone.
"""

from collections.abc import Mapping
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


# How to build each case.
_BUILDERS = {
    "ex41": lambda: BundledCase(
        problem=_problem(alpha=2.5, eta=0.5, p=1.5,
                         a="exp(t)", f="0.5*t*ln(u+1)"),
        flags={"theorem": "3.3", "nu": 1.0},
    ),
    "ex42": lambda: BundledCase(
        problem=_problem(alpha=2.6, eta=0.5, p=1.5,
                         a="t", f="exp(-t)*sin(u)^2"),
        flags={"theorem": "3.5", "k_env": "exp(-t)", "L": 2.0},
    ),
    "ex43": lambda: BundledCase(
        problem=_problem(alpha=2.5, eta=0.5, p=3.5,
                         a="2.5*t*sqrt(t)", f="(348+sqrt(u)+t)/400"),
        rho=0.5,
        flags={"theorem": "3.1", "rho1": 1.0 / 120.0, "rho2": 1.0},
    ),
}


class _Cases(Mapping):
    """Case id -> BundledCase, each built on first use and kept."""

    def __init__(self):
        self._built = {}

    def __getitem__(self, case_id) -> BundledCase:
        if case_id not in self._built:
            self._built[case_id] = _BUILDERS[case_id]()
        return self._built[case_id]

    def __iter__(self):
        return iter(_BUILDERS)

    def __len__(self) -> int:
        return len(_BUILDERS)


CASES = _Cases()
