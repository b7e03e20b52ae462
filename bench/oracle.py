"""Manufactured problems with closed-form solutions.

For an instance (alpha, eta, p, c, r, k) with q = p/(p-1) and m = r(q-1),
take

    a(t)    = c r t^(r-1)
    f(t, u) = ((1 + u) / (1 + u*(t)))^k.

On u = u* the density a f equals a, so F(s) = int_0^s a = c s^r and
phi_q(F(s)) = c^(q-1) s^m.  The fractional-integral form of the problem,
u(t) = I^alpha[g](1) + I^(alpha-1)[g](1) - I^(alpha-1)[g](eta) - I^alpha[g](t)
with g = c^(q-1) s^m, then gives

    u*(t) = c^(q-1) Gamma(m+1) [ (1 - t^(m+alpha)) / Gamma(m+1+alpha)
                                 + (1 - eta^(alpha+m-1)) / Gamma(m+alpha) ],

and, since int_0^1 a = c and int_0^1 Phi = (alpha+1)/Gamma(alpha+1),

    Lambda_1 = Gamma(alpha+1) / ((alpha+1) c^(q-1)).

Both coefficients are written in the package's expression language, so the
problem reaches the solver exactly as a problem file would.  f(t, 0) > 0, so
the Picard iteration from u = 0 has nonlinear work to do.

u* is the solution Picard iteration from u = 0 finds only where it attracts
the iteration.  Linearising at u* gives, in the norm sup |v| / (1 + u*),

    |A'(u*) v| <= (q - 1) k U / (1 + U) |v|,     U = u*(0) = max u*,

so ``contraction_bound`` < 1 makes u* attracting, and the Picard gap shrinks
by about that factor per iteration.  Where the bound exceeds 1 the problem
can have a second, smaller solution, which the iteration then finds.
"""

import math
from dataclasses import dataclass

import numpy as np

from plbvp import Problem, lambda1, loads_problem, picard_solve


@dataclass(frozen=True)
class Instance:
    alpha: float
    eta: float
    p: float
    c: float
    r: float
    k: float

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def m(self) -> float:
        return self.r * (self.q - 1.0)

    def _coefficients(self):
        """(A, B, e) with u*(t) = A - B t^e."""
        alpha, m = self.alpha, self.m
        scale = self.c ** (self.q - 1.0) * math.gamma(m + 1.0)
        b = scale / math.gamma(m + 1.0 + alpha)
        a = b + scale * (1.0 - self.eta ** (alpha + m - 1.0)) / math.gamma(m + alpha)
        return a, b, m + alpha

    def exact(self, t):
        a, b, e = self._coefficients()
        return a - b * np.asarray(t, dtype=float) ** e

    def lambda1(self) -> float:
        return math.gamma(self.alpha + 1.0) / ((self.alpha + 1.0)
                                               * self.c ** (self.q - 1.0))

    def a_text(self) -> str:
        return f"{self.c * self.r!r}*t^{self.r - 1.0!r}"

    def f_text(self) -> str:
        a, b, e = self._coefficients()
        return f"((1 + u)/({1.0 + a!r} - {b!r}*t^{e!r}))^{self.k!r}"

    def contraction_bound(self) -> float:
        top = float(self.exact(0.0))
        return (self.q - 1.0) * self.k * top / (1.0 + top)

    def problem_file(self, panels: int) -> str:
        return (
            "[problem]\n"
            f"alpha = {self.alpha!r}\neta = {self.eta!r}\np = {self.p!r}\n"
            f'a = "{self.a_text()}"\nf = "{self.f_text()}"\n\n'
            f"[discretization]\npanels = {panels}\n"
        )

    def problem(self, panels: int) -> Problem:
        return loads_problem(self.problem_file(panels)).problem

    def sup_error(self, u) -> float:
        """Sup-norm error of a grid function against u* at its nodes."""
        return float(np.max(np.abs(u.values - self.exact(u.partition.nodes))))


# Fixed instances of the refine workload, as (alpha, eta, p, c, r, k).
REFINE = (
    Instance(2.5, 0.5, 3.5, 1.0, 2.5, 1.0),    # shape of ex43
    Instance(2.05, 0.3, 1.5, 1.0, 1.5, 1.0),   # alpha near 2, p < 2
    Instance(2.2, 0.5, 4.0, 0.5, 2.5, 2.0),    # large p
    Instance(2.02, 0.5, 2.5, 1.0, 1.7, 1.0),   # alpha -> 2+
)

# Parameter box of the scan workload.
SCAN_BOX = {
    "alpha": (2.02, 3.0),
    "eta": (0.05, 0.95),
    "p": (1.2, 4.0),
    "c": (0.5, 2.0),
    "r": (1.5, 3.0),
    "k": (0.5, 2.0),
}


# Draws per Latin hypercube batch of the scan workload.
BATCH = 32

# Largest contraction bound a scan instance may have.  Above it the Picard
# iteration needs more than its default 80 steps (about 0.75 and up), and
# above 1 it may converge to another solution than u*.
SCAN_MAX_CONTRACTION = 0.6

# Sup error against u* that a solve at N = 128 may not exceed; about ten
# times the largest error seen over the scan box.
SCAN_ERR_BOUND = 1e-2


def scan_batch(rng: np.random.Generator) -> list:
    """The instances of one Latin hypercube batch of BATCH draws from
    SCAN_BOX whose contraction bound is at most SCAN_MAX_CONTRACTION.

    Each parameter's range is cut into BATCH equal strata and every stratum
    is used once, so a batch covers the box evenly and two seeds give
    batches of similar difficulty.
    """
    columns = [lo + (hi - lo) * (rng.permutation(BATCH) + rng.uniform(size=BATCH)) / BATCH
               for lo, hi in SCAN_BOX.values()]
    draws = (Instance(*map(float, row)) for row in zip(*columns))
    return [inst for inst in draws if inst.contraction_bound() <= SCAN_MAX_CONTRACTION]


def self_check() -> None:
    """Check the oracle against the solver where both are exact; raise if not.

    With r = 1 the density phi_q(F) is constant, so the solution is resolved
    to the quadrature floor; Lambda_1 must match its closed form.
    """
    inst = Instance(2.5, 0.5, 3.5, 1.0, 1.0, 1.0)
    pb = inst.problem(128)
    err = inst.sup_error(picard_solve(pb).solution)
    if not err <= 1e-9:
        raise RuntimeError(f"oracle self-check: r = 1 error {err:.3e} > 1e-9 at N = 128")
    for inst in REFINE:
        gap = abs(lambda1(inst.problem(64)) - inst.lambda1())
        if not gap <= 1e-8:
            raise RuntimeError(f"oracle self-check: Lambda_1 off by {gap:.3e} for {inst}")
