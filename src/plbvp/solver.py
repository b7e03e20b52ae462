"""Grid evaluation of the kernel integral operator and Picard iteration.

The fixed-point operator maps a nonnegative grid function u to

    (A u)(t) = int_0^1 K(t, s) phi_q( int_0^s a(tau) f(tau, u(tau)) dtau ) ds.

The inner integral is the running integral of the sampled density a f(., u)
(see :func:`plbvp.quadrature.cumulative`).  The outer integral follows from
the kernel identity

    int_0^1 K(t, s) g(s) ds = C0 - I^alpha g(t),
    C0 = I^alpha g(1) + I^(alpha-1) g(1) - I^(alpha-1) g(eta),

with I^beta the Riemann-Liouville fractional integral, so the operator needs
one quadrature of I^beta only.  :class:`KernelAssembly` holds it as a fixed
product-integration rule on the partition, which makes repeated
applications inside the Picard loop one matrix-vector product.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .exprlang import Expr
from .greens import KernelParams
from .plaplacian import conjugate, phi
from .quadrature import GridFunction, Partition, cumulative, jacobi_rule, panel_rule

__all__ = [
    "Discretization",
    "Problem",
    "SolveReport",
    "SolverError",
    "KernelAssembly",
    "apply_operator",
    "kernel_route",
    "picard_solve",
]

# Fewest Gauss points per cell that KernelAssembly uses, whatever
# points_per_panel says (see Discretization).
KERNEL_MIN_POINTS = 6
# Geometric refinement levels of the first panel toward s = 0, where
# g = phi_q(F) behaves like s^(r (q - 1)).  For g = s^0.2 at 128 to 1024
# panels, 8 levels leave errors up to 9e-9; 20 reach the 3e-12 floor set
# by the other cells.
ORIGIN_LEVELS = 20

# Lattice over which (H1)-(H2) nonnegativity of f and a is checked at
# construction time.
VALIDATION_LATTICE_T = 201
VALIDATION_U_MAX = 100.0
NEGATIVITY_SLACK = -1e-12


class SolverError(RuntimeError):
    """Raised when iteration leaves the admissible cone."""


@dataclass(frozen=True)
class Discretization:
    """Partition and quadrature controls for one problem.

    points_per_panel is the Gauss points per panel of the theorem checks'
    quadratures, used as set.  The fractional-integral operator
    (:class:`KernelAssembly`) uses max(points_per_panel, KERNEL_MIN_POINTS)
    = max(points_per_panel, 6).  With 4 points the operator is off by 1.0e-7
    on the random densities of the 1e-8 route-equivalence gate, all of it in
    C0 through the (eta - s)^(alpha - 2) term.  The default stays 4 because
    6 slows the theorem checks on ex43: lambda2 from 6 to 24 ms and
    check_krasnoselskii from 35 to 87 ms (2-vCPU Xeon).
    """

    panels: int = 256
    points_per_panel: int = 4
    grading: float = 2.0
    interpolation: str = "cubic"

    def __post_init__(self):
        if self.panels < 4:
            raise ValueError("panels must be >= 4")
        if self.points_per_panel < 2:
            raise ValueError("points_per_panel must be >= 2")
        if not (math.isfinite(self.grading) and self.grading >= 1.0):
            raise ValueError("grading exponent must be >= 1")
        if self.interpolation not in ("cubic", "linear"):
            raise ValueError(f"unknown interpolation {self.interpolation!r}")

    def partition(self) -> Partition:
        return Partition.graded(self.panels, self.grading)

    def refined(self, factor: int = 2) -> "Discretization":
        return Discretization(self.panels * factor, self.points_per_panel,
                              self.grading, self.interpolation)


@dataclass(frozen=True)
class Problem:
    """One boundary value problem instance.

    alpha in (2, 3] is the fractional order, eta in (0, 1) the interior
    boundary point, p > 1 the p-Laplacian exponent; a references only t and
    f references t and u.  Nonnegativity of a and f is enforced by sampling
    over a validation lattice (t in [0, 1], u in [0, VALIDATION_U_MAX]).
    """

    alpha: float
    eta: float
    p: float
    a: Expr
    f: Expr
    discretization: Discretization = field(default_factory=Discretization)

    def __post_init__(self):
        KernelParams(self.alpha, self.eta)  # range checks
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise ValueError(f"p must be > 1, got {self.p!r}")
        extra = exprlang.variables_of(self.a) - {"t"}
        if extra:
            raise ValueError(f"a(t) may reference only t, found {sorted(extra)}")
        extra = exprlang.variables_of(self.f) - {"t", "u"}
        if extra:
            raise ValueError(f"f(t, u) may reference only t and u, found {sorted(extra)}")
        ts = np.linspace(0.0, 1.0, VALIDATION_LATTICE_T)
        avals = np.asarray(exprlang.evaluate(self.a, t=ts), dtype=float)
        avals = np.broadcast_to(avals, ts.shape)
        if np.min(avals) < NEGATIVITY_SLACK:
            i = int(np.argmin(avals))
            raise ValueError(f"a(t) is negative: a({ts[i]}) = {avals[i]}")
        us = np.linspace(0.0, VALIDATION_U_MAX, VALIDATION_LATTICE_T)
        tg, ug = np.meshgrid(ts, us, indexing="ij")
        fvals = np.broadcast_to(np.asarray(exprlang.evaluate(self.f, t=tg, u=ug),
                                           dtype=float), tg.shape)
        if np.min(fvals) < NEGATIVITY_SLACK:
            i, j = np.unravel_index(int(np.argmin(fvals)), fvals.shape)
            raise ValueError(
                f"f(t, u) is negative: f({ts[i]}, {us[j]}) = {fvals[i, j]}")

    @property
    def q(self) -> float:
        return conjugate(self.p)

    @property
    def kernel_params(self) -> KernelParams:
        return KernelParams(self.alpha, self.eta)

    def partition(self) -> Partition:
        return self.discretization.partition()

    def density(self, u: GridFunction) -> GridFunction:
        """Sample a(t) f(t, u(t)) at the partition nodes."""
        ts = u.partition.nodes
        uv = np.maximum(u.values, 0.0)
        av = np.broadcast_to(np.asarray(exprlang.evaluate(self.a, t=ts), float), ts.shape)
        fv = np.broadcast_to(np.asarray(exprlang.evaluate(self.f, t=ts, u=uv), float),
                             ts.shape)
        return u.with_values(av * fv)


@dataclass
class SolveReport:
    """Outcome of a Picard run."""

    solution: GridFunction
    iterations: int
    successive_diffs: list
    residual: float
    converged: bool
    damping_used: float
    # The existence theorems guarantee a fixed point but prescribe no
    # iteration; convergence of damped Picard is heuristic unless a
    # contraction certificate holds for the same problem.
    convergence_basis: str = "heuristic-picard"


class KernelAssembly:
    """Product-integration rule for t -> int_0^1 K(t, s) g(s) ds at the nodes.

    Every application samples g once, at points fixed by (alpha, eta,
    partition) and shared by all rows:

    - m Gauss-Legendre points on every cell, where the cells are the
      partition panels with the first panel split geometrically toward
      s = 0 (ORIGIN_LEVELS levels);
    - for each target tau, an m-point Gauss-Jacobi rule for the weight
      (tau - s)^(beta - 1) on the last cell below tau.

    The targets are the nodes t_1..t_N with beta = alpha, and t = 1 and
    t = eta with beta = alpha - 1, which give C0.  Each target's row of the
    weight matrix holds the Gauss weights times the kernel
    (tau - s)^(beta - 1) / Gamma(beta) on the cells wholly below tau.
    m is max(points, KERNEL_MIN_POINTS).
    """

    def __init__(self, kp: KernelParams, partition: Partition,
                 points: int = KERNEL_MIN_POINTS):
        self.kp = kp
        self.partition = partition
        m = max(points, KERNEL_MIN_POINTS)
        nodes = partition.nodes
        alpha = kp.alpha
        edges = np.concatenate([[0.0], nodes[1] * 0.5 ** np.arange(ORIGIN_LEVELS, 0, -1),
                                nodes[1:]])
        x, w = panel_rule(edges, m)

        taus = np.concatenate([nodes[1:], [1.0, kp.eta]])
        tail = np.searchsorted(edges, taus) - 1  # cell where [0, tau] ends
        lo = edges[tail]
        half = 0.5 * (taus - lo)
        weights = taus[:, None] - x[None, :]
        np.maximum(weights, 0.0, out=weights)
        tail_x = np.empty((taus.size, m))
        tail_w = np.empty((taus.size, m))
        # rows t_1..t_N take beta = alpha, the rows for 1 and eta alpha - 1
        for rows, beta in ((slice(None, -2), alpha), (slice(-2, None), alpha - 1.0)):
            scale = 1.0 / math.gamma(beta)
            block = weights[rows]
            np.power(block, beta - 1.0, out=block)
            block *= scale * w
            xj, wj = jacobi_rule(m, beta - 1.0)
            tail_x[rows] = lo[rows, None] + half[rows, None] * (1.0 + xj)
            tail_w[rows] = scale * half[rows, None] ** beta * wj
        # the Gauss-Jacobi rule replaces the shared points of the tail cell
        weights[np.arange(taus.size)[:, None], tail[:, None] * m + np.arange(m)] = 0.0
        self._weights = weights
        self._tail_w = tail_w
        self._points = np.concatenate([x, tail_x.ravel()])

    def _integrals(self, g) -> np.ndarray:
        """I^beta g at every target: t_1..t_N (beta = alpha), then 1 and eta
        (beta = alpha - 1)."""
        samples = np.asarray(g(self._points), dtype=float)
        shared = self._weights.shape[1]
        tails = samples[shared:].reshape(self._tail_w.shape)
        return self._weights @ samples[:shared] + np.sum(self._tail_w * tails, axis=1)

    def fractional_integral(self, g) -> np.ndarray:
        """I^alpha g(t_i) = int_0^t_i (t_i - s)^(alpha-1) g(s) ds / Gamma(alpha)
        at every partition node."""
        return np.concatenate([[0.0], self._integrals(g)[:-2]])

    def apply_to(self, g) -> np.ndarray:
        """Values of int_0^1 K(t_i, s) g(s) ds = C0 - I^alpha g(t_i) at every
        partition node."""
        rows = self._integrals(g)
        c0 = rows[-3] + rows[-2] - rows[-1]
        return c0 - np.concatenate([[0.0], rows[:-2]])


def kernel_route(kp: KernelParams, q: float, h: GridFunction,
                 points: int = KERNEL_MIN_POINTS) -> GridFunction:
    """Solution of the BVP with source density h via the kernel representation.

    Computes int_0^1 K(t, s) phi_q(F(s)) ds with F = cumulative(h) at the
    partition nodes of h.
    """
    F = cumulative(h)
    assembly = KernelAssembly(kp, h.partition, points)
    values = assembly.apply_to(lambda s: phi(q, F(s)))
    return h.with_values(values)


def apply_operator(pb: Problem, u: GridFunction) -> GridFunction:
    """One application of the integral operator A to a nonnegative iterate."""
    if float(np.min(u.values)) < NEGATIVITY_SLACK:
        raise SolverError(
            f"iterate is negative (min {float(np.min(u.values))}); "
            "the operator is only defined on the nonnegative cone")
    return kernel_route(pb.kernel_params, pb.q, pb.density(u),
                        points=pb.discretization.points_per_panel)


def picard_solve(pb: Problem, u0: GridFunction | None = None, tol: float = 1e-10,
                 max_iter: int = 80, damping: float = 1.0) -> SolveReport:
    """Damped Picard iteration u_{k+1} = (1 - w) u_k + w A u_k.

    Convergence requires both the successive sup-norm gap and the residual
    sup|u - A u| to fall below tol.  A gap sequence that stops contracting
    switches the damping to 0.5 once (plain Picard may cycle when no
    contraction bound holds).  Non-convergence within max_iter returns a
    report with converged = False rather than raising.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")

    partition = pb.partition()
    interpolation = pb.discretization.interpolation
    if u0 is None:
        u0 = GridFunction.constant(partition, 0.0, interpolation)
    if float(np.min(u0.values)) < NEGATIVITY_SLACK:
        raise SolverError("u0 must be nonnegative")

    kp = pb.kernel_params
    q = pb.q
    assembly = KernelAssembly(kp, u0.partition, pb.discretization.points_per_panel)

    def apply_a(grid: GridFunction) -> GridFunction:
        F = cumulative(pb.density(grid))
        return grid.with_values(assembly.apply_to(lambda s: phi(q, F(s))))

    omega = damping
    diffs: list[float] = []
    u = u0
    au = apply_a(u)
    residual = float(np.max(np.abs(au.values - u.values)))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_values = (1.0 - omega) * u.values + omega * au.values
        if float(np.min(new_values)) < NEGATIVITY_SLACK:
            raise SolverError(
                f"iteration {iterations} left the nonnegative cone "
                f"(min {float(np.min(new_values))})")
        new = u.with_values(np.maximum(new_values, 0.0))
        gap = float(np.max(np.abs(new.values - u.values)))
        diffs.append(gap)
        au_new = apply_a(new)
        res_new = float(np.max(np.abs(au_new.values - new.values)))
        u, au, residual = new, au_new, res_new
        if gap <= tol and res_new <= tol:
            converged = True
            break
        # plain Picard can cycle when no contraction bound holds; a gap
        # sequence that stopped contracting (growing or ~constant over two
        # steps) switches to averaged iterates once
        if omega > 0.5 and len(diffs) >= 3 and diffs[-1] >= 0.95 * diffs[-3]:
            omega = 0.5
    return SolveReport(
        solution=u,
        iterations=iterations,
        successive_diffs=diffs,
        residual=residual,
        converged=converged,
        damping_used=omega,
    )
