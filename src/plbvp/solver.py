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
product-integration rule on the partition, which makes each application a
matrix-vector product with the lower part of the weight matrix, stored in
blocks of rows.  A :class:`Problem` builds the rule once per partition
(:meth:`Problem.assembly`) and shares it between the Picard loop, every
:func:`apply_operator` call and the verifier.
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

# Geometric refinement levels of the first panel toward s = 0, where
# g = phi_q(F) behaves like s^(r (q - 1)), and of the cell below eta's
# toward eta.  For g = s^0.2 at 128 to 1024 panels and 6 points, 8 levels
# leave errors up to 8e-9; 20 reach the 5e-13 floor set by the other cells.
ORIGIN_LEVELS = 20

# Rows per stored block of KernelAssembly's weights, a multiple of 4 (see
# there).  Blocks of 16 and 64 rows build and apply as fast at 128 to 1024
# panels.
BLOCK_ROWS = 32

# Lattice of the (H1)-(H2) nonnegativity checks and the theorem checks, and
# the float noise granted to a sampled inequality or a nonnegative iterate.
LATTICE = 201
WIDE_U_MAX = 100.0
SAMPLING_SLACK = 1e-12


class SolverError(RuntimeError):
    """Raised when iteration leaves the admissible cone."""


@dataclass(frozen=True)
class Discretization:
    """Partition and quadrature controls for one problem.

    points_per_panel is the Gauss points per cell of the fractional-integral
    operator (:class:`KernelAssembly`) and per panel of the theorem checks'
    quadratures.
    """

    panels: int = 256
    points_per_panel: int = 4
    grading: float = 2.0

    def __post_init__(self):
        if self.panels < 4:
            raise ValueError("panels must be >= 4")
        if self.points_per_panel < 2:
            raise ValueError("points_per_panel must be >= 2")
        if not (math.isfinite(self.grading) and self.grading >= 1.0):
            raise ValueError("grading exponent must be >= 1")

    def partition(self) -> Partition:
        return Partition.graded(self.panels, self.grading)

    def refined(self, factor: int = 2) -> "Discretization":
        return Discretization(self.panels * factor, self.points_per_panel,
                              self.grading)


@dataclass(frozen=True)
class Problem:
    """One boundary value problem instance.

    alpha in (2, 3] is the fractional order, eta in (0, 1) the interior
    boundary point, p > 1 the p-Laplacian exponent; a references only t and
    f references t and u.  Nonnegativity of a and f is enforced by sampling
    over the lattice (t in [0, 1], u in [0, WIDE_U_MAX]).
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
        ts = np.linspace(0.0, 1.0, LATTICE)
        avals = exprlang.evaluate(self.a, t=ts)
        if np.min(avals) < -SAMPLING_SLACK:
            i = int(np.argmin(avals))
            raise ValueError(f"a(t) is negative: a({ts[i]}) = {avals[i]}")
        us = np.linspace(0.0, WIDE_U_MAX, LATTICE)
        tg, ug = np.meshgrid(ts, us, indexing="ij")
        fvals = exprlang.evaluate(self.f, t=tg, u=ug)
        if np.min(fvals) < -SAMPLING_SLACK:
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

    def assembly(self, partition: Partition) -> "KernelAssembly":
        """The fractional-integral rule of this problem on partition.

        It is built on first use and kept on the problem, keyed by the
        partition's nodes, so that the solve, every operator application and
        the verification on one partition share one rule; only the latest
        rule is kept.  ``_assembly`` is not a field: equality, hashing and
        repr ignore it, and pickling and copying leave it out.
        """
        rule = self.__dict__.get("_assembly")
        if rule is None or not np.array_equal(rule.partition.nodes, partition.nodes):
            rule = KernelAssembly(self.kernel_params, partition,
                                  self.discretization.points_per_panel)
            object.__setattr__(self, "_assembly", rule)
        return rule

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_assembly"}

    def density(self, u: GridFunction) -> GridFunction:
        """Sample a(t) f(t, u(t)) at the partition nodes."""
        ts = u.partition.nodes
        uv = np.maximum(u.values, 0.0)
        return u.with_values(exprlang.evaluate(self.a, t=ts)
                             * exprlang.evaluate(self.f, t=ts, u=uv))


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

    - m = points Gauss-Legendre points on every cell, where the cells are
      the partition panels with the first panel split geometrically toward
      s = 0 and the cell below eta's toward eta (ORIGIN_LEVELS levels each),
      where (eta - s)^(alpha - 2) is nearly singular if eta is just above it;
    - for each target tau, an m-point Gauss-Jacobi rule for the weight
      (tau - s)^(beta - 1) on the last cell below tau.

    The targets are the nodes t_1..t_N with beta = alpha, and t = 1 and
    t = eta with beta = alpha - 1, which give C0.  Each target's row of the
    weight matrix holds the Gauss weights times the kernel
    (tau - s)^(beta - 1) / Gamma(beta) on the cells wholly below tau, and
    zeros right of them.  Only the lower part is stored, about half of the
    matrix: blocks of BLOCK_ROWS consecutive rows, each with the columns left
    of its last tail cell.  :meth:`Problem.assembly` builds one rule per
    problem and partition and reuses it.
    """

    def __init__(self, kp: KernelParams, partition: Partition, points: int = 4):
        self.kp = kp
        self.partition = partition
        m = points
        nodes = partition.nodes
        alpha = kp.alpha
        halves = 0.5 ** np.arange(ORIGIN_LEVELS, 0, -1)
        edges = np.concatenate([[0.0], nodes[1] * halves, nodes[1:]])
        k = max(int(np.searchsorted(edges, kp.eta)) - 1, 1)  # last edge below eta
        edges = np.insert(edges, k, edges[k] - (edges[k] - edges[k - 1]) * halves[::-1])
        x, w = panel_rule(edges, m)

        taus = np.concatenate([nodes[1:], [1.0, kp.eta]])
        tail = np.searchsorted(edges, taus) - 1  # cell where [0, tau] ends
        lo = edges[tail]
        half = 0.5 * (taus - lo)
        tail_x = np.empty((taus.size, m))
        tail_w = np.empty((taus.size, m))
        # rows t_1..t_N take beta = alpha, the rows for 1 and eta alpha - 1
        for rows, beta in ((slice(None, -2), alpha), (slice(-2, None), alpha - 1.0)):
            scale = 1.0 / math.gamma(beta)
            xj, wj = jacobi_rule(m, beta - 1.0)
            tail_x[rows] = lo[rows, None] + half[rows, None] * (1.0 + xj)
            tail_w[rows] = scale * half[rows, None] ** beta * wj
        # The last block also takes the C0 rows and a one-row remainder, and
        # every block has a multiple of 4 columns.  Then each row's products
        # are summed in the order of one product with the whole matrix, so
        # blocking changes no bit of the result: OpenBLAS takes rows and
        # columns in fours, and numpy multiplies a one-row matrix as a dot
        # product.
        blocks = []
        for r0 in range(0, taus.size - 1, BLOCK_ROWS):
            r1 = r0 + BLOCK_ROWS if r0 + BLOCK_ROWS < taus.size - 1 else taus.size
            cols = min(-(-m * int(tail[r0:r1].max()) // 4) * 4, x.size)
            block = taus[r0:r1, None] - x[None, :cols]
            np.maximum(block, 0.0, out=block)
            split = max(min(taus.size - 2, r1) - r0, 0)  # node rows come first
            for part, beta in ((block[:split], alpha), (block[split:], alpha - 1.0)):
                scale = 1.0 / math.gamma(beta)
                np.power(part, beta - 1.0, out=part)
                part *= scale * w[:cols]
            # the Gauss-Jacobi rule replaces the shared points of a row's
            # tail cell, as far as the block stores it
            cells = m * tail[r0:r1, None] + np.arange(m)
            i, j = np.nonzero(cells < cols)
            block[i, cells[i, j]] = 0.0
            blocks.append(block)
        self._blocks = blocks
        self._shared = x.size
        self._tail_w = tail_w
        self._points = np.concatenate([x, tail_x.ravel()])

    def _integrals(self, g) -> np.ndarray:
        """I^beta g at every target: t_1..t_N (beta = alpha), then 1 and eta
        (beta = alpha - 1)."""
        samples = np.asarray(g(self._points), dtype=float)
        shared = samples[:self._shared]
        tails = samples[self._shared:].reshape(self._tail_w.shape)
        rows = np.concatenate([b @ shared[:b.shape[1]] for b in self._blocks])
        return rows + np.sum(self._tail_w * tails, axis=1)

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


def _integral_operator(assembly: KernelAssembly, q: float,
                       h: GridFunction) -> GridFunction:
    """int_0^1 K(t, s) phi_q(F(s)) ds at the nodes of h, F = cumulative(h)."""
    F = cumulative(h)
    return h.with_values(assembly.apply_to(lambda s: phi(q, F(s))))


def kernel_route(kp: KernelParams, q: float, h: GridFunction,
                 points: int = 4) -> GridFunction:
    """Solution of the BVP with source density h via the kernel representation.

    Computes int_0^1 K(t, s) phi_q(F(s)) ds with F = cumulative(h) at the
    partition nodes of h.
    """
    return _integral_operator(KernelAssembly(kp, h.partition, points), q, h)


def apply_operator(pb: Problem, u: GridFunction) -> GridFunction:
    """One application of the integral operator A to a nonnegative iterate."""
    if float(np.min(u.values)) < -SAMPLING_SLACK:
        raise SolverError(
            f"iterate is negative (min {float(np.min(u.values))}); "
            "the operator is only defined on the nonnegative cone")
    return _integral_operator(pb.assembly(u.partition), pb.q, pb.density(u))


def picard_solve(pb: Problem, u0: GridFunction | None = None, tol: float = 1e-10,
                 max_iter: int = 80, damping: float = 1.0) -> SolveReport:
    """Damped Picard iteration u_{k+1} = (1 - w) u_k + w A u_k.

    Convergence requires both the successive sup-norm gap and the residual
    sup|u - A u| to fall below tol.  A gap sequence that stops contracting
    switches the damping to 0.5 once (plain Picard may cycle when no
    contraction bound holds).  Non-convergence within max_iter returns a
    report with converged = False rather than raising.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")

    if u0 is None:
        u0 = GridFunction.constant(pb.partition(), 0.0)
    if float(np.min(u0.values)) < -SAMPLING_SLACK:
        raise SolverError("u0 must be nonnegative")

    omega = damping
    diffs: list[float] = []
    u = u0
    au = apply_operator(pb, u)
    residual = float(np.max(np.abs(au.values - u.values)))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_values = (1.0 - omega) * u.values + omega * au.values
        if float(np.min(new_values)) < -SAMPLING_SLACK:
            raise SolverError(
                f"iteration {iterations} left the nonnegative cone "
                f"(min {float(np.min(new_values))})")
        new = u.with_values(np.maximum(new_values, 0.0))
        gap = float(np.max(np.abs(new.values - u.values)))
        diffs.append(gap)
        au_new = apply_operator(pb, new)
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
