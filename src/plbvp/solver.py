"""Grid evaluation of the kernel integral operator and its fixed-point iteration.

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
blocks of rows.

A :class:`Problem` builds one operator plan per partition and shares it
between the solve, every :func:`apply_operator` call and the verifier.  The
plan keeps the constants of the operator on the partition: the rule, which
also fixes the panel widths, their PCHIP weights and the PCHIP cell and
offsets s, s^2, s^3 of each of its sample points, and a(t) at the nodes.
One application then evaluates f at the nodes, integrates the density panel
by panel and evaluates the PCHIP of F at the sample points without a search,
with values bit for bit those of ``cumulative`` and ``GridFunction``.  The
plan also keeps its last application, the nodal values and their I^beta
rows, and hands the rows out again for the same values: the verification of
a solve's own solution applies the operator no more.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .exprlang import Expr
from .greens import KernelParams
from .plaplacian import conjugate, phi
from .quadrature import FixedPoints, GridFunction, Partition, jacobi_rule, panel_rule

__all__ = [
    "Discretization",
    "Problem",
    "SolveReport",
    "SolverError",
    "SolverSettings",
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

# Entries of each array that holds KernelAssembly's blocks: 3.75 MiB of
# float64.  numpy asks the kernel for transparent huge pages for arrays of
# 4 MiB or more, and where the kernel compacts memory to find them (THP
# defrag "madvise"), the first writes stall: after a refinement loop, one
# array for a 2048-panel rule took 108-135 ms to build, arrays of 3.75 MiB
# 67-99 ms.  Freed arrays this large also raise glibc's heap trim threshold
# above a 512-panel rule (5 MB), so that the rules of a refinement from 64
# to 512 panels reuse their pages: none is faulted in again, against about
# 1,400 pages per refinement with arrays of 2 MiB.
STORE_ENTRIES = 15 << 15

# Lattice of the (H1)-(H2) nonnegativity checks and the theorem checks, and
# the float noise granted to a sampled inequality or a nonnegative iterate.
LATTICE = 201
WIDE_U_MAX = 100.0
SAMPLING_SLACK = 1e-12

# Differences of iterates and residuals that picard_solve's Anderson step
# mixes.  Over 91 scan instances at 128 panels, memory 2 took 509 iterations
# in all, memory 3 took 528 and memory 5 took 552.
MEMORY = 2


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
        fvals = exprlang.evaluate(self.f, t=ts[:, None], u=us[None, :])
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

    def _plan(self, partition: Partition) -> "_Plan":
        """The operator plan on partition (:class:`_Plan`).

        It is built on first use and kept on the problem, keyed by the
        partition (the same object, or equal nodes), so that the solve,
        every operator application and the verification on one partition
        share one plan; only the latest plan is kept.  ``_kept_plan`` is not
        a field: equality, hashing and repr ignore it, and pickling and
        copying leave it out.
        """
        plan = self.__dict__.get("_kept_plan")
        if plan is None or not (plan.partition is partition or np.array_equal(
                plan.partition.nodes, partition.nodes)):
            plan = _Plan(self, partition)
            object.__setattr__(self, "_kept_plan", plan)
        return plan

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_kept_plan"}

    def density(self, u: GridFunction) -> GridFunction:
        """Sample a(t) f(t, u(t)) at the partition nodes."""
        ts = u.partition.nodes
        return u.with_values(_density(self.f, exprlang.evaluate(self.a, t=ts), ts, u.values))


def _density(f: Expr, a_nodes, ts: np.ndarray, values: np.ndarray) -> np.ndarray:
    return a_nodes * exprlang.evaluate(f, t=ts, u=np.maximum(values, 0.0))


@dataclass(frozen=True)
class SolverSettings:
    """Controls of :func:`picard_solve`.

    tol bounds both the last gap and the residual; damping is the mixing
    parameter beta of the Anderson step (memory MEMORY = 2; Walker & Ni,
    SIAM J. Numer. Anal. 49, 2011), and with no history the step is the
    damped Picard step (1 - beta) u + beta A u.
    """

    tol: float = 1e-10
    max_iter: int = 80
    damping: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")


@dataclass
class SolveReport:
    """Outcome of a fixed-point run; damping_used is its mixing parameter."""

    solution: GridFunction
    iterations: int
    successive_diffs: list
    residual: float
    converged: bool
    damping_used: float
    # The existence theorems guarantee a fixed point but prescribe no
    # iteration, so convergence of the mixed iteration is heuristic.  A
    # contraction certificate for the same problem makes the fixed point
    # unique, and plain Picard iteration converge to it geometrically.
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
    of its last tail cell, laid out one after another in arrays of up to
    STORE_ENTRIES entries.  The build raises only positive distances to
    beta - 1 and writes the zeros directly.  The rule also places its sample points on the
    partition once (:class:`plbvp.quadrature.FixedPoints`), so that
    :meth:`integrand` samples the running integral of a nodal density
    without a search.  A :class:`Problem` builds one rule per partition and
    reuses it.
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
        # rows t_1..t_N take beta = alpha, the rows for 1 and eta alpha - 1;
        # scaled[beta] is the Gauss weights over Gamma(beta)
        scaled = {}
        for rows, beta in ((slice(None, -2), alpha), (slice(-2, None), alpha - 1.0)):
            scale = 1.0 / math.gamma(beta)
            scaled[beta] = scale * w
            xj, wj = jacobi_rule(m, beta - 1.0)
            tail_x[rows] = lo[rows, None] + half[rows, None] * (1.0 + xj)
            tail_w[rows] = scale * half[rows, None] ** beta * wj
        # The last block also takes the C0 rows and a one-row remainder, and
        # every block has a multiple of 4 columns.  Then each row's products
        # are summed in the order of one product with the whole matrix, so
        # blocking changes no bit of the result: OpenBLAS takes rows and
        # columns in fours, and numpy multiplies a one-row matrix as a dot
        # product.
        spans = [(r0, r0 + BLOCK_ROWS if r0 + BLOCK_ROWS < taus.size - 1 else taus.size)
                 for r0 in range(0, taus.size - 1, BLOCK_ROWS)]
        widths = [min(-(-m * int(tail[r0:r1].max()) // 4) * 4, x.size) for r0, r1 in spans]
        sizes = [(r1 - r0) * cols for (r0, r1), cols in zip(spans, widths)]
        # consecutive blocks share an array while they fit in STORE_ENTRIES
        stores = []
        for size in sizes:
            if not stores or stores[-1] + size > STORE_ENTRIES:
                stores.append(0)
            stores[-1] += size
        stores = iter(stores)
        blocks, store, start = [], np.empty(0), 0
        for (r0, r1), cols, size in zip(spans, widths, sizes):
            if start + size > store.size:
                store, start = np.empty(next(stores)), 0
            block = store[start:start + size].reshape(r1 - r0, cols)
            start += size
            np.subtract(taus[r0:r1, None], x[None, :cols], out=block)
            # Left of the block's first tail cell every tau - s is positive.
            # From there on the distances are taken as |tau - s|, not clipped
            # at 0: pow is several times slower on 0 than on a positive base,
            # and gives nan on a negative one.  Those entries are zeroed
            # below.  The first tail cell is the smallest tail's, since the
            # last block's taus (t_N, 1, eta) are not monotone.
            ends = m * tail[r0:r1, None]  # first column of each row's tail cell
            first = int(ends.min())
            stair = block[:, first:]
            np.abs(stair, out=stair)
            split = max(min(taus.size - 2, r1) - r0, 0)  # node rows come first
            for part, beta in ((block[:split], alpha), (block[split:], alpha - 1.0)):
                np.power(part, beta - 1.0, out=part)
                part *= scaled[beta][:cols]
            # the Gauss-Jacobi rule replaces the shared points of a row's
            # tail cell, and the cells right of it lie above tau
            stair[np.arange(first, cols) >= ends] = 0.0
            blocks.append(block)
        self._blocks = blocks
        self._shared = x.size
        self._tail_w = tail_w
        self._points = np.concatenate([x, tail_x.ravel()])
        self._at_points = FixedPoints(nodes, self._points)

    def integrand(self, q: float, h: np.ndarray) -> np.ndarray:
        """phi_q(F) at the sample points, where F(s) = int_0^s of the PCHIP
        of the nodal values h: ``apply_to(lambda s: phi(q, F(s)))`` with
        ``F = cumulative(h)``, bit for bit, from the cells and offsets of the
        points fixed at construction."""
        return phi(q, self._at_points.running_integral(h))

    def _integrals(self, g) -> np.ndarray:
        """I^beta g at every target: t_1..t_N (beta = alpha), then 1 and eta
        (beta = alpha - 1)."""
        if isinstance(g, np.ndarray):
            samples = g
        else:
            samples = np.asarray(g(self._points), dtype=float)
        shared = samples[:self._shared]
        tails = samples[self._shared:].reshape(self._tail_w.shape)
        rows = np.concatenate([b @ shared[:b.shape[1]] for b in self._blocks])
        return rows + np.sum(self._tail_w * tails, axis=1)

    def apply_to(self, g) -> np.ndarray:
        """Values of int_0^1 K(t_i, s) g(s) ds = C0 - I^alpha g(t_i) at every
        partition node.

        Here and in :meth:`_integrals`, g is a callable on arrays or the
        array of its samples that :meth:`integrand` returns."""
        return _kernel_values(self._integrals(g))


def _at_nodes(rows: np.ndarray) -> np.ndarray:
    """I^alpha g(t_i) = int_0^t_i (t_i - s)^(alpha-1) g(s) ds / Gamma(alpha)
    at every partition node, from the rows of KernelAssembly._integrals."""
    return np.concatenate([[0.0], rows[:-2]])


def _kernel_values(rows: np.ndarray) -> np.ndarray:
    """C0 - I^alpha g at the nodes, from the rows of KernelAssembly._integrals."""
    c0 = rows[-3] + rows[-2] - rows[-1]
    return c0 - _at_nodes(rows)


class _Plan:
    """Everything about a problem's operator on one partition that does not
    depend on the iterate, and its last application.

    The plan keeps the rule (:class:`KernelAssembly`, with the panel widths,
    their PCHIP weights and the PCHIP cell and offsets s, s^2, s^3 of each of
    its sample points) and a(t) at the nodes.  :meth:`rows` remembers the
    nodal values it was last given and their I^beta rows, and returns those
    rows again for equal values (bit for bit), so that the verification of a
    solve's own solution does not apply the operator once more.
    """

    def __init__(self, pb: Problem, partition: Partition):
        self.partition = partition
        self.rule = KernelAssembly(pb.kernel_params, partition,
                                   pb.discretization.points_per_panel)
        self.a_nodes = exprlang.evaluate(pb.a, t=partition.nodes)
        self._f = pb.f
        self._q = pb.q
        self._last = (None, None)

    def rows(self, values: np.ndarray) -> np.ndarray:
        """I^beta phi_q(F) at every target of the rule (read-only), with
        F = int_0^s a f(., u) for the nodal values of u."""
        last, rows = self._last
        if last is not None and last.tobytes() == values.tobytes():
            return rows
        density = _density(self._f, self.a_nodes, self.partition.nodes, values)
        rows = self.rule._integrals(self.rule.integrand(self._q, density))
        rows.setflags(write=False)
        self._last = (np.array(values), rows)
        return rows


def kernel_route(kp: KernelParams, q: float, h: GridFunction,
                 points: int = 4) -> GridFunction:
    """Solution of the BVP with source density h via the kernel representation.

    Computes int_0^1 K(t, s) phi_q(F(s)) ds with F = cumulative(h) at the
    partition nodes of h.
    """
    rule = KernelAssembly(kp, h.partition, points)
    return h.with_values(rule.apply_to(rule.integrand(q, h.values)))


def apply_operator(pb: Problem, u: GridFunction) -> GridFunction:
    """One application of the integral operator A to a nonnegative iterate."""
    if float(np.min(u.values)) < -SAMPLING_SLACK:
        raise SolverError(
            f"iterate is negative (min {float(np.min(u.values))}); "
            "the operator is only defined on the nonnegative cone")
    return u.with_values(_kernel_values(pb._plan(u.partition).rows(u.values)))


def picard_solve(pb: Problem, u0: GridFunction | None = None,
                 tol: float = SolverSettings.tol, max_iter: int = SolverSettings.max_iter,
                 damping: float = SolverSettings.damping) -> SolveReport:
    """Fixed-point iteration for u = A u, Anderson-mixed (type II, Walker & Ni,
    SIAM J. Numer. Anal. 49, 2011) and kept on the nonnegative cone.

    With iterate x, residual f = A x - x and the last MEMORY differences dX
    and dF of iterates and residuals, the step is

        x+ = max(x + beta f - (dX + beta dF) gamma, 0),
        gamma = argmin ||f - dF gamma||_2,

    with beta = damping.  The first step, with no history, is the damped
    Picard step x + beta (A x - x).  Convergence requires both the
    successive sup-norm gap and the residual sup|u - A u| to fall below tol.
    Non-convergence within max_iter returns a report with converged = False
    rather than raising.  So does an A x that is not finite, or an f that
    overflows at the iterate (the iterate grew without bound): the solve
    stops at that iteration with residual = inf and keeps the last iterate
    whose image was finite.
    """
    SolverSettings(tol, max_iter, damping)  # range checks
    if u0 is None:
        u0 = GridFunction.constant(pb.partition(), 0.0)
    if float(np.min(u0.values)) < -SAMPLING_SLACK:
        raise SolverError("u0 must be nonnegative")

    plan = pb._plan(u0.partition)

    def residual_at(v):
        """(A v - v, its sup norm), or (None, inf) where f overflows at v."""
        try:
            r = _kernel_values(plan.rows(v)) - v
        except exprlang.ExprOverflowError:
            return None, math.inf
        return r, float(np.max(np.abs(r)))

    x = u0.values
    dxs: list[np.ndarray] = []
    dfs: list[np.ndarray] = []
    diffs: list[float] = []
    converged = False
    iterations = 0
    # an A x that overflows makes the residual non-finite, which ends the
    # solve; numpy's warnings are silenced here once, not in each application
    with np.errstate(over="ignore", invalid="ignore"):
        f, residual = residual_at(x)
        while math.isfinite(residual) and iterations < max_iter:
            iterations += 1
            step = x + damping * f
            if dxs:
                dx, df = np.column_stack(dxs), np.column_stack(dfs)
                gamma = np.linalg.lstsq(df, f, rcond=None)[0]
                step -= (dx + damping * df) @ gamma
            new = np.maximum(step, 0.0)
            f_new, residual = residual_at(new)
            if not math.isfinite(residual):
                break
            gap = float(np.max(np.abs(new - x)))
            diffs.append(gap)
            dxs = (dxs + [new - x])[-MEMORY:]
            dfs = (dfs + [f_new - f])[-MEMORY:]
            x, f = new, f_new
            if gap <= tol and residual <= tol:
                converged = True
                break
    if not math.isfinite(residual):
        residual = math.inf
    return SolveReport(
        solution=u0.with_values(x),
        iterations=iterations,
        successive_diffs=diffs,
        residual=residual,
        converged=converged,
        damping_used=damping,
    )
