"""Composite Gauss-Legendre quadrature on graded panels, and grid functions.

``integrate`` builds a fresh panel layout on [lo, hi] with polynomial
grading toward both ends; it is the workhorse for integrals of
closed-form integrands.  ``panel_rule`` places Gauss-Legendre points on
given panel edges, and ``jacobi_rule`` gives the Gauss-Jacobi rule for the
weight (1 - x)^a on [-1, 1]; together they make the product-integration
rule of :class:`plbvp.solver.KernelAssembly`.  :class:`GridFunction`
interpolates by the one rule of this package, a numpy Fritsch-Carlson PCHIP
(SIAM J. Numer. Anal. 17, 1980) with the slopes of Moler's ``pchip``, and
:func:`cumulative` is its exact integral.  :class:`FixedPoints` evaluates
such cubics at points placed on the partition once, which is how
``KernelAssembly`` samples the running integral in every operator
application.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "QuadratureError",
    "Partition",
    "GridFunction",
    "FixedPoints",
    "graded_edges",
    "jacobi_rule",
    "panel_rule",
    "integrate",
    "cumulative",
]

DEFAULT_PANELS = 256
DEFAULT_POINTS = 4
# Grading exponent of graded_edges, the panel layout of integrate() and of
# lambda2.  Exponent 3 keeps the error of endpoint-singular integrands like
# (1-s)^(alpha-2) below 1e-10 uniformly over alpha in (2, 3]; exponent 2
# degrades to ~2e-8 near alpha = 2.1.
DEFAULT_GRADING = 3.0


class QuadratureError(RuntimeError):
    """Raised when an integrand produces a non-finite sample."""


def _legval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Legendre series with coefficients c at x, by Clenshaw's recurrence
    in the order of operations of numpy's ``legval``."""
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1 = c[-2], c[-1]
    nd = len(c)
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=None)
def _leggauss(points: int):
    """numpy's ``np.polynomial.legendre.leggauss(points)``, bit for bit,
    without importing ``numpy.polynomial``: the eigenvalues of the symmetric
    companion matrix of P_n, one Newton step, and the weights
    1 / (P_{n-1} P_n') scaled, symmetrised and normalised to total 2, each
    step as numpy takes it.  Rules are cached, read-only."""
    if points < 1:
        raise ValueError("points per panel must be >= 1")
    n = points
    c = np.zeros(n + 1)
    c[-1] = 1.0  # P_n
    k = np.arange(n)
    dc = np.where((n - 1 - k) % 2 == 0, 2.0 * k + 1.0, 0.0)  # P_n' = sum (2k+1) P_k
    scl = 1.0 / np.sqrt(2 * k + 1)
    off = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    df = _legval(x, dc)
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def graded_edges(lo: float, hi: float, panels: int) -> np.ndarray:
    """Panel edges on [lo, hi], clustered toward both ends.

    The interval is split at its midpoint and each half is graded toward
    its outer end, which absorbs endpoint derivative singularities on
    either side.
    """
    if panels < 1:
        raise ValueError("panel count must be >= 1")
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    nl = max(panels // 2, 1)
    nr = max(panels - nl, 1)
    mid = 0.5 * (lo + hi)
    left = lo + (mid - lo) * np.linspace(0.0, 1.0, nl + 1) ** DEFAULT_GRADING
    right = mid + (hi - mid) * (
        1.0 - (1.0 - np.linspace(0.0, 1.0, nr + 1)) ** DEFAULT_GRADING)
    return np.concatenate([left, right[1:]])


def panel_rule(edges: np.ndarray, points: int):
    """Nodes and weights of the points-point Gauss-Legendre rule on every
    panel [edges[k], edges[k + 1]], panel by panel."""
    x, w = _leggauss(points)
    mid = 0.5 * (edges[1:] + edges[:-1])
    hw = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + hw[:, None] * x[None, :]).ravel()
    weights = (hw[:, None] * w[None, :]).ravel()
    return nodes, weights


# The Jacobi exponents are floats, one or two per problem, so the cache of
# jacobi_rule is bounded, unlike that of _leggauss.
@lru_cache(maxsize=128)
def jacobi_rule(points: int, a: float):
    """Gauss-Jacobi nodes and weights for int_{-1}^{1} (1 - x)^a g(x) dx, a > -1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    monic Jacobi polynomials P^(a, 0), and the weights are the squared first
    components of its eigenvectors times the weight's total mass.  Rules are
    cached per (points, a), read-only, as Gauss-Legendre rules are.
    """
    if points < 1:
        raise ValueError("points must be >= 1")
    if not a > -1.0:
        raise ValueError(f"Jacobi exponent must be > -1, got {a!r}")
    n = np.arange(1, points, dtype=float)
    s = 2.0 * n + a
    diag = np.concatenate([[-a / (a + 2.0)], -a * a / (s * (s + 2.0))])
    off = 2.0 * n * (n + a) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 ** (a + 1.0) / (a + 1.0) * vecs[0] ** 2
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _sample(f, x: np.ndarray) -> np.ndarray:
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        y = np.broadcast_to(y, x.shape)
    if not np.all(np.isfinite(y)):
        bad = int(np.flatnonzero(~np.isfinite(np.atleast_1d(y)))[0])
        raise QuadratureError(
            f"integrand returned a non-finite value at sample point {float(x.flat[bad])!r}"
        )
    return y


def integrate(f, lo: float, hi: float, panels: int = DEFAULT_PANELS,
              points: int = DEFAULT_POINTS) -> float:
    """Composite Gauss-Legendre integral of f over [lo, hi].

    f is called once with the full ndarray of sample points and must return
    an array (or a scalar, for constants).  A non-finite sample aborts with
    a diagnostic naming the offending point.
    """
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if hi == lo:
        return 0.0
    x, w = panel_rule(graded_edges(lo, hi, panels), points)
    return float(w @ _sample(f, x))


@dataclass(frozen=True)
class Partition:
    """Strictly increasing nodes from 0 to 1 defining the panel structure."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 5:
            raise ValueError("partition needs at least 4 panels (5 nodes)")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError("partition must span [0, 1] exactly")
        increasing = np.diff(nodes) > 0.0  # False at a nan node too
        if not np.all(increasing):
            i = int(np.argmin(increasing))
            raise ValueError("partition nodes must be strictly increasing: "
                             f"nodes[{i}:{i + 2}] = {nodes[i:i + 2].tolist()}")
        nodes = nodes.copy()
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @staticmethod
    def graded(panels: int = DEFAULT_PANELS, grading: float = 2.0) -> "Partition":
        """Nodes 1 - (1 - i/n)^grading, clustered toward s = 1."""
        if panels < 4:
            raise ValueError("partition needs at least 4 panels")
        u = np.linspace(0.0, 1.0, panels + 1)
        nodes = 1.0 - (1.0 - u) ** grading
        nodes[0], nodes[-1] = 0.0, 1.0
        return Partition(nodes)


def _pchip_weights(h: np.ndarray) -> tuple:
    """The part of :func:`_pchip_slopes` that depends on the panel widths h
    alone: the weights 2 h[k+1] + h[k] and h[k+1] + 2 h[k] of the harmonic
    mean, their sum, and the two widths at either end as floats."""
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    return w1, w2, w1 + w2, h[[0, 1, -2, -1]].tolist()


def _secants(h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Secant slopes of the node values y on panels of widths h."""
    return (y[1:] - y[:-1]) / h


def _sign(x: float) -> float:
    """np.sign of a float: -1, 0 or 1, and nan for nan."""
    return x if x != x else float((x > 0.0) - (x < 0.0))


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point slope at an end, for the end panel of width h0
    and secant m0 and its neighbour h1, m1, kept shape-preserving."""
    end = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(end) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(end) > 3.0 * abs(m0):
        return 3.0 * m0
    return end


def _pchip_slopes(m: np.ndarray, weights: tuple) -> np.ndarray:
    """Fritsch-Carlson node slopes for the secants m on panels of widths h,
    with weights = _pchip_weights(h): inside, the weighted harmonic mean of
    the neighbouring secants, zero where they change sign or one vanishes;
    at the ends, the one-sided three-point formula kept shape-preserving.

    The mean is taken everywhere, so it divides by a vanishing secant: call
    this where numpy ignores division by zero, invalid results and
    overflow."""
    w1, w2, w12, (h0, h1, hb1, hb0) = weights
    sm = np.sign(m)
    mean = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / w12)
    d = np.empty(m.size + 1)
    d[1:-1] = np.where(sm[:-1] * sm[1:] > 0.0, mean, 0.0)
    d[0] = _end_slope(h0, h1, m.item(0), m.item(1))
    d[-1] = _end_slope(hb0, hb1, m.item(-1), m.item(-2))
    return d


def _running_integral(h: np.ndarray, hh: np.ndarray, y: np.ndarray,
                      d: np.ndarray) -> np.ndarray:
    """Integral from 0 to each node of the cubic Hermite interpolant with node
    values y and slopes d on panels of widths h, hh = h * h: a panel
    contributes h (y0 + y1) / 2 + h^2 (d0 - d1) / 12."""
    panel = 0.5 * (y[1:] + y[:-1]) * h
    panel += hh * (d[:-1] - d[1:]) / 12.0
    out = np.empty(y.size)
    out[0] = 0.0
    np.cumsum(panel, out=out[1:])
    return out


class FixedPoints:
    """Points xi placed once on the partition with nodes x, so that cubics on
    it evaluate there without a search.

    It keeps the panel widths, their squares and their PCHIP weights, the
    cell k of each point and the offsets s, s * s and s * s * s of each
    point from x[k].  Points outside [x[0], x[-1]] fall in the end cells,
    whose cubics extend there.  A caller that knows the cells passes them
    as cell, the k with x[k] <= xi < x[k + 1] that a search would find.
    """

    def __init__(self, x: np.ndarray, xi: np.ndarray, cell: np.ndarray | None = None):
        self.widths = np.diff(x)
        self.squares = self.widths * self.widths
        if cell is None:
            cell = np.clip(np.searchsorted(x, xi, side="right") - 1, 0, self.widths.size - 1)
        self.cell = cell
        s = xi - x[cell]
        self.offsets = (s, s * s, s * s * s)

    @cached_property
    def weights(self) -> tuple:
        return _pchip_weights(self.widths)

    def hermite(self, y: np.ndarray, d: np.ndarray, secant: np.ndarray) -> np.ndarray:
        """Cubic Hermite interpolant with node values y, slopes d and
        secants secant = _secants(widths, y) at the points, in powers of
        the offsets: y[k] + d[k] s + c2[k] s^2 + c3[k] s^3, summed left to
        right in place."""
        h = self.widths
        t = (d[:-1] + d[1:] - 2.0 * secant) / h
        c2 = (secant - d[:-1]) / h - t
        c3 = t / h
        k = self.cell
        s, ss, sss = self.offsets
        out = d[k]
        out *= s
        out += y[k]
        for c, power in ((c2, ss), (c3, sss)):
            term = c[k]
            term *= power
            out += term
        return out

    def running_integral(self, y: np.ndarray) -> np.ndarray:
        """F = int_0^x of the PCHIP of node values y, at the points: the PCHIP
        of the node values of :func:`cumulative`, without building a
        :class:`GridFunction`.  F's secants serve both its slopes and its
        cubics.  Numpy's error state is the caller's, as for
        :func:`_pchip_slopes`."""
        h, weights = self.widths, self.weights
        F = _running_integral(h, self.squares, y, _pchip_slopes(_secants(h, y), weights))
        m = _secants(h, F)
        return self.hermite(F, _pchip_slopes(m, weights), m)


@dataclass(frozen=True)
class GridFunction:
    """Values on a partition, interpolated by the shape-preserving piecewise
    cubic (PCHIP).

    The PCHIP's cubic on each cell is monotone, since every slope lies
    between 0 and 3 times the secants beside it (Fritsch and Carlson 1980):
    its extrema lie at the nodes, and nonnegative data stay nonnegative, as
    the p-Laplacian inverse of a cumulative integral of a nonnegative
    density expects.  Instances are immutable and safe to share.
    """

    partition: Partition
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.partition.nodes.shape:
            raise ValueError(
                f"expected {self.partition.nodes.size} values, got {values.size}"
            )
        finite = np.isfinite(values)
        if not np.all(finite):
            i = int(np.argmin(finite))
            raise ValueError("grid function values must be finite: "
                             f"values[{i}] = {float(values[i])!r}")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @staticmethod
    def constant(partition: Partition, value: float) -> "GridFunction":
        return GridFunction(partition, np.full(partition.nodes.size, float(value)))

    @cached_property
    def _pchip(self) -> tuple:
        """The panel widths, the secants and the PCHIP node slopes."""
        h = np.diff(self.partition.nodes)
        m = _secants(h, self.values)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return h, m, _pchip_slopes(m, _pchip_weights(h))

    def __call__(self, x):
        _, m, d = self._pchip
        out = FixedPoints(self.partition.nodes, np.asarray(x, dtype=float)).hermite(
            self.values, d, m)
        return float(out) if np.ndim(x) == 0 else out

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.partition, values)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def cumulative(g: GridFunction) -> GridFunction:
    """Running integral F(x) = int_0^x of the interpolant of g, at the nodes.

    F(0) = 0 and F is nondecreasing whenever g >= 0, by the shape
    preservation of the PCHIP.
    """
    h, _, d = g._pchip
    return GridFunction(g.partition, _running_integral(h, h * h, g.values, d))
