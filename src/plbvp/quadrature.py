"""Composite Gauss-Legendre quadrature on graded panels, and grid functions.

``integrate`` builds a fresh panel layout on [lo, hi] with polynomial
grading toward both ends; it is the workhorse for integrals of
closed-form integrands.  ``panel_rule`` places Gauss-Legendre points on
given panel edges, and ``jacobi_rule`` gives the Gauss-Jacobi rule for the
weight (1 - x)^a on [-1, 1]; together they make the product-integration
rule of :class:`plbvp.solver.KernelAssembly`.  :class:`GridFunction`
interpolates by the one rule of this package, a numpy Fritsch-Carlson PCHIP
(SIAM J. Numer. Anal. 17, 1980) with the slopes of Moler's ``pchip``, and
:func:`cumulative` is its exact integral.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "QuadratureError",
    "Partition",
    "GridFunction",
    "graded_edges",
    "gauss_rule",
    "jacobi_rule",
    "panel_rule",
    "integrate",
    "cumulative",
]

DEFAULT_PANELS = 256
DEFAULT_POINTS = 4
# Grading exponent used for panel layouts inside integrate().  Exponent 3
# keeps the error of endpoint-singular integrands like (1-s)^(alpha-2) below
# 1e-10 uniformly over alpha in (2, 3]; exponent 2 degrades to ~2e-8 near
# alpha = 2.1.
DEFAULT_GRADING = 3.0


class QuadratureError(RuntimeError):
    """Raised when an integrand produces a non-finite sample."""


@lru_cache(maxsize=None)
def _leggauss(points: int):
    if points < 1:
        raise ValueError("points per panel must be >= 1")
    x, w = np.polynomial.legendre.leggauss(points)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def graded_edges(lo: float, hi: float, panels: int,
                 grading: float = DEFAULT_GRADING) -> np.ndarray:
    """Panel edges on [lo, hi], clustered toward both ends.

    The interval is split at its midpoint and each half is graded toward
    its outer end, which absorbs endpoint derivative singularities on
    either side.
    """
    if panels < 1:
        raise ValueError("panel count must be >= 1")
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if grading < 1.0:
        raise ValueError("grading exponent must be >= 1")
    if grading == 1.0:
        return np.linspace(lo, hi, panels + 1)
    nl = max(panels // 2, 1)
    nr = max(panels - nl, 1)
    mid = 0.5 * (lo + hi)
    left = lo + (mid - lo) * np.linspace(0.0, 1.0, nl + 1) ** grading
    right = mid + (hi - mid) * (1.0 - (1.0 - np.linspace(0.0, 1.0, nr + 1)) ** grading)
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


def gauss_rule(lo: float, hi: float, panels: int = DEFAULT_PANELS,
               points: int = DEFAULT_POINTS, grading: float = DEFAULT_GRADING):
    """Nodes and weights of the composite rule on [lo, hi]."""
    return panel_rule(graded_edges(lo, hi, panels, grading), points)


def jacobi_rule(points: int, a: float):
    """Gauss-Jacobi nodes and weights for int_{-1}^{1} (1 - x)^a g(x) dx, a > -1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    monic Jacobi polynomials P^(a, 0), and the weights are the squared first
    components of its eigenvectors times the weight's total mass.
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
    return x, w


def _sample(f, x: np.ndarray) -> np.ndarray:
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        y = np.broadcast_to(y, x.shape)
    if not np.all(np.isfinite(y)):
        bad = int(np.flatnonzero(~np.isfinite(np.atleast_1d(y)))[0])
        raise QuadratureError(
            f"integrand returned a non-finite value at sample point {x.flat[bad]!r}"
        )
    return y


def integrate(f, lo: float, hi: float, panels: int = DEFAULT_PANELS,
              points: int = DEFAULT_POINTS, grading: float = DEFAULT_GRADING) -> float:
    """Composite Gauss-Legendre integral of f over [lo, hi].

    f is called once with the full ndarray of sample points and must return
    an array (or a scalar, for constants).  A non-finite sample aborts with
    a diagnostic naming the offending point.
    """
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if hi == lo:
        return 0.0
    x, w = gauss_rule(lo, hi, panels, points, grading)
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
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("partition nodes must be strictly increasing")
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

    @property
    def panels(self) -> int:
        return self.nodes.size - 1


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson node slopes: inside, the weighted harmonic mean of the
    neighbouring secants, zero where they change sign or one vanishes; at
    the ends, the one-sided three-point formula kept shape-preserving."""
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.zeros_like(y)
    inner = np.sign(m[:-1]) * np.sign(m[1:]) > 0.0
    w1 = (2.0 * h[1:] + h[:-1])[inner]
    w2 = (h[1:] + 2.0 * h[:-1])[inner]
    d[1:-1][inner] = 1.0 / ((w1 / m[:-1][inner] + w2 / m[1:][inner]) / (w1 + w2))
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    end = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    end[np.sign(end) != np.sign(m0)] = 0.0
    turn = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
    end[turn] = 3.0 * m0[turn]
    d[[0, -1]] = end
    return d


def _hermite(x: np.ndarray, y: np.ndarray, d: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolant with node values y and slopes d at xi, in
    powers of xi - x[k]; the end cubics extend outside [x[0], x[-1]]."""
    h = np.diff(x)
    secant = np.diff(y) / h
    t = (d[:-1] + d[1:] - 2.0 * secant) / h
    c2 = (secant - d[:-1]) / h - t
    c3 = t / h
    k = np.clip(np.searchsorted(x, xi, side="right") - 1, 0, h.size - 1)
    s = xi - x[k]
    return y[k] + d[k] * s + c2[k] * (s * s) + c3[k] * (s * s * s)


@dataclass(frozen=True)
class GridFunction:
    """Values on a partition, interpolated by the shape-preserving piecewise
    cubic (PCHIP).

    The PCHIP keeps interpolants of nonnegative monotone data nonnegative and
    monotone; that matters because cumulative integrals of nonnegative
    densities feed the p-Laplacian inverse, which expects a nonnegative
    argument.  Instances are immutable and safe to share.
    """

    partition: Partition
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.partition.nodes.shape:
            raise ValueError(
                f"expected {self.partition.nodes.size} values, got {values.size}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @staticmethod
    def constant(partition: Partition, value: float) -> "GridFunction":
        return GridFunction(partition, np.full(partition.nodes.size, float(value)))

    @staticmethod
    def from_callable(partition: Partition, fn) -> "GridFunction":
        return GridFunction(partition, np.asarray(fn(partition.nodes), dtype=float))

    @cached_property
    def _slopes(self) -> np.ndarray:
        return _pchip_slopes(self.partition.nodes, self.values)

    def __call__(self, x):
        out = _hermite(self.partition.nodes, self.values, self._slopes,
                       np.asarray(x, dtype=float))
        return float(out) if np.ndim(x) == 0 else out

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.partition, values)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def cumulative(g: GridFunction) -> GridFunction:
    """Running integral F(x) = int_0^x of the interpolant of g, at the nodes.

    F(0) = 0 and F is nondecreasing whenever g >= 0, by the shape
    preservation of the PCHIP.  A panel of width h contributes
    h (y0 + y1) / 2 + h^2 (d0 - d1) / 12.
    """
    h = np.diff(g.partition.nodes)
    panel = 0.5 * (g.values[1:] + g.values[:-1]) * h
    panel += h * h * (g._slopes[:-1] - g._slopes[1:]) / 12.0
    return GridFunction(g.partition, np.concatenate([[0.0], np.cumsum(panel)]))
