"""Composite Gauss-Legendre quadrature on graded panels, and grid functions.

``integrate`` builds a fresh panel layout on [lo, hi] with polynomial
grading toward one or both ends; it is the workhorse for integrals of
closed-form integrands.  ``panel_rule`` places Gauss-Legendre points on
given panel edges, and ``jacobi_rule`` gives the Gauss-Jacobi rule for the
weight (1 - x)^a on [-1, 1]; together they make the product-integration
rule of :class:`plbvp.solver.KernelAssembly`.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.interpolate import PchipInterpolator

__all__ = [
    "QuadratureError",
    "Partition",
    "GridFunction",
    "graded_edges",
    "gauss_rule",
    "jacobi_rule",
    "panel_rule",
    "integrate",
    "integrate_with_estimate",
    "cumulative",
]

DEFAULT_PANELS = 256
DEFAULT_POINTS = 4
# Grading exponent used for panel layouts inside integrate().  Exponent 3
# keeps the error of endpoint-singular integrands like (1-s)^(alpha-2) below
# 1e-10 uniformly over alpha in (2, 3]; exponent 2 degrades to ~2e-8 near
# alpha = 2.1.
DEFAULT_GRADING = 3.0

INTERPOLATIONS = ("cubic", "linear")


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


def graded_edges(lo: float, hi: float, panels: int, grading: float = DEFAULT_GRADING,
                 cluster: str = "both") -> np.ndarray:
    """Panel edges on [lo, hi], clustered toward the requested end(s).

    cluster is one of "none", "left", "right", "both".  With "both" the
    interval is split at its midpoint and each half is graded toward its
    outer end, which absorbs endpoint derivative singularities on either
    side.
    """
    if panels < 1:
        raise ValueError("panel count must be >= 1")
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if cluster not in ("none", "left", "right", "both"):
        raise ValueError(f"unknown cluster mode {cluster!r}")
    if grading < 1.0:
        raise ValueError("grading exponent must be >= 1")
    if cluster == "none" or grading == 1.0:
        return np.linspace(lo, hi, panels + 1)
    if cluster == "right":
        u = np.linspace(0.0, 1.0, panels + 1)
        return lo + (hi - lo) * (1.0 - (1.0 - u) ** grading)
    if cluster == "left":
        u = np.linspace(0.0, 1.0, panels + 1)
        return lo + (hi - lo) * u ** grading
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
               points: int = DEFAULT_POINTS, grading: float = DEFAULT_GRADING,
               cluster: str = "both"):
    """Nodes and weights of the composite rule on [lo, hi]."""
    return panel_rule(graded_edges(lo, hi, panels, grading, cluster), points)


@lru_cache(maxsize=None)
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
            f"integrand returned a non-finite value at sample point {x.flat[bad]!r}"
        )
    return y


def integrate(f, lo: float, hi: float, panels: int = DEFAULT_PANELS,
              points: int = DEFAULT_POINTS, grading: float = DEFAULT_GRADING,
              cluster: str = "both") -> float:
    """Composite Gauss-Legendre integral of f over [lo, hi].

    f is called once with the full ndarray of sample points and must return
    an array (or a scalar, for constants).  A non-finite sample aborts with
    a diagnostic naming the offending point.
    """
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if hi == lo:
        return 0.0
    x, w = gauss_rule(lo, hi, panels, points, grading, cluster)
    return float(w @ _sample(f, x))


def integrate_with_estimate(f, lo: float, hi: float, panels: int = DEFAULT_PANELS,
                            points: int = DEFAULT_POINTS,
                            grading: float = DEFAULT_GRADING,
                            cluster: str = "both") -> tuple[float, float]:
    """Integral plus the error estimate |value(panels) - value(panels // 2)|."""
    value = integrate(f, lo, hi, panels, points, grading, cluster)
    coarse = integrate(f, lo, hi, max(panels // 2, 1), points, grading, cluster)
    return value, abs(value - coarse)


@dataclass(frozen=True)
class Partition:
    """Strictly increasing nodes from 0 to 1 defining the panel structure."""

    nodes: np.ndarray
    grading: float = 1.0

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
        return Partition(nodes, grading=grading)

    @property
    def panels(self) -> int:
        return self.nodes.size - 1

    def refined(self, factor: int = 2) -> "Partition":
        """Partition with factor times as many panels and the same grading law."""
        return Partition.graded(self.panels * factor, self.grading)


@dataclass(frozen=True)
class GridFunction:
    """Values on a partition plus an interpolation rule ("cubic" or "linear").

    The cubic rule is the shape-preserving piecewise cubic (PCHIP), which
    keeps interpolants of nonnegative monotone data nonnegative and
    monotone; that matters because cumulative integrals of nonnegative
    densities feed the p-Laplacian inverse, which expects a nonnegative
    argument.  Instances are immutable and safe to share.
    """

    partition: Partition
    values: np.ndarray
    interpolation: str = "cubic"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.partition.nodes.shape:
            raise ValueError(
                f"expected {self.partition.nodes.size} values, got {values.size}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        if self.interpolation not in INTERPOLATIONS:
            raise ValueError(f"unknown interpolation {self.interpolation!r}")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @staticmethod
    def constant(partition: Partition, value: float,
                 interpolation: str = "cubic") -> "GridFunction":
        return GridFunction(partition, np.full(partition.nodes.size, float(value)),
                            interpolation)

    @staticmethod
    def from_callable(partition: Partition, fn,
                      interpolation: str = "cubic") -> "GridFunction":
        return GridFunction(partition, np.asarray(fn(partition.nodes), dtype=float),
                            interpolation)

    @cached_property
    def _interpolant(self):
        if self.interpolation == "cubic":
            return PchipInterpolator(self.partition.nodes, self.values)
        return lambda x: np.interp(x, self.partition.nodes, self.values)

    def __call__(self, x):
        out = np.asarray(self._interpolant(np.asarray(x, dtype=float)), dtype=float)
        return float(out) if np.ndim(x) == 0 else out

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.partition, values, self.interpolation)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def cumulative(g: GridFunction) -> GridFunction:
    """Running integral F(x) = int_0^x of the interpolant of g, at the nodes.

    F(0) = 0 and F is nondecreasing whenever g >= 0 (exactly so for the
    linear rule, and by shape preservation for the cubic rule).
    """
    nodes = g.partition.nodes
    if g.interpolation == "cubic":
        anti = PchipInterpolator(nodes, g.values).antiderivative()
        vals = anti(nodes) - anti(nodes[0])
    else:
        panel = 0.5 * (g.values[1:] + g.values[:-1]) * np.diff(nodes)
        vals = np.concatenate([[0.0], np.cumsum(panel)])
    vals[0] = 0.0
    return GridFunction(g.partition, vals, g.interpolation)
