"""Gamma and beta functions restricted to the positive real axis.

Every formula in this package needs these two functions only for arguments
in roughly (0, 6), but the implementations are accurate to close to machine
precision on (0, 50].
"""

import math

__all__ = ["gamma", "beta"]


def _check_positive(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {x!r}")
    return x


def gamma(x: float) -> float:
    """Euler gamma function for x > 0."""
    return math.gamma(_check_positive("x", x))


def beta(p: float, q: float) -> float:
    """Euler beta function B(p, q) = gamma(p) gamma(q) / gamma(p + q).

    Computed as exp(lgamma(p) + lgamma(q) - lgamma(p + q)), which avoids
    overflow of the individual gamma factors for moderate arguments.
    """
    p = _check_positive("p", p)
    q = _check_positive("q", q)
    return math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))
