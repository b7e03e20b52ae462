"""The scalar p-Laplacian map phi_r(s) = |s|^(r-2) s and its conjugate exponent.

phi_r is a strictly increasing odd bijection of the real line for every
r > 1, with inverse phi_q where 1/r + 1/q = 1.
"""

import math

import numpy as np

__all__ = ["phi", "conjugate"]


def _check_exponent(r: float) -> float:
    r = float(r)
    if not math.isfinite(r) or r <= 1.0:
        raise ValueError(f"p-Laplacian exponent must be > 1, got {r!r}")
    return r


def phi(r: float, s):
    """Evaluate phi_r(s) = |s|^(r-2) s for r > 1.

    Accepts a scalar or an ndarray.  The value at s = 0 is 0 for every
    r > 1: although |s|^(r-2) diverges there when r < 2, the product
    tends to 0, and sign(s) |s|^(r-1) realises that extension directly.
    """
    r = _check_exponent(r)
    arr = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("phi requires finite arguments")
    out = np.sign(arr) * np.abs(arr) ** (r - 1.0)
    return float(out) if np.isscalar(s) or arr.ndim == 0 else out


def conjugate(p: float) -> float:
    """Conjugate exponent q = p / (p - 1), so that 1/p + 1/q = 1."""
    p = _check_exponent(p)
    return p / (p - 1.0)
