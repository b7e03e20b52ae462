"""Green's kernels of the three-point fractional boundary value problem.

The solution operator is an integral against K(t, s) = G(t, s) + H(eta, s),
where G carries the fractional order alpha and H the order alpha - 1.  Both
kernels are piecewise closed forms split along the diagonal s = t; at the
seam the two branches agree, and the upper branch is evaluated there.  The
envelope Phi(s) dominates K pointwise and equals G(s, s) + H(s, s); its
integral over [0, 1] is the constant that Lambda_1 and the bounds of
Theorems 3.3 and 3.5 share.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelParams",
    "g_kernel",
    "h_kernel",
    "k_kernel",
    "phi_envelope",
    "envelope_integral",
    "cone_gamma",
]

# Grid arithmetic may drive arguments out of [0, 1] by a few ulps; anything
# beyond this is treated as a caller bug.
_EDGE_SLACK = 1e-14


@dataclass(frozen=True)
class KernelParams:
    """Order alpha in (2, 3] and interior boundary point eta in (0, 1)."""

    alpha: float
    eta: float

    def __post_init__(self):
        if not (isinstance(self.alpha, (int, float)) and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
        if not 2.0 < self.alpha <= 3.0:
            raise ValueError(f"alpha must lie in (2, 3], got {self.alpha}")
        if not (isinstance(self.eta, (int, float)) and math.isfinite(self.eta)):
            raise ValueError(f"eta must be finite, got {self.eta!r}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")


def _clip_unit(name: str, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.any(arr < -_EDGE_SLACK) or np.any(arr > 1.0 + _EDGE_SLACK):
        bad = arr[(arr < -_EDGE_SLACK) | (arr > 1.0 + _EDGE_SLACK)].flat[0]
        raise ValueError(f"{name} outside [0, 1]: {float(bad)!r}")
    return np.clip(arr, 0.0, 1.0)


def _scalar_like(value: np.ndarray, *inputs) -> float | np.ndarray:
    if all(np.isscalar(x) or np.ndim(x) == 0 for x in inputs):
        return float(value)
    return value


def _branch(t: np.ndarray, s: np.ndarray, expo: float, gamma_value: float):
    """((1-s)^expo - (t-s)^expo) / Gamma on s < t, (1-s)^expo / Gamma on s >= t.

    The difference is not taken by subtraction: as expo = alpha - 2 tends to
    0, both powers tend to 1 and cancel.  It is (1-s)^expo (1 - rho^expo)
    with rho = (t-s)/(1-s), and 1 - rho^expo = -expm1(expo log rho), where
    log rho = -log1p((1-t)/(t-s)) for rho >= 1/2.
    """
    t, s = np.broadcast_arrays(t, s)
    below = s < t
    gap = np.where(below, t - s, 1.0)
    rho = gap / np.where(below, 1.0 - s, 1.0)
    # (1-t)/(t-s) overflows only for tiny t - s, where rho < 1/2 picks log rho
    with np.errstate(over="ignore"):
        log_rho = np.where(rho < 0.5, np.log(rho), -np.log1p((1.0 - t) / gap))
    bracket = np.where(below, -np.expm1(expo * log_rho), 1.0)
    return (1.0 - s) ** expo * bracket / gamma_value


def g_kernel(kp: KernelParams, t, s):
    """Kernel G(t, s) with exponent alpha - 1."""
    tv = _clip_unit("t", t)
    sv = _clip_unit("s", s)
    return _scalar_like(_branch(tv, sv, kp.alpha - 1.0, math.gamma(kp.alpha)), t, s)


def h_kernel(kp: KernelParams, t, s):
    """Kernel H(t, s) with exponent alpha - 2."""
    tv = _clip_unit("t", t)
    sv = _clip_unit("s", s)
    return _scalar_like(_branch(tv, sv, kp.alpha - 2.0, math.gamma(kp.alpha - 1.0)), t, s)


def k_kernel(kp: KernelParams, t, s):
    """Combined kernel K(t, s) = G(t, s) + H(eta, s); note the fixed eta slot."""
    return g_kernel(kp, t, s) + h_kernel(kp, kp.eta, s)


def phi_envelope(kp: KernelParams, s):
    """Envelope Phi(s) = (alpha - s)(1 - s)^(alpha - 2) / Gamma(alpha).

    Pointwise upper bound for K; equals G(s, s) + H(s, s).
    """
    sv = _clip_unit("s", s)
    a = kp.alpha
    value = (a - sv) * (1.0 - sv) ** (a - 2.0) / math.gamma(a)
    return _scalar_like(value, s)


def envelope_integral(kp: KernelParams) -> float:
    """int_0^1 Phi = (alpha + 1) / Gamma(alpha + 1), in closed form: for alpha
    near 2, Phi is nearly singular at s = 1 and a quadrature is inexact."""
    return (kp.alpha + 1.0) / math.gamma(kp.alpha + 1.0)


def cone_gamma(kp: KernelParams, rho: float) -> float:
    """Cone constant gamma = (1 - eta^(alpha-2)) (1 - rho^(alpha-1)) in (0, 1).

    Each factor is taken as -expm1(x ln y), not by subtraction from 1, which
    cancels when alpha is near 2 or eta near 1."""
    rho = float(rho)
    if not (math.isfinite(rho) and 0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho!r}")
    a = kp.alpha
    eta_factor = -math.expm1((a - 2.0) * math.log(kp.eta))
    return eta_factor * -math.expm1((a - 1.0) * math.log(rho))
