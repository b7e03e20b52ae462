"""Normalization constants and mechanical checks of the existence theorems.

Each checker computes every quantity entering the hypotheses of one theorem
(cone expansion/compression, the nonlinear-alternative bound, or one of the
two contraction regimes) on a concrete problem, samples the required
inequalities on f, and returns an auditable :class:`TheoremReport` with a
hypotheses_hold / hypotheses_fail verdict.  int_0^1 Phi is taken in closed
form, and every inequality on f over a box is sampled by :func:`_sampled`.

Sampling makes these semi-decisions: a violated inequality is certified
exactly by its witness point, while a satisfied one is certified only up to
the lattice density (201 x 201 plus golden-section refinement around the
extremal cell).  Reports record the lattice used.

The refinement alternates golden-section searches in t and in u for up to
three rounds, and stops after a round that improves neither coordinate of
the maximiser.  The stop is exact: a round's searches depend only on the
maximiser and the value found so far, so the round after an unchanged one
would repeat it call for call and change nothing either.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import exprlang
from .exprlang import Expr
from .greens import cone_gamma, phi_envelope
from .plaplacian import phi
from .quadrature import gauss_rule, integrate
from .solver import LATTICE, SAMPLING_SLACK, WIDE_U_MAX, Problem
from .specialfn import beta, gamma

__all__ = [
    "InequalityCheck",
    "TheoremReport",
    "lambda1",
    "lambda2",
    "box_maximum",
    "box_minimum",
    "check_krasnoselskii",
    "check_leray_schauder",
    "check_contraction_small_p",
    "check_contraction_large_p",
]

HOLDS = "hypotheses_hold"
FAILS = "hypotheses_fail"

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class InequalityCheck:
    """One verified inequality lhs <= rhs: name, sides and outcome."""

    name: str
    holds: bool
    lhs: float
    rhs: float
    witness: tuple | None = None


@dataclass
class TheoremReport:
    """Auditable record of one hypothesis check."""

    theorem: str
    inputs: dict
    quantities: dict
    checks: list
    notes: tuple = ()

    @property
    def holds(self) -> bool:
        return all(c.holds for c in self.checks)

    @property
    def verdict(self) -> str:
        return HOLDS if self.holds else FAILS

    def failure_witness(self) -> InequalityCheck | None:
        for c in self.checks:
            if not c.holds:
                return c
        return None


def _a_integral(pb: Problem) -> float:
    d = pb.discretization
    return integrate(lambda s: exprlang.evaluate(pb.a, t=s), 0.0, 1.0,
                     panels=d.panels, points=d.points_per_panel)


def _positive_a_integral(pb: Problem, constant: str) -> float:
    """int_0^1 a, for a constant that divides by it."""
    ia = _a_integral(pb)
    if not ia > 0.0:
        raise ValueError(f"a(t) vanishes identically (int_0^1 a = {ia!r}), "
                         f"so {constant} is undefined")
    return ia


def _envelope_integral(pb: Problem) -> float:
    """int_0^1 Phi = (alpha + 1) / Gamma(alpha + 1), in closed form: for alpha
    near 2, Phi is nearly singular at s = 1 and a quadrature is inexact."""
    return (pb.alpha + 1.0) / gamma(pb.alpha + 1.0)


def lambda1(pb: Problem) -> float:
    """Lambda_1 = ( phi_q(int_0^1 a) * int_0^1 Phi )^(-1)."""
    ia = _positive_a_integral(pb, "Lambda_1")
    denominator = phi(pb.q, ia) * _envelope_integral(pb)
    if not denominator > 0.0:
        raise ValueError(f"phi_q(int_0^1 a) underflows to 0 (int_0^1 a = {ia!r}), "
                         "so Lambda_1 is undefined")
    return 1.0 / denominator


def lambda2(pb: Problem, rho: float) -> float:
    """Lambda_2 = ( gamma * int_0^rho Phi(s) phi_q(int_0^s a) ds )^(-1)."""
    kp = pb.kernel_params
    gam = cone_gamma(kp, rho)
    d = pb.discretization
    outer_x, outer_w = gauss_rule(0.0, rho, panels=d.panels,
                                  points=d.points_per_panel)
    # inner rule as a template on [0, 1], rescaled to [0, s] per outer point
    inner_x, inner_w = gauss_rule(0.0, 1.0, panels=max(32, d.panels // 4),
                                  points=d.points_per_panel)
    taus = outer_x[:, None] * inner_x[None, :]
    inner = (exprlang.evaluate(pb.a, t=taus) @ inner_w) * outer_x
    integrand = phi_envelope(kp, outer_x) * phi(pb.q, inner)
    value = gam * float(outer_w @ integrand)
    if value <= 0.0:
        raise ValueError("nested quadrature for Lambda_2 is nonpositive: a(t) "
                         "vanishes on [0, rho], so Lambda_2 is undefined")
    return 1.0 / value


def _golden_max_1d(fn, lo: float, hi: float, iters: int = 60):
    """Golden-section maximization of a unimodal-ish 1d slice."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    x = c if fc >= fd else d
    return x, max(fc, fd)


def box_maximum(fn, t_range, u_range, lattice: int = LATTICE):
    """Max of fn(t, u) over a box: dense lattice plus golden refinement.

    fn must accept numpy arrays and be deterministic.  Returns (value, (t, u)).

    Each of up to three rounds searches t on the lattice cells either side
    of the best point, at its u, and then u at its t.  A round that improves
    neither leaves the next round the same inputs, so the next round would
    find nothing either: the loop stops there, with the result three
    rounds would give.
    """
    t_lo, t_hi = t_range
    u_lo, u_hi = u_range
    ts = np.linspace(t_lo, t_hi, lattice)
    us = np.linspace(u_lo, u_hi, lattice)
    tg, ug = np.meshgrid(ts, us, indexing="ij")
    vals = np.broadcast_to(np.asarray(fn(tg, ug), float), tg.shape)
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    best_t, best_u, best = ts[i], us[j], float(vals[i, j])
    # refine within the one-cell neighbourhood of the best lattice point
    dt = (t_hi - t_lo) / (lattice - 1) if t_hi > t_lo else 0.0
    du = (u_hi - u_lo) / (lattice - 1) if u_hi > u_lo else 0.0
    for _ in range(3):
        moved = False
        if dt > 0.0:
            lo, hi = max(t_lo, best_t - dt), min(t_hi, best_t + dt)
            x, v = _golden_max_1d(lambda t: float(fn(np.asarray(t), np.asarray(best_u))),
                                  lo, hi)
            if v > best:
                best_t, best, moved = x, v, True
        if du > 0.0:
            lo, hi = max(u_lo, best_u - du), min(u_hi, best_u + du)
            x, v = _golden_max_1d(lambda u: float(fn(np.asarray(best_t), np.asarray(u))),
                                  lo, hi)
            if v > best:
                best_u, best, moved = x, v, True
        if not moved:
            # the next round would repeat this one's searches exactly
            break
    return best, (float(best_t), float(best_u))


def box_minimum(fn, t_range, u_range, lattice: int = LATTICE):
    value, at = box_maximum(lambda t, u: -np.asarray(fn(t, u), float),
                            t_range, u_range, lattice)
    return -value, at


def _sampled(name: str, fn, t_range, u_range, bound: float, upper: bool):
    """(check, extremum) of fn <= bound (upper) or fn >= bound on the box,
    up to SAMPLING_SLACK, from fn's sampled maximum or minimum."""
    if upper:
        value, at = box_maximum(fn, t_range, u_range)
        return InequalityCheck(name, value <= bound + SAMPLING_SLACK, value, bound,
                               witness=at), value
    value, at = box_minimum(fn, t_range, u_range)
    return InequalityCheck(name, value >= bound - SAMPLING_SLACK, bound, value,
                           witness=at), value


def check_leray_schauder(pb: Problem, nu: float) -> TheoremReport:
    """Nonlinear-alternative condition nu > L^(q-1) phi_q(int a) int Phi,
    with L the sampled maximum of f over [0, 1] x [0, nu]."""
    if not (math.isfinite(nu) and nu > 0.0):
        raise ValueError(f"nu must be positive, got {nu!r}")
    L, at = box_maximum(partial(exprlang.evaluate, pb.f), (0.0, 1.0), (0.0, nu))
    ia = _a_integral(pb)
    iphi = _envelope_integral(pb)
    rhs = phi(pb.q, L) * phi(pb.q, ia) * iphi
    checks = [InequalityCheck("nu > bound", nu > rhs, rhs, nu)]
    return TheoremReport(
        theorem="3.3",
        inputs={"nu": nu},
        quantities={
            "f_max": L,
            "f_argmax_t": at[0],
            "f_argmax_u": at[1],
            "a_integral": ia,
            "envelope_integral": iphi,
            "rhs": rhs,
            "margin": nu - rhs,
        },
        checks=checks,
        notes=(f"f sampled on a {LATTICE}x{LATTICE} lattice with golden refinement",),
    )


def check_krasnoselskii(pb: Problem, rho: float, rho1: float, rho2: float,
                        M1: float | None = None, M2: float | None = None,
                        variant: str = "expansive_3_1") -> TheoremReport:
    """Cone expansion/compression hypotheses.

    variant "expansive_3_1": f <= phi_p(M1 rho2) on [0,1] x [0, rho2] and
    f >= phi_p(M2 rho1) on [0, rho] x [gamma rho1, rho1], with rho1 < rho2,
    M2 rho1 < M1 rho2, M1 in (0, Lambda1], M2 in [Lambda2, inf).

    variant "compressive_3_2": f >= phi_p(M2 rho2) on [0, rho] x
    [gamma rho2, rho2] and f <= phi_p(M1 rho1) on [0,1] x [0, rho1], with
    gamma rho2 < rho1 < rho2 and M1 rho1 > M2 rho2.

    Omitted M1 / M2 default to Lambda1 / Lambda2(rho).  Every precondition
    is itself checked and reported.
    """
    if variant not in ("expansive_3_1", "compressive_3_2"):
        raise ValueError(f"unknown variant {variant!r}")
    for name, val in (("rho1", rho1), ("rho2", rho2)):
        if not (math.isfinite(val) and val > 0.0):
            raise ValueError(f"{name} must be positive, got {val!r}")
    lam1 = lambda1(pb)
    lam2 = lambda2(pb, rho)
    gam = cone_gamma(pb.kernel_params, rho)
    if M1 is None:
        M1 = lam1
    if M2 is None:
        M2 = lam2

    checks = [
        InequalityCheck("0 < M1", 0.0 < M1, 0.0, M1),
        InequalityCheck("M1 <= Lambda1", M1 <= lam1, M1, lam1),
        InequalityCheck("M2 >= Lambda2", M2 >= lam2, lam2, M2),
        InequalityCheck("rho1 < rho2", rho1 < rho2, rho1, rho2),
    ]
    # 3.1 bounds f above on the rho2 box and below on the rho1 box; 3.2 does
    # the reverse and lists the lower box first.
    expansive = variant == "expansive_3_1"
    theorem = "3.1" if expansive else "3.2"
    up, low = ("rho2", "rho1") if expansive else ("rho1", "rho2")
    r_up, r_low = (rho2, rho1) if expansive else (rho1, rho2)
    if not expansive:
        checks.append(InequalityCheck("gamma*rho2 < rho1", gam * rho2 < rho1,
                                      gam * rho2, rho1))
    checks.append(InequalityCheck(
        "M2*rho1 < M1*rho2" if expansive else "M1*rho1 > M2*rho2",
        M2 * r_low < M1 * r_up, M2 * r_low, M1 * r_up))

    f = partial(exprlang.evaluate, pb.f)
    boxes = [  # (upper, check name, cap key, phi_p argument, t range, u range)
        (True, f"f <= phi_p(M1*{up}) on [0,1]x[0,{up}]", f"phi_p_M1_{up}",
         M1 * r_up, (0.0, 1.0), (0.0, r_up)),
        (False, f"f >= phi_p(M2*{low}) on [0,rho]x[g*{low},{low}]", f"phi_p_M2_{low}",
         M2 * r_low, (0.0, rho), (gam * r_low, r_low)),
    ]
    quantities = {"lambda1": lam1, "lambda2": lam2, "gamma": gam}
    for upper, name, cap_key, scaled, t_range, u_range in (
            boxes if expansive else boxes[::-1]):
        cap = phi(pb.p, scaled)
        check, extremum = _sampled(name, f, t_range, u_range, cap, upper)
        checks.append(check)
        quantities["f_max_upper_box" if upper else "f_min_lower_box"] = extremum
        quantities[cap_key] = cap
    report = TheoremReport(
        theorem=theorem,
        inputs={"rho": rho, "rho1": rho1, "rho2": rho2, "M1": M1, "M2": M2},
        quantities=quantities,
        checks=checks,
        notes=(f"f sampled on a {LATTICE}x{LATTICE} lattice with golden refinement",),
    )
    if report.holds:
        report.notes += (f"guarantees a positive solution with {rho1} < ||u|| < {rho2}",)
    return report


def check_contraction_small_p(pb: Problem, k_env: Expr, L: float) -> TheoremReport:
    """Contraction condition for 1 < p < 2.

    Requires a nonnegative envelope k(t) with f(t, u) <= k(t) (sampled over
    t in [0, 1], u in [0, WIDE_U_MAX]) and a Lipschitz constant L of f in u.
    Computes M = int a k and the admissible bound on L; the hypotheses hold
    iff L < bound, equivalently iff the contraction factor L1 < 1.
    """
    if not 1.0 < pb.p < 2.0:
        raise ValueError(f"this contraction regime requires 1 < p < 2, got p = {pb.p}")
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"L must be positive, got {L!r}")
    extra = exprlang.variables_of(k_env) - {"t"}
    if extra:
        raise ValueError(f"k(t) may reference only t, found {sorted(extra)}")
    q = pb.q
    d = pb.discretization

    ts = np.linspace(0.0, 1.0, LATTICE)
    kv = exprlang.evaluate(k_env, t=ts)
    k_min = float(np.min(kv))
    checks = [InequalityCheck("k >= 0 on [0,1]", k_min >= -SAMPLING_SLACK, 0.0, k_min,
                              witness=(float(ts[int(np.argmin(kv))]), None))]
    checks.append(_sampled(
        "f <= k on [0,1]x[0,u_max]",
        lambda t, u: exprlang.evaluate(pb.f, t=t, u=u) - exprlang.evaluate(k_env, t=t),
        (0.0, 1.0), (0.0, WIDE_U_MAX), 0.0, upper=True)[0])

    ia = _a_integral(pb)
    m_value = integrate(
        lambda s: exprlang.evaluate(pb.a, t=s) * exprlang.evaluate(k_env, t=s),
        0.0, 1.0, panels=d.panels, points=d.points_per_panel)
    galpha1 = gamma(pb.alpha + 1.0)
    if m_value > 0.0 and ia > 0.0:
        bound = galpha1 / ((pb.alpha + 1.0) * (q - 1.0)) / ia * m_value ** (2.0 - q)
        l1 = L * (q - 1.0) * m_value ** (q - 2.0) * (pb.alpha + 1.0) / galpha1 * ia
    else:
        bound = math.inf
        l1 = 0.0
    checks.append(InequalityCheck("L < bound", L < bound, L, bound))
    return TheoremReport(
        theorem="3.5",
        inputs={"L": L, "u_max": WIDE_U_MAX},
        quantities={
            "a_integral": ia,
            "ak_integral": m_value,
            "l_bound": bound,
            "contraction_l1": l1,
        },
        checks=checks,
        notes=(f"f - k sampled on a {LATTICE}x{LATTICE} lattice with golden refinement",
               f"k_env = {exprlang.to_text(k_env)}"),
    )


def check_contraction_large_p(pb: Problem, mu: float, sigma: float,
                              k: float) -> TheoremReport:
    """Contraction condition for p > 2.

    Requires a(t) f(t, u) >= mu sigma t^(sigma-1) (sampled on (0, 1] x
    [0, WIDE_U_MAX]) and a Lipschitz constant k of f in u; the admissible
    bound on k is computed through the beta function.
    """
    if not pb.p > 2.0:
        raise ValueError(f"this contraction regime requires p > 2, got p = {pb.p}")
    q = pb.q
    sigma_cap = 2.0 / (2.0 - q)
    if not (math.isfinite(sigma) and 0.0 < sigma < sigma_cap):
        raise ValueError(
            f"sigma must satisfy 0 < sigma < 2/(2-q) = {sigma_cap}, got {sigma!r}")
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError(f"mu must be positive, got {mu!r}")
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"k must be positive, got {k!r}")

    c = sigma * (q - 2.0)
    # the kernel moment int_0^1 K(t, s) s^c ds and the beta factor
    # B(alpha-1, c+1) only converge for c + 1 > 0, a strictly narrower
    # requirement than sigma < 2/(2-q)
    if c + 1.0 <= 0.0:
        raise ValueError(
            f"sigma*(q-2) + 1 must be positive (sigma < 1/(2-q) = "
            f"{1.0 / (2.0 - q)}), got sigma*(q-2) = {c}; the bound's beta "
            "moment diverges otherwise")

    def deficit(t, u):
        return (mu * sigma * t ** (sigma - 1.0)
                - exprlang.evaluate(pb.a, t=t) * exprlang.evaluate(pb.f, t=t, u=u))

    t_min = 1.0 / (LATTICE - 1)
    checks = [_sampled("a*f >= mu*sigma*t^(sigma-1) on (0,1]x[0,u_max]", deficit,
                       (t_min, 1.0), (0.0, WIDE_U_MAX), 0.0, upper=True)[0]]

    ia = _positive_a_integral(pb, "the bound on k")
    beta_value = beta(pb.alpha - 1.0, c + 1.0)
    k_bound = ((c + pb.alpha) * gamma(pb.alpha - 1.0)
               / ((q - 1.0) * mu ** (q - 2.0) * (c + pb.alpha + 1.0) * beta_value)
               / ia)
    contraction = k / k_bound
    checks.append(InequalityCheck("k < bound", k < k_bound, k, k_bound))
    return TheoremReport(
        theorem="3.4",
        inputs={"mu": mu, "sigma": sigma, "k": k, "u_max": WIDE_U_MAX},
        quantities={
            "a_integral": ia,
            "sigma_shift": c,
            "beta_value": beta_value,
            "k_bound": k_bound,
            "contraction_l": contraction,
        },
        notes=(f"lower bound sampled on t in [{t_min}, 1] "
               f"({LATTICE}x{LATTICE} lattice with golden refinement)",),
        checks=checks,
    )
