"""Normalization constants and mechanical checks of the existence theorems.

Each checker computes every quantity entering the hypotheses of one theorem
(cone expansion/compression, the nonlinear-alternative bound, or one of the
two contraction regimes) on a concrete problem, samples the required
inequalities on f, and returns an auditable :class:`TheoremReport` with a
hypotheses_hold / hypotheses_fail verdict.  int_0^1 Phi is taken in closed
form from :func:`plbvp.greens.envelope_integral`.  A checker lists its
hypotheses as rows, and :func:`_decide` rules on every row by one table.

A problem keeps what the checks share (see ``Problem._keep``): int_0^1 a,
used by Lambda_1, 3.3, 3.4 and 3.5; Lambda_2 for each rho, used by 3.1 and
3.2; and f's sampled maximum or minimum with its witness for each box, so
3.3 with nu = rho2 and 3.1 sample [0, 1] x [0, rho2] once.  The sampled
inequalities of 3.4 and 3.5 depend on their own inputs and are not kept,
but 3.5 starts from f on the lattice of [0, 1] x [0, WIDE_U_MAX], which
a problem with 1 < p < 2 keeps from its validation.
A computation that raises keeps nothing: the next call raises again.

Sampling makes these semi-decisions: a violated inequality is certified
exactly by its witness point, while a satisfied one is certified only up to
the lattice density (201 x 201, then a pattern search around the best
point; see :func:`box_maximum`).  Reports record the lattice used.

The lattice is sampled in one call on a 201 x 1 column of t and a 1 x 201
row of u, so a subexpression in t alone is evaluated 201 times, not
201 x 201.  The pattern search samples the steps that follow the best
point so far in one batch, one 9 x 9 pattern per shrink level, until a
level finds a higher value.  A batch also samples levels beyond that move,
so f must be defined on the whole of each box it is checked on; the moves,
values and witnesses are those of a search with one call per step.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import exprlang
from .exprlang import Expr
from .greens import cone_gamma, envelope_integral, phi_envelope
from .plaplacian import phi
from .quadrature import QuadratureError, graded_edges, integrate, panel_rule
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

# The pattern search of box_maximum (see there).
PATTERN = 9
SHRINK = 4.0
STOP = 1e-12
MAX_STEPS = 400
SAMPLER = "lattice with pattern search"  # as named in the reports' notes


@dataclass(frozen=True)
class InequalityCheck:
    """One decided inequality: name, sides (lhs the one that must be smaller), outcome."""

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
        return "hypotheses_hold" if self.holds else "hypotheses_fail"


def _a_integral(pb: Problem) -> float:
    """int_0^1 a, kept on pb."""
    d = pb.discretization
    return pb._keep("a_integral", lambda: integrate(
        lambda s: exprlang.evaluate(pb.a, t=s), 0.0, 1.0,
        panels=d.panels, points=d.points_per_panel))


def _positive_a_integral(pb: Problem, constant: str) -> float:
    """int_0^1 a, for a constant that divides by it."""
    ia = _a_integral(pb)
    if not ia > 0.0:
        raise ValueError(f"a(t) vanishes identically (int_0^1 a = {ia!r}), "
                         f"so {constant} is undefined")
    return ia


def _positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive, got {value!r}")


def lambda1(pb: Problem) -> float:
    """Lambda_1 = ( phi_q(int_0^1 a) * int_0^1 Phi )^(-1)."""
    ia = _positive_a_integral(pb, "Lambda_1")
    denominator = phi(pb.q, ia) * envelope_integral(pb.kernel_params)
    if not (denominator > 0.0 and math.isfinite(1.0 / denominator)):
        raise ValueError(f"phi_q(int_0^1 a) underflows to 0 or is too small to invert "
                         f"(int_0^1 a = {ia!r}), so Lambda_1 is undefined")
    return 1.0 / denominator


def lambda2(pb: Problem, rho: float) -> float:
    """Lambda_2 = ( gamma * int_0^rho Phi(s) phi_q(int_0^s a) ds )^(-1),
    kept on pb for each rho.

    One composite Gauss rule on [0, rho] takes the outer integral.  Its
    panels also give int_0^s a at each of its nodes s as a running integral:
    the rule's sums over the whole panels left of s, plus an m-point Gauss
    rule on [left edge, s].
    """
    return pb._keep(("lambda2", float(rho)), lambda: _lambda2(pb, rho))


def _lambda2(pb: Problem, rho: float) -> float:
    kp = pb.kernel_params
    gam = cone_gamma(kp, rho)
    m = pb.discretization.points_per_panel
    edges = graded_edges(0.0, rho, pb.discretization.panels)
    x, w = panel_rule(edges, m)
    a_x = exprlang.evaluate(pb.a, t=x)
    at_edges = np.cumsum((w * a_x).reshape(-1, m).sum(axis=1))
    left = np.repeat(edges[:-1], m)
    unit_x, unit_w = panel_rule(np.array([0.0, 1.0]), m)
    width = x - left
    partial = exprlang.evaluate(pb.a, t=left[:, None] + width[:, None] * unit_x) @ unit_w
    inner = np.repeat(np.concatenate([[0.0], at_edges[:-1]]), m) + width * partial
    integral = float(w @ (phi_envelope(kp, x) * phi(pb.q, inner)))
    value = gam * integral
    if not (value > 0.0 and math.isfinite(1.0 / value)):
        a_rho = float(at_edges[-1])
        if a_rho == 0.0 and (np.any(a_x > 0.0) or _underflows(pb.a, x)):
            cause = f"int_0^rho a underflows to 0 (rho = {rho!r})"
        elif not a_rho > 0.0:
            cause = f"a(t) vanishes on [0, rho] (int_0^rho a = {a_rho!r})"
        elif not (integral > 0.0 and math.isfinite(1.0 / integral)):
            cause = f"phi_q(int_0^s a) underflows (q = {pb.q!r}, int_0^rho a = {a_rho!r})"
        else:
            cause = (f"the cone constant gamma = {gam!r} is too small (alpha near 2, "
                     "or eta or rho near 1)")
        raise ValueError(f"gamma int_0^rho Phi(s) phi_q(int_0^s a) ds = {value!r} is "
                         f"too small to invert: {cause}, so Lambda_2 is undefined")
    return 1.0 / value


def _underflows(e: Expr, t: np.ndarray) -> bool:
    """Whether evaluating e at t underflows: a value of a that is 0 at every
    sample may be too small for a float, not vanish."""
    with np.errstate(under="raise"):
        try:
            exprlang.evaluate(e, t=t)
        except FloatingPointError:
            return True
    return False


def _patterns(centre, lo, hi, halves):
    """Row k is np.linspace(max(lo, centre - h), min(hi, centre + h),
    PATTERN) for h = halves[k], bit for bit unless a width is nonzero but
    below 1e-322, in half the time np.linspace takes on arrays."""
    start = np.array([max(lo, centre - h) for h in halves])
    stop = np.array([min(hi, centre + h) for h in halves])
    rows = start[:, None] + np.arange(PATTERN) * ((stop - start) / (PATTERN - 1))[:, None]
    rows[:, -1] = stop
    return rows


def box_maximum(fn, t_range, u_range, lattice: int = LATTICE):
    """Max of fn(t, u) over a box: dense lattice plus pattern search.

    fn must accept numpy arrays, broadcast them elementwise and be
    deterministic.  Returns (value, (t, u)).  The lattice is one call on
    (lattice, 1) and (1, lattice) arrays.  From the best lattice point, each
    step samples fn on a PATTERN x PATTERN lattice over t +- ht, u +- hu
    within the box, from half-widths of one cell: it moves to a strictly
    higher value, or else divides both by SHRINK, until both are at most
    STOP cells or MAX_STEPS steps are taken.

    Until a step moves, the steps to come are fixed: the same centre, the
    half-widths divided by SHRINK each time.  So one call samples all of
    them as a batch of patterns, shaped (n, PATTERN, 1) and (n, 1, PATTERN),
    and the first pattern whose maximum is above the best value so far is
    the move, after k + 1 steps; the next batch starts from it.  The moves
    and the result are those of one call per step, but a batch also
    samples the patterns after a move, points in the box that a stepwise
    search would skip: fn must be defined on the whole box.
    """
    return _box_maximum(fn, t_range, u_range, lattice, fn)


def _box_maximum(fn, t_range, u_range, lattice: int, on_lattice):
    """:func:`box_maximum`, with on_lattice(ts, us) for fn(ts, us) on the
    lattice, for a caller that has some of those values already."""
    t_lo, t_hi = t_range
    u_lo, u_hi = u_range
    ts = np.linspace(t_lo, t_hi, lattice)
    us = np.linspace(u_lo, u_hi, lattice)
    vals = np.broadcast_to(np.asarray(on_lattice(ts[:, None], us[None, :]), float),
                           (ts.size, us.size))
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    best, best_t, best_u = float(vals[i, j]), ts[i], us[j]
    cell_t = (t_hi - t_lo) / (lattice - 1)
    cell_u = (u_hi - u_lo) / (lattice - 1)
    ht, hu = cell_t, cell_u
    steps = 0
    while True:
        hts, hus = [], []  # half-widths of the steps to come, if none moves
        while (steps + len(hts) < MAX_STEPS
               and not (ht <= STOP * cell_t and hu <= STOP * cell_u)):
            hts.append(ht)
            hus.append(hu)
            ht, hu = ht / SHRINK, hu / SHRINK
        if not hts:
            break
        t_rows = _patterns(best_t, t_lo, t_hi, hts)
        u_rows = _patterns(best_u, u_lo, u_hi, hus)
        n = len(hts)
        vals = np.broadcast_to(
            np.asarray(fn(t_rows[:, :, None], u_rows[:, None, :]), float),
            (n, PATTERN, PATTERN)).reshape(n, -1)
        at = np.argmax(vals, axis=1)
        tops = vals[np.arange(n), at]
        above = np.flatnonzero(tops > best)
        if above.size == 0:
            break
        k = int(above[0])
        steps += k + 1
        ht, hu = hts[k], hus[k]
        i, j = divmod(int(at[k]), PATTERN)
        best, best_t, best_u = float(tops[k]), t_rows[k, i], u_rows[k, j]
    return best, (float(best_t), float(best_u))


def box_minimum(fn, t_range, u_range, lattice: int = LATTICE):
    value, at = box_maximum(lambda t, u: -np.asarray(fn(t, u), float),
                            t_range, u_range, lattice)
    return -value, at


def _f_extremum(pb: Problem, t_range, u_range, upper: bool):
    """f's sampled maximum (upper) or minimum on the box and its witness,
    kept on pb for each box.  The checks' boxes have ends >= +0.0, so equal
    keys are equal lattices."""
    search = box_maximum if upper else box_minimum
    key = ("f", upper, *map(float, t_range), *map(float, u_range))
    return pb._keep(key, lambda: search(partial(exprlang.evaluate, pb.f), t_range, u_range))


_SENSES = {
    "<": lambda lhs, rhs: lhs < rhs,
    "<=": lambda lhs, rhs: lhs <= rhs,
    "max": lambda lhs, rhs: lhs <= rhs + SAMPLING_SLACK,  # lhs a sampled maximum
    "min": lambda lhs, rhs: lhs - SAMPLING_SLACK <= rhs,  # rhs a sampled minimum
}


def _decide(rows) -> list:
    """The checks of rows (name, lhs, sense, rhs[, witness]), in order."""
    return [InequalityCheck(name, _SENSES[sense](lhs, rhs), lhs, rhs, *witness)
            for name, lhs, sense, rhs, *witness in rows]


def check_leray_schauder(pb: Problem, nu: float) -> TheoremReport:
    """Nonlinear-alternative condition nu > L^(q-1) phi_q(int a) int Phi,
    with L the sampled maximum of f over [0, 1] x [0, nu]."""
    _positive("nu", nu)
    L, at = _f_extremum(pb, (0.0, 1.0), (0.0, nu), upper=True)
    ia = _a_integral(pb)
    iphi = envelope_integral(pb.kernel_params)
    with np.errstate(over="ignore"):
        scale = phi(pb.q, L) * phi(pb.q, ia)
        if not math.isfinite(scale):
            # phi_q of one factor overflowed, perhaps times one that underflowed
            # to 0 (inf * 0 = nan); phi_q is multiplicative, so take it of L int a
            product = L * ia
            scale = phi(pb.q, product) if math.isfinite(product) else math.inf
    rhs = scale * iphi
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
        checks=_decide([("nu > bound", rhs, "<", nu)]),
        notes=(f"f sampled on a {LATTICE}x{LATTICE} {SAMPLER}",),
    )


def check_krasnoselskii(pb: Problem, rho: float, rho1: float, rho2: float,
                        M1: float | None = None, M2: float | None = None,
                        theorem: str = "3.1") -> TheoremReport:
    """Cone expansion/compression hypotheses.

    theorem "3.1" (expansive): f <= phi_p(M1 rho2) on [0,1] x [0, rho2] and
    f >= phi_p(M2 rho1) on [0, rho] x [gamma rho1, rho1], with rho1 < rho2,
    M2 rho1 < M1 rho2, M1 in (0, Lambda1], M2 in [Lambda2, inf).

    theorem "3.2" (compressive): f >= phi_p(M2 rho2) on [0, rho] x
    [gamma rho2, rho2] and f <= phi_p(M1 rho1) on [0,1] x [0, rho1], with
    gamma rho2 < rho1 < rho2 and M1 rho1 > M2 rho2.

    Omitted M1 / M2 default to Lambda1 / Lambda2(rho).  Every precondition
    is itself checked and reported.
    """
    if theorem not in ("3.1", "3.2"):
        raise ValueError(f"unknown theorem {theorem!r}")
    _positive("rho1", rho1)
    _positive("rho2", rho2)
    for name, given in (("M1", M1), ("M2", M2)):
        if given is not None and not math.isfinite(given):
            raise ValueError(f"{name} must be finite, got {given!r}")
    lam1 = lambda1(pb)
    lam2 = lambda2(pb, rho)
    gam = cone_gamma(pb.kernel_params, rho)
    if M1 is None:
        M1 = lam1
    if M2 is None:
        M2 = lam2

    def cap(scaled):  # phi_p(scaled); +-inf where M * rho overflowed or Lambda_2 is huge
        with np.errstate(over="ignore"):
            return phi(pb.p, scaled) if math.isfinite(scaled) else scaled

    rows = [
        ("0 < M1", 0.0, "<", M1),
        ("M1 <= Lambda1", M1, "<=", lam1),
        ("M2 >= Lambda2", lam2, "<=", M2),
        ("rho1 < rho2", rho1, "<", rho2),
    ]
    if theorem == "3.1":  # f bounded above on the rho2 box, below on the rho1 box
        top, at_top = _f_extremum(pb, (0.0, 1.0), (0.0, rho2), upper=True)
        low, at_low = _f_extremum(pb, (0.0, rho), (gam * rho1, rho1), upper=False)
        cap_top, cap_low = cap(M1 * rho2), cap(M2 * rho1)
        rows += [
            ("M2*rho1 < M1*rho2", M2 * rho1, "<", M1 * rho2),
            ("f <= phi_p(M1*rho2) on [0,1]x[0,rho2]", top, "max", cap_top, at_top),
            ("f >= phi_p(M2*rho1) on [0,rho]x[g*rho1,rho1]", cap_low, "min", low, at_low),
        ]
        boxes = {"f_max_upper_box": top, "phi_p_M1_rho2": cap_top,
                 "f_min_lower_box": low, "phi_p_M2_rho1": cap_low}
    else:  # 3.2: f bounded below on the rho2 box, above on the rho1 box
        low, at_low = _f_extremum(pb, (0.0, rho), (gam * rho2, rho2), upper=False)
        top, at_top = _f_extremum(pb, (0.0, 1.0), (0.0, rho1), upper=True)
        cap_low, cap_top = cap(M2 * rho2), cap(M1 * rho1)
        rows += [
            ("gamma*rho2 < rho1", gam * rho2, "<", rho1),
            ("M1*rho1 > M2*rho2", M2 * rho2, "<", M1 * rho1),
            ("f >= phi_p(M2*rho2) on [0,rho]x[g*rho2,rho2]", cap_low, "min", low, at_low),
            ("f <= phi_p(M1*rho1) on [0,1]x[0,rho1]", top, "max", cap_top, at_top),
        ]
        boxes = {"f_min_lower_box": low, "phi_p_M2_rho2": cap_low,
                 "f_max_upper_box": top, "phi_p_M1_rho1": cap_top}
    report = TheoremReport(
        theorem=theorem,
        inputs={"rho": rho, "rho1": rho1, "rho2": rho2, "M1": M1, "M2": M2},
        quantities={"lambda1": lam1, "lambda2": lam2, "gamma": gam, **boxes},
        checks=_decide(rows),
        notes=(f"f sampled on a {LATTICE}x{LATTICE} {SAMPLER}",),
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
    _positive("L", L)
    extra = exprlang.variables_of(k_env) - {"t"}
    if extra:
        raise ValueError(f"k(t) may reference only t, found {sorted(extra)}")
    q = pb.q
    d = pb.discretization

    ts = np.linspace(0.0, 1.0, LATTICE)
    kv = exprlang.evaluate(k_env, t=ts)
    # f on the box's lattice, as validation sampled it (see Problem)
    f_lattice = pb._keep("f_lattice", lambda: exprlang.evaluate(
        pb.f, t=ts[:, None], u=np.linspace(0.0, WIDE_U_MAX, LATTICE)[None, :]))
    excess, at = _box_maximum(
        lambda t, u: exprlang.evaluate(pb.f, t=t, u=u) - exprlang.evaluate(k_env, t=t),
        (0.0, 1.0), (0.0, WIDE_U_MAX), LATTICE,
        lambda t, u: f_lattice - exprlang.evaluate(k_env, t=t))
    rows = [("k >= 0 on [0,1]", 0.0, "min", float(np.min(kv)),
             (float(ts[int(np.argmin(kv))]), None)),
            ("f <= k on [0,1]x[0,u_max]", excess, "max", 0.0, at)]

    ia = _a_integral(pb)

    def ak(s):
        with np.errstate(over="ignore"):  # a and k are finite: inf is an overflow
            return exprlang.evaluate(pb.a, t=s) * exprlang.evaluate(k_env, t=s)

    try:
        m_value = integrate(ak, 0.0, 1.0, panels=d.panels, points=d.points_per_panel)
    except QuadratureError:  # a k overflows, so M is taken as inf: the bound is 0
        m_value = math.inf
    bound = math.inf
    if m_value > 0.0 and ia > 0.0:
        try:
            power = m_value ** (2.0 - q)
        except OverflowError:  # a tiny M with a large q: the bound is infinite
            power = math.inf
        bound = power / ((q - 1.0) * envelope_integral(pb.kernel_params) * ia)
    l1 = L / bound if bound > 0.0 else math.inf  # a bound that underflows to 0
    return TheoremReport(
        theorem="3.5",
        inputs={"L": L, "u_max": WIDE_U_MAX},
        quantities={
            "a_integral": ia,
            "ak_integral": m_value,
            "l_bound": bound,
            "contraction_l1": l1,
        },
        checks=_decide(rows + [("L < bound", L, "<", bound)]),
        notes=(f"f - k sampled on a {LATTICE}x{LATTICE} {SAMPLER}",
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
    _positive("mu", mu)
    _positive("k", k)

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
    excess, at = box_maximum(deficit, (t_min, 1.0), (0.0, WIDE_U_MAX))
    rows = [("a*f >= mu*sigma*t^(sigma-1) on (0,1]x[0,u_max]", excess, "max", 0.0, at)]

    ia = _positive_a_integral(pb, "the bound on k")
    beta_value = beta(pb.alpha - 1.0, c + 1.0)
    try:
        mu_power = mu ** (q - 2.0)
    except OverflowError:  # a tiny mu with a large p: the bound is 0
        mu_power = math.inf
    k_bound = ((c + pb.alpha) * gamma(pb.alpha - 1.0)
               / ((q - 1.0) * mu_power * (c + pb.alpha + 1.0) * beta_value)
               / ia)
    contraction = k / k_bound if k_bound > 0.0 else math.inf  # k_bound underflows to 0
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
               f"({LATTICE}x{LATTICE} {SAMPLER})",),
        checks=_decide(rows + [("k < bound", k, "<", k_bound)]),
    )
