import math

import numpy as np
import pytest

from plbvp.cases import CASES
from plbvp.exprlang import parse
from plbvp.solver import Discretization, Problem, picard_solve
from plbvp.specialfn import gamma
from plbvp.theorems import (
    _golden_max_1d,
    box_maximum,
    box_minimum,
    check_contraction_large_p,
    check_contraction_small_p,
    check_krasnoselskii,
    check_leray_schauder,
    lambda1,
    lambda2,
)


def _problem(a="1", f="1", alpha=2.5, eta=0.5, p=1.5):
    return Problem(alpha=alpha, eta=eta, p=p, a=parse(a, variables=("t",)), f=parse(f))


# --- Lambda_1 / Lambda_2 -------------------------------------------------

def test_lambda1_ex43_closed_form():
    value = lambda1(CASES["ex43"].problem)
    assert abs(value - 15.0 * gamma(0.5) / 28.0) <= 1e-9
    assert value == pytest.approx(0.94952884869938358605, abs=1e-9)


def test_lambda1_constant_coefficient():
    # a == 1, p = 2, alpha = 3: Lambda_1 = Gamma(4) / 4 = 3/2
    value = lambda1(_problem(alpha=3.0, p=2.0))
    assert value == pytest.approx(1.5, rel=1e-10)


@pytest.mark.parametrize("alpha", [2.02, 2.05, 2.1, 2.5])
def test_lambda1_exact_for_alpha_near_two(alpha):
    # a == 1: Lambda_1 = 1 / int_0^1 Phi = Gamma(alpha + 1) / (alpha + 1);
    # quadrature of Phi, with (1 - s)^(alpha - 2) nearly singular at s = 1,
    # was about 1e-9 off here
    value = lambda1(_problem(alpha=alpha, p=1.2))
    assert value == pytest.approx(math.gamma(alpha + 1.0) / (alpha + 1.0), rel=1e-13)


def test_lambda1_scaling_homogeneity():
    base = lambda1(_problem(a="1+t", p=1.5))       # q = 3
    scaled = lambda1(_problem(a="4*(1+t)", p=1.5))
    assert scaled == pytest.approx(base / 16.0, rel=1e-10)


def test_lambda2_ex43_closed_form():
    # phi_q(int_0^s a) = s for this coefficient, so the closed-form
    # (gamma int_0^rho s Phi(s) ds)^(-1) is the oracle
    value = lambda2(CASES["ex43"].problem, 0.5)
    assert value == pytest.approx(31.719871448178242261, rel=1e-6)


def test_lambda2_grows_unboundedly_in_rho():
    pb = CASES["ex43"].problem
    assert lambda2(pb, 0.999) > 50.0 * lambda2(pb, 0.5)


def test_lambda_ordering_sample():
    rng = np.random.default_rng(17)
    for _ in range(8):
        pb = Problem(
            alpha=2.0 + rng.uniform(0.05, 1.0),
            eta=rng.uniform(0.1, 0.9),
            p=rng.uniform(1.2, 4.0),
            a=parse(f"{rng.uniform(0.1, 2.0)}+{rng.uniform(0.0, 2.0)}*t",
                    variables=("t",)),
            f=parse("1"),
        )
        rho = rng.uniform(0.1, 0.9)
        assert 0.0 < lambda1(pb) < lambda2(pb, rho)


def test_vanishing_coefficient_is_a_value_error():
    pb = _problem(a="0", p=3.5)
    with pytest.raises(ValueError, match="vanishes identically"):
        lambda1(pb)
    with pytest.raises(ValueError, match="vanishes"):
        lambda2(pb, 0.5)
    with pytest.raises(ValueError, match="vanishes identically"):
        check_contraction_large_p(pb, mu=0.005, sigma=1.0, k=0.1)


def test_underflowing_phi_q_of_a_integral_is_a_value_error():
    # int_0^1 a = 1e-300 is positive, but phi_q of it, (1e-300)^2, is 0
    pb = _problem(a="1e-300", p=1.5)
    with pytest.raises(ValueError, match="underflows to 0"):
        lambda1(pb)


def test_lambda1_closed_form_at_coarse_quadrature():
    # int_0^1 Phi is taken in closed form, so a rule too coarse for Phi,
    # nearly singular at s = 1 for alpha = 2.1, does not matter when a == 1
    pb = Problem(alpha=2.1, eta=0.5, p=2.0, a=parse("1", variables=("t",)), f=parse("1"),
                 discretization=Discretization(panels=64, points_per_panel=2))
    assert lambda1(pb) == pytest.approx(math.gamma(3.1) / 3.1, rel=1e-13)


# --- extrema sampling ----------------------------------------------------

def test_box_extrema_hits_lattice_corner():
    value, at = box_maximum(lambda t, u: t + u, (0.0, 1.0), (0.0, 2.0))
    assert value == pytest.approx(3.0, abs=1e-12)
    assert at == (1.0, 2.0)


def test_box_extrema_interior_refinement():
    value, at = box_maximum(lambda t, u: np.sin(np.pi * t) * np.sin(np.pi * u),
                            (0.0, 1.0), (0.0, 1.0))
    assert value == pytest.approx(1.0, abs=1e-8)
    assert at[0] == pytest.approx(0.5, abs=1e-4)


def _three_round_box_maximum(fn, t_range, u_range, lattice=201):
    """box_maximum as it was before its refinement loop could stop early:
    always three rounds of golden-section search."""
    t_lo, t_hi = t_range
    u_lo, u_hi = u_range
    ts = np.linspace(t_lo, t_hi, lattice)
    us = np.linspace(u_lo, u_hi, lattice)
    tg, ug = np.meshgrid(ts, us, indexing="ij")
    vals = np.broadcast_to(np.asarray(fn(tg, ug), float), tg.shape)
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    best_t, best_u, best = ts[i], us[j], float(vals[i, j])
    dt = (t_hi - t_lo) / (lattice - 1) if t_hi > t_lo else 0.0
    du = (u_hi - u_lo) / (lattice - 1) if u_hi > u_lo else 0.0
    for _ in range(3):
        if dt > 0.0:
            lo, hi = max(t_lo, best_t - dt), min(t_hi, best_t + dt)
            x, v = _golden_max_1d(lambda t: float(fn(np.asarray(t), np.asarray(best_u))),
                                  lo, hi)
            if v > best:
                best_t, best = x, v
        if du > 0.0:
            lo, hi = max(u_lo, best_u - du), min(u_hi, best_u + du)
            x, v = _golden_max_1d(lambda u: float(fn(np.asarray(best_t), np.asarray(u))),
                                  lo, hi)
            if v > best:
                best_u, best = x, v
    return best, (float(best_t), float(best_u))


_BOX_CASES = {
    "corner": lambda t, u: t + u,
    "interior": lambda t, u: np.sin(np.pi * t) * np.sin(np.pi * u),
    "mixed": lambda t, u: np.exp(-t) * np.cos(3.0 * u) + 0.3 * t * u,
    # a ridge along t = u: every round of the coordinate search moves
    "ridge": lambda t, u: -10.0 * (t - u) ** 2 - (t + u - 1.3) ** 2,
}


@pytest.mark.parametrize("lattice", [201, 11])
@pytest.mark.parametrize("case", sorted(_BOX_CASES))
def test_box_extrema_equal_three_round_search(case, lattice):
    fn = _BOX_CASES[case]
    box = ((0.0, 1.0), (0.0, 2.0))
    assert box_maximum(fn, *box, lattice=lattice) == \
        _three_round_box_maximum(fn, *box, lattice=lattice)
    neg = lambda t, u: -np.asarray(fn(t, u), float)
    value, at = _three_round_box_maximum(neg, *box, lattice=lattice)
    assert box_minimum(fn, *box, lattice=lattice) == (-value, at)


def test_box_refinement_stops_after_a_round_without_moves():
    calls = []

    def fn(t, u):
        calls.append(np.shape(t))
        return t + u

    box_maximum(fn, (0.0, 1.0), (0.0, 2.0))
    # one lattice call, then one round of two 62-call golden searches
    assert calls[0] == (201, 201)
    assert len(calls) - 1 <= 124
    assert all(shape == () for shape in calls[1:])


def test_box_extrema_bracketed_under_refinement():
    fn = lambda t, u: np.exp(-t) * np.cos(3.0 * u) + 0.3 * t * u
    v1, _ = box_maximum(fn, (0.0, 1.0), (0.0, 2.0), lattice=201)
    v2, _ = box_maximum(fn, (0.0, 1.0), (0.0, 2.0), lattice=401)
    assert abs(v2 - v1) < 1e-3 * (1.0 + abs(v1))
    m1, _ = box_minimum(fn, (0.0, 1.0), (0.0, 2.0), lattice=201)
    m2, _ = box_minimum(fn, (0.0, 1.0), (0.0, 2.0), lattice=401)
    assert abs(m2 - m1) < 1e-3 * (1.0 + abs(m1))


# --- theorem 3.3 ---------------------------------------------------------

def test_leray_schauder_ex41():
    rep = check_leray_schauder(CASES["ex41"].problem, 1.0)
    assert rep.holds
    assert rep.quantities["f_max"] == pytest.approx(0.5 * math.log(2.0), abs=1e-9)
    assert rep.quantities["rhs"] == pytest.approx(0.37348362145043844614, abs=1e-6)


def test_leray_schauder_tiny_nu_fails():
    rep = check_leray_schauder(CASES["ex43"].problem, 1e-6)
    assert not rep.holds
    assert rep.failure_witness() is not None


def test_leray_schauder_constant_f_closed_form():
    # f == c, a == 1, p = 2: bound = c (alpha+1) / Gamma(alpha+1)
    pb = _problem(a="1", f="2", p=2.0)
    threshold = 2.0 * 3.5 / gamma(3.5)
    rep = check_leray_schauder(pb, threshold * 1.01)
    assert rep.holds
    assert rep.quantities["rhs"] == pytest.approx(threshold, rel=1e-9)
    rep = check_leray_schauder(pb, threshold * 0.99)
    assert not rep.holds


def test_leray_schauder_rejects_bad_nu():
    with pytest.raises(ValueError):
        check_leray_schauder(CASES["ex41"].problem, 0.0)


def test_report_reproducibility():
    r1 = check_leray_schauder(CASES["ex41"].problem, 1.0)
    r2 = check_leray_schauder(CASES["ex41"].problem, 1.0)
    assert r1.quantities == r2.quantities
    assert [c.lhs for c in r1.checks] == [c.lhs for c in r2.checks]


# --- theorems 3.1 / 3.2 --------------------------------------------------

def test_krasnoselskii_ex43_defaults():
    case = CASES["ex43"]
    rep = check_krasnoselskii(case.problem, case.rho, case.rho1, case.rho2)
    assert rep.holds
    assert rep.inputs["M1"] == pytest.approx(rep.quantities["lambda1"])
    assert rep.inputs["M2"] == pytest.approx(rep.quantities["lambda2"])
    assert rep.quantities["f_max_upper_box"] == pytest.approx(0.875, abs=1e-12)
    assert rep.quantities["phi_p_M1_rho2"] == pytest.approx(0.87855794424302806227,
                                                            abs=1e-9)
    assert rep.quantities["f_min_lower_box"] == pytest.approx(0.87009930483063007379,
                                                              abs=1e-9)
    assert rep.quantities["phi_p_M2_rho1"] == pytest.approx(0.035923234336611208478,
                                                            abs=1e-7)
    assert rep.quantities["f_min_lower_box"] > rep.quantities["phi_p_M2_rho1"]


def test_krasnoselskii_report_layout():
    case = CASES["ex43"]
    rep = check_krasnoselskii(case.problem, case.rho, case.rho1, case.rho2)
    assert [c.name for c in rep.checks] == [
        "0 < M1", "M1 <= Lambda1", "M2 >= Lambda2", "rho1 < rho2", "M2*rho1 < M1*rho2",
        "f <= phi_p(M1*rho2) on [0,1]x[0,rho2]",
        "f >= phi_p(M2*rho1) on [0,rho]x[g*rho1,rho1]",
    ]
    assert list(rep.quantities) == [
        "lambda1", "lambda2", "gamma", "f_max_upper_box", "phi_p_M1_rho2",
        "f_min_lower_box", "phi_p_M2_rho1",
    ]
    rep = check_krasnoselskii(case.problem, case.rho, 0.5, 1.0, variant="compressive_3_2")
    assert [c.name for c in rep.checks] == [
        "0 < M1", "M1 <= Lambda1", "M2 >= Lambda2", "rho1 < rho2", "gamma*rho2 < rho1",
        "M1*rho1 > M2*rho2",
        "f >= phi_p(M2*rho2) on [0,rho]x[g*rho2,rho2]",
        "f <= phi_p(M1*rho1) on [0,1]x[0,rho1]",
    ]
    assert list(rep.quantities) == [
        "lambda1", "lambda2", "gamma", "f_min_lower_box", "phi_p_M2_rho2",
        "f_max_upper_box", "phi_p_M1_rho1",
    ]


def test_krasnoselskii_zero_f_fails_lower_bound():
    pb = _problem(f="0", p=3.5)
    rep = check_krasnoselskii(pb, 0.5, 1.0 / 120.0, 1.0)
    assert not rep.holds
    witness = rep.failure_witness()
    assert witness is not None
    assert "f >=" in witness.name


def test_krasnoselskii_precondition_violation_reported():
    case = CASES["ex43"]
    rep = check_krasnoselskii(case.problem, case.rho, rho1=1.0, rho2=0.5)
    assert not rep.holds
    assert any(c.name == "rho1 < rho2" and not c.holds for c in rep.checks)


def test_krasnoselskii_m_bounds_checked():
    case = CASES["ex43"]
    rep = check_krasnoselskii(case.problem, case.rho, case.rho1, case.rho2,
                              M1=10.0)  # above Lambda_1
    assert not rep.holds
    assert any(c.name == "M1 <= Lambda1" and not c.holds for c in rep.checks)
    rep = check_krasnoselskii(case.problem, case.rho, case.rho1, case.rho2,
                              M2=0.5)  # below Lambda_2
    assert not rep.holds


def test_krasnoselskii_compressive_variant():
    # The compressive preconditions require M1 rho1 > M2 rho2 with
    # M1 <= Lambda1 < Lambda2 <= M2 and rho1 < rho2, which is unsatisfiable;
    # the checker must evaluate and report them as printed.
    case = CASES["ex43"]
    rep = check_krasnoselskii(case.problem, case.rho, 0.5, 1.0,
                              variant="compressive_3_2")
    assert rep.theorem == "3.2"
    assert not rep.holds
    assert any(c.name == "M1*rho1 > M2*rho2" and not c.holds for c in rep.checks)
    # the two f-boxes are still sampled and reported
    assert "f_min_lower_box" in rep.quantities
    assert "f_max_upper_box" in rep.quantities


def test_krasnoselskii_rejects_bad_inputs():
    case = CASES["ex43"]
    with pytest.raises(ValueError):
        check_krasnoselskii(case.problem, 1.5, 0.1, 1.0)
    with pytest.raises(ValueError):
        check_krasnoselskii(case.problem, 0.5, -0.1, 1.0)
    with pytest.raises(ValueError):
        check_krasnoselskii(case.problem, 0.5, 0.1, 1.0, variant="sideways")


# --- theorem 3.5 (1 < p < 2) ----------------------------------------------

def test_contraction_small_p_ex42():
    case = CASES["ex42"]
    rep = check_contraction_small_p(case.problem,
                                    parse("exp(-t)", variables=("t",)), 2.0)
    assert rep.holds
    assert rep.quantities["l_bound"] == pytest.approx(3.907441184771836938, abs=1e-6)
    assert rep.quantities["contraction_l1"] == pytest.approx(2.0 / 3.907441184771836938,
                                                             rel=1e-6)


def test_contraction_small_p_large_l_fails():
    case = CASES["ex42"]
    rep = check_contraction_small_p(case.problem,
                                    parse("exp(-t)", variables=("t",)), 5.0)
    assert not rep.holds
    assert rep.failure_witness().name == "L < bound"


def test_contraction_small_p_envelope_violation_witnessed():
    case = CASES["ex42"]
    rep = check_contraction_small_p(case.problem,
                                    parse("0.1", variables=("t",)), 2.0)
    assert not rep.holds
    bad = [c for c in rep.checks if c.name.startswith("f <= k")]
    assert bad and not bad[0].holds and bad[0].witness is not None


def test_contraction_small_p_regime_rejected():
    with pytest.raises(ValueError):
        check_contraction_small_p(CASES["ex43"].problem,
                                  parse("1", variables=("t",)), 1.0)
    with pytest.raises(ValueError):
        check_contraction_small_p(CASES["ex42"].problem,
                                  parse("1", variables=("t",)), 0.0)
    with pytest.raises(ValueError):
        check_contraction_small_p(CASES["ex42"].problem, parse("u"), 1.0)


def test_contraction_small_p_implies_picard_contraction():
    """hypotheses_hold implies geometric gap decay at ratio <= L1 + 0.05."""
    case = CASES["ex42"]
    rep = check_contraction_small_p(case.problem,
                                    parse("exp(-t)", variables=("t",)), 2.0)
    assert rep.holds
    l1 = rep.quantities["contraction_l1"]
    from plbvp.quadrature import GridFunction
    u0 = GridFunction.constant(case.problem.partition(), 0.5)
    sol = picard_solve(case.problem, u0=u0, tol=1e-12, max_iter=40)
    diffs = sol.successive_diffs
    for a, b in zip(diffs, diffs[1:]):
        assert b <= (l1 + 0.05) * a + 5e-9


# --- theorem 3.4 (p > 2) ---------------------------------------------------

def _large_p_problem():
    return Problem(alpha=2.5, eta=0.5, p=3.5, a=parse("1", variables=("t",)),
                   f=parse("0.6+0.1*cos(u)"))


def test_contraction_large_p_bound_value():
    rep = check_contraction_large_p(_large_p_problem(), mu=0.5, sigma=1.0, k=0.4)
    assert rep.holds
    assert rep.quantities["k_bound"] == pytest.approx(0.468548096990659496, rel=1e-9)
    rep = check_contraction_large_p(_large_p_problem(), mu=0.5, sigma=1.0, k=0.5)
    assert not rep.holds


def test_contraction_large_p_beta_reconstruction():
    """The beta-based bound equals the direct quadrature reconstruction."""
    mp = pytest.importorskip("mpmath")
    pb = _large_p_problem()
    q = pb.q
    mu, sigma = 0.5, 1.0
    rep = check_contraction_large_p(pb, mu=mu, sigma=sigma, k=0.1)
    c = sigma * (q - 2.0)
    alpha = pb.alpha
    with mp.workdps(30):
        kernel_moment = (
            mp.quad(lambda s: (1 - s) ** (alpha - 1) * s**c, [0, 1], maxdegree=10)
            / mp.gamma(alpha)
            + mp.quad(lambda s: (1 - s) ** (alpha - 2) * s**c, [0, 1], maxdegree=10)
            / mp.gamma(alpha - 1)
        )
        a_integral = 1.0  # a == 1 for this problem
        reconstructed = float(1.0 / ((q - 1.0) * mu ** (q - 2.0) * a_integral
                                     * kernel_moment))
    assert abs(rep.quantities["k_bound"] - reconstructed) \
        <= 1e-9 * max(1.0, abs(reconstructed))


def test_contraction_large_p_mu_homogeneity():
    r1 = check_contraction_large_p(_large_p_problem(), mu=0.5, sigma=1.0, k=0.1)
    r2 = check_contraction_large_p(_large_p_problem(), mu=1.0, sigma=1.0, k=0.1)
    q = _large_p_problem().q
    ratio = r2.quantities["k_bound"] / r1.quantities["k_bound"]
    assert ratio == pytest.approx(2.0 ** (2.0 - q), rel=1e-12)


def test_contraction_large_p_lower_bound_sampling():
    pb = Problem(alpha=2.5, eta=0.5, p=3.5, a=parse("1", variables=("t",)),
                 f=parse("0.1"))
    rep = check_contraction_large_p(pb, mu=0.5, sigma=1.0, k=0.1)
    assert not rep.holds
    bad = rep.failure_witness()
    assert bad is not None and bad.witness is not None


def test_contraction_large_p_regime_rejections():
    pb = _large_p_problem()
    with pytest.raises(ValueError):
        check_contraction_large_p(CASES["ex42"].problem, mu=0.5, sigma=1.0, k=0.1)
    q = pb.q
    cap = 2.0 / (2.0 - q)
    with pytest.raises(ValueError):
        check_contraction_large_p(pb, mu=0.5, sigma=cap, k=0.1)
    with pytest.raises(ValueError):
        check_contraction_large_p(pb, mu=0.0, sigma=1.0, k=0.1)
    with pytest.raises(ValueError):
        check_contraction_large_p(pb, mu=0.5, sigma=1.0, k=0.0)
