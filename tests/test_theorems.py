import importlib.util
import math
import re
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from plbvp import solver, theorems
from plbvp.cases import CASES
from plbvp.cli import _run_check
from plbvp.exprlang import ExprEvalError, evaluate, parse, to_text
from plbvp.problemfile import ProblemConfig
from plbvp.solver import Discretization, Problem, picard_solve
from plbvp.specialfn import gamma
from plbvp.theorems import (
    MAX_STEPS,
    PATTERN,
    SHRINK,
    STOP,
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


def _first_failure(rep):
    """The first check of rep that fails, or None."""
    return next((c for c in rep.checks if not c.holds), None)


def _assert_rejects_nonpositive(call, name):
    """call(value) raises the one finite-and-positive diagnostic of name."""
    for value in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError) as exc:
            call(value)
        assert str(exc.value) == f"{name} must be positive, got {value!r}"


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


@pytest.mark.parametrize("a", ["1e-155", "1e-156"])
def test_lambda1_too_small_to_invert_is_a_value_error(a):
    # phi_q(int_0^1 a) = a^2 is subnormal: positive, but 1 / it overflows
    with pytest.raises(ValueError, match="too small to invert.*Lambda_1 is undefined"):
        lambda1(_problem(a=a, p=1.5))


@pytest.mark.parametrize("a", ["1e-155", "1e-156"])
def test_lambda2_too_small_to_invert_is_a_value_error(a):
    with pytest.raises(ValueError, match="too small to invert.*Lambda_2 is undefined"):
        lambda2(_problem(a=a, p=1.5), 0.5)


@pytest.mark.parametrize("pb, rho, cause", [
    (_problem(a="0", p=3.5), 0.5, "a(t) vanishes on [0, rho]"),
    # 0 at every sample of the rule, and no underflow: a vanishes there
    (_problem(a="max(t - 0.5, 0)", p=3.5), 0.3,
     "a(t) vanishes on [0, rho] (int_0^rho a = 0.0)"),
    # a > 0 at the samples, but each weight times a underflows
    (_problem(a="2.5*t*sqrt(t)", p=3.5), 1e-200,
     "int_0^rho a underflows to 0 (rho = 1e-200)"),
    # t sqrt(t) itself underflows to 0 at every sample
    (_problem(a="2.5*t*sqrt(t)", p=3.5), 1e-300,
     "int_0^rho a underflows to 0 (rho = 1e-300)"),
    # q = 1e6 + 1: phi_q(int_0^s a) <= 0.125^q underflows although a does not vanish
    (_problem(a="t", p=1.0 + 1e-6), 0.5, "phi_q(int_0^s a) underflows"),
    # gamma is about 2e-32 and the integral about 1e-281: each is invertible,
    # their product is not
    (_problem(a="1e-140", alpha=2.0 + 2.0**-51, eta=1.0 - 2.0**-53), 0.5,
     "the cone constant gamma = "),
], ids=["a_vanishes", "a_vanishes_below_rho", "a_integral_underflows",
        "a_underflows", "phi_q_underflows", "gamma_too_small"])
def test_lambda2_diagnostic_names_its_cause(pb, rho, cause):
    with pytest.raises(ValueError) as exc:
        lambda2(pb, rho)
    assert cause in str(exc.value)
    assert str(exc.value).endswith("so Lambda_2 is undefined")


def _lambda2_closed_form(mp, alpha, eta, p, r, rho):
    """Lambda_2 for a = 1.3 r t^(r-1), whose int_0^s a = 1.3 s^r gives
    phi_q(int_0^s a) = 1.3^(q-1) s^m with m = r (q - 1), so that
    int_0^rho Phi(s) s^m ds = (alpha B_rho(m+1, alpha-1) - B_rho(m+2, alpha-1))
    / Gamma(alpha) with incomplete beta functions B_rho."""
    with mp.workdps(40):
        a, q = mp.mpf(alpha), mp.mpf(p) / (mp.mpf(p) - 1)
        m = r * (q - 1)
        gam = (1 - mp.mpf(eta) ** (a - 2)) * (1 - mp.mpf(rho) ** (a - 1))
        moment = (a * mp.betainc(m + 1, a - 1, 0, rho)
                  - mp.betainc(m + 2, a - 1, 0, rho)) / mp.gamma(a)
        return 1 / (gam * mp.mpf(1.3) ** (q - 1) * moment)


@pytest.mark.parametrize("panels, tol", [(128, 3e-9), (512, 3e-11)])
def test_lambda2_power_law_coefficients_against_closed_form(panels, tol):
    # a(t) behaves like t^(r-1) at t = 0, which the running integral of
    # lambda2's one rule resolves panel by panel
    mp = pytest.importorskip("mpmath")
    for p in (1.5, 3.5):
        for r in (1.0, 1.2, 1.5, 2.5):
            pb = Problem(alpha=2.3, eta=0.4, p=p,
                         a=parse(f"{1.3 * r!r}*t^{r - 1.0!r}", variables=("t",)),
                         f=parse("1"), discretization=Discretization(panels=panels))
            exact = _lambda2_closed_form(mp, 2.3, 0.4, p, r, 0.5)
            assert float(abs(lambda2(pb, 0.5) / exact - 1)) <= tol, (p, r)


def test_lambda2_memory_is_linear_in_panels():
    # a(t) is sampled N m (m + 1) times, about 160 KB at 1024 panels; a nested
    # rule per outer point would take N^2 samples
    pb = CASES["ex43"].problem
    pb = replace(pb, discretization=replace(pb.discretization, panels=1024))
    lambda2(pb, 0.5)  # compiles a(t) outside the measurement
    tracemalloc.start()
    try:
        lambda2(pb, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


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


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max_1d(fn, lo, hi, iters=60):
    """Golden-section maximization of a 1d slice, as box_maximum refined
    before its pattern search."""
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


def _three_round_box_maximum(fn, t_range, u_range, lattice=201):
    """The reference search: the lattice, then three rounds of golden-section
    search in t and in u within one cell of the best point."""
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
    # at least as good as the reference on both boxes, up to rounding: equal
    # on the smooth cases, better on the ridge (pinned below)
    fn = _BOX_CASES[case]
    neg = lambda t, u: -np.asarray(fn(t, u), float)
    for box in (((0.0, 1.0), (0.0, 2.0)), ((0.0, 1.0), (0.0, 100.0))):
        ref, _ = _three_round_box_maximum(fn, *box, lattice=lattice)
        value, _ = box_maximum(fn, *box, lattice=lattice)
        assert value >= ref - 1e-15 * max(1.0, abs(ref))
        ref, _ = _three_round_box_maximum(neg, *box, lattice=lattice)
        value, _ = box_minimum(fn, *box, lattice=lattice)
        assert value <= -ref + 1e-15 * max(1.0, abs(ref))


@pytest.mark.parametrize("lattice, u_hi, ref_below, at_least", [
    (11, 2.0, -1e-3, -1e-30),
    (201, 100.0, -4e-2, -1e-8),
])
def test_box_maximum_gains_on_a_ridge(lattice, u_hi, ref_below, at_least):
    # the coordinate searches creep along the ridge; the pattern search
    # moves along it (the maximum is 0, at t = u = 0.65)
    fn = _BOX_CASES["ridge"]
    box = ((0.0, 1.0), (0.0, u_hi))
    assert _three_round_box_maximum(fn, *box, lattice=lattice)[0] < ref_below
    value, at = box_maximum(fn, *box, lattice=lattice)
    assert at_least <= value <= 0.0
    assert at == pytest.approx((0.65, 0.65), abs=1e-4)


def test_box_refinement_stops_after_a_round_without_moves():
    calls = []

    def fn(t, u):
        calls.append((np.shape(t), np.shape(u)))
        return t + u

    box_maximum(fn, (0.0, 1.0), (0.0, 2.0))
    # one lattice call; then no step finds a higher value than the corner, so
    # the pattern shrinks by quarters from one cell to 1e-12 of one: all 20
    # levels in one batch
    assert calls == [((201, 1), (1, 201)), ((20, 9, 1), (20, 1, 9))]


def test_box_extrema_with_a_degenerate_t_range():
    fn = lambda t, u: np.sin(3.0 * u) * (1.0 + t)
    value, at = box_maximum(fn, (0.5, 0.5), (0.0, 2.0))
    assert at[0] == 0.5
    assert value == pytest.approx(1.5, abs=1e-12)
    assert at[1] == pytest.approx(math.pi / 6.0, abs=1e-6)
    value, at = box_minimum(fn, (0.5, 0.5), (0.0, 2.0))
    assert at[0] == 0.5
    assert value == pytest.approx(-1.5, abs=1e-12)
    assert at[1] == pytest.approx(math.pi / 2.0, abs=1e-6)


def test_box_extrema_bracketed_under_refinement():
    fn = lambda t, u: np.exp(-t) * np.cos(3.0 * u) + 0.3 * t * u
    v1, _ = box_maximum(fn, (0.0, 1.0), (0.0, 2.0), lattice=201)
    v2, _ = box_maximum(fn, (0.0, 1.0), (0.0, 2.0), lattice=401)
    assert abs(v2 - v1) < 1e-3 * (1.0 + abs(v1))
    m1, _ = box_minimum(fn, (0.0, 1.0), (0.0, 2.0), lattice=201)
    m2, _ = box_minimum(fn, (0.0, 1.0), (0.0, 2.0), lattice=401)
    assert abs(m2 - m1) < 1e-3 * (1.0 + abs(m1))


def _stepwise_box_maximum(fn, t_range, u_range, lattice=201):
    """The reference search: the meshgrid lattice, then one PATTERN x PATTERN
    call per pattern-search step.  Returns (value, (t, u), steps)."""
    t_lo, t_hi = t_range
    u_lo, u_hi = u_range

    def sample(ts, us):
        tg, ug = np.meshgrid(ts, us, indexing="ij")
        vals = np.broadcast_to(np.asarray(fn(tg, ug), float), tg.shape)
        i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        return float(vals[i, j]), ts[i], us[j]

    best, best_t, best_u = sample(np.linspace(t_lo, t_hi, lattice),
                                  np.linspace(u_lo, u_hi, lattice))
    cell_t = (t_hi - t_lo) / (lattice - 1)
    cell_u = (u_hi - u_lo) / (lattice - 1)
    ht, hu = cell_t, cell_u
    steps = 0
    for _ in range(MAX_STEPS):
        if ht <= STOP * cell_t and hu <= STOP * cell_u:
            break
        steps += 1
        value, t, u = sample(
            np.linspace(max(t_lo, best_t - ht), min(t_hi, best_t + ht), PATTERN),
            np.linspace(max(u_lo, best_u - hu), min(u_hi, best_u + hu), PATTERN))
        if value > best:
            best, best_t, best_u = value, t, u
        else:
            ht, hu = ht / SHRINK, hu / SHRINK
    return best, (float(best_t), float(best_u)), steps


def _assert_stepwise_extrema(fn, t_range, u_range, lattice=201):
    # bit for bit: the same value and witness as one call per step
    value, at, _ = _stepwise_box_maximum(fn, t_range, u_range, lattice)
    assert box_maximum(fn, t_range, u_range, lattice) == (value, at)
    value, at, _ = _stepwise_box_maximum(lambda t, u: -np.asarray(fn(t, u), float),
                                         t_range, u_range, lattice)
    assert box_minimum(fn, t_range, u_range, lattice) == (-value, at)


_BOXES = (((0.0, 1.0), (0.0, 2.0)), ((0.0, 1.0), (0.0, 100.0)))


@pytest.mark.parametrize("lattice", [201, 11])
@pytest.mark.parametrize("case", sorted(_BOX_CASES))
def test_box_extrema_equal_stepwise_search(case, lattice):
    for box in _BOXES:
        _assert_stepwise_extrema(_BOX_CASES[case], *box, lattice=lattice)


def test_box_maximum_counts_steps_on_a_ridge():
    # the stepwise search still moves when it meets the step guard, so a
    # batch that counted other than k + 1 steps for a move at its level k
    # would stop elsewhere
    fn = _BOX_CASES["ridge"]
    box = ((0.0, 1.0), (0.0, 100.0))
    value, at, steps = _stepwise_box_maximum(fn, *box)
    assert steps == MAX_STEPS
    assert box_maximum(fn, *box) == (value, at)


def test_box_extrema_equal_stepwise_search_on_a_degenerate_t_range():
    fn = lambda t, u: np.sin(3.0 * u) * (1.0 + t)
    _assert_stepwise_extrema(fn, (0.5, 0.5), (0.0, 2.0))
    _assert_stepwise_extrema(fn, (0.5, 0.5), (0.5, 0.5))


def _bench_oracle():
    """bench/oracle.py: the benchmark's manufactured problems."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def _scan_batch_nonlinearities():
    """f of the benchmark's scan batch of seed 0."""
    oracle = _bench_oracle()
    return [inst.problem(128).f for inst in oracle.scan_batch(np.random.default_rng(0))]


def test_box_extrema_of_problem_nonlinearities_equal_stepwise_search():
    fs = [case.problem.f for _, case in sorted(CASES.items())]
    fs += _scan_batch_nonlinearities()
    assert len(fs) > 3
    for f in fs:
        for box in _BOXES:
            _assert_stepwise_extrema(partial(evaluate, f), *box)


# --- theorem 3.3 ---------------------------------------------------------

def test_leray_schauder_ex41():
    rep = check_leray_schauder(CASES["ex41"].problem, 1.0)
    assert rep.holds
    assert rep.quantities["f_max"] == pytest.approx(0.5 * math.log(2.0), abs=1e-9)
    assert rep.quantities["rhs"] == pytest.approx(0.37348362145043844614, abs=1e-6)


def test_leray_schauder_tiny_nu_fails():
    rep = check_leray_schauder(CASES["ex43"].problem, 1e-6)
    assert not rep.holds
    assert _first_failure(rep) is not None


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
    _assert_rejects_nonpositive(partial(check_leray_schauder, CASES["ex41"].problem), "nu")


def test_report_reproducibility():
    r1 = check_leray_schauder(CASES["ex41"].problem, 1.0)
    r2 = check_leray_schauder(CASES["ex41"].problem, 1.0)
    assert r1.quantities == r2.quantities
    assert [c.lhs for c in r1.checks] == [c.lhs for c in r2.checks]


# --- theorems 3.1 / 3.2 --------------------------------------------------

def test_krasnoselskii_ex43_defaults():
    case = CASES["ex43"]
    rep = check_krasnoselskii(case.problem, case.rho, case.flags["rho1"], case.flags["rho2"])
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
    rep = check_krasnoselskii(case.problem, case.rho, case.flags["rho1"], case.flags["rho2"])
    assert [c.name for c in rep.checks] == [
        "0 < M1", "M1 <= Lambda1", "M2 >= Lambda2", "rho1 < rho2", "M2*rho1 < M1*rho2",
        "f <= phi_p(M1*rho2) on [0,1]x[0,rho2]",
        "f >= phi_p(M2*rho1) on [0,rho]x[g*rho1,rho1]",
    ]
    assert list(rep.quantities) == [
        "lambda1", "lambda2", "gamma", "f_max_upper_box", "phi_p_M1_rho2",
        "f_min_lower_box", "phi_p_M2_rho1",
    ]
    rep = check_krasnoselskii(case.problem, case.rho, 0.5, 1.0, theorem="3.2")
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
    witness = _first_failure(rep)
    assert witness is not None
    assert "f >=" in witness.name


def test_krasnoselskii_precondition_violation_reported():
    case = CASES["ex43"]
    rep = check_krasnoselskii(case.problem, case.rho, rho1=1.0, rho2=0.5)
    assert not rep.holds
    assert any(c.name == "rho1 < rho2" and not c.holds for c in rep.checks)


def test_krasnoselskii_m_bounds_checked():
    case = CASES["ex43"]
    rep = check_krasnoselskii(case.problem, case.rho, case.flags["rho1"], case.flags["rho2"],
                              M1=10.0)  # above Lambda_1
    assert not rep.holds
    assert any(c.name == "M1 <= Lambda1" and not c.holds for c in rep.checks)
    rep = check_krasnoselskii(case.problem, case.rho, case.flags["rho1"], case.flags["rho2"],
                              M2=0.5)  # below Lambda_2
    assert not rep.holds


def test_krasnoselskii_compressive_variant():
    # The compressive preconditions require M1 rho1 > M2 rho2 with
    # M1 <= Lambda1 < Lambda2 <= M2 and rho1 < rho2, which is unsatisfiable;
    # the checker must evaluate and report them as printed.
    case = CASES["ex43"]
    rep = check_krasnoselskii(case.problem, case.rho, 0.5, 1.0,
                              theorem="3.2")
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
        check_krasnoselskii(case.problem, 0.5, 0.1, 1.0, theorem="3.3")
    _assert_rejects_nonpositive(lambda v: check_krasnoselskii(case.problem, 0.5, v, 1.0),
                                "rho1")
    _assert_rejects_nonpositive(lambda v: check_krasnoselskii(case.problem, 0.5, 0.1, v),
                                "rho2")


@pytest.mark.parametrize("given", [{"M1": math.nan}, {"M2": math.inf}, {"M1": -math.inf}],
                         ids=["M1_nan", "M2_inf", "M1_minus_inf"])
def test_krasnoselskii_rejects_nonfinite_m(given):
    case = CASES["ex43"]
    (name, value), = given.items()
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        check_krasnoselskii(case.problem, case.rho, case.flags["rho1"], case.flags["rho2"], **given)


@pytest.mark.parametrize("theorem, rho1, rho2, given, cap_key, upper", [
    ("3.1", 0.008333, 10.0, {"M1": 1e308}, "phi_p_M1_rho2", math.inf),
    ("3.2", 0.5, 1e300, {"M2": 1e10}, "phi_p_M2_rho2", math.inf),
    ("3.1", 0.008333, 10.0, {"M1": -1e308}, "phi_p_M1_rho2", -math.inf),
], ids=["M1_rho2", "M2_rho2", "negative_M1_rho2"])
def test_krasnoselskii_overflowing_cap_is_infinite(theorem, rho1, rho2, given, cap_key, upper):
    # phi_p(+-inf) = +-inf, so a cap whose argument M * rho overflowed is that
    # infinity, and the report states it
    case = CASES["ex43"]
    rep = check_krasnoselskii(case.problem, case.rho, rho1, rho2, theorem=theorem, **given)
    assert rep.quantities[cap_key] == upper
    assert not rep.holds
    if upper < 0.0:  # M1 <= 0 stays a reported check
        assert [c.holds for c in rep.checks if c.name == "0 < M1"] == [False]


# --- theorem 3.5 (1 < p < 2) ----------------------------------------------

def test_contraction_small_p_ex42():
    case = CASES["ex42"]
    rep = check_contraction_small_p(case.problem,
                                    parse("exp(-t)", variables=("t",)), 2.0)
    assert rep.holds
    assert rep.quantities["l_bound"] == pytest.approx(3.907441184771836938, abs=1e-6)
    assert rep.quantities["contraction_l1"] == pytest.approx(2.0 / 3.907441184771836938,
                                                             rel=1e-6)


@pytest.mark.parametrize("k_env", ["exp(-t)", "0.1"])
def test_contraction_l1_is_l_over_its_bound(k_env):
    # 3.5 states its contraction factor as 3.4 does: L over the bound on L
    rep = check_contraction_small_p(CASES["ex42"].problem,
                                    parse(k_env, variables=("t",)), 2.0)
    assert rep.quantities["contraction_l1"] == 2.0 / rep.quantities["l_bound"]


def test_contraction_l1_of_a_bound_that_underflows_is_infinite():
    # int a = 1e30 and M = int a k = 1e3 with q = 101: the bound on L,
    # M^(2-q) / ((q-1) int Phi int a), underflows to 0
    pb = _problem(a="1e30", f="1", p=1.01)
    rep = check_contraction_small_p(pb, parse("1e-27", variables=("t",)), 1.0)
    assert rep.quantities["l_bound"] == 0.0
    assert rep.quantities["contraction_l1"] == math.inf
    assert not rep.holds


def test_contraction_small_p_whose_ak_integral_overflows_fails():
    # a k = 1e310 overflows though a and k are finite: M = int a k is inf, so
    # M^(2-q) = 0 (q = 3), the bound on L is 0 and L1 is infinite
    pb = _problem(a="1e300", f="1", p=1.5)
    rep = check_contraction_small_p(pb, parse("1e10", variables=("t",)), 1.0)
    assert rep.quantities["ak_integral"] == math.inf
    assert rep.quantities["l_bound"] == 0.0
    assert rep.quantities["contraction_l1"] == math.inf
    assert not rep.holds and _first_failure(rep).name == "L < bound"


def test_contraction_small_p_starts_from_the_validation_lattice(monkeypatch):
    # validation keeps f on its lattice for 1 < p < 2, and 3.5 starts from it;
    # a copy, whose texts are already validated, samples f on demand
    monkeypatch.setattr(solver, "_VALIDATED", {})
    pb = _problem(a="1 + t", f="exp(-t)*sin(u)^2 + 0.2*t*u/(1 + u)", p=1.4)
    kept = pb.__dict__["_kept"]["f_lattice"]
    assert kept.shape == (theorems.LATTICE, theorems.LATTICE) and not kept.flags.writeable
    copy = replace(pb)
    assert "_kept" not in copy.__dict__
    k_env = parse("1.2*exp(-t)", variables=("t",))
    rep = check_contraction_small_p(pb, k_env, 1.0)
    assert pb.__dict__["_kept"]["f_lattice"] is kept
    assert check_contraction_small_p(copy, k_env, 1.0) == rep
    assert np.array_equal(copy.__dict__["_kept"]["f_lattice"], kept)
    assert "_kept" not in _problem(p=2.5).__dict__


def test_contraction_small_p_large_l_fails():
    case = CASES["ex42"]
    rep = check_contraction_small_p(case.problem,
                                    parse("exp(-t)", variables=("t",)), 5.0)
    assert not rep.holds
    assert _first_failure(rep).name == "L < bound"


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
    _assert_rejects_nonpositive(partial(check_contraction_small_p, CASES["ex42"].problem,
                                        parse("1", variables=("t",))), "L")


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
    bad = _first_failure(rep)
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
    _assert_rejects_nonpositive(lambda v: check_contraction_large_p(pb, v, 1.0, 0.1), "mu")
    _assert_rejects_nonpositive(lambda v: check_contraction_large_p(pb, 0.5, 1.0, v), "k")


# --- what a problem keeps --------------------------------------------------

_K_ENV = parse("exp(-t)", variables=("t",))


def _check_sequence(inst):
    """Lambda_1, Lambda_2 and the checks of one benchmark instance, in an
    order in which later calls find what earlier ones kept."""
    top = float(inst.exact(0.0))
    if inst.p > 2.0:
        contraction = partial(check_contraction_large_p, mu=0.1,
                              sigma=0.5 / (2.0 - inst.q), k=0.1)
    else:
        contraction = partial(check_contraction_small_p, k_env=_K_ENV, L=1.0)
    return [
        lambda1,
        partial(lambda2, rho=0.5),
        partial(check_leray_schauder, nu=2.0 * top),
        partial(check_krasnoselskii, rho=0.5, rho1=0.1 * top, rho2=2.0 * top),
        partial(check_krasnoselskii, rho=0.5, rho1=0.1 * top, rho2=2.0 * top,
                theorem="3.2"),
        partial(check_leray_schauder, nu=0.1 * top),
        contraction,
        partial(lambda2, rho=0.3),
        lambda1,
    ]


@pytest.mark.parametrize("panels", [64, 128])
def test_kept_values_change_no_report(panels):
    oracle = _bench_oracle()
    instances = list(oracle.REFINE) + oracle.scan_batch(np.random.default_rng(0))
    for inst in instances:
        base = inst.problem(panels)
        shared = replace(base)
        for call in _check_sequence(inst):
            assert repr(call(shared)) == repr(call(replace(base)))


def _counting(monkeypatch, name) -> list:
    """The arguments of every call of theorems.<name>, which still runs."""
    calls = []
    fn = getattr(theorems, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(theorems, name, counting)
    return calls


def test_shared_values_are_computed_once(monkeypatch):
    pb = replace(CASES["ex43"].problem)
    boxes = _counting(monkeypatch, "box_maximum")
    rules = _counting(monkeypatch, "graded_edges")
    integrals = _counting(monkeypatch, "integrate")
    check_leray_schauder(pb, 1.0)
    check_krasnoselskii(pb, 0.5, 1.0 / 120.0, 1.0)
    # 3.3's box [0,1]x[0,nu] is 3.1's upper box for nu = rho2; the other is
    # 3.1's lower box
    assert [box[1:] for box in boxes].count(((0.0, 1.0), (0.0, 1.0))) == 1
    assert len(boxes) == 2
    lambda2(pb, 0.5)
    lambda2(pb, 0.5)
    assert len(rules) == 1
    lambda1(pb)
    check_contraction_large_p(pb, 0.005, 1.5, 0.01)
    assert len(integrals) == 1  # int_0^1 a


def test_failed_computations_are_not_kept(monkeypatch):
    # f is defined on the load lattice, u <= 100, but not beyond u = 150
    pb = _problem(f="sqrt(150 - u)", p=3.5)
    boxes = _counting(monkeypatch, "box_maximum")
    rules = _counting(monkeypatch, "graded_edges")
    for call, error in [
            (partial(check_leray_schauder, pb, 200.0), ExprEvalError),
            (partial(check_krasnoselskii, pb, 0.5, 0.1, 200.0), ExprEvalError),
            (partial(lambda2, pb, 1.5), ValueError),
            (partial(check_krasnoselskii, pb, 1.5, 0.1, 1.0), ValueError),
            (partial(lambda2, _problem(a="0", p=3.5), 0.5), ValueError)]:
        messages = []
        for _ in range(2):
            with pytest.raises(error) as exc:
                call()
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
    # each box and each Lambda_2 rule is sampled again after it raised; a
    # bad rho raises before the rule, and pb's Lambda_2(0.5) is kept
    assert [box[1:] for box in boxes].count(((0.0, 1.0), (0.0, 200.0))) == 4
    assert len(rules) == 1 + 2
    assert set(pb.__dict__.get("_kept", {})) <= {"a_integral", ("lambda2", 0.5)}
    assert check_leray_schauder(pb, 100.0).quantities["f_max"] == math.sqrt(150.0)


# --- how a check is decided -------------------------------------------------

def _check(rep, name):
    """The check of rep called name."""
    (check,) = [c for c in rep.checks if c.name == name]
    return check


@pytest.mark.parametrize("k_env, holds", [("1 - 5e-13", True), ("1 - 2e-12", False)])
def test_sampled_maximum_is_allowed_the_slack(k_env, holds):
    # f - k has the sampled maximum 1 - k, allowed SAMPLING_SLACK = 1e-12 above 0
    rep = check_contraction_small_p(_problem(), parse(k_env, variables=("t",)), 1.0)
    assert _check(rep, "f <= k on [0,1]x[0,u_max]").holds is holds


@pytest.mark.parametrize("k_env, holds", [("-5e-13", True), ("-2e-12", False)])
def test_sampled_minimum_is_allowed_the_slack(k_env, holds):
    # k's sampled minimum may lie SAMPLING_SLACK below its bound 0
    rep = check_contraction_small_p(_problem(), parse(k_env, variables=("t",)), 1.0)
    check = _check(rep, "k >= 0 on [0,1]")
    assert check.holds is holds
    assert (check.lhs, check.rhs, check.witness) == (0.0, float(k_env), (0.0, None))


@pytest.mark.parametrize("mu, holds", [(1.0 + 5e-13, True), (1.0 + 2e-12, False)])
def test_sampled_lower_bound_of_3_4_is_allowed_the_slack(mu, holds):
    # a f = 1 against mu sigma t^(sigma-1) = mu: the deficit's maximum is mu - 1
    rep = check_contraction_large_p(_problem(p=3.0), mu=mu, sigma=1.0, k=0.1)
    assert _check(rep, "a*f >= mu*sigma*t^(sigma-1) on (0,1]x[0,u_max]").holds is holds


def test_strict_closed_form_sides_are_compared_exactly():
    pb = _problem()
    bound = check_leray_schauder(pb, 1.0).quantities["rhs"]
    assert not check_leray_schauder(pb, bound).holds
    assert check_leray_schauder(pb, math.nextafter(bound, math.inf)).holds
    case = CASES["ex43"]
    rep = check_krasnoselskii(case.problem, case.rho, 1.0, 1.0)
    check = _check(rep, "rho1 < rho2")
    assert not check.holds and check.lhs == check.rhs == 1.0


def test_weak_closed_form_sides_hold_at_equality():
    case = CASES["ex43"]
    lam2 = lambda2(case.problem, case.rho)
    rep = check_krasnoselskii(case.problem, case.rho, case.flags["rho1"], case.flags["rho2"],
                              M2=lam2)
    check = _check(rep, "M2 >= Lambda2")
    assert check.holds and check.lhs == check.rhs == lam2
    rep = check_krasnoselskii(case.problem, case.rho, case.flags["rho1"], case.flags["rho2"],
                              M2=math.nextafter(lam2, 0.0))
    assert not _check(rep, "M2 >= Lambda2").holds


# --- relation R1: a -> c a, f -> f / c ---------------------------------------

_SCALES = (2.0, 1e-3, 1e3, 1e-8, 1e8)


def _scaled(pb, c):
    """pb with a -> c a and f -> f / c; c = 1 changes no value."""
    return replace(pb, a=parse(f"{c!r}*({to_text(pb.a)})", variables=("t",)),
                   f=parse(f"({to_text(pb.f)})/{c!r}"))


def _check_scaled(config, flags, c):
    """plbvp check's report on config with a -> c a and f -> f / c, and with
    the flags k, L and k_env -> 1/c of themselves."""
    scaled = _scaled(config.problem, c)
    flags = {name: value / c if name in ("k", "L") else value for name, value in flags.items()}
    if "k_env" in flags:
        flags["k_env"] = f"({flags['k_env']})/{c!r}"
    return _run_check(replace(config, problem=scaled), **flags)


def _r1_calls():
    """(config, flags) of the bench's check calls on its refine and seed-0
    scan instances at 64 panels, 3.2 and 3.3 at nu = 0.1 top included, and
    of the bundled cases' checks, ex43's 3.2 and CI's 3.4 call included."""
    oracle = _bench_oracle()
    for inst in list(oracle.REFINE) + oracle.scan_batch(np.random.default_rng(0)):
        config, top = ProblemConfig(problem=inst.problem(64)), float(inst.exact(0.0))
        for theorem in ("3.1", "3.2"):
            yield config, {"theorem": theorem, "rho1": 0.1 * top, "rho2": 2.0 * top}
        for nu in (2.0 * top, 0.1 * top):
            yield config, {"theorem": "3.3", "nu": nu}
        if inst.p > 2.0:
            yield config, {"theorem": "3.4", "mu": 0.1, "sigma": 0.5 / (2.0 - inst.q),
                           "k": 0.1}
        else:
            yield config, {"theorem": "3.5", "k_env": "exp(-t)", "L": 1.0}
    for case in CASES.values():
        yield case, case.flags
    yield CASES["ex43"], {"theorem": "3.2", "rho1": 0.5, "rho2": 1.0}
    yield CASES["ex43"], {"theorem": "3.4", "mu": 0.005, "sigma": 1.5, "k": 0.01}


def test_scaling_a_up_and_f_down_moves_no_verdict():
    calls = list(_r1_calls())
    assert len(calls) == 34 * 5 + 5
    moved = []
    for call in calls:
        verdicts = [c.holds for c in _check_scaled(*call, 1.0).checks]
        moved += [(call[1], c) for c in _SCALES
                  if [check.holds for check in _check_scaled(*call, c).checks] != verdicts]
    assert moved == []


def test_scaling_a_up_and_f_down_moves_no_solution():
    # the refine and seed-0 scan instances at 64 panels
    oracle = _bench_oracle()
    worst = 0.0
    for inst in list(oracle.REFINE) + oracle.scan_batch(np.random.default_rng(0)):
        pb = inst.problem(64)
        reference = picard_solve(_scaled(pb, 1.0))
        assert reference.converged
        for c in _SCALES:
            report = picard_solve(_scaled(pb, c))
            assert report.converged
            gap = np.max(np.abs(report.solution.values - reference.solution.values))
            worst = max(worst, float(gap / np.max(np.abs(reference.solution.values))))
    assert worst <= 1e-13


# --- relation R2: u -> lam u, f -> lam^(p-1) f(t, u / lam) -------------------

_STRETCHES = (3.0, 1e-2)


def _stretched(pb, lam):
    """pb with f(t, u) -> lam^(p-1) f(t, u / lam), whose solutions are lam
    times those of pb; lam = 1 changes no value."""
    f = re.sub(r"\bu\b", f"(u/{lam!r})", to_text(pb.f))
    return replace(pb, f=parse(f"{lam ** (pb.p - 1.0)!r}*({f})"))


def _check_stretched(config, flags, lam):
    """plbvp check's report on config with f stretched by lam, and with nu and
    the rho's -> lam of themselves, mu and k_env -> lam^(p-1) and k and L ->
    lam^(p-2) of themselves."""
    p = config.problem.p
    powers = {"rho1": 1.0, "rho2": 1.0, "nu": 1.0, "mu": p - 1.0, "k": p - 2.0, "L": p - 2.0}
    flags = {name: value * lam ** powers[name] if name in powers else value
             for name, value in flags.items()}
    if "k_env" in flags:
        flags["k_env"] = f"({flags['k_env']})*{lam ** (p - 1.0)!r}"
    return _run_check(replace(config, problem=_stretched(config.problem, lam)), **flags)


def test_stretching_u_moves_no_verdict():
    calls = list(_r1_calls())
    assert {name for _, flags in calls for name in flags} <= {
        "theorem", "rho1", "rho2", "nu", "mu", "sigma", "k", "k_env", "L"}
    moved = []
    for call in calls:
        verdicts = [c.holds for c in _check_stretched(*call, 1.0).checks]
        moved += [(call[1], lam) for lam in _STRETCHES
                  if [check.holds for check in _check_stretched(*call, lam).checks] != verdicts]
    assert moved == []


def test_stretching_u_stretches_the_solution():
    # the refine and seed-0 scan instances at 64 panels
    oracle = _bench_oracle()
    worst = 0.0
    for inst in list(oracle.REFINE) + oracle.scan_batch(np.random.default_rng(0)):
        pb = inst.problem(64)
        reference = picard_solve(_stretched(pb, 1.0))
        assert reference.converged
        for lam in _STRETCHES:
            report = picard_solve(_stretched(pb, lam))
            assert report.converged
            want = lam * reference.solution.values
            gap = np.max(np.abs(report.solution.values - want))
            worst = max(worst, float(gap / np.max(np.abs(want))))
    assert worst <= 1e-10
