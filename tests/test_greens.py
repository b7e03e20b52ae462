import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plbvp import greens
from plbvp.greens import (
    KernelParams,
    cone_gamma,
    g_kernel,
    h_kernel,
    k_kernel,
    phi_envelope,
)

KP = KernelParams(2.5, 0.5)


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(2.0, 0.5)
    with pytest.raises(ValueError):
        KernelParams(3.1, 0.5)
    with pytest.raises(ValueError):
        KernelParams(2.5, 0.0)
    with pytest.raises(ValueError):
        KernelParams(2.5, 1.0)
    KernelParams(3.0, 0.999)  # boundary alpha allowed


def test_g_kernel_values():
    assert g_kernel(KP, 0.0, 0.0) == pytest.approx(0.75225277806367504926, rel=1e-13)
    assert g_kernel(KP, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    # upper branch at (0.3, 0.6): (1 - 0.6)^1.5 / Gamma(2.5)
    assert g_kernel(KP, 0.3, 0.6) == pytest.approx(0.19030657238962891888, rel=1e-13)


def test_h_kernel_values():
    assert h_kernel(KP, 0.0, 0.5) == pytest.approx(0.79788456080286535588, rel=1e-13)
    assert h_kernel(KP, 0.5, 0.0) == pytest.approx(0.33049460629264721802, rel=1e-13)
    kp3 = KernelParams(3.0, 0.5)
    assert h_kernel(kp3, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_k_kernel_values():
    assert k_kernel(KP, 1.0, 0.0) == pytest.approx(0.33049460629264721802, rel=1e-13)
    assert k_kernel(KP, 0.0, 0.0) == pytest.approx(1.0827473843563222673, rel=1e-13)
    for kp in (KP, KernelParams(2.2, 0.8), KernelParams(3.0, 0.3)):
        for t in (0.0, 0.4, 1.0):
            assert k_kernel(kp, t, 1.0) == pytest.approx(0.0, abs=1e-15)


def _k_kernel_by_branches(kp, t, s):
    """K(t, s) as written out with both branches, before k_kernel became
    G(t, s) + H(eta, s)."""
    tv = greens._clip_unit("t", t)
    sv = greens._clip_unit("s", s)
    value = greens._branch(tv, sv, kp.alpha - 1.0, math.gamma(kp.alpha)) + greens._branch(
        np.asarray(kp.eta), sv, kp.alpha - 2.0, math.gamma(kp.alpha - 1.0))
    return greens._scalar_like(value, t, s)


def _same_bits(got, want):
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


def test_k_kernel_is_g_plus_h_at_eta_bit_for_bit():
    # the 200 x 200 grids and (alpha, eta) draws of acceptance criterion 4
    rng = np.random.default_rng(2024)
    grid = np.linspace(0.0, 1.0, 200)
    tg, sg = np.meshgrid(grid, grid, indexing="ij")
    for _ in range(20):
        kp = KernelParams(2.0 + rng.uniform(0.01, 1.0), rng.uniform(0.02, 0.98))
        for t, s in ((tg, sg), (grid, 0.3), (0.3, grid), (grid[:, None], grid[None, :]),
                     (0.25, 0.75), (0.75, 0.25), (kp.eta, kp.eta), (0.0, 1.0),
                     (np.float64(0.6), 0.4), (np.array(0.6), np.array(0.4)),
                     (np.array(0.2), 0.9)):
            assert _same_bits(k_kernel(kp, t, s), _k_kernel_by_branches(kp, t, s))


def test_phi_envelope_values():
    assert phi_envelope(KP, 0.0) == pytest.approx(1.8806319451591876232, rel=1e-13)
    for alpha in (2.1, 2.5, 3.0):
        assert phi_envelope(KernelParams(alpha, 0.5), 1.0) == pytest.approx(0.0, abs=1e-15)


def test_cone_gamma_values():
    assert cone_gamma(KernelParams(3.0, 0.5), 0.5) == pytest.approx(3.0 / 8.0, rel=1e-14)
    assert cone_gamma(KP, 0.2) == pytest.approx(0.26669605291682847438, rel=1e-13)


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(2.0, 3.0, exclude_min=True),
       eta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       rho=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(alpha=2.0 + 1e-9, eta=1.0 - 1e-9, rho=0.5)  # 5.0e-19, not 0
@example(alpha=2.0 + 1e-9, eta=0.999, rho=0.5)
def test_cone_gamma_to_a_few_ulp(alpha, eta, rho):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        a = mp.mpf(alpha)
        exact = (1 - mp.mpf(eta) ** (a - 2)) * (1 - mp.mpf(rho) ** (a - 1))
        error = abs(cone_gamma(KernelParams(alpha, eta), rho) / exact - 1)
    assert error <= 4.0 * 2.0**-52


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(2.0, 3.0, exclude_min=True),
       t=st.floats(0.0, 1.0), s=st.floats(0.0, 1.0))
@example(alpha=2.0 + 1e-9, t=0.9999266976564318, s=0.6304089010971554)
@example(alpha=2.0 + 1e-6, t=0.9999999999999125, s=0.999997330766276)
@example(alpha=2.0 + 1e-9, t=5e-324, s=0.0)  # (1 - t)/(t - s) overflows
def test_kernel_differences_to_a_few_ulp(alpha, t, s):
    # s < t, where G and H are (1 - s)^e - (t - s)^e over Gamma, and the two
    # powers nearly cancel for alpha near 2
    assume(s < t)
    mp = pytest.importorskip("mpmath")
    kp = KernelParams(alpha, 0.5)
    for kernel, expo, gamma_value in ((g_kernel, alpha - 1.0, math.gamma(alpha)),
                                      (h_kernel, alpha - 2.0, math.gamma(alpha - 1.0))):
        with mp.workdps(50):
            e = mp.mpf(expo)
            exact = ((1 - mp.mpf(s)) ** e - (mp.mpf(t) - mp.mpf(s)) ** e) / mp.mpf(gamma_value)
            error = abs(kernel(kp, t, s) - exact)
        assert error <= 4.0 * 2.0**-52 * exact


def test_cone_gamma_domain():
    with pytest.raises(ValueError):
        cone_gamma(KP, 0.0)
    with pytest.raises(ValueError):
        cone_gamma(KP, 1.0)
    with pytest.raises(ValueError):
        cone_gamma(KP, -0.2)


def test_cone_gamma_vanishes_monotonically_as_rho_grows():
    rhos = np.linspace(0.05, 0.999, 40)
    vals = np.array([cone_gamma(KP, r) for r in rhos])
    assert np.all(np.diff(vals) < 0.0)
    assert vals[-1] < 1e-2
    assert np.all((vals > 0.0) & (vals < 1.0))


def test_out_of_range_arguments_rejected():
    with pytest.raises(ValueError):
        g_kernel(KP, -0.01, 0.5)
    with pytest.raises(ValueError):
        h_kernel(KP, 0.5, 1.01)
    # the offending value is printed as a plain float, not as numpy's scalar repr
    with pytest.raises(ValueError, match=r"^t outside \[0, 1\]: 1\.5$"):
        g_kernel(KP, np.array([0.5, 1.5]), 0.5)
    # a few ulps outside [0, 1] is grid noise, not an error
    assert g_kernel(KP, 1.0 + 5e-15, 0.5) >= 0.0


def _random_params(rng, n):
    for _ in range(n):
        yield KernelParams(2.0 + 1.0 * rng.uniform(0.01, 1.0), rng.uniform(0.02, 0.98))


def test_kernel_bounds_on_grid():
    """Nonnegativity, the diagonal two-sided bounds, and the K envelope."""
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 1.0, 101)
    tg, sg = np.meshgrid(grid, grid, indexing="ij")
    for kp in _random_params(rng, 5):
        a = kp.alpha
        gv = g_kernel(kp, tg, sg)
        hv = h_kernel(kp, tg, sg)
        kv = k_kernel(kp, tg, sg)
        assert np.min(gv) >= -1e-15 and np.min(hv) >= -1e-15
        g_diag = (1.0 - sg) ** (a - 1.0) / math.gamma(a)
        h_diag = (1.0 - sg) ** (a - 2.0) / math.gamma(a - 1.0)
        assert np.all(gv <= g_diag + 1e-12)
        assert np.all(gv >= (1.0 - tg ** (a - 1.0)) * g_diag - 1e-12)
        assert np.all(hv <= h_diag + 1e-12)
        assert np.all(hv >= (1.0 - tg ** (a - 2.0)) * h_diag - 1e-12)
        env = phi_envelope(kp, sg)
        lower = (1.0 - kp.eta ** (a - 2.0)) * (1.0 - tg ** (a - 1.0)) * env
        assert np.all(kv <= env + 1e-12)
        assert np.all(kv >= lower - 1e-12)


def test_kernel_bounds_random_pairs():
    rng = np.random.default_rng(5)
    for kp in _random_params(rng, 3):
        t = rng.uniform(0.0, 1.0, 10_000)
        s = rng.uniform(0.0, 1.0, 10_000)
        assert np.min(g_kernel(kp, t, s)) >= -1e-15
        assert np.min(h_kernel(kp, t, s)) >= -1e-15


def test_envelope_identity_on_diagonal():
    rng = np.random.default_rng(3)
    s = np.linspace(0.0, 1.0, 400)
    for kp in _random_params(rng, 8):
        a = kp.alpha
        diag_sum = ((1.0 - s) ** (a - 1.0) / math.gamma(a)
                    + (1.0 - s) ** (a - 2.0) / math.gamma(a - 1.0))
        assert np.max(np.abs(diag_sum - phi_envelope(kp, s))) <= 1e-12


def test_k_kernel_continuity_under_refinement():
    """Max jump across adjacent grid cells shrinks as the grid refines.

    The (1-s)^(alpha-2) and (eta-s)^(alpha-2) factors limit the decay rate
    to h^(alpha-2); the jump must still fall monotonically at that rate.
    """
    kp = KernelParams(2.3, 0.37)
    jumps = []
    for n in (50, 100, 200, 400):
        grid = np.linspace(0.0, 1.0, n + 1)
        tg, sg = np.meshgrid(grid, grid, indexing="ij")
        kv = k_kernel(kp, tg, sg)
        jumps.append(max(np.max(np.abs(np.diff(kv, axis=0))),
                         np.max(np.abs(np.diff(kv, axis=1)))))
    assert all(b < a for a, b in zip(jumps, jumps[1:]))
    # 8x refinement at rate h^(alpha-2): expect about 8^-0.3 ~ 0.54
    assert jumps[-1] <= 0.7 * jumps[0]


def test_k_kernel_no_jump_across_diagonal():
    kp = KernelParams(2.3, 0.37)
    ts = np.linspace(0.05, 0.95, 19)
    for eps, cap in ((1e-3, 1e-2), (1e-6, 1e-4), (1e-9, 1e-6)):
        gap = np.max(np.abs(k_kernel(kp, ts, ts - eps) - k_kernel(kp, ts, ts + eps)))
        assert gap <= cap


def test_seam_matches_both_branches():
    # at s = t the lower-branch formula reduces to the upper branch
    for kp in (KP, KernelParams(2.9, 0.7)):
        for x in (0.0, 0.25, 0.5, 0.9, 1.0):
            upper = (1.0 - x) ** (kp.alpha - 1.0) / math.gamma(kp.alpha)
            assert g_kernel(kp, x, x) == pytest.approx(upper, rel=1e-14, abs=1e-15)
