import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from plbvp.plaplacian import conjugate, phi


def test_phi_identity_for_p2():
    assert phi(2.0, -3.7) == pytest.approx(-3.7, abs=0.0)


def test_phi_three_halves():
    # |4|^(3/2 - 2) * 4 = 4^(-1/2) * 4 = 2
    assert phi(1.5, 4.0) == pytest.approx(2.0, rel=1e-14)


def test_phi_inverse_pair():
    p, q, x = 3.5, 1.4, 0.3
    assert conjugate(p) == pytest.approx(q, rel=1e-14)
    assert phi(p, phi(q, x)) == pytest.approx(x, rel=1e-12)


def test_phi_at_zero_small_exponent():
    # continuous extension: the product |s|^(r-2) s -> 0 even for r < 2
    assert phi(1.2, 0.0) == 0.0


def test_phi_vectorized_matches_scalar():
    rng = np.random.default_rng(0)
    s = rng.uniform(-5.0, 5.0, 64)
    out = phi(2.7, s)
    for si, oi in zip(s, out):
        assert oi == pytest.approx(phi(2.7, float(si)), rel=1e-14)


def test_conjugate_values():
    assert conjugate(1.5) == pytest.approx(3.0, rel=1e-14)
    assert conjugate(3.5) == pytest.approx(1.4, rel=1e-14)
    assert conjugate(2.0) == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("bad", [1.0, 0.5, -2.0, math.nan])
def test_conjugate_domain(bad):
    with pytest.raises(ValueError):
        conjugate(bad)


def test_phi_rejects_nonfinite():
    with pytest.raises(ValueError):
        phi(2.5, math.inf)
    with pytest.raises(ValueError):
        phi(1.0, 2.0)


@given(r=st.floats(min_value=1.0, max_value=5.0, exclude_min=True),
       s=st.floats(min_value=-10.0, max_value=10.0))
def test_phi_odd_symmetry(r, s):
    assert phi(r, -s) == pytest.approx(-phi(r, s), rel=1e-13, abs=1e-300)


@given(r=st.floats(min_value=1.01, max_value=5.0),
       s1=st.floats(min_value=-10.0, max_value=10.0),
       s2=st.floats(min_value=-10.0, max_value=10.0))
def test_phi_monotone(r, s1, s2):
    # strictness is only meaningful away from underflow and for separated
    # arguments; |s|^(r-1) of a e-293-sized s rounds to zero
    assume(s1 == 0.0 or 1e-3 <= abs(s1))
    assume(s2 == 0.0 or 1e-3 <= abs(s2))
    assume(abs(s1 - s2) >= 1e-6)
    lo, hi = min(s1, s2), max(s1, s2)
    assert phi(r, lo) < phi(r, hi)


@given(p=st.floats(min_value=1.05, max_value=6.0),
       s=st.floats(min_value=-50.0, max_value=50.0))
def test_phi_inversion(p, s):
    q = conjugate(p)
    assert abs(phi(q, phi(p, s)) - s) <= 1e-10 * (1.0 + abs(s))


@given(p=st.floats(min_value=1.01, max_value=2.0),
       m=st.floats(min_value=0.05, max_value=5.0),
       x=st.floats(min_value=0.0, max_value=10.0),
       y=st.floats(min_value=0.0, max_value=10.0),
       sign=st.sampled_from([-1.0, 1.0]))
def test_lipschitz_case_lower_bounded(p, m, x, y, sign):
    # same-sign arguments with |x|, |y| >= m
    xv, yv = sign * (m + x), sign * (m + y)
    bound = (p - 1.0) * m ** (p - 2.0)
    assert abs(phi(p, xv) - phi(p, yv)) <= bound * abs(xv - yv) + 1e-12


@given(p=st.floats(min_value=2.0, max_value=6.0, exclude_min=True),
       big=st.floats(min_value=0.05, max_value=10.0),
       x=st.floats(min_value=-1.0, max_value=1.0),
       y=st.floats(min_value=-1.0, max_value=1.0))
def test_lipschitz_case_upper_bounded(p, big, x, y):
    # |x|, |y| <= big
    xv, yv = big * x, big * y
    bound = (p - 1.0) * big ** (p - 2.0)
    assert abs(phi(p, xv) - phi(p, yv)) <= bound * abs(xv - yv) + 1e-12
