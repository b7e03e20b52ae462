import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plbvp.specialfn import beta, gamma

SQRT_PI = 1.7724538509055160273

REL = 1e-10


def test_gamma_of_one():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)


def test_gamma_of_half_is_sqrt_pi():
    assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-12)


def test_gamma_3_5():
    # Gamma(n + 1/2) = sqrt(pi) (2n)! / (4^n n!) with n = 3
    expected = SQRT_PI * math.factorial(6) / (2**6 * math.factorial(3))
    assert gamma(3.5) == pytest.approx(expected, rel=1e-12)
    assert gamma(3.5) == pytest.approx(3.3233509704478425512, rel=1e-12)


def test_beta_one_q():
    assert beta(1.0, 4.0) == pytest.approx(0.25, rel=1e-12)


def test_beta_2_3_symmetric():
    assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert beta(3.0, 2.0) == pytest.approx(beta(2.0, 3.0), rel=1e-14)


def test_beta_half_half_is_pi():
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
def test_gamma_domain_errors(bad):
    with pytest.raises(ValueError):
        gamma(bad)


@pytest.mark.parametrize("p,q", [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0), (1.0, math.nan)])
def test_beta_domain_errors(p, q):
    with pytest.raises(ValueError):
        beta(p, q)


@given(x=st.floats(min_value=1e-3, max_value=20.0))
def test_gamma_recursion(x):
    assert abs(gamma(x + 1.0) - x * gamma(x)) <= REL * gamma(x + 1.0)


@pytest.mark.parametrize("n", range(0, 16))
def test_gamma_factorial(n):
    assert abs(gamma(n + 1.0) - math.factorial(n)) <= 1e-12 * math.factorial(n)


@given(p=st.floats(min_value=1e-2, max_value=10.0),
       q=st.floats(min_value=1e-2, max_value=10.0))
def test_beta_pascal_identity(p, q):
    lhs = beta(p, q)
    rhs = beta(p, q + 1.0) + beta(p + 1.0, q)
    assert abs(lhs - rhs) <= 1e-10 * lhs


@given(p=st.floats(min_value=1e-2, max_value=10.0),
       q=st.floats(min_value=1e-2, max_value=10.0))
def test_beta_shift_identity(p, q):
    lhs = beta(p + 1.0, q)
    rhs = beta(p, q) * p / (p + q)
    assert abs(lhs - rhs) <= 1e-10 * beta(p, q)


@given(p=st.floats(min_value=1e-2, max_value=10.0),
       q=st.floats(min_value=1e-2, max_value=10.0))
def test_beta_symmetry(p, q):
    assert abs(beta(p, q) - beta(q, p)) <= 1e-12 * beta(p, q)


@given(p=st.floats(min_value=1e-2, max_value=10.0),
       q=st.floats(min_value=1e-2, max_value=10.0))
@settings(max_examples=50)
def test_beta_gamma_identity(p, q):
    expected = gamma(p) * gamma(q) / gamma(p + q)
    assert beta(p, q) == pytest.approx(expected, rel=1e-11)
