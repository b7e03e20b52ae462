import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from plbvp.greens import k_kernel
from plbvp.plaplacian import phi
from plbvp.quadrature import cumulative, integrate

# Node indices checked against the direct kernel quadrature: both ends, the
# first node next to the s = 0 singularity of phi_q(F), and some inside.
REFERENCE_NODES = [0, 1, 17, 64, 111, -2, -1]


@pytest.fixture
def kernel_reference():
    """(indices, values) of int_0^1 K(t, s) phi_q(F(s)) ds, F = cumulative(h),
    at the partition nodes REFERENCE_NODES.

    Direct composite Gauss-Legendre quadrature of greens.k_kernel at 2048
    graded panels per piece, split at s = t and s = eta, independent of the
    solver's fractional-integral operator.
    """
    def reference(kp, q, h):
        F = cumulative(h)
        values = []
        for t in h.partition.nodes[REFERENCE_NODES]:
            cuts = sorted({0.0, float(t), kp.eta, 1.0})
            values.append(sum(
                integrate(lambda s: k_kernel(kp, t, s) * phi(q, F(s)), lo, hi,
                          panels=2048)
                for lo, hi in zip(cuts, cuts[1:])))
        return REFERENCE_NODES, np.array(values)
    return reference


@pytest.fixture
def manufactured():
    """Factory of manufactured problems with a closed-form solution.

    For an instance (alpha, eta, p, c, r, k) with q = p/(p-1) and m = r(q-1),
    take a(t) = c r t^(r-1) and f(t, u) = ((1 + u) / (1 + u*(t)))^k.  On
    u = u* the density a f equals a, so phi_q(int_0^s a) = c^(q-1) s^m, and
    the fractional-integral form of the problem gives

        u*(t) = c^(q-1) Gamma(m+1) [ (1 - t^(m+alpha)) / Gamma(m+1+alpha)
                                     + (1 - eta^(alpha+m-1)) / Gamma(m+alpha) ].

    make(alpha, eta, p, c, r, k) returns (text, exact): text(panels) is the
    instance's problem file and exact(t) is u*.  f(t, 0) > 0, so the Picard
    iteration from u = 0 has nonlinear work to do.
    """
    def make(alpha, eta, p, c, r, k):
        q = p / (p - 1.0)
        m = r * (q - 1.0)
        scale = c ** (q - 1.0) * math.gamma(m + 1.0)
        b = scale / math.gamma(m + 1.0 + alpha)
        top = b + scale * (1.0 - eta ** (alpha + m - 1.0)) / math.gamma(m + alpha)
        e = m + alpha

        def exact(t):
            return top - b * np.asarray(t, dtype=float) ** e

        def text(panels):
            return (f"[problem]\nalpha = {alpha!r}\neta = {eta!r}\np = {p!r}\n"
                    f'a = "{c * r!r}*t^{r - 1.0!r}"\n'
                    f'f = "((1 + u)/({1.0 + top!r} - {b!r}*t^{e!r}))^{k!r}"\n\n'
                    f"[discretization]\npanels = {panels}\n")
        return text, exact
    return make


@pytest.fixture(scope="session")
def bench_oracle():
    """bench/oracle.py: the benchmark's manufactured problems."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle
