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
