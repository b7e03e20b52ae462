"""Residual diagnostics for computed solutions.

A true solution satisfies u(t) = u(0) - I^alpha[phi_q(F)](t) with
F(s) = int_0^s a f(., u), where I^alpha is the fractional integral of order
alpha.  This module evaluates that identity by the solver's own code path,
on the problem's kept operator plan (:class:`plbvp.solver.KernelAssembly`
and a(t) at the nodes), checks the three boundary conditions by one-sided
finite differences, and measures the cone inequality
min_[0,rho] u >= gamma ||u||.  The positivity minimum, the sup norm and the
cone slack come from one evaluation of u's interpolant at its nodes and at
rho: the interpolant is monotone on every cell, so its extrema over [0, 1]
and over [0, rho] lie at those points.  Because the integral-form residual
reuses the solver's discretization, it confirms the fixed point of that
discretization and cannot see its error.  Where u has, bit for bit, the nodal values of the
plan's last application (the solution :func:`plbvp.solver.picard_solve` just
returned), the integral form takes that application's I^beta rows rather
than applying the operator again.

Direct numerical fractional differentiation of sampled data is deliberately
avoided: for orders in (2, 3] it is badly conditioned, while the integral
identity above is exact for continuous solutions.
"""

from dataclasses import dataclass

import numpy as np

from .greens import cone_gamma
from .quadrature import GridFunction
from .solver import SAMPLING_SLACK, Problem, _at_nodes

__all__ = [
    "VerificationReport",
    "integral_form_residual",
    "boundary_residuals",
    "verification_report",
    "fd_weights",
]

MIN_BOUNDARY_NODES = 16


@dataclass(frozen=True)
class VerificationReport:
    """Residual diagnostics; raw values, no thresholding applied."""

    integral_form_residual: float
    bc_residuals: tuple  # (|u'(0)|, |u''(0)|, |u(1) + u'(1) - u'(eta)|)
    positivity_min: float
    cone_slack: float
    sup_norm: float


def fd_weights(x0: float, xs, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at x0 on nodes xs.

    Fornberg's recurrence; exact for polynomials of degree len(xs) - 1.  The
    weights are column m of :func:`_fornberg`'s table.
    """
    return _fornberg(x0, xs, m)[:, m]


def _fornberg(x0: float, xs, m: int) -> np.ndarray:
    """The n x (m + 1) table of Fornberg's recurrence, whose column s holds
    the weights of the s-th derivative at x0 on the n nodes xs, for every
    s <= m.  A column is the same to the last bit whatever m is: the
    recurrence takes column s from columns s and s - 1 only.

    It runs on Python floats, which index and multiply faster than numpy
    scalars, in the same IEEE arithmetic.  A column of the table is a strided
    vector: numpy sums a dot product with a strided vector in another order
    than with a contiguous one, and the boundary residuals keep that order to
    the last bit.
    """
    xs = np.asarray(xs, dtype=float).tolist()
    x0 = float(x0)
    n = len(xs)
    if m >= n:
        raise ValueError("need more nodes than the derivative order")
    c = [[0.0] * (m + 1) for _ in range(n)]
    c[0][0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for s in range(mn, 0, -1):
                    c[i][s] = c1 * (s * c[i - 1][s - 1] - c5 * c[i - 1][s]) / c2
                c[i][0] = -c1 * c5 * c[i - 1][0] / c2
            for s in range(mn, 0, -1):
                c[j][s] = (c4 * c[j][s] - s * c[j][s - 1]) / c3
            c[j][0] = c4 * c[j][0] / c3
        c1 = c2
    return np.array(c)


def integral_form_residual(pb: Problem, u: GridFunction) -> float:
    """Sup-norm of r(t) = u(t) - u(0) + I^alpha[phi_q(F)](t) over the nodes."""
    if u.values.min() < -SAMPLING_SLACK:
        raise ValueError("u must be nonnegative")
    ialpha = _at_nodes(pb._rows(u.partition, u.values))
    r = u.values - u.values[0] + ialpha
    return float(np.abs(r).max())


def boundary_residuals(pb: Problem, u: GridFunction) -> tuple:
    """(|u'(0)|, |u''(0)|, |u(1) + u'(1) - u'(eta)|) by 4-point stencils.

    Derivatives at the ends come from one-sided 4-node stencils; u'(eta)
    from the 4 nodes nearest eta (polynomial interpolation differentiated
    at eta).

    These residuals measure the stencils, not the solution.  The integral
    form meets all three conditions by construction: u'(0) = -I^(alpha-1)
    g(0) = 0, u''(0) = -I^(alpha-2) g(0) = 0, and u(1) + u'(1) - u'(eta) = 0
    by the definition of C0.  So on a solver solution the values show how
    well 4-point stencils differentiate the nodal values: |u''(0)| reads
    8.1e-4, 2.9e-4 and 1.0e-4 on ex43 at 128, 256 and 512 panels.  Raises
    ValueError where u's values are so large that a stencil overflows.
    """
    nodes = u.partition.nodes
    if nodes.size < MIN_BOUNDARY_NODES:
        raise ValueError(
            f"grid too coarse for boundary stencils: {nodes.size} < {MIN_BOUNDARY_NODES}")
    vals = u.values
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _finite
        at_0 = _fornberg(nodes[0], nodes[:4], 2)  # u'(0) and u''(0) from one table
        d1_0 = float(at_0[:, 1] @ vals[:4])
        d2_0 = float(at_0[:, 2] @ vals[:4])
        d1_1 = float(fd_weights(nodes[-1], nodes[-4:], 1) @ vals[-4:])
        j = int(np.searchsorted(nodes, pb.eta))
        lo = min(max(j - 2, 0), nodes.size - 4)
        d1_eta = float(fd_weights(pb.eta, nodes[lo:lo + 4], 1) @ vals[lo:lo + 4])
        third = vals[-1] + d1_1 - d1_eta
    return _finite(u, abs(d1_0), abs(d2_0), abs(third))


def _finite(u: GridFunction, *values: float) -> tuple:
    if not np.isfinite(values).all():
        raise ValueError("the boundary stencils or the interpolant of u overflow: "
                         f"|u| reaches {float(np.max(np.abs(u.values)))!r}")
    return values


def verification_report(pb: Problem, u: GridFunction, rho: float) -> VerificationReport:
    """Raises ValueError where u's values are so large that a boundary
    stencil or u's interpolant overflows."""
    residual = integral_form_residual(pb, u)
    bc = boundary_residuals(pb, u)
    nodes = u.partition.nodes
    # u's cubic is monotone on every cell, so its extrema lie at the nodes
    # and at rho.  The nodes go through it too: at t = 1 it can round away
    # from the last nodal value.
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _finite
        gam = cone_gamma(pb.kernel_params, rho)
        values = u(np.append(nodes, rho))
        at_nodes = values[:-1]
        sup = float(np.abs(at_nodes).max())
        slack = float(values[np.append(nodes <= rho, True)].min() - gam * sup)
    _finite(u, sup, slack)
    return VerificationReport(
        integral_form_residual=residual,
        bc_residuals=bc,
        positivity_min=float(at_nodes.min()),
        cone_slack=slack,
        sup_norm=sup,
    )
