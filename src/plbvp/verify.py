"""Residual diagnostics for computed solutions.

A true solution satisfies u(t) = u(0) - I^alpha[phi_q(F)](t) with
F(s) = int_0^s a f(., u), where I^alpha is the fractional integral of order
alpha.  This module evaluates that identity by the solver's own code path,
on the problem's kept operator plan (:class:`plbvp.solver.KernelAssembly`
and a(t) at the nodes), checks the three boundary conditions by one-sided
finite differences, and measures the cone inequality
min_[0,rho] u >= gamma ||u||.  Because the
integral-form residual reuses the solver's discretization, it confirms
the fixed point of that discretization and cannot see its error.  Where u
has, bit for bit, the nodal values of the plan's last application (the
solution :func:`plbvp.solver.picard_solve` just returned), the integral form
takes that application's I^beta rows rather than applying the operator
again.

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
    "cone_check",
    "verification_report",
    "fd_weights",
]

MIN_BOUNDARY_NODES = 16
_DENSE_SAMPLES = 2048


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

    Fornberg's recurrence; exact for polynomials of degree len(xs) - 1.
    """
    xs = np.asarray(xs, dtype=float)
    n = xs.size
    if m >= n:
        raise ValueError("need more nodes than the derivative order")
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
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
                    c[i, s] = c1 * (s * c[i - 1, s - 1] - c5 * c[i - 1, s]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for s in range(mn, 0, -1):
                c[j, s] = (c4 * c[j, s] - s * c[j, s - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def integral_form_residual(pb: Problem, u: GridFunction) -> float:
    """Sup-norm of r(t) = u(t) - u(0) + I^alpha[phi_q(F)](t) over the nodes."""
    if float(np.min(u.values)) < -SAMPLING_SLACK:
        raise ValueError("u must be nonnegative")
    ialpha = _at_nodes(pb._plan(u.partition).rows(u.values))
    r = u.values - u.values[0] + ialpha
    return float(np.max(np.abs(r)))


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
    8.1e-4, 2.9e-4 and 1.0e-4 on ex43 at 128, 256 and 512 panels.
    """
    nodes = u.partition.nodes
    if nodes.size < MIN_BOUNDARY_NODES:
        raise ValueError(
            f"grid too coarse for boundary stencils: {nodes.size} < {MIN_BOUNDARY_NODES}")
    vals = u.values
    d1_0 = float(fd_weights(nodes[0], nodes[:4], 1) @ vals[:4])
    d2_0 = float(fd_weights(nodes[0], nodes[:4], 2) @ vals[:4])
    d1_1 = float(fd_weights(nodes[-1], nodes[-4:], 1) @ vals[-4:])
    eta = pb.eta
    j = int(np.searchsorted(nodes, eta))
    lo = min(max(j - 2, 0), nodes.size - 4)
    d1_eta = float(fd_weights(eta, nodes[lo:lo + 4], 1) @ vals[lo:lo + 4])
    third = vals[-1] + d1_1 - d1_eta
    return (abs(d1_0), abs(d2_0), abs(third))


def _dense_points(nodes: np.ndarray, lo: float, hi: float) -> np.ndarray:
    xs = np.linspace(lo, hi, _DENSE_SAMPLES + 1)
    inner = nodes[(nodes >= lo) & (nodes <= hi)]
    return np.unique(np.concatenate([xs, inner]))


def cone_check(pb: Problem, u: GridFunction, rho: float) -> float:
    """Slack min_[0, rho] u - gamma * sup u; nonnegative for true solutions."""
    return _cone_slack(pb, u, rho, u(_dense_points(u.partition.nodes, 0.0, 1.0)))


def _cone_slack(pb: Problem, u: GridFunction, rho: float, dense: np.ndarray) -> float:
    """cone_check, given u on the dense grid of [0, 1]."""
    if float(np.min(u.values)) < -SAMPLING_SLACK:
        raise ValueError("u must be nonnegative")
    gam = cone_gamma(pb.kernel_params, rho)
    head = u(_dense_points(u.partition.nodes, 0.0, rho))
    return float(np.min(head) - gam * np.max(np.abs(dense)))


def verification_report(pb: Problem, u: GridFunction, rho: float) -> VerificationReport:
    dense = u(_dense_points(u.partition.nodes, 0.0, 1.0))
    return VerificationReport(
        integral_form_residual=integral_form_residual(pb, u),
        bc_residuals=boundary_residuals(pb, u),
        positivity_min=float(np.min(dense)),
        cone_slack=_cone_slack(pb, u, rho, dense),
        sup_norm=float(np.max(np.abs(dense))),
    )
