"""Numerical solver and hypothesis checker for a three-point p-Laplacian
Caputo fractional boundary value problem on [0, 1]."""

from .exprlang import ExprError, ExprEvalError, ExprSyntaxError, evaluate, parse, to_text
from .greens import KernelParams, cone_gamma, g_kernel, h_kernel, k_kernel, phi_envelope
from .plaplacian import conjugate, phi
from .problemfile import (
    ProblemConfig,
    ProblemFileError,
    SolverSettings,
    dump_problem,
    load_problem,
    loads_problem,
)
from .quadrature import (
    GridFunction,
    Partition,
    QuadratureError,
    cumulative,
    integrate,
)
from .solver import (
    Discretization,
    Problem,
    SolveReport,
    SolverError,
    apply_operator,
    kernel_route,
    picard_solve,
)
from .specialfn import beta, gamma
from .theorems import (
    TheoremReport,
    check_contraction_large_p,
    check_contraction_small_p,
    check_krasnoselskii,
    check_leray_schauder,
    lambda1,
    lambda2,
)
from .verify import (
    VerificationReport,
    boundary_residuals,
    cone_check,
    integral_form_residual,
    verification_report,
)

__version__ = "0.1.0"
