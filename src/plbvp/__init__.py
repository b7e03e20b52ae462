"""Numerical solver and hypothesis checker for a three-point p-Laplacian
Caputo fractional boundary value problem on [0, 1].

The package's names resolve on first use (PEP 562): ``import plbvp``
imports none of its submodules, and ``plbvp.picard_solve`` or
``from plbvp import picard_solve`` imports only the submodule that defines
it, and what that one imports.  A submodule is an attribute too, so
``plbvp.solver`` imports :mod:`plbvp.solver`.  :mod:`plbvp.cli` is left
out, so that ``python -m plbvp.cli`` runs a module the package has not
imported.
"""

import sys

__version__ = "0.1.0"

# Each exported name, with the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "exprlang": ("ExprError", "ExprEvalError", "ExprSyntaxError", "evaluate", "parse",
                     "to_text"),
        "greens": ("KernelParams", "cone_gamma", "g_kernel", "h_kernel", "k_kernel",
                   "phi_envelope"),
        "plaplacian": ("conjugate", "phi"),
        "problemfile": ("ProblemConfig", "ProblemFileError", "dump_problem", "load_problem",
                        "loads_problem"),
        "quadrature": ("GridFunction", "Partition", "QuadratureError", "cumulative",
                       "integrate"),
        "solver": ("Discretization", "Problem", "SolveReport", "SolverError",
                   "SolverSettings", "apply_operator", "kernel_route", "picard_solve"),
        "specialfn": ("beta", "gamma"),
        "theorems": ("TheoremReport", "check_contraction_large_p",
                     "check_contraction_small_p", "check_krasnoselskii",
                     "check_leray_schauder", "lambda1", "lambda2"),
        "verify": ("VerificationReport", "boundary_residuals", "integral_form_residual",
                   "verification_report"),
    }.items()
    for name in names
}
_SUBMODULES = frozenset({*_EXPORTS.values(), "cases"})

__all__ = list(_EXPORTS)


def _submodule(name: str):
    # __import__, unlike importlib.import_module, shows in -X importtime
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name in _EXPORTS:
        value = globals()[name] = getattr(_submodule(_EXPORTS[name]), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
