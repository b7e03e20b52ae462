"""Command-line front end.

Subcommands:

    solve PROBLEM [--out CSV]           solve and export (t, u) as CSV
    check --theorem N [flags] PROBLEM   verify one theorem's hypotheses
    verify PROBLEM --solution CSV       residual-check a saved solution
    reproduce {ex41,ex42,ex43}          rerun a bundled case end to end
    dump {case-id | PROBLEM}            write the canonical problem file

Reports are plain text, one ``key = value`` per line with a final
``verdict =`` line, and are byte-identical across runs on the same inputs.
Exit status: 0 success, 1 hypotheses_fail or non-convergence, 2 input error.
"""

import argparse
import sys
from dataclasses import asdict, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from . import exprlang
from .problemfile import ProblemConfig, dump_problem, load_problem
from .quadrature import GridFunction, Partition, QuadratureError
from .solver import SolverError, SolverSettings, picard_solve

if TYPE_CHECKING:
    from .theorems import TheoremReport

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

# The ids of plbvp.cases.CASES, the choices of reproduce, named here so that
# building the parser imports no case.
_CASE_IDS = ("ex41", "ex42", "ex43")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write(text: str, out_path) -> None:
    """Write text to the file out_path, or to stdout if there is none."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(lines, out_path) -> None:
    _write("".join(f"{key} = {_fmt(value)}\n" for key, value in lines), out_path)


def _problem_lines(config: ProblemConfig):
    pb = config.problem
    return [
        ("alpha", pb.alpha),
        ("eta", pb.eta),
        ("p", pb.p),
        ("q", pb.q),
        ("a", exprlang.to_text(pb.a)),
        ("f", exprlang.to_text(pb.f)),
    ]


def _report_lines(report: "TheoremReport"):
    lines = [("theorem", report.theorem)]
    lines += [(k, v) for k, v in report.inputs.items()]
    lines += [(k, v) for k, v in report.quantities.items()]
    for idx, check in enumerate(report.checks, start=1):
        lines.append((f"check.{idx}", check.name))
        lines.append((f"check.{idx}.lhs", check.lhs))
        lines.append((f"check.{idx}.rhs", check.rhs))
        lines.append((f"check.{idx}.holds", check.holds))
        if check.witness is not None and not check.holds:
            lines.append((f"check.{idx}.witness",
                          ", ".join("none" if w is None else _fmt(float(w))
                                    for w in check.witness)))
    for idx, note in enumerate(report.notes, start=1):
        lines.append((f"note.{idx}", note))
    lines.append(("verdict", report.verdict))
    return lines


def _solution_csv(u: GridFunction) -> str:
    rows = ["t,u"]
    rows += [f"{t:.17g},{v:.17g}" for t, v in zip(u.partition.nodes, u.values)]
    return "\n".join(rows) + "\n"


def _load_config(args) -> ProblemConfig:
    config = load_problem(args.problem)
    if getattr(args, "panels", None) is not None:
        pb = config.problem
        disc = replace(pb.discretization, panels=args.panels)
        config = replace(config, problem=replace(pb, discretization=disc))
    if getattr(args, "rho", None) is not None:
        config = replace(config, rho=args.rho)
    return config


def _cmd_solve(args) -> int:
    config = _load_config(args)
    flags = {f.name: getattr(args, f.name) for f in fields(SolverSettings)}
    settings = replace(config.solver, **{k: v for k, v in flags.items() if v is not None})
    report = picard_solve(config.problem, **asdict(settings))
    _write(_solution_csv(report.solution), args.out)
    if args.out:
        lines = [("command", "solve"), ("problem", args.problem)]
        lines += _problem_lines(config)
        lines += [
            ("tol", settings.tol),
            ("iterations", report.iterations),
            ("residual", report.residual),
            ("sup_norm", report.solution.sup_norm()),
            ("damping_used", settings.damping),
            # The existence theorems guarantee a fixed point but prescribe no
            # iteration, so convergence of the mixed iteration is heuristic.  A
            # contraction certificate for the same problem makes the fixed point
            # unique, and plain Picard iteration converge to it geometrically.
            ("convergence_basis", "heuristic-picard"),
            ("out", args.out),
            ("verdict", "converged" if report.converged else "not_converged"),
        ]
        _emit(lines, None)
    return EXIT_OK if report.converged else EXIT_FAIL


# The flags of check that _run_check takes, under the same names.  The parser
# declares the theorems' flags from it, in this order; a bundled case's flags
# are keyword arguments of _run_check by these names.
_CHECK_FLAGS = ("theorem", "rho1", "rho2", "M1", "M2", "nu", "L", "k_env", "mu", "sigma", "k")


def _run_check(config: ProblemConfig, *, theorem: str, rho1=None, rho2=None, M1=None,
               M2=None, nu=None, L=None, k_env=None, mu=None, sigma=None,
               k=None) -> "TheoremReport":
    from .theorems import (
        check_contraction_large_p,
        check_contraction_small_p,
        check_krasnoselskii,
        check_leray_schauder,
    )

    pb = config.problem
    if theorem in ("3.1", "3.2"):
        if rho1 is None or rho2 is None:
            raise ValueError(f"--theorem {theorem} requires --rho1 and --rho2")
        return check_krasnoselskii(pb, config.rho, rho1, rho2,
                                   M1=M1, M2=M2, theorem=theorem)
    if theorem == "3.3":
        if nu is None:
            raise ValueError("--theorem 3.3 requires --nu")
        return check_leray_schauder(pb, nu)
    if theorem == "3.4":
        if mu is None or sigma is None or k is None:
            raise ValueError("--theorem 3.4 requires --mu, --sigma and --k")
        return check_contraction_large_p(pb, mu, sigma, k)
    if k_env is None or L is None:
        raise ValueError("--theorem 3.5 requires --k-env and --L")
    return check_contraction_small_p(pb, exprlang.parse(k_env, variables=("t",)), L)


def _cmd_check(args) -> int:
    config = _load_config(args)
    report = _run_check(config, **{name: getattr(args, name) for name in _CHECK_FLAGS})
    lines = [("command", "check"), ("problem", args.problem)]
    lines += _problem_lines(config)
    lines += _report_lines(report)
    _emit(lines, args.out)
    return EXIT_OK if report.holds else EXIT_FAIL


def _read_solution_csv(path) -> GridFunction:
    data = np.genfromtxt(path, delimiter=",", names=True)
    if data.dtype.names != ("t", "u"):
        raise ValueError(f"expected CSV header 't,u' in {path}")
    nodes = np.atleast_1d(data["t"])
    values = np.atleast_1d(data["u"])
    return GridFunction(Partition(nodes), values)


def _cmd_verify(args) -> int:
    from .verify import verification_report

    config = _load_config(args)
    u = _read_solution_csv(args.solution)
    report = verification_report(config.problem, u, config.rho)
    lines = [("command", "verify"), ("problem", args.problem),
             ("solution", args.solution)]
    lines += _problem_lines(config)
    lines += [
        ("rho", config.rho),
        ("integral_form_residual", report.integral_form_residual),
        ("bc_residual_d1_at_0", report.bc_residuals[0]),
        ("bc_residual_d2_at_0", report.bc_residuals[1]),
        ("bc_residual_three_point", report.bc_residuals[2]),
        ("positivity_min", report.positivity_min),
        ("cone_slack", report.cone_slack),
        ("sup_norm", report.sup_norm),
        ("verdict", "reported"),
    ]
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    from .cases import CASES
    from .specialfn import gamma

    case = CASES[args.case]
    report = _run_check(case, **case.flags)
    lines = [("command", "reproduce"), ("case", args.case)]
    lines += _problem_lines(case)
    if case.flags["theorem"] == "3.1":
        # closed form of Lambda_1 for this coefficient: 15 sqrt(pi) / 28
        lines.append(("lambda1_reference", 15.0 * gamma(0.5) / 28.0))
        lines.append(("m1_pow", report.quantities["phi_p_M1_rho2"]))
    lines += _report_lines(report)
    _emit(lines, args.out)
    return EXIT_OK if report.holds else EXIT_FAIL


def _cmd_dump(args) -> int:
    from .cases import CASES

    _write(dump_problem(CASES.get(args.source) or load_problem(args.source)), args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plbvp",
        description="Solve a three-point p-Laplacian Caputo fractional BVP "
                    "and check the hypotheses of its existence theorems.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file, export CSV")
    p_solve.add_argument("problem")
    p_solve.add_argument("--out", help="CSV destination (default: stdout)")
    p_solve.add_argument("--panels", type=int, help="override partition panels")
    p_solve.add_argument("--tol", type=float, help="override solver tolerance")
    p_solve.add_argument("--max-iter", type=int, dest="max_iter")
    p_solve.add_argument("--damping", type=float)
    p_solve.set_defaults(func=_cmd_solve)

    p_check = sub.add_parser("check", help="check one theorem's hypotheses")
    p_check.add_argument("problem")
    p_check.add_argument("--theorem", required=True,
                         choices=("3.1", "3.2", "3.3", "3.4", "3.5"))
    p_check.add_argument("--out")
    p_check.add_argument("--panels", type=int)
    p_check.add_argument("--rho", type=float, help="cone parameter override")
    for name in _CHECK_FLAGS[1:]:  # the theorems' own flags: --k-env is text
        p_check.add_argument("--" + name.replace("_", "-"),
                             type=None if name == "k_env" else float)
    p_check.set_defaults(func=_cmd_check)

    p_verify = sub.add_parser("verify", help="residual-check a saved CSV solution")
    p_verify.add_argument("problem")
    p_verify.add_argument("--solution", required=True, help="CSV written by solve")
    p_verify.add_argument("--rho", type=float)
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=_cmd_verify)

    p_rep = sub.add_parser("reproduce", help="rerun a bundled case")
    p_rep.add_argument("case", choices=_CASE_IDS)
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=_cmd_reproduce)

    p_dump = sub.add_parser("dump", help="write the canonical problem file")
    p_dump.add_argument("source", help="bundled case id or problem file path")
    p_dump.add_argument("--out")
    p_dump.set_defaults(func=_cmd_dump)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (QuadratureError, SolverError, ValueError, OSError) as exc:
        print(f"plbvp: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
