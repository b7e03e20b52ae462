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
from dataclasses import replace

import numpy as np

from . import exprlang
from .cases import CASES
from .exprlang import ExprError
from .problemfile import (
    ProblemConfig,
    ProblemFileError,
    dump_problem,
    load_problem,
)
from .quadrature import GridFunction, Partition, QuadratureError
from .solver import Discretization, SolverError, picard_solve
from .specialfn import gamma
from .theorems import (
    TheoremReport,
    check_contraction_large_p,
    check_contraction_small_p,
    check_krasnoselskii,
    check_leray_schauder,
)
from .verify import verification_report

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(lines, out_path) -> None:
    text = "".join(f"{key} = {_fmt(value)}\n" for key, value in lines)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _report_lines(report: TheoremReport):
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
    settings = config.solver
    tol = args.tol if args.tol is not None else settings.tol
    max_iter = args.max_iter if args.max_iter is not None else settings.max_iter
    damping = args.damping if args.damping is not None else settings.damping
    report = picard_solve(config.problem, tol=tol, max_iter=max_iter, damping=damping)
    csv_text = _solution_csv(report.solution)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        lines = [("command", "solve"), ("problem", args.problem)]
        lines += _problem_lines(config)
        lines += [
            ("tol", tol),
            ("iterations", report.iterations),
            ("residual", report.residual),
            ("sup_norm", report.solution.sup_norm()),
            ("damping_used", report.damping_used),
            ("convergence_basis", report.convergence_basis),
            ("out", args.out),
            ("verdict", "converged" if report.converged else "not_converged"),
        ]
        _emit(lines, None)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK if report.converged else EXIT_FAIL


# The flags of check that _run_check takes, under the same names.
_CHECK_FLAGS = ("theorem", "rho1", "rho2", "M1", "M2", "nu", "L", "k_env", "mu", "sigma", "k")


def _run_check(config: ProblemConfig, *, theorem: str, rho1=None, rho2=None, M1=None,
               M2=None, nu=None, L=None, k_env=None, mu=None, sigma=None,
               k=None) -> TheoremReport:
    pb = config.problem
    if theorem in ("3.1", "3.2"):
        if rho1 is None or rho2 is None:
            raise ValueError(f"--theorem {theorem} requires --rho1 and --rho2")
        variant = "expansive_3_1" if theorem == "3.1" else "compressive_3_2"
        return check_krasnoselskii(pb, config.rho, rho1, rho2,
                                   M1=M1, M2=M2, variant=variant)
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
    case = CASES[args.case]
    config = ProblemConfig(problem=case.problem, rho=case.rho)
    lines = [("command", "reproduce"), ("case", case.case_id)]
    lines += _problem_lines(config)
    report = _run_check(config, theorem=case.check, nu=case.nu, k_env=case.k_env,
                        L=case.L, rho1=case.rho1, rho2=case.rho2)
    if case.check == "3.1":
        # closed form of Lambda_1 for this coefficient: 15 sqrt(pi) / 28
        lines.append(("lambda1_reference", 15.0 * gamma(0.5) / 28.0))
        lines.append(("m1_pow", report.quantities["phi_p_M1_rho2"]))
    lines += _report_lines(report)
    _emit(lines, args.out)
    return EXIT_OK if report.holds else EXIT_FAIL


def _cmd_dump(args) -> int:
    if args.source in CASES:
        case = CASES[args.source]
        config = ProblemConfig(problem=case.problem, rho=case.rho)
    else:
        config = load_problem(args.source)
    text = dump_problem(config)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
    p_check.add_argument("--rho1", type=float)
    p_check.add_argument("--rho2", type=float)
    p_check.add_argument("--M1", type=float)
    p_check.add_argument("--M2", type=float)
    p_check.add_argument("--nu", type=float)
    p_check.add_argument("--L", type=float)
    p_check.add_argument("--k-env", dest="k_env")
    p_check.add_argument("--mu", type=float)
    p_check.add_argument("--sigma", type=float)
    p_check.add_argument("--k", type=float)
    p_check.set_defaults(func=_cmd_check)

    p_verify = sub.add_parser("verify", help="residual-check a saved CSV solution")
    p_verify.add_argument("problem")
    p_verify.add_argument("--solution", required=True, help="CSV written by solve")
    p_verify.add_argument("--rho", type=float)
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=_cmd_verify)

    p_rep = sub.add_parser("reproduce", help="rerun a bundled case")
    p_rep.add_argument("case", choices=sorted(CASES))
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
    except (ProblemFileError, ExprError, QuadratureError, SolverError,
            ValueError, OSError) as exc:
        print(f"plbvp: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
