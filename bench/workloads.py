"""The cli, refine and scan workloads and the layer panel of the traced run.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Each layer is timed from outside, by a
span around a call to its public functions.  An operation that raises, or
whose output differs from what is expected, counts as failed.
"""

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from plbvp import (
    cumulative,
    check_contraction_large_p,
    check_contraction_small_p,
    check_krasnoselskii,
    check_leray_schauder,
    lambda1,
    lambda2,
    load_problem,
    loads_problem,
    parse,
    picard_solve,
    verification_report,
)
from plbvp.plaplacian import phi
from plbvp.solver import KernelAssembly

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
RHO = 0.5

# CLI calls of the cli workload, in units that must run in order (verify
# reads the CSV solve wrote).  Each call is (subcommand metric, argv,
# expected exit code, expected verdict); the expected values are those the
# package gives for these inputs.  "mfg" is a manufactured problem with a
# closed-form solution, so the CLI's answer can be checked for accuracy.
CLI_UNITS = (
    (("reproduce", ["reproduce", "ex41"], 0, "hypotheses_hold"),),
    (("reproduce", ["reproduce", "ex42"], 0, "hypotheses_hold"),),
    (("reproduce", ["reproduce", "ex43"], 0, "hypotheses_hold"),),
    (("check", ["check", "--theorem", "3.1", "--rho1", "0.008333", "--rho2", "1",
                "problems/ex43.problem"], 0, "hypotheses_hold"),),
    (("check", ["check", "--theorem", "3.2", "--rho1", "0.5", "--rho2", "1",
                "problems/ex43.problem"], 1, "hypotheses_fail"),),
    (("check", ["check", "--theorem", "3.3", "--nu", "1",
                "problems/ex41.problem"], 0, "hypotheses_hold"),),
    (("check", ["check", "--theorem", "3.4", "--mu", "0.005", "--sigma", "1.5",
                "--k", "0.01", "problems/ex43.problem"], 1, "hypotheses_fail"),),
    (("check", ["check", "--theorem", "3.5", "--k-env", "exp(-t)", "--L", "2",
                "problems/ex42.problem"], 0, "hypotheses_hold"),),
    (("solve", ["solve", "problems/ex43.problem", "--out", ".bench_out/ex43.csv"],
      0, "converged"),
     ("verify", ["verify", "problems/ex43.problem", "--solution", ".bench_out/ex43.csv"],
      0, "reported")),
    (("solve", ["solve", ".bench_out/mfg.problem", "--out", ".bench_out/mfg.csv"],
      0, "converged"),),
    (("dump", ["dump", "ex43"], 0, None),),
)
# The manufactured problem the cli workload solves, and its panel count.
CLI_MFG = oracle.REFINE[0]
ERR_PANELS = 128

# A call takes about a second; one still running after this has failed.
CLI_TIMEOUT_S = 60

# One call per subcommand, for the traced runs of the other workloads.
CLI_ONE_EACH = tuple(units[0] for units in CLI_UNITS[2:4]) + CLI_UNITS[8] + CLI_UNITS[10]

REFINE_PANELS = (64, 128, 256, 512, 1024)
REFINE_TOL = 1e-4
SWEEP_PANELS = (128, 256, 512, 1024, 2048)
# Points at which the quadrature.interp probe evaluates a grid function; about
# the number one operator application samples at 128 panels.
INTERP_POINTS = 1 << 18

# The scan loop starts with one fixed batch, drawn with ACCURACY_SEED, and
# err_max is the largest error over it: the largest error of a seeded batch
# varies by a factor of two from seed to seed, which would hide any change
# in accuracy.  The seeded draws that follow are checked against
# oracle.SCAN_ERR_BOUND like every other instance.
ACCURACY_SEED = 0
# Parameters of the theorem checks in scan; the verdicts vary by instance.
K_ENV = parse("exp(-t)", variables=("t",))


def child_env() -> dict:
    """Environment of child interpreters: the checkout's package first."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@dataclass
class Outcome:
    """What one workload loop measured."""

    ops: list = field(default_factory=list)         # (start, end, traced, seconds)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)      # sup errors at ERR_PANELS
    iterations: list = field(default_factory=list)
    solves: int = 0
    converged: int = 0
    notes: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)

    def solved(self, rep) -> None:
        self.solves += 1
        self.converged += bool(rep.converged)
        self.iterations.append(rep.iterations)


def timed_loop(out: Outcome, seconds: float, tracer, speed, op, min_ops: int = 0) -> Outcome:
    """Run op(out) until `seconds` have passed and min_ops are done, with
    reference samples in between.  An op may return the seconds it spent
    working, when it takes reference samples of its own.

    In a traced run operations alternate between traced and untraced, so
    the tracing overhead is the difference of the two medians.
    """
    traced = tracer.enabled
    min_ops = max(min_ops, 2 if traced else 1)  # one traced and one untraced
    tracer.phase = "loop"
    speed.sample(force=True)
    start = time.perf_counter()
    while len(out.ops) < min_ops or time.perf_counter() - start < seconds:
        tracer.enabled = traced and len(out.ops) % 2 == 0
        tracer.new_op()
        t0 = time.perf_counter()
        busy = op(out)
        t1 = time.perf_counter()
        out.ops.append((t0, t1, tracer.enabled, t1 - t0 if busy is None else busy))
        speed.sample()
    speed.sample(force=True)
    tracer.enabled = traced
    return out


# ---------------------------------------------------------------- cli

def cli_call(call, tracer, out: Outcome) -> None:
    """Run one CLI call in a fresh interpreter and check its output."""
    metric, argv, want_code, want_verdict = call
    out.attempted += 1
    try:
        with tracer.span("cli." + metric):
            proc = subprocess.run([sys.executable, "-m", "plbvp.cli", *argv], cwd=ROOT,
                                  env=child_env(), capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out.fail(f"{' '.join(argv)}: still running after {CLI_TIMEOUT_S} s")
        return
    lines = proc.stdout.splitlines()
    verdict = lines[-1].partition(" = ")[2] if lines else ""
    if proc.returncode != want_code:
        out.fail(f"{' '.join(argv)}: exit {proc.returncode}, expected {want_code}: "
                 f"{proc.stderr.strip()[-200:]}")
    elif want_verdict is not None and verdict != want_verdict:
        out.fail(f"{' '.join(argv)}: verdict {verdict!r}, expected {want_verdict!r}")
    elif metric == "dump" and not proc.stdout.startswith("[problem]\nalpha = 2.5\n"):
        out.fail("dump ex43: unexpected problem file text")
    elif argv[1] == ".bench_out/mfg.problem":
        data = np.loadtxt(OUT / "mfg.csv", delimiter=",", skiprows=1)
        err = float(np.max(np.abs(data[:, 1] - CLI_MFG.exact(data[:, 0]))))
        out.errors.append(err)
        if not err <= REFINE_TOL:
            out.fail(f"cli solve of the manufactured problem: error {err:.3e}")


def cli_inputs(seed: int):
    OUT.mkdir(exist_ok=True)
    (OUT / "mfg.problem").write_text(CLI_MFG.problem_file(ERR_PANELS), encoding="utf-8")
    return np.random.default_rng(seed)


def run_cli(rng, seconds: float, tracer, speed) -> Outcome:
    """Fixed mix of CLI calls, one at a time; each pass over the mix takes
    the units in a new seeded order."""
    order = []

    def op(out: Outcome) -> None:
        if not order:
            for i in rng.permutation(len(CLI_UNITS)):
                order.extend(CLI_UNITS[i])
        cli_call(order.pop(0), tracer, out)

    out = Outcome()
    for call in CLI_UNITS[9] + CLI_UNITS[2]:  # warm-up: checked, not timed
        cli_call(call, tracer, out)
    return timed_loop(out, seconds, tracer, speed, op)


# ---------------------------------------------------------------- refine

def refine_instance(inst, label: str, tracer, out: Outcome):
    """Solve and verify at N = 64, 128, ... until the sup error against u*
    is at most REFINE_TOL; return ({N: error}, stop N or None)."""
    errs = {}
    with tracer.span("refine.instance." + label):
        for panels in REFINE_PANELS:
            with tracer.span("problemfile.load"):
                pb = loads_problem(inst.problem_file(panels)).problem
            with tracer.span("solver.picard"):
                rep = picard_solve(pb)
            with tracer.span("verify.report"):
                verification_report(pb, rep.solution, RHO)
            out.solved(rep)
            if not rep.converged:
                return errs, None
            errs[panels] = inst.sup_error(rep.solution)
            if errs[panels] <= REFINE_TOL:
                return errs, panels
    return errs, None


def refine_pass(order, tracer, out: Outcome, stops: dict, speed) -> float:
    """Refine each instance in turn; return the time spent refining, which
    leaves out the reference samples taken between instances."""
    busy = 0.0
    for i in order:
        inst = oracle.REFINE[i]
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            errs, stop = refine_instance(inst, f"i{i + 1}", tracer, out)
        except Exception as exc:  # a raising layer is a failed operation
            out.fail(f"refine {inst}: {type(exc).__name__}: {exc}")
            continue
        finally:
            busy += time.perf_counter() - t0
            speed.sample()
        if stop is None:
            out.fail(f"refine {inst}: error {errs} misses {REFINE_TOL} by N = 1024")
        stops[i] = (stop, errs)
    return busy


def refine_inputs(seed: int):
    return np.random.default_rng(seed)


def run_refine(rng, seconds: float, tracer, speed) -> Outcome:
    """Four fixed manufactured instances, each refined to REFINE_TOL; one
    operation is a pass over all four in a seeded order."""
    stops = {}
    out = Outcome()
    refine_pass(range(len(oracle.REFINE)), tracer, out, stops, speed)  # warm-up: not timed
    timed_loop(out, seconds, tracer, speed,
               lambda o: refine_pass(rng.permutation(len(oracle.REFINE)), tracer, o, stops,
                                     speed))
    for inst in oracle.REFINE:
        rep = picard_solve(inst.problem(ERR_PANELS))
        out.errors.append(inst.sup_error(rep.solution))
    return out


def refine_layers(stops: dict) -> dict:
    """Stop N and observed order of each refine instance."""
    layers = {}
    for i, (stop, errs) in sorted(stops.items()):
        ns = sorted(errs)
        if not ns:
            continue
        layers[f"refine.stop_n.i{i + 1}"] = float(stop or 2 * ns[-1])
        if len(ns) >= 2:
            layers[f"refine.order.i{i + 1}"] = float(np.log2(errs[ns[-2]] / errs[ns[-1]]))
    return layers


# ---------------------------------------------------------------- scan

def scan_stream(rng):
    """Endless scan instances, one Latin hypercube batch after another."""
    while True:
        yield from oracle.scan_batch(rng)


def theorem_checks(inst, pb, tracer) -> tuple:
    """Lambda_1, Lambda_2 and the theorem checks of one scan instance."""
    top = float(inst.exact(0.0))
    with tracer.span("theorems.lambda1"):
        l1 = lambda1(pb)
    with tracer.span("theorems.lambda2"):
        l2 = lambda2(pb, RHO)
    with tracer.span("theorems.check_3.3"):
        check_leray_schauder(pb, 2.0 * top)
    with tracer.span("theorems.check_3.1"):
        check_krasnoselskii(pb, RHO, 0.1 * top, 2.0 * top)
    if pb.p > 2.0:
        with tracer.span("theorems.check_3.4"):
            check_contraction_large_p(pb, 0.1, 0.5 / (2.0 - pb.q), 0.1)
    else:
        with tracer.span("theorems.check_3.5"):
            check_contraction_small_p(pb, K_ENV, 1.0)
    return l1, l2


def scan_instance(inst, tracer, out: Outcome, accuracy: bool = False) -> None:
    out.attempted += 1
    try:
        with tracer.span("scan.instance"):
            with tracer.span("problemfile.load"):
                pb = loads_problem(inst.problem_file(ERR_PANELS)).problem
            with tracer.span("solver.picard"):
                rep = picard_solve(pb)
            with tracer.span("verify.report"):
                verification_report(pb, rep.solution, RHO)
            l1, l2 = theorem_checks(inst, pb, tracer)
    except Exception as exc:  # a raising layer is a failed operation
        out.fail(f"scan {inst}: {type(exc).__name__}: {exc}")
        return
    out.solved(rep)
    err = inst.sup_error(rep.solution)
    if accuracy:
        out.errors.append(err)
    if not rep.converged:
        out.fail(f"scan {inst}: not converged in {rep.iterations} iterations")
    elif not err <= oracle.SCAN_ERR_BOUND:
        out.fail(f"scan {inst}: error {err:.3e} > {oracle.SCAN_ERR_BOUND}")
    elif not abs(l1 - inst.lambda1()) <= 1e-8:
        out.fail(f"scan {inst}: Lambda_1 {l1!r}, closed form {inst.lambda1()!r}")
    elif not l1 < l2:
        out.fail(f"scan {inst}: Lambda_1 {l1!r} >= Lambda_2 {l2!r}")


def scan_inputs(seed: int):
    accuracy = oracle.scan_batch(np.random.default_rng(ACCURACY_SEED))
    return accuracy, scan_stream(np.random.default_rng(seed))


def run_scan(inputs, seconds: float, tracer, speed) -> Outcome:
    """The fixed accuracy batch, then fresh seeded instances, all at N = 128,
    each solved, verified and put through the theorem checks."""
    accuracy, stream = inputs
    queue = list(accuracy)
    out = Outcome()
    scan_instance(oracle.REFINE[0], tracer, out)  # warm-up: checked, not timed

    def op(out: Outcome) -> None:
        if queue:
            scan_instance(queue.pop(0), tracer, out, accuracy=True)
        else:
            scan_instance(next(stream), tracer, out)

    return timed_loop(out, seconds, tracer, speed, op, min_ops=len(accuracy))


# ---------------------------------------------------------------- panel

def layer_probe(pb, tracer):
    """Time each solver and quadrature layer once on one problem."""
    with tracer.span("solver.picard"):
        rep = picard_solve(pb)
    density = pb.density(rep.solution)
    with tracer.span("quadrature.cumulative"):
        F = cumulative(density)
    with tracer.span("quadrature.interp"):
        F(np.linspace(0.0, 1.0, INTERP_POINTS))
    with tracer.span("solver.assembly"):
        assembly = KernelAssembly(pb.kernel_params, pb.partition(),
                                  pb.discretization.points_per_panel)
    with tracer.span("solver.apply"):
        assembly.apply_to(lambda s: phi(pb.q, F(s)))
    with tracer.span("verify.report"):
        verification_report(pb, rep.solution, RHO)
    return rep


def bundled_probe(tracer, out: Outcome) -> None:
    """The cli workload's problems, in process: load, solve, verify, and the
    theorem checks with the parameters of its check calls."""
    with tracer.span("problemfile.load"):
        ex41, ex42, ex43 = (load_problem(ROOT / "problems" / f"ex4{i}.problem").problem
                            for i in (1, 2, 3))
    out.solved(layer_probe(ex43, tracer))
    with tracer.span("theorems.lambda1"):
        lambda1(ex43)
    with tracer.span("theorems.lambda2"):
        lambda2(ex43, RHO)
    with tracer.span("theorems.check_3.1"):
        check_krasnoselskii(ex43, RHO, 0.008333, 1.0)
    with tracer.span("theorems.check_3.3"):
        check_leray_schauder(ex41, 1.0)
    with tracer.span("theorems.check_3.4"):
        check_contraction_large_p(ex43, 0.005, 1.5, 0.01)
    with tracer.span("theorems.check_3.5"):
        check_contraction_small_p(ex42, K_ENV, 2.0)


def instance_probe(instances, tracer, out: Outcome) -> None:
    """Manufactured problems at N = 128, through every layer once."""
    for inst in instances:
        with tracer.span("problemfile.load"):
            pb = loads_problem(inst.problem_file(ERR_PANELS)).problem
        out.solved(layer_probe(pb, tracer))
        theorem_checks(inst, pb, tracer)


def sweep(tracer, speed) -> dict:
    """Picard, assembly, one application and verify on the first refine
    instance from 128 to 2048 panels, with the error; spans carry the times."""
    inst = oracle.REFINE[0]
    errors = {}
    for panels in SWEEP_PANELS:
        pb = inst.problem(panels)
        with tracer.span(f"sweep.n{panels}.picard"):
            rep = picard_solve(pb)
        with tracer.span(f"sweep.n{panels}.assembly"):
            assembly = KernelAssembly(pb.kernel_params, pb.partition(),
                                      pb.discretization.points_per_panel)
        F = cumulative(pb.density(rep.solution))
        with tracer.span(f"sweep.n{panels}.apply"):
            assembly.apply_to(lambda s: phi(pb.q, F(s)))
        del assembly  # one assembly at a time: 2048 panels take about 1 GB
        with tracer.span(f"sweep.n{panels}.verify"):
            verification_report(pb, rep.solution, RHO)
        errors[f"sweep.n{panels}.err"] = inst.sup_error(rep.solution)
        speed.sample(force=True)
    return errors


def panel(workload: str, inputs, tracer, speed) -> tuple:
    """Every layer measured once on the workload's problems, plus the panel
    sweep and one refine pass, so that each traced run reports every
    per-layer metric; the loop's own spans take precedence."""
    tracer.phase = "panel"
    probe = Outcome()
    speed.sample(force=True)
    if workload == "cli":
        bundled_probe(tracer, probe)
    elif workload == "refine":
        instance_probe(oracle.REFINE, tracer, probe)
    else:
        instance_probe(inputs[0][:4], tracer, probe)
    speed.sample(force=True)
    for call in CLI_ONE_EACH:
        cli_call(call, tracer, probe)
        speed.sample(force=True)
    layers = sweep(tracer, speed)
    stops = {}
    refine_pass(range(len(oracle.REFINE)), tracer, probe, stops, speed)
    layers.update(refine_layers(stops))
    return probe, layers


INPUTS = {"cli": cli_inputs, "refine": refine_inputs, "scan": scan_inputs}
RUNNERS = {"cli": run_cli, "refine": run_refine, "scan": run_scan}
