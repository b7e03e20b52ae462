"""Benchmark of the plbvp package: CLI latency, time to a stated accuracy on
manufactured solutions, and a seeded solve-and-certify scan.

Run from the root of a checkout:

    python3 bench/run.py --workload {cli,refine,scan} --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics without tracing, the per-layer metrics with it.  The package is
imported from ``src`` of the same checkout; the run exits with status 2 when
it is missing and 1 when the oracle self-check fails.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS threads, set before numpy loads; children inherit them.  One thread
# keeps the runs steady on a shared two-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("cli", "refine", "scan")
# Fresh interpreters whose set-up time is measured: some before the loop and
# the rest after it, so that one slow spell of the shared machine does not
# set the median.
SETUP_REPS = (2, 3)
# The tail is the highest percentile with this many samples above it.
TAIL_BEYOND = 10

# Spans whose median self time is a per-layer metric, "<span>_ms".
SPAN_METRICS = (
    "cli.reproduce", "cli.check", "cli.solve", "cli.verify", "cli.dump",
    "problemfile.load", "solver.picard", "solver.assembly", "solver.apply",
    "quadrature.cumulative", "quadrature.interp", "verify.report",
    "theorems.lambda1", "theorems.lambda2", "theorems.check_3.1",
    "theorems.check_3.3", "theorems.check_3.4", "theorems.check_3.5",
)


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: import the package and build the workload's inputs."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import plbvp  # noqa: F401
    t2 = time.perf_counter()
    import workloads
    workloads.INPUTS[workload](seed)
    print(json.dumps({"import.numpy_ms": 1e3 * (t1 - t0),
                      "import.plbvp_ms": 1e3 * (t2 - t0)}))


def measure_setup(workload: str, seed: int, reps: int, speed, env: dict,
                  warm_up: bool = False) -> list:
    """Scaled wall times of `reps` fresh interpreters, with the scaled
    import times each reports; `warm_up` adds one unmeasured first run that
    also writes the bytecode caches."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    runs = []
    for rep in range(reps + warm_up):
        speed.sample(force=True)
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        t1 = time.perf_counter()
        if rep or not warm_up:
            runs.append((t0, t1, json.loads(proc.stdout.splitlines()[-1])))
    speed.sample(force=True)
    scaled = []
    for t0, t1, report in runs:
        factor = speed.scale(t0, t1)
        scaled.append(((t1 - t0) * factor,
                       {key: value * factor for key, value in report.items()}))
    return scaled


def tail(samples: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    above it, and the median when there are too few samples for more."""
    import numpy as np

    n = len(samples)
    pct = max(50.0, 100.0 * (n - TAIL_BEYOND) / n)
    return float(np.percentile(samples, pct)), pct


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def per_layer_metrics(out, probe, panel_layers, tracer, speed, imports) -> dict:
    import tracer as tracing
    import workloads

    medians = tracer.medians_ms(speed.scale)
    durations = tracer.medians_ms(speed.scale, self_time=False)
    metrics = {key: (value, "ms") for key, value in imports.items()}
    sweep = tuple(f"sweep.n{n}.{layer}" for n in workloads.SWEEP_PANELS
                  for layer in ("picard", "assembly", "apply", "verify"))
    for name in SPAN_METRICS + sweep:
        metrics[name + "_ms"] = (medians[name], "ms")
    solved = out if out.solves else probe
    metrics["solver.iterations"] = (statistics.median(solved.iterations), "count")
    metrics["solver.converged_ratio"] = (solved.converged / solved.solves, "1")
    metrics["refine.time_to_tol_s"] = (1e-3 * sum(
        durations[f"refine.instance.i{i}"] for i in range(1, 5)), "s")
    for key, value in panel_layers.items():
        unit = "count" if ".stop_n." in key else "1"
        metrics[key] = (value, unit)
    attempted = out.attempted + probe.attempted
    metrics["fail_ratio"] = ((out.failed + probe.failed) / attempted, "1")
    overhead = (statistics.median(op_seconds(out, speed, traced=True))
                / statistics.median(op_seconds(out, speed)))
    metrics["trace.overhead_pct"] = (100.0 * (overhead - 1.0), "%")
    metrics["trace.span_cost_us"] = (1e6 * tracing.span_cost_s(), "us")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["machine.reference_ms"] = (1e3 * speed.median_s(), "ms")
    return metrics


def op_seconds(out, speed, traced: bool = False) -> list:
    """Scaled durations of the loop's untraced (or traced) operations."""
    return [seconds * speed.scale(start, end)
            for start, end, was_traced, seconds in out.ops if was_traced == traced]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "plbvp" / "__init__.py").is_file():
        print(f"bench: no plbvp package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import numpy as np
    import scipy

    import oracle
    import workloads
    from speed import Speed
    from tracer import Tracer

    print(f"env: nproc={os.cpu_count()} cpu={platform.processor() or platform.machine()} "
          f"python={platform.python_version()} numpy={np.__version__} "
          f"scipy={scipy.__version__} blas_threads={BLAS_THREADS}")
    try:
        oracle.self_check()
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    speed = Speed()
    env = workloads.child_env()
    setups = measure_setup(args.workload, args.seed, SETUP_REPS[0], speed, env,
                           warm_up=True)
    tracer = Tracer(bool(args.trace))
    inputs = workloads.INPUTS[args.workload](args.seed)
    out = workloads.RUNNERS[args.workload](inputs, args.seconds, tracer, speed)
    setups += measure_setup(args.workload, args.seed, SETUP_REPS[1], speed, env)
    setup_s = statistics.median(wall for wall, _ in setups)
    imports = {key: statistics.median(report[key] for _, report in setups)
               for key in setups[0][1]}
    for note in out.notes:
        print(f"bench: failed: {note}", file=sys.stderr)

    if args.trace:
        probe, panel_layers = workloads.panel(args.workload, inputs, tracer, speed)
        for note in probe.notes:
            print(f"bench: failed: {note}", file=sys.stderr)
        metrics = per_layer_metrics(out, probe, panel_layers, tracer, speed, imports)
        path = workloads.OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        attempted, failed = out.attempted + probe.attempted, out.failed + probe.failed
    else:
        scaled = op_seconds(out, speed)
        tail_value, tail_pct = tail(scaled)
        raw = statistics.median(seconds for *_, seconds in out.ops)
        print(f"{args.workload}: {len(scaled)} operations, tail is the p{tail_pct:.1f} "
              f"sample; reference kernel {1e3 * speed.median_s():.2f} ms, so the "
              f"median operation took {1e3 * raw:.1f} ms of wall time")
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (1e3 * statistics.median(scaled), "ms"),
            "op_tail_ms": (1e3 * tail_value, "ms"),
            "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
            "err_max": (max(out.errors), "1"),
        }
        attempted, failed = out.attempted, out.failed

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
