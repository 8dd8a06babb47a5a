#!/usr/bin/env python3
"""Benchmark of the penning-gyro design chain.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {crystal,figures,design_sweep} \
        --seed N --seconds 30 --trace {0,1}

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off. With ``--trace 1`` it runs the workload untraced for half the window
and traced for the other half, then the pinned layer probes, and reports
the per-layer metrics. Human-readable lines and a JSON report come first;
the last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""
import os
import sys

# pinned before numpy loads anywhere; never above the machine's core count
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import subprocess
import time
import traceback
import types
import warnings
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(HERE, "out")
SETUP_REPS = 5
IMPORT_REPS = 3

# fresh interpreter to ready: import, resolve the default config, first modes call
SETUP_SNIPPET = """\
import time
t0 = time.perf_counter()
import penning_gyro
t1 = time.perf_counter()
from penning_gyro.config import load_config
cfg = load_config(None)
penning_gyro.compute_modes(cfg.ion(), cfg.trap())
print(t1 - t0)
"""


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _load_package():
    """Import penning_gyro from this checkout's src/, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "penning_gyro", "__init__.py")):
        _fail(f"no penning_gyro sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import penning_gyro
    if os.path.dirname(os.path.dirname(os.path.abspath(penning_gyro.__file__))) != SRC:
        _fail(f"penning_gyro resolved to {penning_gyro.__file__}, not {SRC}")
    return penning_gyro


def time_setup(reps: int):
    """Wall time and import time of ``reps`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    totals, imports = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        totals.append(time.perf_counter() - t0)
        imports.append(float(out.stdout.strip().splitlines()[-1]))
    return totals, imports


def run_window(workload, seconds: float, tally, tracer=None):
    """Closed loop, one caller: the next operation starts when the last
    one (and its untimed check) is done.  Returns per-operation seconds."""
    latencies = []
    deadline = time.perf_counter() + seconds
    while not latencies or time.perf_counter() < deadline:
        inp = workload.next_input()
        scope = tracer.recording("workload") if tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                result = workload.op(inp)
        except Exception as exc:  # a failed operation is counted, not fatal
            latencies.append(time.perf_counter() - t0)
            if not tally.failed:
                traceback.print_exc(file=sys.stderr)
            tally.record(f"{workload.name} #{workload.count}",
                         [f"{type(exc).__name__}: {exc}"])
            continue
        latencies.append(time.perf_counter() - t0)
        try:
            problems = workload.check(inp, result)
        except Exception as exc:  # an output the check cannot read is wrong
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        tally.record(f"{workload.name} #{workload.count}", problems)
    return latencies


class _WarningCounter:
    """Counts the shape solver's multiple-root warnings and keeps the text
    of any other warning once, for the report."""

    def __init__(self):
        self.roots = 0
        self.other: set[str] = set()

    def __call__(self, message, *args, **kwargs):
        if "aspect-ratio roots" in str(message):
            self.roots += 1
        else:
            self.other.add(str(message))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("crystal", "figures", "design_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        _fail("--seconds must be positive")

    package = _load_package()
    import harness
    import workloads

    os.makedirs(SCRATCH, exist_ok=True)
    refs = workloads.load_refs()
    tally = harness.Tally()
    workload = workloads.make(args.workload, args.seed, refs, SCRATCH)
    seen = _WarningCounter()

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = seen
        try:
            problems = workload.preflight()
        except Exception as exc:  # a digest the program cannot produce is wrong
            problems = [f"{type(exc).__name__}: {exc}"]
        tally.record("preflight", problems)
        if args.trace:
            import layers
            totals, imports = time_setup(IMPORT_REPS)
            untraced = run_window(workload, args.seconds / 2, tally)
            tracer = harness.Tracer()
            with harness.patched(tracer, "penning_gyro", layers.targets()):
                traced = run_window(workload, args.seconds / 2, tally, tracer)
                facts = layers.run_probes(tracer, tally, SCRATCH, refs)
            metrics = layers.per_layer_metrics(tracer, facts, traced, untraced, imports,
                                               seen.roots, sorted(layers.targets()))
            latencies = untraced + traced
            spans_path = os.path.join(
                SCRATCH, f"spans-{args.workload}-seed{args.seed}.jsonl")
            with open(spans_path, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(vars(span)) + "\n")
        else:
            totals, imports = time_setup(SETUP_REPS)
            latencies = run_window(workload, args.seconds, tally)
            metrics = {
                "setup_s": (harness.median(totals), "s"),
                "wall_p25_s": (harness.percentile(latencies, 25.0).value, "s"),
                "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
            }

    p25 = harness.percentile(latencies, 25.0)
    p50 = harness.percentile(latencies, 50.0)
    p99 = harness.percentile(latencies, 99.0)
    ops_per_s = len(latencies) / sum(latencies)
    public = [n for n, v in vars(package).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, 1 caller",
        "environment": harness.environment(ROOT, SRC, BLAS_THREADS),
        "public_names": len(public),
        "ops": len(latencies), "ops_per_s": ops_per_s,
        "op_p25_ms": p25.value * 1e3, "op_p50_ms": p50.value * 1e3,
        "op_p99_ms": p99.value * 1e3,
        "op_p99_beyond": p99.beyond, "op_p99_resolved": p99.resolved,
        "failed_frac": tally.failed_frac, "failures": tally.reasons,
        "multi_root_warnings": seen.roots, "other_warnings": sorted(seen.other),
        "setup_runs_s": totals, "import_runs_s": imports,
    }

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: {len(latencies)} operations (closed loop, 1 caller)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    if args.workload == "design_sweep" and not args.trace:
        print(f"  {'points_per_s':48s} {ops_per_s:14.6g} 1/s")
        print(f"  {'point_p50_ms':48s} {p50.value * 1e3:14.6g} ms  (n={p50.n})")
        print(f"  {'point_p99_ms':48s} {p99.value * 1e3:14.6g} ms  "
              f"(n={p99.n}, {p99.beyond} beyond)")
    print(f"  {'failed_frac':48s} {tally.failed_frac:14.6g} "
          f"({tally.failed}/{tally.attempted})")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
