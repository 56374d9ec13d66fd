"""One workload in a process of its own, started by run.py.

    worker.py --workload NAME --seed N --seconds T --trace 0|1 [--setup-only]

Set-up (importing ucrga, generating and validating the seeded inputs, one
untimed warm-up operation) ends at the monotonic clock reading printed as
``ready_ns``. With ``--setup-only`` the worker stops there. Otherwise it
runs whole rounds of operations, one per plant of the input pool, until
``--seconds`` have passed, checks every output outside the timed region, and
prints one JSON line.
"""

import os

# One BLAS thread, set before numpy loads and inherited by the CLI's child
# processes: OpenBLAS's own threads stall single calls (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _import_program():
    src = ROOT / "src"
    if not (src / "ucrga" / "__init__.py").is_file():
        raise SystemExit(f"error: no ucrga package under {src}")
    sys.path.insert(0, str(src))
    import ucrga

    if Path(ucrga.__file__).resolve().parent != src / "ucrga":
        raise SystemExit(f"error: imported ucrga from {ucrga.__file__}, not from {src}")


class Tally:
    """Operations attempted, failed (raised or gave a wrong output) and
    passed, and the latencies in ms of those that returned."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.passed = 0
        self.latencies = {}

    def run(self, workload, fn, i, kind):
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            output = fn(i)
            elapsed_ns = time.perf_counter_ns() - start
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        self.latencies.setdefault(kind, []).append(elapsed_ns / 1e6)
        if workload.check(i, output):
            self.passed += 1
        else:
            print(f"error: wrong output on plant {i} ({kind})", file=sys.stderr)
            self.failed += 1
            self.wrong += 1

    def median(self, kind):
        return float(np.median(self.latencies[kind]))


def _rounds(workload, seconds, body):
    """Run ``body(i)`` over every plant, round after round, until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    while True:
        for i in range(len(workload.plants)):
            body(i)
        if time.perf_counter() >= deadline:
            return


def measure(workload, seconds, tally):
    _rounds(workload, seconds, lambda i: tally.run(workload, workload.operation, i, "op"))
    latencies = np.array(tally.latencies["op"])
    if workload.spawns_process:
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": tally.passed / latencies.sum() * 1e3,
        "latency_ms_p75": float(np.percentile(latencies, 75)),
        "latency_ms_p90": float(np.percentile(latencies, 90)),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
    }


def trace(workload, seconds, tally, name):
    """Alternate untraced and traced in-process operations on each plant; for
    the CLI workload, also time the subprocess operation."""
    import spans

    tracer = spans.Tracer()
    op_ids = itertools.count()

    def traced(i):
        tracer.install()
        try:
            with tracer.operation(next(op_ids)):
                return workload.in_process(i)
        finally:
            tracer.uninstall()

    def body(i):
        if workload.spawns_process:
            tally.run(workload, workload.operation, i, "subprocess")
        tally.run(workload, workload.in_process, i, "untraced")
        tally.run(workload, traced, i, "traced")

    _rounds(workload, seconds, body)
    metrics = tracer.layer_metrics()
    untraced = tally.median("untraced")
    metrics["trace.overhead_pct"] = (tracer.median_operation_ms() / untraced - 1.0) * 100.0
    metrics["cli.startup_ms"] = (
        tally.median("subprocess") - untraced if workload.spawns_process else 0.0
    )
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"spans-{name}.npz")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.build(args.workload, args.seed, ROOT, workdir)
    try:
        workload.operation(0)
        ready_ns = time.monotonic_ns()
        if args.setup_only:
            print(json.dumps({"ready_ns": ready_ns}))
            return 0
        tally = Tally()
        if args.trace:
            metrics = trace(workload, args.seconds, tally, args.workload)
        else:
            metrics = measure(workload, args.seconds, tally)
    finally:
        workload.close()
    print(
        json.dumps(
            {
                "ready_ns": ready_ns,
                "correct": tally.wrong == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
