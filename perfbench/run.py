"""Benchmark of ucrga: three closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout. The workload runs in a worker process of its
own (worker.py); at most one process computes at a time. With ``--trace 0``
the last line of standard output is one JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
``setup_s`` is the median over SETUP_SAMPLES fresh processes of the time from
starting the process to its first timed operation: four that only set up,
and the measuring worker itself. See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("dense_wide", "sparse_banded", "cli_check")
SETUP_SAMPLES = 5

# the whole run, set-up included, must end within this many seconds
BUDGET_S = 170.0


def _worker(argv, deadline):
    """Run one worker to completion; return (monotonic ns at start, its JSON line)."""
    started_ns = time.monotonic_ns()
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise SystemExit("error: worker ran out of time")
    if proc.returncode != 0:
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return started_ns, json.loads(stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ucrga" / "__init__.py").is_file():
        raise SystemExit(f"error: no ucrga package under {ROOT / 'src'}")

    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_s = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            started_ns, probe = _worker([*common, "--seconds", "0", "--setup-only"], deadline)
            setup_s.append((probe["ready_ns"] - started_ns) / 1e9)
    started_ns, result = _worker(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
    )
    metrics = result["metrics"]
    if not args.trace:
        setup_s.append((result["ready_ns"] - started_ns) / 1e9)
        metrics["setup_s"] = statistics.median(setup_s)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    OUT.mkdir(exist_ok=True)
    line = json.dumps(report)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
