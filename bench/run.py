"""Cold/warm benchmark of moebiuskit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`.
Load comes from this one process, one worker at a time, no threads.
Each cold pass runs in a fresh interpreter (`worker.py`), because the
library's memo tables are process-global and a second pass in the same
process is warm.

With `--trace 0` the run alternates import-only workers (set-up samples)
with cold-pass workers until `--seconds` is used up, and prints the
end-to-end metrics:

  wall_s       median time of a cold pass, from the first call to the
               last answer (the import and the gate are outside it)
  warm_s       median time of the identical pass repeated in the same
               worker right after the cold pass
  setup_s      median time from spawning an import-only worker until
               `import moebiuskit` returns
  peak_rss_mb  median over workers of the worker's maximum RSS

On a shared host the CPU speed can drift by 20-40% within seconds, which
moves every time alike.  The timings are therefore corrected for host
speed by a fixed stdlib probe task: each worker times it every 0.2 s
during a pass (from a timer signal, its own time taken out), and a pass
is reported as seconds * REFERENCE_S / mean probe seconds.  Each
import-only worker times the probe after its import, and set-up samples
are scaled by the median of those timings over the run.  The raw times
and probe timings are printed on the line before the result.

With `--trace 1` it runs one untraced and one traced cold pass and prints
the per-layer metrics of `tracing.layer_metrics`.

Every answer is gated against `oracles`; failed answers over attempted
answers is the error rate, printed with its base on the line before the
result and carried in the result's `attempted` and `failed`.  The last
line of stdout is the result JSON.  If a worker cannot run (for instance
the package is missing) the run exits 1 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUPS_PER_PASS = 8
WARM_MIN_S = 1.0
RUN_LIMIT_S = 170.0
HASH_SEED = "0"
# Median time of worker.probe_task on a 2-vCPU Xeon at 2.1 GHz with
# Python 3.11.7; it only fixes the scale of the corrected seconds.
REFERENCE_S = 0.003

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


class WorkerError(Exception):
    pass


def worker_env() -> dict:
    """The parent's environment without PYTHON* and MOEBIUSKIT_* settings
    (so MOEBIUSKIT_THREADS stays unset and the checks run serially), with
    a fixed hash seed and the checkout's sources on the path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "MOEBIUSKIT_"))}
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args, deadline: float) -> dict:
    """Run one worker to completion; its result plus `setup_s`."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args[:3]} ran past the time limit")
    if proc.returncode != 0:
        raise WorkerError(f"worker {args[:3]} exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerError(f"worker {args[:3]} printed no result")
    result["setup_s"] = result["ready"] - start
    return result


def environment() -> dict:
    return {"machine": platform.machine(), "platform": platform.platform(),
            "processor": platform.processor(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "loadavg": os.getloadavg(),
            "pythonhashseed": HASH_SEED}


def metric(value, unit):
    return {"value": value, "unit": unit}


def corrected(seconds, reference_s):
    """A pass time at the host speed under which the reference task takes
    REFERENCE_S."""
    return seconds * REFERENCE_S / reference_s


def measure(args, deadline) -> tuple:
    """End-to-end metrics over fresh workers until --seconds is spent."""
    setups, passes = [], []
    begin = time.monotonic()
    while True:
        setups += [spawn(["setup"], deadline) for _ in range(SETUPS_PER_PASS)]
        passes.append(spawn(["pass", "--workload", args.workload, "--seed", str(args.seed),
                             "--size", args.size, "--warm-min-s", str(WARM_MIN_S)],
                            deadline))
        elapsed = time.monotonic() - begin
        # two passes at least, so that no median rests on one worker
        if len(passes) >= 2 and elapsed + elapsed / len(passes) > args.seconds:
            break
    # an import is too short to probe; correct it by the run's host speed
    setup_probe_s = statistics.median(w["probe_s"] for w in setups)
    samples = {
        "wall_s": [corrected(p["cold_s"], p["cold_ref_s"]) for p in passes],
        "warm_s": [statistics.median(map(corrected, p["warm_s"], p["warm_ref_s"]))
                   for p in passes],
        "setup_s": [corrected(w["setup_s"], setup_probe_s) for w in setups],
        "peak_rss_mb": [p["rss_kb"] / 1024 for p in passes],
    }
    metrics = {name: metric(statistics.median(values), unit)
               for (name, values), unit in zip(samples.items(), ("s", "s", "s", "MB"))}
    details = {"samples": samples,
               "raw_cold_s": [p["cold_s"] for p in passes],
               "cold_ref_s": [p["cold_ref_s"] for p in passes],
               "raw_warm_s": [p["warm_s"] for p in passes],
               "warm_ref_s": [p["warm_ref_s"] for p in passes],
               "raw_setup_s": [w["setup_s"] for w in setups],
               "setup_probe_s": [w["probe_s"] for w in setups]}
    return metrics, passes, details


def trace(args, deadline) -> tuple:
    """Per-layer metrics of one traced cold pass, with the overhead taken
    against an untraced cold pass in another fresh worker."""
    base = ["pass", "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size]
    untraced = spawn(base + ["--warm-min-s", "0"], deadline)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    per_ref = untraced["cold_s"] / untraced["cold_ref_s"]
    traced = spawn(base + ["--trace-out", str(spans_file),
                           "--untraced-per-ref", repr(per_ref)], deadline)
    metrics = {name: metric(value, unit) for name, (value, unit) in traced["layers"].items()}
    details = {"spans_file": str(spans_file.relative_to(ROOT)),
               "untraced_s": untraced["cold_s"], "traced_s": traced["cold_s"]}
    return metrics, [untraced, traced], details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", default="full", choices=["full", "tiny"],
                        help="tiny runs the self-test's small inputs")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    # a terminated run unwinds through subprocess.run, which kills and
    # reaps the worker it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env_before = environment()
    try:
        spawn(["setup"], deadline)   # import check; also fills the bytecode cache
        metrics, workers, details = (trace if args.trace else measure)(args, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    errors = [e for w in workers for e in w["errors"]][:10]
    print(json.dumps({"environment": env_before, "loadavg_after": os.getloadavg(),
                      "workload": args.workload, "seed": args.seed,
                      "error_rate": {"failed": failed, "attempted": attempted,
                                     "value": failed / attempted if attempted else 1.0},
                      "errors": errors, **details}))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
