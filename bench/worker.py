"""One benchmark worker: a fresh interpreter, so its first pass is cold.

    python3 bench/worker.py setup
    python3 bench/worker.py pass --workload NAME --seed N [--size tiny]
                                 [--warm-min-s S]
                                 [--trace-out FILE --untraced-per-ref R]

Both modes import moebiuskit first and report the monotonic clock at the
moment the import returned; the parent subtracts its spawn time to get
the set-up time.  `setup` then times the probe task (`reference_s`).
`pass` times one cold pass, repeats the identical pass in the same
process (warm, memo tables full) until `--warm-min-s` seconds are spent,
and gates every pass's answers outside the timed region.  Every pass
also reports the host's speed while it ran, as the time of a fixed probe
task (`SpeedProbe`), so the parent can correct the pass for it.  With
`--trace-out` the cold pass is traced instead, without probes, no warm
pass runs, and the spans go to FILE.  The result is one JSON line on
stdout.
"""

from __future__ import annotations

import time

import moebiuskit  # noqa: F401  (the import is the set-up being timed)

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_WARM_PASSES = 50
PROBE_EVERY_S = 0.2
MODULE_CACHES = ("_CANON_CACHE", "_AUT_CACHE", "_LEVEL_CACHE", "_SPACE_CACHE")


def _cache_entries() -> int:
    from moebiuskit import examples

    return sum(len(getattr(examples, name, ())) for name in MODULE_CACHES)


def probe_task() -> None:
    """A fixed stdlib task of a few milliseconds, with the same kind of
    tuple, set and dict work as the library: brute-force enumeration of
    the posets on three points, ten times."""
    for _ in range(10):
        oracles.canonical_poset.cache_clear()
        oracles.poset_classes(3)


def reference_s() -> float:
    """Median of five timings of the probe task: the host's speed now."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        probe_task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Times the probe task from a timer signal every PROBE_EVERY_S
    seconds while a pass runs.  The handler runs between bytecodes of the
    pass in the main thread, so no thread is added, and its own time is
    taken out of the pass time."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.times = []

    def _probe(self, signum, frame):
        start = time.perf_counter()
        probe_task()
        self.times.append(time.perf_counter() - start)

    def __enter__(self):
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


def timed_pass(workload, data, probe: bool):
    """(answers, pass seconds without probes, probe seconds): the probe
    seconds are the mean probe timing during the pass (a pass slows down
    by the mean of the slow-downs the probes sample), or the mean of the
    reference timings just before and after a pass too short for three
    probes."""
    before = reference_s()
    start = time.perf_counter()
    with SpeedProbe(probe) as probes:
        raw = workload.run_pass(data)
    elapsed = time.perf_counter() - start
    after = reference_s()
    if len(probes.times) >= 3:
        speed = statistics.fmean(probes.times)
    else:
        speed = (before + after) / 2
    return raw, elapsed - sum(probes.times), speed


def run_pass(args) -> dict:
    workload = workloads.WORKLOADS[args.workload](args.size)
    data = workload.make_inputs(args.seed)

    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    raw, cold, cold_ref = timed_pass(workload, data, probe=tracer is None)
    raws = [raw]
    if tracer is not None:
        tracer.uninstall()
    caches = _cache_entries()

    warm, warm_ref = [], []
    while tracer is None and len(warm) < MAX_WARM_PASSES and (
            not warm or sum(warm) < args.warm_min_s):
        raw, seconds, ref = timed_pass(workload, data, probe=True)
        raws.append(raw)
        warm.append(seconds)
        warm_ref.append(ref)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    expected = workload.expected(data)
    tally = workloads.Tally()
    for raw in raws:
        workload.gate(data, expected, raw, tally)

    result = {"ready": READY, "cold_s": cold, "cold_ref_s": cold_ref,
              "warm_s": warm, "warm_ref_s": warm_ref, "rss_kb": rss_kb,
              "cache_entries": caches, "attempted": tally.attempted,
              "failed": tally.failed, "errors": tally.errors}
    if tracer is not None:
        tracer.write(args.trace_out)
        overhead = cold / cold_ref / args.untraced_per_ref
        result["layers"] = tracing.layer_metrics(tracer, cold, overhead, caches)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    p = sub.add_parser("pass")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=["full", "tiny"])
    p.add_argument("--warm-min-s", type=float, default=1.0)
    p.add_argument("--trace-out", default=None)
    p.add_argument("--untraced-per-ref", type=float, default=0.0,
                   help="an untraced cold pass over its reference timing")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = {"ready": READY, "probe_s": reference_s()}
    else:
        result = run_pass(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
