"""The benchmark's tracer (bench/tracing.py) wraps library functions and
methods by name, so a rename in the library must fail here, not only
under `bench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

from moebiuskit import groupoid as gp

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    originals = (gp.fiber_cardinality, gp.FiniteGroupoid.__dict__["iso_classes"])
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert gp.fiber_cardinality is not originals[0]
    finally:
        tracer.uninstall()
    assert (gp.fiber_cardinality, gp.FiniteGroupoid.__dict__["iso_classes"]) == originals
