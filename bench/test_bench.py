"""Self-test of the benchmark, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Checks that every metric BENCHMARK.json declares is printed with its
unit, that the gate passes the seed program and catches a corrupted
expected value, and that the run fails cleanly without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, traced):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(traced), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if traced else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if traced:
        # self times plus the untraced remainder account for the traced pass
        assert abs(result["metrics"]["trace.accounted_ratio"]["value"] - 1) < 1e-6


def _corrupt(name, expected):
    """Change one expected value in place."""
    if name == "check-layered":
        squares = expected[0][1]
        first = next(iter(squares))
        squares[first] = not squares[first]
    else:
        table = expected[0] if name == "mobius-routes" else expected[0]["mu"]
        first = next(iter(table))
        table[first] += Fraction(1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_catches_one_corrupted_expected_value(name):
    workload = workloads.WORKLOADS[name]("tiny")
    data = workload.make_inputs(1)
    raw = workload.run_pass(data)
    clean, corrupted = workloads.Tally(), workloads.Tally()
    workload.gate(data, workload.expected(data), raw, clean)
    expected = workload.expected(data)
    _corrupt(name, expected)
    workload.gate(data, expected, raw, corrupted)
    assert clean.failed == 0 and clean.attempted >= 1
    assert corrupted.attempted == clean.attempted
    assert corrupted.failed >= 1


def test_gate_counts_unparsable_output():
    workload = workloads.MobiusRoutes("tiny")
    data = workload.make_inputs(1)
    raw = [(0, "not json", "")] * len(data)
    tally = workloads.Tally()
    workload.gate(data, workload.expected(data), raw, tally)
    assert tally.attempted >= len(data) and tally.failed == tally.attempted


def test_oracles():
    assert [len(oracles.poset_classes(n)) for n in range(5)] == [1, 1, 2, 5, 16]
    # the Boolean lattice on two atoms: mu(bottom, top) = 1
    mu = oracles.poset_mobius_table(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert mu[(0, 3)] == 1 and mu[(0, 1)] == -1 and mu[(1, 1)] == 1
    paths = oracles.quiver_paths(3, [("a", 0, 1), ("b", 1, 2), ("c", 0, 2)])
    assert sorted(paths) == [(0, ()), (0, ("a",)), (0, ("a", "b")), (0, ("c",)),
                             (1, ()), (1, ("b",)), (2, ())]


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "nerves", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
