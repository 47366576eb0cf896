"""Smoke test of the benchmark harness: every workload, traced and untraced, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

No time bounds are checked; the point is that generators, workers,
tracer and oracle keep working together as the library changes.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, root=ROOT):
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )
    return done


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_correctly(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    metrics = {name: v["value"] for name, v in result["metrics"].items()}
    if trace and workload == "certify-cold":
        assert metrics["exact.compositions.tuples"] == 0
        assert metrics["descent.descend.calls"] == 0
    if trace and workload == "descent-warm":
        assert metrics["coeffs.coefficient.timed_new_keys"] == 0
    if not trace:
        assert all(v > 0 for v in metrics.values())


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("cli-verify", 0, cwd=tmp_path, root=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_inputs_depend_only_on_the_seed():
    assert workloads.blocks("certify-cold", 3, "smoke") == workloads.blocks("certify-cold", 3, "smoke")
    assert workloads.blocks("certify-cold", 3, "smoke") != workloads.blocks("certify-cold", 4, "smoke")


def test_oracle_reference_values():
    assert oracle.bernoulli(7) == tuple(map(Fraction, ("1", "-1/2", "1/6", "0", "-1/30", "0", "1/42")))
    assert oracle.max_level(oracle.projective(9), "thm4") == 9
    assert oracle.max_level(oracle.quadric(9), "thm5") == 5
    assert oracle.max_level(oracle.quadric(9), "thm5_strong") == 4
    assert oracle.iterated(oracle.projective(6), 2, 1) == oracle.projective(4)
    assert oracle.iterated(oracle.quadric(7), 2, 1) == oracle.quadric(3)
    # Actual-mode sums at the thresholds reproduce the closed forms.
    for gate in oracle.GATES:
        thresholds = [oracle.threshold(gate, 6, k) for k in range(1, 7)]
        assert oracle.certificate_levels(thresholds, gate, 6, True) == oracle.certificate_levels(
            thresholds, gate, 6, False)
