from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from conftest import run_cli

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "scaling.py"


def _run(out: Path, label: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(out), "--label", label,
         "--repeats", "1", "--verify", "3", "--check", "5", "--chain", "4"],
        capture_output=True,
        text=True,
    )


def test_scaling_record_smoke(tmp_path):
    # Small sizes and no time bound: this checks the record, not the speed.
    out = tmp_path / "bench.json"
    assert _run(out, "first").returncode == 0
    assert _run(out, "second").returncode == 0
    record = json.loads(out.read_text())
    assert sorted(record["runs"]) == ["first", "second"]
    run = record["runs"]["second"]
    assert run["repeats"] == 1
    assert run["machine"]["python"]
    assert [case["name"] for case in run["cases"]] == [
        "verify M=3",
        "check projective_space m=5 thm4",
        "chain projective_space n=4",
    ]
    for case in run["cases"]:
        assert case["exit_codes"] == [0]
        assert case["reports_identical"]
        assert len(case["wall_s"]) == 1 and case["median_s"] > 0
        # The hash is of the report the CLI prints for the same argv.
        code, stdout, _ = run_cli(case["argv"])
        assert code == 0
        assert case["report_sha256"] == hashlib.sha256(stdout.encode()).hexdigest()
    # The second label is added beside the first, whose record is kept.
    first = record["runs"]["first"]["cases"]
    assert [(c["name"], c["report_sha256"]) for c in first] == [
        (c["name"], c["report_sha256"]) for c in run["cases"]
    ]
