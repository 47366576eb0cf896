from __future__ import annotations

import hashlib
import json
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import run_cli

from fanodescent.descent import projective_space

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "scaling.py"


def _run(out: Path, label: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(out), "--label", label,
         "--repeats", "1", "--verify", "3", "--check", "5", "--chain", "4", "--direct", "6"],
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
        "descend_direct projective_space n=6 i=2",
    ]
    for case in run["cases"]:
        assert case["exit_codes"] == [0]
        assert case["reports_identical"]
        assert len(case["wall_s"]) == 1 and case["median_s"] > 0
    # The hash is of the report the CLI prints for the same argv, and of
    # the scalars of P^4, the second iterate of P^6.
    *cli_cases, direct = run["cases"]
    for case in cli_cases:
        assert case["argv"][:2] == ["-m", "fanodescent"]
        code, stdout, _ = run_cli(case["argv"][2:])
        assert code == 0
        assert case["report_sha256"] == hashlib.sha256(stdout.encode()).hexdigest()
    assert direct["argv"][-2:] == ["6", "2"]
    p4 = " ".join(str(x) for x in projective_space(4).vector.scalars) + "\n"
    assert direct["report_sha256"] == hashlib.sha256(p4.encode()).hexdigest()
    # The second label is added beside the first, whose record is kept.
    first = record["runs"]["first"]["cases"]
    assert [(c["name"], c["report_sha256"]) for c in first] == [
        (c["name"], c["report_sha256"]) for c in run["cases"]
    ]


def _script():
    spec = importlib.util.spec_from_file_location("scaling", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flag", ["--verify", "--check", "--chain", "--direct", "--repeats"])
@pytest.mark.parametrize(
    "token", ["0", "-1", "+3", "", ",", "3,", ",3", "3,,4", "1_0", "3,1_0", " 3", "3.0", "\u0663"]
)
def test_bad_sizes_exit_two(tmp_path, capsys, flag, token):
    # Each flag takes ASCII digits >= 1 (--repeats a single one); nothing is run.
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as excinfo:
        _script().main(["--out", str(out), flag, token])
    assert excinfo.value.code == 2
    assert repr(token) in capsys.readouterr().err
    assert not out.exists()


def test_sizes_parse_ascii_lists():
    scaling = _script()
    assert scaling._sizes("3") == [3]
    assert scaling._sizes("20,40,80") == [20, 40, 80]
