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
from fanodescent.theorems import proof_trace_thm4

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "scaling.py"


SRC = SCRIPT.parent.parent / "src"


def _run(out: Path, label: str, *extra: str, repeats: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(out), "--label", label,
         "--repeats", str(repeats), "--verify", "3", "--check", "5", "--chain", "4",
         "--direct", "6", "--certify", "1", *extra],
        capture_output=True,
        text=True,
    )


def _certificates_text() -> str:
    """What the certificate case prints: the certificates of P^m at m, m = 2..24."""
    lines = []
    for m in range(2, 25):
        cert = proof_trace_thm4(projective_space(m).vector, m)
        bounds = [f"{lv.dim_bound} {lv.c1_margin} {lv.t2ch2_bound}" for lv in cert.per_level]
        lines.append(" ".join([str(m), *bounds]) + "\n")
    return "".join(lines)


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
        "chain quadric n=4",
        "descend_direct projective_space n=6 i=2",
        "proof_trace_thm4 P^m m=2..24 passes=1",
    ]
    for case in run["cases"]:
        assert case["exit_codes"] == [0]
        assert case["reports_identical"]
        assert len(case["wall_s"]) == 1 and case["median_s"] > 0
        assert len(case["peak_rss_mb"]) == 1 and case["median_peak_rss_mb"] > 0
    # The hash is of the report the CLI prints for the same argv, and of
    # the scalars of P^4, the second iterate of P^6.
    *cli_cases, direct, certify = run["cases"]
    for case in cli_cases:
        assert case["argv"][:2] == ["-m", "fanodescent"]
        code, stdout, _ = run_cli(case["argv"][2:])
        assert code == 0
        assert case["report_sha256"] == hashlib.sha256(stdout.encode()).hexdigest()
    assert direct["argv"][-2:] == ["6", "2"]
    p4 = " ".join(str(x) for x in projective_space(4).vector.scalars) + "\n"
    assert direct["report_sha256"] == hashlib.sha256(p4.encode()).hexdigest()
    assert certify["argv"][-1] == "1"
    assert certify["report_sha256"] == hashlib.sha256(_certificates_text().encode()).hexdigest()
    # The second label is added beside the first, whose record is kept.
    first = record["runs"]["first"]["cases"]
    assert [(c["name"], c["report_sha256"]) for c in first] == [
        (c["name"], c["report_sha256"]) for c in run["cases"]
    ]


def test_scaling_parent_src_alternates_in_one_record(tmp_path):
    # The same source on both sides: both labels are written by one
    # invocation, every case ran on each side, and the outputs agree.
    out = tmp_path / "bench.json"
    proc = _run(out, "change", "--parent-src", str(SRC), repeats=2)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(out.read_text())["runs"]
    assert sorted(runs) == ["change", "parent"]
    change, parent = runs["change"]["cases"], runs["parent"]["cases"]
    assert [c["name"] for c in change] == [c["name"] for c in parent]
    assert len(change) == 6
    for mine, theirs in zip(change, parent):
        assert mine["argv"] == theirs["argv"]
        assert mine["exit_codes"] == theirs["exit_codes"] == [0, 0]
        assert len(mine["peak_rss_mb"]) == len(theirs["peak_rss_mb"]) == 2
        assert mine["reports_identical"] and theirs["reports_identical"]
        assert mine["report_sha256"] == theirs["report_sha256"]
    assert runs["change"]["alternated"] and runs["parent"]["alternated"]


# Measures a child that fills 48 MB, one that prints 48 MB and one that
# does nothing, from a fresh interpreter: a child's peak also counts the
# memory of the process it was started from, which in the test process is
# far above the script's.
_PEAKS = (
    "import importlib.util, json, sys\n"
    "spec = importlib.util.spec_from_file_location('scaling', sys.argv[1])\n"
    "scaling = importlib.util.module_from_spec(spec)\n"
    "spec.loader.exec_module(scaling)\n"
    "src = {'x': sys.argv[2]}\n"
    "codes = ['x = bytes([1]) * (48 << 20)', 'import sys\\n'\n"
    "         'for _ in range(48): sys.stdout.buffer.write(bytes(1 << 20))', 'pass']\n"
    "print(json.dumps([scaling.measure(src, ['-c', c], 1)['x'] for c in codes]))\n"
)


def test_peak_rss_is_each_childs_own():
    # Each later peak is that child's own, not the largest of every child so far.
    proc = subprocess.run(
        [sys.executable, "-c", _PEAKS, str(SCRIPT), str(SRC)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    big, printer, small = json.loads(proc.stdout)
    assert big["exit_codes"] == printer["exit_codes"] == small["exit_codes"] == [0]
    assert big["peak_rss_mb"][0] > 48
    # The 48 MB of output are hashed as they come, never held by the script.
    assert printer["report_sha256"] == hashlib.sha256(bytes(48 << 20)).hexdigest()
    assert printer["peak_rss_mb"][0] < big["peak_rss_mb"][0] - 32
    assert small["peak_rss_mb"][0] < big["peak_rss_mb"][0] - 32


def test_scaling_parent_label_is_reserved_with_parent_src(tmp_path):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as excinfo:
        _script().main(["--out", str(out), "--label", "parent", "--parent-src", str(SRC)])
    assert excinfo.value.code == 2
    assert not out.exists()


def _script():
    spec = importlib.util.spec_from_file_location("scaling", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "flag", ["--verify", "--check", "--chain", "--direct", "--certify", "--repeats"]
)
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
