from __future__ import annotations

import hashlib
import json
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import run_cli

from fanodescent.coeffs import CoeffTable
from fanodescent.descent import projective_space, quadric
from fanodescent.theorems import THM4, THM5, THM5_STRONG, check_hypotheses, proof_trace

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "scaling.py"


SRC = SCRIPT.parent.parent / "src"


def _run(out: Path, repeats: int = 1) -> subprocess.CompletedProcess:
    # This checkout on both sides.
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(out), "--parent-src", str(SRC),
         "--repeats", str(repeats), "--verify", "3", "--check", "5", "--chain", "4",
         "--direct", "6", "--certify", "1"],
        capture_output=True,
        text=True,
    )


def _certificates_text() -> str:
    """What the certificate case prints: for m = 2..24, each gate's margins
    at m on its catalogue manifold with m % 3 extra dimensions, and its
    certificate in threshold and in actual mode."""
    lines = []
    for m in range(2, 25):
        e = m % 3
        for theorem, v in [
            (THM4, projective_space(m + e).vector),
            (THM5, quadric(2 * m - 1 + e).vector),
            (THM5_STRONG, quadric(2 * m + e).vector),
        ]:
            for at_actual in (False, True):
                report = check_hypotheses(v, m, theorem)
                # Every gate passes there.
                assert report.passed
                cert = proof_trace(v, m, theorem, CoeffTable(), at_actual)
                assert cert.mode == ("actual" if at_actual else "threshold")
                margins = [str(row.margin) for row in report.per_k]
                bounds = [f"{lv.dim_bound} {lv.c1_margin} {lv.t2ch2_bound}" for lv in cert.per_level]
                lines.append(" ".join([theorem, str(m), *margins, cert.mode, *bounds]) + "\n")
    return "".join(lines)


def test_certificate_case_covers_every_gate_and_mode():
    # A row is: theorem, m, the m margins of the gate check, the mode and
    # the m - 1 levels of the certificate.
    rows = [line.split() for line in _certificates_text().splitlines()]
    assert len(rows) == 23 * 3 * 2
    assert {row[0] for row in rows} == {THM4, THM5, THM5_STRONG}
    assert [row[2 + int(row[1])] for row in rows] == ["threshold", "actual"] * (23 * 3)
    # The slack lifts some actual-mode bounds above the threshold ones.
    levels = [row[3 + int(row[1]):] for row in rows]
    assert any(thr != act for thr, act in zip(levels[::2], levels[1::2]))


def test_scaling_record_smoke(tmp_path):
    # Small sizes and no time bound: this checks the record, not the speed.
    # A file already at --out is replaced, not merged into.
    out = tmp_path / "bench.json"
    out.write_text('{"runs": {"old": {}}, "note": 1}\n')
    proc = _run(out)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert list(record) == ["runs"]
    assert sorted(record["runs"]) == ["change", "parent"]
    run = record["runs"]["change"]
    assert run["repeats"] == 1
    assert run["machine"]["python"]
    assert [case["name"] for case in run["cases"]] == [
        "verify M=3",
        "check projective_space m=5 thm4",
        "chain projective_space n=4",
        "chain quadric n=4",
        "descend_direct projective_space n=6 i=2",
        "check_hypotheses+proof_trace 3 gates m=2..24 passes=1",
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
    # The parent side ran the same cases, with the same output.
    parent = record["runs"]["parent"]["cases"]
    assert [(c["name"], c["report_sha256"]) for c in parent] == [
        (c["name"], c["report_sha256"]) for c in run["cases"]
    ]


def test_scaling_parent_src_alternates_in_one_record(tmp_path):
    # The same source on both sides: both labels are written by one
    # invocation, every case ran on each side, and the outputs agree.
    out = tmp_path / "bench.json"
    proc = _run(out, repeats=2)
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


# Measures each child given in argv[4] (a JSON list of -c codes) once,
# from a fresh driver that first fills argv[3] MB of its own; argv[5] is
# the children's bytecode cache.
_PEAKS = (
    "import importlib.util, json, sys\n"
    "ballast = bytes([1]) * (int(sys.argv[3]) << 20)\n"
    "spec = importlib.util.spec_from_file_location('scaling', sys.argv[1])\n"
    "scaling = importlib.util.module_from_spec(spec)\n"
    "spec.loader.exec_module(scaling)\n"
    "envs = {'x': scaling.child_env(sys.argv[2], sys.argv[5])}\n"
    "codes = json.loads(sys.argv[4])\n"
    "print(json.dumps([scaling.measure(envs, ['-c', c], 1)['x'] for c in codes]))\n"
)


def _peaks(ballast_mb: int, codes: list[str], cache: Path) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, "-c", _PEAKS, str(SCRIPT), str(SRC), str(ballast_mb), json.dumps(codes),
         str(cache)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    summaries = json.loads(proc.stdout)
    assert [s["exit_codes"] for s in summaries] == [[0]] * len(codes)
    return summaries


def test_peak_rss_is_each_childs_own(tmp_path):
    # A child that fills 48 MB, one that prints 48 MB and one that does
    # nothing: each later peak is that child's own, not the largest of
    # every child so far.
    big, printer, small = _peaks(0, [
        "x = bytes([1]) * (48 << 20)",
        "import sys\nfor _ in range(48): sys.stdout.buffer.write(bytes(1 << 20))",
        "pass",
    ], tmp_path)
    assert big["peak_rss_mb"][0] > 48
    # The 48 MB of output are hashed as they come, never held by the script.
    assert printer["report_sha256"] == hashlib.sha256(bytes(48 << 20)).hexdigest()
    assert printer["peak_rss_mb"][0] < big["peak_rss_mb"][0] - 32
    assert small["peak_rss_mb"][0] < big["peak_rss_mb"][0] - 32
    # From a driver holding 40 MB: a reading that counted the memory the
    # child was started from (ru_maxrss on Linux) would stay above 40 MB.
    small, thirty = _peaks(40, ["pass", "x = bytes([1]) * (30 << 20)"], tmp_path)
    assert small["peak_rss_mb"][0] < 32
    assert 30 < thirty["peak_rss_mb"][0] < small["peak_rss_mb"][0] + 35


def test_children_run_bytecode_from_a_cache_outside_the_source(tmp_path, monkeypatch):
    # Even where this process writes no bytecode, a child writes the
    # package's to its own cache, so later children do not compile it.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    scaling = _script()
    sources = {}
    for label in ("parent", "change"):
        sources[label] = tmp_path / label / "src"
        shutil.copytree(SRC / "fanodescent", sources[label] / "fanodescent",
                        ignore=shutil.ignore_patterns("__pycache__"))
    cache = tmp_path / "cache"
    env = scaling.child_env(sources["change"], cache)
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONPATH"] == str(sources["change"])
    assert env["PYTHONPYCACHEPREFIX"] == str(cache)
    assert env["PYTHONHASHSEED"] == "0"
    assert scaling._run_child(["-c", "import fanodescent.cli"], env)[1] == 0
    compiled = {p.name.split(".")[0] for p in cache.rglob("fanodescent/*.pyc")}
    assert {"__init__", "cli", "coeffs", "descent", "exact", "theorems"} <= compiled
    # A whole record writes nothing under either source.
    out = tmp_path / "bench.json"
    assert scaling.main([
        "--out", str(out), "--parent-src", str(sources["parent"]), "--src", str(sources["change"]),
        "--repeats", "1", "--verify", "2", "--check", "2", "--chain", "2", "--direct", "3",
        "--certify", "1",
    ]) == 0
    for src in sources.values():
        assert not list(src.rglob("__pycache__"))


@pytest.mark.parametrize("extra", [[], ["--label", "change", "--parent-src", str(SRC)]])
def test_scaling_needs_parent_src_and_takes_no_label(tmp_path, capsys, extra):
    # Every record is one parent/change pair; nothing is run otherwise.
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as excinfo:
        _script().main(["--out", str(out), *extra])
    assert excinfo.value.code == 2
    assert ("--label" if extra else "--parent-src") in capsys.readouterr().err
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
