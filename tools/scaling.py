"""Cold wall times of large runs, written to a BENCH_*.json record.

Each case runs in fresh processes against the package under ``--src``:
a CLI case runs ``python -m fanodescent ... --json`` (``verify``,
``check`` on P^m, and ``chain`` on both P^n and Q^n), a direct-descent
case runs ``descend_direct(P^n, n // 3)`` on a cold table through
``python -c`` and prints the descended scalars, and a certificate case
runs ``proof_trace_thm4(P^m, m)`` on a fresh table for m = 2..24, the
given number of passes, in one process, and prints the last pass's
certificates.  The record holds the wall time and the peak resident set
size of every process, their medians and the sha256 of the output.  The
hash shows whether two sources give byte-identical output; a case whose
runs disagree, or that exits non-zero, makes the script exit 1.

Usage (standard library only):

    python tools/scaling.py --out BENCH_N.json --label change --parent-src OTHER/src
    python tools/scaling.py --out BENCH_N.json --label change

With ``--parent-src``, every repeat of every case runs both sources, the
order swapped on each repeat, and the runs are stored under ``parent``
and under ``--label`` in one record, so machine drift over the
invocation falls on both sides alike.  Runs are keyed by label; other
labels already in the file are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"


# ASCII digits only: int() also takes digit separators (1_0), other
# scripts' digits and surrounding whitespace.
_DIGITS = re.compile(r"[0-9]+")


def _positive(text: str) -> int:
    if not _DIGITS.fullmatch(text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _sizes(text: str) -> list[int]:
    """Comma-separated positive integers, with no empty field."""
    try:
        return [_positive(tok) for tok in text.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}"
        ) from None


# The direct-descent case: argv[1:] are n and the depth i.
_DIRECT = (
    "import sys\n"
    "from fanodescent import descend_direct, projective_space\n"
    "n, i = map(int, sys.argv[1:])\n"
    "print(*descend_direct(projective_space(n).vector, i, 1).scalars)\n"
)

# The certificate case: argv[1] is the number of passes over m = 2..24,
# each certificate on a fresh table, as a cold `check --m` process has.
# Certificates this small cost less than interpreter start-up, so one
# process runs many of them.
_CERTIFY = (
    "import sys\n"
    "from fanodescent import CoeffTable, proof_trace_thm4, projective_space\n"
    "vectors = [(m, projective_space(m).vector) for m in range(2, 25)]\n"
    "for _ in range(int(sys.argv[1])):\n"
    "    certs = [proof_trace_thm4(v, m, table=CoeffTable()) for m, v in vectors]\n"
    "for cert in certs:\n"
    "    print(cert.m, *[f'{lv.dim_bound} {lv.c1_margin} {lv.t2ch2_bound}' for lv in cert.per_level])\n"
)


def cases(
    verify_sizes: list[int],
    check_sizes: list[int],
    chain_sizes: list[int],
    direct_sizes: list[int] = (),
    certify_passes: list[int] = (),
) -> list[tuple[str, list[str]]]:
    """(name, interpreter arguments) for every requested size, in the order they run."""
    cli = ["-m", "fanodescent"]
    out = []
    for m in verify_sizes:
        argv = [*cli, "verify", "--max-i", str(m), "--max-n", str(m), "--json"]
        out.append((f"verify M={m}", argv))
    for m in check_sizes:
        argv = [*cli, "check", "projective_space", str(m), "--theorem", "thm4", "--m", str(m)]
        out.append((f"check projective_space m={m} thm4", [*argv, "--json"]))
    for n in chain_sizes:
        for family in ("projective_space", "quadric"):
            out.append((f"chain {family} n={n}", [*cli, "chain", family, str(n), "--json"]))
    for n in direct_sizes:
        i = max(n // 3, 1)
        out.append((f"descend_direct projective_space n={n} i={i}", ["-c", _DIRECT, str(n), str(i)]))
    for passes in certify_passes:
        out.append((f"proof_trace_thm4 P^m m=2..24 passes={passes}", ["-c", _CERTIFY, str(passes)]))
    return out


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "cpu_count": os.cpu_count(),
    }


def measure(sources: dict[str, Path], argv: list[str], repeats: int) -> dict[str, dict]:
    """Run one case ``repeats`` times per source, each in a fresh interpreter given ``argv``.

    Each repeat runs every source once, in the given order on even
    repeats and reversed on odd ones.  Returns one summary per label.
    """
    # Per label: wall times, exit codes, digests and peaks, in _run_child's order.
    runs = {label: ([], [], [], []) for label in sources}
    order = list(sources.items())
    for repeat in range(repeats):
        for label, src in order if repeat % 2 == 0 else order[::-1]:
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
            for values, value in zip(runs[label], _run_child([sys.executable, *argv], env)):
                values.append(value)
    return {label: _summary(argv, *run) for label, run in runs.items()}


def _run_child(argv: list[str], env: dict) -> tuple[float, int, str, float]:
    """(wall seconds, exit code, stdout sha256, peak RSS in MB) of one child process.

    The child is reaped by ``os.wait4``, whose resource usage is that
    child's own: the RUSAGE_CHILDREN maximum would be the largest of
    every child so far.  ``ru_maxrss`` is in KiB on Linux, and there it
    also counts the memory the child was started from, this script's
    own (about 18 MB): a reading near that floor only bounds the child's
    peak from above.  So stdout is hashed chunk by chunk and never held
    whole, which would raise the floor for every later child.  Its
    stderr is discarded, so that reading stdout to its end cannot block.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    digest = hashlib.sha256()
    with proc.stdout:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, digest.hexdigest(), usage.ru_maxrss / 1024


def _summary(
    argv: list[str], walls: list[float], codes: list[int], digests: list[str], peaks: list[float]
) -> dict:
    return {
        "argv": argv,
        "exit_codes": codes,
        "wall_s": [round(w, 4) for w in walls],
        "median_s": round(statistics.median(walls), 4),
        "peak_rss_mb": [round(p, 2) for p in peaks],
        "median_peak_rss_mb": round(statistics.median(peaks), 2),
        "report_sha256": digests[0],
        "reports_identical": len(set(digests)) == 1,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="JSON record to create or update")
    parser.add_argument("--label", default="change", help="key of this run in the record")
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="directory holding the fanodescent package (default: this checkout)")
    parser.add_argument("--repeats", type=_positive, default=3, help="fresh processes per case")
    parser.add_argument("--verify", type=_sizes, default=[20, 40, 80],
                        help="comma-separated M for verify --max-i M --max-n M")
    parser.add_argument("--check", type=_sizes, default=[50, 100, 150, 200, 400],
                        help="comma-separated m for check projective_space m --theorem thm4 --m m")
    parser.add_argument("--chain", type=_sizes, default=[100],
                        help="comma-separated n for chain projective_space n and quadric n")
    parser.add_argument("--direct", type=_sizes, default=[60],
                        help="comma-separated n for descend_direct(P^n, n // 3) on a cold table")
    parser.add_argument("--certify", type=_sizes, default=[200],
                        help="comma-separated pass counts for proof_trace_thm4(P^m, m), m = 2..24")
    parser.add_argument("--parent-src", type=Path,
                        help="also run the package under this directory, stored as 'parent', "
                             "alternating with --src on every repeat")
    args = parser.parse_args(argv)
    sources = {args.label: args.src.resolve()}
    if args.parent_src is not None:
        if args.label == "parent":
            parser.error("--label must not be 'parent' when --parent-src is given")
        sources["parent"] = args.parent_src.resolve()

    results = {label: [] for label in sources}
    ok = True
    for name, case_argv in cases(args.verify, args.check, args.chain, args.direct, args.certify):
        for label, summary in measure(sources, case_argv, args.repeats).items():
            result = {"name": name, **summary}
            results[label].append(result)
            clean = set(result["exit_codes"]) == {0} and result["reports_identical"]
            ok = ok and clean
            print(f"{name} [{label}]: median {result['median_s']} s, "
                  f"{result['median_peak_rss_mb']} MB"
                  + ("" if clean else f", exit codes {result['exit_codes']}, reports differ or fail"),
                  file=sys.stderr)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    for label, cases_run in results.items():
        record.setdefault("runs", {})[label] = {
            "machine": machine(),
            "repeats": args.repeats,
            "alternated": len(sources) > 1,
            "cases": cases_run,
        }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
