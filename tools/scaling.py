"""Cold wall times of large runs, written to a BENCH_*.json record.

Each case runs in fresh processes against the package under ``--src``:
a CLI case runs ``python -m fanodescent ... --json``, and a direct-descent
case runs ``descend_direct(P^n, n // 3)`` on a cold table through
``python -c`` and prints the descended scalars.  The record holds the
wall time of every process, their median and the sha256 of the output.
The hash shows whether two sources give byte-identical output; a case
whose runs disagree, or that exits non-zero, makes the script exit 1.

Usage (standard library only):

    python tools/scaling.py --out BENCH_N.json --label change
    python tools/scaling.py --out BENCH_N.json --label parent --src OTHER/src

Runs are keyed by ``--label``; other labels already in the file are kept,
so one file can hold the parent and the change measured on one machine.
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


def cases(
    verify_sizes: list[int],
    check_sizes: list[int],
    chain_sizes: list[int],
    direct_sizes: list[int] = (),
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
        argv = [*cli, "chain", "projective_space", str(n), "--json"]
        out.append((f"chain projective_space n={n}", argv))
    for n in direct_sizes:
        i = max(n // 3, 1)
        out.append((f"descend_direct projective_space n={n} i={i}", ["-c", _DIRECT, str(n), str(i)]))
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


def measure(src: Path, argv: list[str], repeats: int) -> dict:
    """Run one case ``repeats`` times, each in a fresh interpreter given ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    walls, codes, digests = [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True
        )
        walls.append(time.perf_counter() - start)
        codes.append(proc.returncode)
        digests.append(hashlib.sha256(proc.stdout).hexdigest())
    return {
        "argv": argv,
        "exit_codes": codes,
        "wall_s": [round(w, 4) for w in walls],
        "median_s": round(statistics.median(walls), 4),
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
                        help="comma-separated n for chain projective_space n")
    parser.add_argument("--direct", type=_sizes, default=[60],
                        help="comma-separated n for descend_direct(P^n, n // 3) on a cold table")
    args = parser.parse_args(argv)

    results, ok = [], True
    for name, case_argv in cases(args.verify, args.check, args.chain, args.direct):
        result = {"name": name, **measure(args.src.resolve(), case_argv, args.repeats)}
        results.append(result)
        clean = set(result["exit_codes"]) == {0} and result["reports_identical"]
        ok = ok and clean
        print(f"{name}: median {result['median_s']} s"
              + ("" if clean else f", exit codes {result['exit_codes']}, reports differ or fail"),
              file=sys.stderr)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("runs", {})[args.label] = {
        "machine": machine(),
        "repeats": args.repeats,
        "cases": results,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
