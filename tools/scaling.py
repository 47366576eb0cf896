"""Cold wall times of large runs, written to a BENCH_*.json record.

Each case runs in fresh processes against two copies of the package, the
one under ``--parent-src`` and the one under ``--src``: a CLI case runs
``python -m fanodescent ... --json`` (``verify``, ``check`` on P^m, and
``chain`` on both P^n and Q^n), a direct-descent case runs
``descend_direct(P^n, n // 3)`` on a cold table through ``python -c``
and prints the descended scalars, and a certificate case serves what
the certify-cold benchmark workload serves: for m = 2..24, every gate
at a catalogue manifold with slack and in both modes, ``check_hypotheses``
and then, when the gate passes, ``proof_trace`` on a fresh table, the
given number of passes in one process, printing the last pass's reports
and certificates.  The record holds the wall time and the peak resident set
size of every process, their medians and the sha256 of the output.  A
peak is the process's own high-water mark (``VmHWM``), which it writes
at exit to a pipe it inherits, so its stdout is what the case prints.
The hash shows whether two sources give byte-identical output; a case
whose runs disagree, or that exits non-zero, makes the script exit 1.

The times are of bytecode, not of compilation: each source gets its own
bytecode cache (``PYTHONPYCACHEPREFIX``) in a temporary directory, filled
by one untimed ``import fanodescent.cli`` child before the first case,
so nothing is written under either source and a case's time and peak do
not move with the size of the source text.

Usage (standard library only):

    python tools/scaling.py --out BENCH_N.json --parent-src OTHER/src

Every repeat of every case runs both sources, the order swapped on each
repeat, so machine drift over the invocation falls on both sides alike.
The runs are stored under ``parent`` and ``change`` in one record, which
replaces any file already at ``--out``.
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
import tempfile
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

# The certificate case: argv[1] is the number of passes over m = 2..24.
# Each pass checks every gate at level m, on P^(m+e), Q^(2m-1+e) and
# Q^(2m+e) for thm4, thm5 and thm5_strong (e = m % 3 extra dimensions of
# slack, so that the actual-input bounds differ from the threshold ones
# for two m in three), and certifies it in threshold and actual mode,
# each certificate on a fresh table, as a cold `check --m` request does.
# Certificates this small cost less than interpreter start-up, so one
# process runs many of them.
_CERTIFY = (
    "import sys\n"
    "from fanodescent import CoeffTable, check_hypotheses, proof_trace, projective_space, quadric\n"
    "from fanodescent.theorems import THEOREMS\n"
    "requests = []\n"
    "for m in range(2, 25):\n"
    "    e = m % 3\n"
    "    entries = (projective_space(m + e), quadric(2 * m - 1 + e), quadric(2 * m + e))\n"
    "    for theorem, entry in zip(THEOREMS, entries):\n"
    "        requests += [(entry.vector, m, theorem, at_actual) for at_actual in (False, True)]\n"
    "for _ in range(int(sys.argv[1])):\n"
    "    served = []\n"
    "    for v, m, theorem, at_actual in requests:\n"
    "        report = check_hypotheses(v, m, theorem)\n"
    "        cert = proof_trace(v, m, theorem, CoeffTable(), at_actual) if report.passed else None\n"
    "        served.append((report, cert))\n"
    "for report, cert in served:\n"
    "    levels = cert.per_level if cert else ()\n"
    "    print(report.theorem, report.m, *[row.margin for row in report.per_k], cert and cert.mode,\n"
    "          *[f'{lv.dim_bound} {lv.c1_margin} {lv.t2ch2_bound}' for lv in levels])\n"
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
        name = f"check_hypotheses+proof_trace 3 gates m=2..24 passes={passes}"
        out.append((name, ["-c", _CERTIFY, str(passes)]))
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


def child_env(src: Path, cache: Path) -> dict[str, str]:
    """The environment of a child run against the package under ``src``.

    This process's own, with the package on the path, string hashing
    fixed, and bytecode written to and read from the tree under
    ``cache`` instead of ``__pycache__`` directories beside the source;
    ``PYTHONDONTWRITEBYTECODE`` is dropped, since with it every child
    would compile the package again.
    """
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(cache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure(envs: dict[str, dict], argv: list[str], repeats: int) -> dict[str, dict]:
    """Run one case ``repeats`` times per label, each in a fresh interpreter given ``argv``.

    ``envs`` maps each label to its child environment (see ``child_env``).
    Each repeat runs every label once, in the given order on even
    repeats and reversed on odd ones.  Returns one summary per label.
    """
    # Per label: wall times, exit codes, digests and peaks, in _run_child's order.
    runs = {label: ([], [], [], []) for label in envs}
    order = list(envs.items())
    for repeat in range(repeats):
        for label, env in order if repeat % 2 == 0 else order[::-1]:
            for values, value in zip(runs[label], _run_child(argv, env)):
                values.append(value)
    return {label: _summary(argv, *run) for label, run in runs.items()}


# Runs a case's interpreter arguments (-m MODULE ... or -c CODE ...), given
# after the descriptor argv[1], once an exit hook is registered that writes
# this process's own peak resident set, VmHWM in KiB, to that descriptor.
# Nothing is written where /proc is missing.
_PEAK_HOOK = (
    "import atexit, os, runpy, sys\n"
    "def peak(fd=int(sys.argv[1])):\n"
    "    try:\n"
    "        with open('/proc/self/status') as status:\n"
    "            line = next(l for l in status if l.startswith('VmHWM:'))\n"
    "        os.write(fd, line.split()[1].encode())\n"
    "    except (OSError, StopIteration):\n"
    "        pass\n"
    "atexit.register(peak)\n"
    "flag, target, *rest = sys.argv[2:]\n"
    "if flag == '-m':\n"
    "    sys.argv = [target, *rest]\n"
    "    runpy.run_module(target, run_name='__main__', alter_sys=True)\n"
    "else:\n"
    "    sys.argv = ['-c', *rest]\n"
    "    exec(compile(target, '<string>', 'exec'), {'__name__': '__main__'})\n"
)


def _run_child(argv: list[str], env: dict) -> tuple[float, int, str, float]:
    """(wall seconds, exit code, stdout sha256, peak RSS in MB) of one child process.

    ``argv`` are the interpreter arguments, ``-m MODULE ...`` or ``-c
    CODE ...``, which run under ``_PEAK_HOOK``.  The peak is the child's
    own ``VmHWM``, read by the child at exit.  ``ru_maxrss`` would also
    count the memory the child was started from, this script's own, so
    it is used only where the child wrote no peak (no /proc); it comes
    from ``os.wait4``, whose resource usage is that child's own, and is
    in KiB on Linux.  stdout is hashed chunk by chunk and never held
    whole, and stderr is discarded, so that reading stdout to its end
    cannot block.
    """
    peak_read, peak_write = os.pipe()
    with os.fdopen(peak_read, "rb") as peak:
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(
                [sys.executable, "-c", _PEAK_HOOK, str(peak_write), *argv], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, pass_fds=(peak_write,),
            )
        finally:
            os.close(peak_write)
        digest = hashlib.sha256()
        with proc.stdout:
            for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
                digest.update(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        own = peak.read()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, digest.hexdigest(), (int(own) if own else usage.ru_maxrss) / 1024


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
    parser.add_argument("--out", required=True, type=Path, help="JSON record to write")
    parser.add_argument("--parent-src", required=True, type=Path,
                        help="directory holding the package to compare against, stored as 'parent'")
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="directory holding the fanodescent package, stored as 'change' "
                             "(default: this checkout)")
    parser.add_argument("--repeats", type=_positive, default=3, help="fresh processes per case")
    parser.add_argument("--verify", type=_sizes, default=[20, 40, 80],
                        help="comma-separated M for verify --max-i M --max-n M")
    parser.add_argument("--check", type=_sizes, default=[50, 100, 150, 200, 400],
                        help="comma-separated m for check projective_space m --theorem thm4 --m m")
    parser.add_argument("--chain", type=_sizes, default=[100],
                        help="comma-separated n for chain projective_space n and quadric n")
    parser.add_argument("--direct", type=_sizes, default=[60],
                        help="comma-separated n for descend_direct(P^n, n // 3) on a cold table")
    parser.add_argument("--certify", type=_sizes, default=[50],
                        help="comma-separated pass counts of the certificate case, m = 2..24")
    args = parser.parse_args(argv)
    sources = {"parent": args.parent_src.resolve(), "change": args.src.resolve()}

    results = {label: [] for label in sources}
    ok = True
    with tempfile.TemporaryDirectory(prefix="scaling-pycache-") as caches:
        envs = {label: child_env(src, Path(caches) / label) for label, src in sources.items()}
        # Untimed: each source's package is compiled into its cache here.
        for env in envs.values():
            _run_child(["-c", "import fanodescent.cli"], env)
        for name, case_argv in cases(args.verify, args.check, args.chain, args.direct, args.certify):
            for label, summary in measure(envs, case_argv, args.repeats).items():
                result = {"name": name, **summary}
                results[label].append(result)
                clean = set(result["exit_codes"]) == {0} and result["reports_identical"]
                ok = ok and clean
                print(f"{name} [{label}]: median {result['median_s']} s, "
                      f"{result['median_peak_rss_mb']} MB"
                      + ("" if clean else f", exit codes {result['exit_codes']}, reports differ or fail"),
                      file=sys.stderr)

    record = {
        "runs": {
            label: {"machine": machine(), "repeats": args.repeats, "cases": cases_run}
            for label, cases_run in results.items()
        }
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
