"""Benchmark for fanodescent: one measured run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|smoke]

Run it from the root of a checkout.  Workloads (see DESIGN.md):
cli-verify, certify-cold, descent-warm.  Every run copies src/fanodescent
to .bench_out/stage, so each worker compiles the library from source,
and runs one worker at a time (a set-up-only worker runs while the
measured one waits between blocks), each a fresh interpreter with
PYTHONHASHSEED=0 and PYTHONDONTWRITEBYTECODE=1.  The inputs come from
--seed; the worker gets only the inputs, and every output is checked
here against the independent reference in oracle.py after the worker
has exited.

--trace 0 measures the end-to-end metrics.  --trace 1 repeats the
untraced run, then replays a fixed number of whole blocks with the layer
tracer installed, checks the traced outputs equal the untraced ones and
reports the per-layer metrics; spans and per-request counts with their
size parameters go to .bench_out/.

The last line of stdout is one JSON object {"correct", "attempted",
"failed", "metrics"}; the line before it gives sample counts and the
failed ratio.  The exit code is 0 when every request was correct, 1
when some failed, 2 on a bad invocation or checkout, and 3 when a
worker crashed or the time limit ran out.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
GOLDEN_DIR = ROOT / "tests" / "golden"

# Fresh workers per run whose set-up time is measured; the median is
# reported.  Between the two numbers, as many as fit in SETUP_BUDGET_S.
SETUP_SAMPLES = (5, 15)
SETUP_BUDGET_S = 3.0
TIME_LIMIT_S = 170.0  # for the whole command, which must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "exact.self_s": "s",
    "exact.compositions.tuples": "count",
    "exact.elementary_symmetric.calls": "count",
    "coeffs.self_s": "s",
    "coeffs.composition_sum.s": "s",
    "coeffs.composition_sum.hit_ratio": "ratio",
    "coeffs.composition_symmetric_check.s": "s",
    "coeffs.generating_polynomial.s": "s",
    "coeffs.coefficient.s": "s",
    "coeffs.coefficient.calls": "count",
    "coeffs.coefficient.keys": "count",
    "coeffs.coefficient.keys_per_call": "ratio",
    "coeffs.coefficient.timed_new_keys": "count",
    "descent.self_s": "s",
    "descent.descend.calls": "count",
    "descent.descend_chain.s": "s",
    "descent.descend_direct.s": "s",
    "descent.max_den_bits": "bits",
    "theorems.self_s": "s",
    "theorems.check_hypotheses.calls": "count",
    "theorems.max_m.gate_checks_per_call": "ratio",
    "theorems.proof_trace.s": "s",
    "theorems.proof_trace.levels": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
}


class BenchError(Exception):
    """The run could not be measured; exit code attached."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def stage() -> Path:
    """Copy the library sources to a fresh directory the workers import from."""
    source = ROOT / "src" / "fanodescent"
    if not (source / "__init__.py").is_file() or not GOLDEN_DIR.is_dir():
        raise BenchError(f"no fanodescent checkout at {ROOT} (need src/fanodescent and tests/golden)", 2)
    target = OUT / "stage"
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(source, target / "fanodescent", ignore=shutil.ignore_patterns("__pycache__"))
    return target


class Runner:
    def __init__(self, workload: str, size: str, stage_dir: Path, deadline: float):
        self.workload = workload
        self.warm = workloads.warm_spec(workload, size)
        self.deadline = deadline
        self.env = dict(
            os.environ,
            PYTHONPATH=str(stage_dir),
            PYTHONHASHSEED="0",
            PYTHONDONTWRITEBYTECODE="1",
        )

    def worker(self, mode: str, job: dict | None = None, spans: Path | None = None,
               on_pause=None) -> list[dict]:
        """Run one worker to its end and return its output lines.

        A worker that pauses is resumed after on_pause(serving_seconds)
        returns.  The worker is killed when the time limit runs out or
        anything here fails, and waited for in every case.
        """
        argv = [sys.executable, str(HERE / "worker.py"), mode, self.warm]
        if spans is not None:
            argv.append(str(spans))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached before the next worker", 3)
        lines = []
        with tempfile.TemporaryFile() as stderr, subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
                env=self.env, cwd=ROOT) as proc:
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                if job is not None:
                    proc.stdin.write(json.dumps(job).encode() + b"\n")
                    proc.stdin.flush()
                for raw in proc.stdout:
                    line = json.loads(raw)
                    if "pause" in line:
                        on_pause(line["pause"])
                        proc.stdin.write(b"\n")
                        proc.stdin.flush()
                    else:
                        lines.append(line)
            except BaseException:
                proc.kill()
                raise
            finally:
                timer.cancel()
                proc.wait()
            if proc.returncode != 0 and time.monotonic() >= self.deadline:
                raise BenchError(f"{mode} worker exceeded the {TIME_LIMIT_S:.0f} s time limit", 3)
            if proc.returncode != 0:
                stderr.seek(0)
                tail = stderr.read().decode(errors="replace")[-2000:]
                raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{tail}", 3)
        return lines

    def measure(self, inputs, seconds, max_blocks=None, spans=None, on_pause=None) -> dict:
        job = {"blocks": inputs, "seconds": seconds, "max_blocks": max_blocks, "pause": on_pause is not None}
        lines = self.worker("run", job, spans, on_pause)
        return {"setup_s": lines[0]["setup_s"], "requests": lines[1:-1], "final": lines[-1]}


def check(blocks, requests, golden) -> dict[int, str]:
    """Oracle verdicts on the requests served, keyed by position in `requests`."""
    failures = {}
    expected = {}
    for index, line in enumerate(requests):
        where = (line["block"] % len(blocks), line["pos"])
        req = blocks[where[0]][where[1]]
        if "error" in line:
            verdict = line["error"]
        elif req["input"]["kind"] == "cli":
            verdict = oracle.check_cli(req["meta"], line["output"], golden)
        else:
            if where not in expected:
                expected[where] = oracle.expected(req["input"], req["meta"])
            verdict = None if line["output"] == expected[where] else f"{req['input']['kind']} output differs from the reference"
        if verdict:
            failures[index] = f"request {line['id']}: {verdict}"
    return failures


def whole_blocks(run: dict) -> tuple[int, list[dict]]:
    """The number of completed blocks, and the requests served in them."""
    count = len(run["final"]["block_ends"])
    if not count:
        raise BenchError("no block of requests completed within the run time", 3)
    return count, [r for r in run["requests"] if r["block"] < count]


def end_to_end(runner: Runner, blocks, inputs, seconds: float) -> tuple[dict, dict, dict]:
    began = time.monotonic()
    setups = [runner.worker("setup")[0]["setup_s"]]
    cost = time.monotonic() - began
    # The other set-up workers run at even intervals of the timed run, with
    # the measured worker paused between blocks, so that they meet the same
    # slow and fast spells of the machine as the requests do.
    extra = min(SETUP_SAMPLES[1], max(SETUP_SAMPLES[0], int(SETUP_BUDGET_S / cost))) - 2
    due = [seconds * k / (extra + 1) for k in range(1, extra + 1)]

    def sample(served: float) -> None:
        if due and served >= due[0]:
            due.pop(0)
            setups.append(runner.worker("setup")[0]["setup_s"])

    run = runner.measure(inputs, seconds, on_pause=sample)
    while len(setups) < SETUP_SAMPLES[0] - 1:
        setups.append(runner.worker("setup")[0]["setup_s"])
    setups.append(run["setup_s"])
    count, done = whole_blocks(run)
    # The machine is shared, and its speed swings by tens of percent over
    # seconds to minutes.  A slot holds a request of the same size in every
    # block, so it repeats once per block; its latency is its fastest
    # repetition in the run.  The percentiles are taken over the slots, and
    # throughput is the rate at which one block's requests would be served
    # at those latencies.
    best = {}
    for r in done:
        slot = blocks[r["block"] % len(blocks)][r["pos"]]["meta"]["slot"]
        best[slot] = min(best.get(slot, math.inf), r["latency_s"])
    values = {
        "setup_s": statistics.median(setups),
        "throughput_rps": len(best) / math.fsum(best.values()),
        "latency_p50_ms": 1000 * statistics.median(best.values()),
        "latency_p90_ms": 1000 * statistics.quantiles(best.values(), n=10, method="inclusive")[8],
        "peak_rss_mb": run["final"]["peak_rss_kb"] / 1024,
    }
    detail = {
        "latency_slots": len(best),
        "repetitions_per_slot": count,
        "setup_samples": len(setups),
    }
    return values, detail, run


def per_layer(runner: Runner, blocks, inputs, seconds, size, seed) -> tuple[dict, dict, list, dict[int, str]]:
    base = runner.measure(inputs, seconds)
    count = workloads.SIZES[size]["traced_blocks"][runner.workload]
    OUT.mkdir(exist_ok=True)
    traced = runner.measure(inputs, None, count, OUT / f"{runner.workload}.spans.jsonl")
    untraced_out = {r["id"]: r.get("output") for r in base["requests"]}
    mismatches = {
        len(base["requests"]) + index: f"request {r['id']}: traced output differs from the untraced one"
        for index, r in enumerate(traced["requests"])
        if r["id"] in untraced_out and r.get("output") != untraced_out[r["id"]]
    }
    base_ends, traced_ends = base["final"]["block_ends"], traced["final"]["block_ends"]
    common = min(len(base_ends), len(traced_ends))
    if common == 0:
        raise BenchError("no block completed in both the untraced and the traced run", 3)
    values = dict(traced["final"]["layers"])
    values["trace.overhead_ratio"] = traced_ends[common - 1] / base_ends[common - 1]
    values["trace.wall_s"] = traced_ends[-1]
    with open(OUT / f"{runner.workload}.requests.jsonl", "w") as fh:
        for r in traced["requests"]:
            req = blocks[r["block"] % len(blocks)][r["pos"]]
            record = {"id": r["id"], "seed": seed, "kind": req["input"]["kind"], "size": req["meta"],
                      "latency_s": r["latency_s"], "counts": r["counts"]}
            fh.write(json.dumps(record) + "\n")
    detail = {"traced_requests": len(traced["requests"]), "traced_blocks": len(traced_ends),
              "overhead_blocks": common}
    return values, detail, base["requests"] + traced["requests"], mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        runner = Runner(args.workload, args.size, stage(), deadline)
        golden = {path.name: path.read_bytes() for path in GOLDEN_DIR.iterdir()}
        blocks = workloads.blocks(args.workload, args.seed, args.size)
        inputs = [[req["input"] for req in block] for block in blocks]
        if args.trace:
            values, detail, served, failures = per_layer(
                runner, blocks, inputs, args.seconds, args.size, args.seed)
            units = PER_LAYER
        else:
            values, detail, run = end_to_end(runner, blocks, inputs, args.seconds)
            served, failures, units = run["requests"], {}, END_TO_END
        failures = {**failures, **check(blocks, served, golden)}
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return err.code
    detail.update(workload=args.workload, seed=args.seed, size=args.size,
                  failed_ratio=len(failures) / len(served), failures=list(failures.values())[:5])
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(served),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
