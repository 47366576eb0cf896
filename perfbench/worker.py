"""Benchmark worker: one fresh interpreter that sets up fanodescent and serves requests.

    python3 worker.py setup|run WARM [SPANS_PATH]

Set-up time runs from the first line of this file until the library is
imported and, when WARM is "n_direct,i_max,n_chain", the shared
coefficient table is warmed by public descent calls.  It prints
{"setup_s": ...}; in "run" mode it then reads a job, one line of JSON,
from stdin:

    {"blocks": [[input, ...], ...], "seconds": S or null, "max_blocks": B or null,
     "pause": true or false}

and serves the blocks in order, cycling, one request at a time, until S
seconds have passed or B blocks are done.  It prints one line per
request and a final line with the block end times and ru_maxrss.  With
"pause", it prints {"pause": T} after each block, T being the seconds
spent serving so far, and waits for a line on stdin before going on; the
wait counts neither towards S nor in the block end times.  With
SPANS_PATH the layer tracer is installed before set-up and its spans
are written there at the end.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402


def _warm_up(spec: str) -> None:
    from fanodescent import descent

    n_direct, i_max, n_chain = (int(x) for x in spec.split(","))
    top = descent.projective_space(n_direct).vector
    for i in range(1, i_max + 1):
        descent.descend_direct(top, i, 1)
    for build in (descent.projective_space, descent.quadric):
        entry = build(n_chain)
        descent.descend_chain(entry.vector, entry.degrees)


def main() -> int:
    mode, warm = sys.argv[1:3]
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    import fanodescent.cli  # noqa: F401  (importing every layer is part of set-up)

    tracer = None
    if spans_path:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    if warm != "-":
        _warm_up(warm)
    setup_s = time.perf_counter() - _START

    import json

    out = sys.stdout
    out.write(json.dumps({"setup_s": setup_s}) + "\n")
    if mode == "setup":
        return 0
    job = json.loads(sys.stdin.readline())
    serve = Server(tracer)
    block_ends = serve.run(job["blocks"], job["seconds"], job["max_blocks"], job["pause"], out)
    import resource

    final = {
        "block_ends": block_ends,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        final["layers"] = tracer.metrics()
        tracer.write(spans_path)
    out.write(json.dumps(final) + "\n")
    return 0


class Server:
    """Turns request inputs into library calls and results into JSON."""

    def __init__(self, tracer):
        from fanodescent import cli, coeffs, descent, theorems

        self.cli, self.coeffs, self.descent, self.theorems = cli, coeffs, descent, theorems
        self.tracer = tracer

    def run(self, blocks, seconds, max_blocks, pause, out) -> list[float]:
        import json

        clock = time.perf_counter
        tracer = self.tracer
        if tracer:
            tracer.begin_timed()
        start = clock()
        deadline = start + seconds if seconds is not None else float("inf")
        block_ends = []
        rid = 0
        block = 0
        while max_blocks is None or block < max_blocks:
            for pos, inp in enumerate(blocks[block % len(blocks)]):
                if clock() >= deadline:
                    return block_ends
                call = self.prepare(inp)
                if tracer:
                    tracer.request = rid
                    before = tracer.snapshot()
                error = None
                t0 = clock()
                try:
                    result = call()
                except Exception as exc:  # a failed request is recorded, not fatal
                    result, error = None, f"{type(exc).__name__}: {exc}"
                t1 = clock()
                line = {"id": rid, "block": block, "pos": pos, "latency_s": t1 - t0}
                if error is None:
                    line["output"] = self.encode(inp, result)
                else:
                    line["error"] = error
                if tracer:
                    tracer.request = None
                    if inp["kind"] == "cli" and error is None:
                        tracer.add("cli.output_bytes", len(result[1].encode()))
                    line["counts"] = tracer.delta(before)
                out.write(json.dumps(line) + "\n")
                rid += 1
            block_ends.append(clock() - start)
            block += 1
            if pause:
                out.write(json.dumps({"pause": block_ends[-1]}) + "\n")
                out.flush()
                paused = clock()
                sys.stdin.readline()
                start += clock() - paused
                deadline += clock() - paused
        return block_ends

    def prepare(self, inp):
        """Build the call for one request; parsing inputs stays outside the timing."""
        kind = inp["kind"]
        if kind == "cli":
            return lambda: self._cli(inp["argv"])
        from fractions import Fraction

        v = self.descent.SplitChernVector(tuple(Fraction(s) for s in inp["vector"]))
        if kind == "certify":
            return lambda: self._certify(v, inp["gate"], inp["m"], inp["at_actual"])
        if kind == "chain":
            return lambda: self.descent.descend_chain(v, inp["degrees"])
        if kind == "direct":
            return lambda: self.descent.descend_direct(v, inp["i"], inp["a1"])
        if kind == "max_m":
            return lambda: self.theorems.max_m(v, inp["gate"])
        raise ValueError(f"unknown request kind {kind!r}")

    def _cli(self, argv):
        import contextlib
        import io

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.cli.main(argv)
        return code, stdout.getvalue()

    def _certify(self, v, gate, m, at_actual):
        theorems = self.theorems
        table = self.coeffs.CoeffTable()
        report = theorems.check_hypotheses(v, m, gate)
        cert = None
        if report.passed:
            if gate == theorems.THM4:
                cert = theorems.proof_trace_thm4(v, m, table=table, at_actual=at_actual)
            else:
                cert = theorems.proof_trace_thm5(
                    v, m, strong=gate == theorems.THM5_STRONG, table=table, at_actual=at_actual
                )
        return report, cert

    def encode(self, inp, result):
        kind = inp["kind"]
        if kind == "cli":
            code, stdout = result
            return {"code": code, "stdout": stdout}
        if kind == "certify":
            report, cert = result
            return {
                "passed": report.passed,
                "per_k": [[r.k, str(r.threshold), str(r.actual), str(r.margin)] for r in report.per_k],
                "conclusions": sorted(report.conclusions),
                "cert": None if cert is None else {
                    "mode": cert.mode,
                    "levels": [
                        [lv.level, str(lv.dim_bound), str(lv.c1_margin), str(lv.t2ch2_bound),
                         lv.t2ch2_asserted]
                        for lv in cert.per_level
                    ],
                },
            }
        if kind == "chain":
            return {
                "steps": [
                    [s.degree_used, s.family_dim,
                     [str(x) for x in s.descended.scalars] if s.descended else None]
                    for s in result.steps
                ],
                "terminal": result.terminal,
                "N": result.n_first_non_fano,
            }
        if kind == "direct":
            return {"scalars": [str(x) for x in result.scalars]}
        return {"max_m": result}


if __name__ == "__main__":
    sys.exit(main())
