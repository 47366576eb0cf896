"""Layer tracer for the benchmark's traced run.

The five layers are the modules exact, coeffs, descent, theorems and
cli.  The tracer measures them from outside: it replaces each traced
public function, under every module name its callers look it up by,
with a wrapper that counts calls and records a span (name, start, end,
parent span, request id).  CoeffTable.coefficient is wrapped on the
class, so its recursive calls are counted too.  A recursive function
is timed by its outermost span only.  Spans stay in memory and are
written out at the end; spans of the hottest functions (MERGED) are
merged into one record per parent span.

A layer's self time is the time its spans cover minus the time covered
by their child spans.  Generators (exact.compositions) get one span for
their whole life, and only the time spent producing items counts as
theirs.
"""

from __future__ import annotations

import inspect
import itertools
import json
import time
import weakref
from collections import defaultdict

_DONE = object()

# Public functions traced per layer.  Per-term helpers that the library
# calls thousands of times per request (hypothesis_threshold,
# CoeffTable.bernoulli_number) are left unwrapped: their wrappers would
# cost more than they do, and their time stays in the caller's layer.
TRACED = {
    "exact": ("binomial", "bernoulli_table", "compositions", "elementary_symmetric"),
    "coeffs": (
        "descent_coefficient",
        "composition_sum",
        "ch1_coefficient_closed",
        "ch2_coefficient_closed",
        "generating_polynomial",
        "composition_symmetric_check",
        "verify_identities",
    ),
    "descent": ("family_dimension", "descend", "descend_direct", "descend_chain", "catalogue"),
    "theorems": (
        "check_thm4",
        "check_thm5",
        "check_hypotheses",
        "max_m",
        "proof_trace_thm4",
        "proof_trace_thm5",
    ),
    "cli": ("main",),
}


# Functions called up to millions of times per run.  Their spans are
# merged into one record per parent span and request, with a call count,
# so the span list stays small in memory and on disk.
MERGED = frozenset({
    "exact.binomial",
    "exact.elementary_symmetric",
    "coeffs.coefficient",
    "coeffs.composition_sum",
    "coeffs.ch1_coefficient_closed",
    "coeffs.ch2_coefficient_closed",
    "descent.family_dimension",
    "theorems.check_thm4",
    "theorems.check_thm5",
})


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.request = "setup"
        self.timed = False
        self.spans: list[tuple] = []
        self._merged: dict[tuple, list] = {}  # (parent, name, request) -> merged span
        self._ids = itertools.count()
        self.stack: list[list] = []  # [span id, name, layer, start, child time, parent id]
        self.open_depth: dict[str, int] = defaultdict(int)
        self._seen = weakref.WeakKeyDictionary()  # table -> {(i, j, k): 0 setup | 1 timed}
        # The last table and its key map, to skip the weak-dict lookup on
        # the hot path; this keeps one table alive past its last use.
        self._last_table = None
        self._last_seen: dict = {}
        self._composition_sum = None
        self._reset()

    def _reset(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.fn_s: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.max_den_bits = 0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import fanodescent
        from fanodescent import cli, coeffs, descent, exact, theorems

        modules = {"exact": exact, "coeffs": coeffs, "descent": descent,
                   "theorems": theorems, "cli": cli}
        hooks = {
            "descent.descend": lambda r: self._den_bits(r.descended),
            "descent.descend_direct": self._den_bits,
            "theorems.proof_trace_thm4": self._levels,
            "theorems.proof_trace_thm5": self._levels,
        }
        self._composition_sum = coeffs.composition_sum
        for layer, names in TRACED.items():
            home = modules[layer]
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    continue
                key = f"{layer}.{name}"
                if inspect.isgeneratorfunction(original):
                    wrapper = self._wrap_generator(layer, key, original)
                    # Recursion inside the home module stays unwrapped, so
                    # only items handed to other layers are counted.
                    targets = [fanodescent, *(m for m in modules.values() if m is not home)]
                else:
                    wrapper = self._wrap(layer, key, original, hooks.get(key))
                    targets = [fanodescent, *modules.values()]
                for module in targets:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)
        coeffs.CoeffTable.coefficient = self._wrap_coefficient(coeffs.CoeffTable.coefficient)

    def _open(self, key: str, layer: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        if key in MERGED:
            group = self._merged.get((parent, key, self.request))
            if group is None:
                group = [next(self._ids), key, None, None, parent, self.request, 0.0, 0]
                self._merged[(parent, key, self.request)] = group
            span_id = group[0]
        else:
            span_id = next(self._ids)
        frame = [span_id, key, layer, self.clock(), 0.0, parent]
        self.stack.append(frame)
        self.open_depth[key] += 1
        return frame

    def _close(self, frame: list) -> None:
        end = self.clock()
        self.stack.pop()
        span_id, key, layer, start, child, parent = frame
        self.open_depth[key] -= 1
        duration = end - start
        self.layer_self[layer] += duration - child
        self.fn_s[key] += duration
        if self.stack:
            self.stack[-1][4] += duration
        if key in MERGED:
            group = self._merged[(parent, key, self.request)]
            group[2] = start if group[2] is None else group[2]
            group[3] = end
            group[6] += duration
            group[7] += 1
        else:
            self.spans.append((span_id, key, start, end, parent, self.request))

    def _wrap(self, layer, key, fn, on_result):
        calls = key + ".calls"
        in_max_m = key == "theorems.check_hypotheses"

        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            if in_max_m and self.open_depth["theorems.max_m"]:
                self.counts["theorems.max_m.gate_checks"] += 1
            if self.open_depth[key]:
                return fn(*args, **kwargs)
            frame = self._open(key, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if on_result is not None and self.timed:
                on_result(result)
            return result

        return wrapper

    def _wrap_generator(self, layer, key, fn):
        calls, items = key + ".calls", key + ".tuples"

        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            gen = fn(*args, **kwargs)
            parent = self.stack[-1][0] if self.stack else None
            first = None
            busy = 0.0
            while True:
                t0 = self.clock()
                item = next(gen, _DONE)
                last = self.clock()
                first = t0 if first is None else first
                busy += last - t0
                self.layer_self[layer] += last - t0
                self.fn_s[key] += last - t0
                if self.stack:
                    self.stack[-1][4] += last - t0
                if item is _DONE:
                    break
                self.counts[items] += 1
                yield item
            self.spans.append((next(self._ids), key, first, last, parent, self.request, busy))

        return wrapper

    def _wrap_coefficient(self, fn):
        key = "coeffs.coefficient"

        def coefficient(table, i, j, k):
            counts = self.counts
            counts[key + ".calls"] += 1
            if table is not self._last_table:
                self._last_table = table
                self._last_seen = self._seen.setdefault(table, {})
            seen = self._last_seen
            index = (i, j, k)
            if self.timed:
                mark = seen.get(index)
                if mark != 1:
                    if mark is None:
                        counts[key + ".timed_new_keys"] += 1
                    seen[index] = 1
                    counts[key + ".keys"] += 1
            else:
                seen.setdefault(index, 0)
            if self.open_depth[key]:
                return fn(table, i, j, k)
            frame = self._open(key, "coeffs")
            try:
                return fn(table, i, j, k)
            finally:
                self._close(frame)

        return coefficient

    def _den_bits(self, vector) -> None:
        if vector is not None:
            bits = max(x.denominator.bit_length() for x in vector.scalars)
            self.max_den_bits = max(self.max_den_bits, bits)

    def _levels(self, cert) -> None:
        self.counts["theorems.proof_trace.levels"] += len(cert.per_level)

    # -- measurement ------------------------------------------------------

    def begin_timed(self) -> None:
        """Start the timed region: later counts cover timed requests only."""
        self._reset()
        self.timed = True
        self._cache_start = self._cache_info()

    def _cache_info(self) -> tuple[int, int]:
        info = getattr(self._composition_sum, "cache_info", None)
        return (info().hits, info().misses) if info else (0, 0)

    def add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def snapshot(self) -> tuple[dict, dict]:
        return dict(self.counts), dict(self.layer_self)

    def delta(self, before: tuple[dict, dict]) -> dict:
        """Counts and layer self times of the request that began at `before`."""
        counts, layers = before
        out = {k: v - counts.get(k, 0) for k, v in self.counts.items() if v != counts.get(k, 0)}
        for layer, v in self.layer_self.items():
            if v != layers.get(layer, 0.0):
                out[f"{layer}.self_s"] = v - layers.get(layer, 0.0)
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over the timed requests."""
        c, fn, own = self.counts, self.fn_s, self.layer_self
        hits, misses = (a - b for a, b in zip(self._cache_info(), self._cache_start))
        calls = c["coeffs.coefficient.calls"]
        max_m_calls = c["theorems.max_m.calls"]
        return {
            "exact.self_s": own["exact"],
            "exact.compositions.tuples": c["exact.compositions.tuples"],
            "exact.elementary_symmetric.calls": c["exact.elementary_symmetric.calls"],
            "coeffs.self_s": own["coeffs"],
            "coeffs.composition_sum.s": fn["coeffs.composition_sum"],
            "coeffs.composition_sum.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "coeffs.composition_symmetric_check.s": fn["coeffs.composition_symmetric_check"],
            "coeffs.generating_polynomial.s": fn["coeffs.generating_polynomial"],
            "coeffs.coefficient.s": fn["coeffs.coefficient"],
            "coeffs.coefficient.calls": calls,
            "coeffs.coefficient.keys": c["coeffs.coefficient.keys"],
            "coeffs.coefficient.keys_per_call": c["coeffs.coefficient.keys"] / calls if calls else 0.0,
            "coeffs.coefficient.timed_new_keys": c["coeffs.coefficient.timed_new_keys"],
            "descent.self_s": own["descent"],
            "descent.descend.calls": c["descent.descend.calls"],
            "descent.descend_chain.s": fn["descent.descend_chain"],
            "descent.descend_direct.s": fn["descent.descend_direct"],
            "descent.max_den_bits": self.max_den_bits,
            "theorems.self_s": own["theorems"],
            "theorems.check_hypotheses.calls": c["theorems.check_hypotheses.calls"],
            "theorems.max_m.gate_checks_per_call": (
                c["theorems.max_m.gate_checks"] / max_m_calls if max_m_calls else 0.0
            ),
            "theorems.proof_trace.s": fn["theorems.proof_trace_thm4"] + fn["theorems.proof_trace_thm5"],
            "theorems.proof_trace.levels": c["theorems.proof_trace.levels"],
            "cli.self_s": own["cli"],
            "cli.output_bytes": c["cli.output_bytes"],
        }

    def write(self, path: str) -> None:
        """One JSON span per line; merged spans add `busy` and `calls`."""
        fields = ("id", "name", "start", "end", "parent", "request", "busy", "calls")
        with open(path, "w") as fh:
            for span in [*self.spans, *self._merged.values()]:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
