"""Reference answers for the benchmark's correctness checks.

Nothing here imports fanodescent.  Every expected value comes from a
route of the benchmark's own:

* catalogue vectors and gate thresholds from their closed forms;
* Bernoulli numbers from the Akiyama-Tanigawa algorithm (the library
  uses the binomial recurrence);
* descent coefficients c(i, 1, k) and c(i, 2, k) from the
  falling-factorial generating polynomials (the library fills its
  table by the Bernoulli-convolution recursion);
* one descent step from its defining formula, iterated for perturbed
  inputs;
* the largest passing gate level from per-degree upper bounds on m,
  scanned upward (the library scans full gate checks downward).

All arithmetic is exact.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import factorial

GATES = ("thm4", "thm5", "thm5_strong")

CONCLUSIONS = {
    "thm4": ["N_lower_ge_m", "covered_by_rational_m_folds"],
    "thm5": [
        "N_upper_ge_m",
        "covered_by_projective_m_minus_1",
        "covered_by_rational_m_folds",
    ],
    "thm5_strong": [
        "N_upper_ge_m",
        "covered_by_projective_m",
        "covered_by_projective_m_minus_1",
        "covered_by_rational_m_folds",
    ],
}


def q(x: Fraction | int) -> str:
    return str(Fraction(x))


def threshold(gate: str, m: int, k: int) -> Fraction:
    """The lower bound gate `gate` at level m puts on r_k."""
    top = {"thm4": m + 1, "thm5": 2 * m + 1 - 2**k, "thm5_strong": 2 * m + 2 - 2**k}
    return Fraction(top[gate], factorial(k))


def projective(n: int) -> list[Fraction]:
    """Split vector of P^n: r_k = (n+1)/k!."""
    return [Fraction(n + 1, factorial(k)) for k in range(1, n + 1)]


def quadric(n: int) -> list[Fraction]:
    """Split vector of Q^n: r_k = (n+2-2^k)/k!."""
    return [Fraction(n + 2 - 2**k, factorial(k)) for k in range(1, n + 1)]


def quadric_degrees(n: int) -> list[int]:
    """Curve degrees of the Q^n chain: all 1, except 2 for the conic on Q^1."""
    steps = (n + 1) // 2
    return [1] * (steps - 1) + [2] if n % 2 else [1] * steps


@lru_cache(maxsize=None)
def bernoulli(count: int) -> tuple[Fraction, ...]:
    """B_0 .. B_{count-1} with B_1 = -1/2, by Akiyama-Tanigawa."""
    row: list[Fraction] = []
    out = []
    for m in range(count):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if count > 1:
        out[1] = -out[1]
    return tuple(out)


def depth_one(j: int, k: int) -> Fraction:
    """c(1, j, k) = (-1)^m B_m / m! with m = j + 1 - k."""
    m = j + 1 - k
    return (-1) ** m * bernoulli(m + 1)[m] / factorial(m)


@lru_cache(maxsize=None)
def generating_row(i: int, j: int) -> tuple[Fraction, ...]:
    """c(i, j, k) for k = 0 .. i + j, for j in {1, 2}.

    k! times the t^k coefficient of t(t+1)...(t+i)/(i+1)! (j = 1) or of
    t(t+1)...(t+i)(t+i/2)/(i+2)! (j = 2); depth 0 is the identity.
    """
    if i == 0:
        return tuple(Fraction(int(k == j)) for k in range(j + 1))
    poly = [Fraction(0), Fraction(1)]
    roots = list(range(1, i + 1)) + ([Fraction(i, 2)] if j == 2 else [])
    for c in roots:
        poly = [Fraction(0)] + poly
        for pos in range(len(poly) - 1):
            poly[pos] += c * poly[pos + 1]
    scale = factorial(i + j)
    return tuple(poly[k] * factorial(k) / scale for k in range(len(poly)))


def descend_step(r: list[Fraction], a: int) -> tuple[int, list[Fraction] | None]:
    """One descent along degree-a curves: (family dimension, descended vector)."""
    degree = r[0] * a
    if degree.denominator != 1:
        raise ValueError(f"non-integral anticanonical degree {degree}")
    d = int(degree) - 2
    if d <= 0:
        return d, None
    if len(r) < d + 1:
        raise ValueError(f"dimension-{d} family needs {d + 1} scalars, have {len(r)}")
    powers = [r[k - 1] * a**k for k in range(1, d + 2)]
    return d, [
        Fraction(-1, factorial(j))
        + sum(depth_one(j, k) * powers[k - 1] for k in range(1, j + 2))
        for j in range(1, d + 1)
    ]


def iterated(r: list[Fraction], i: int, a1: int) -> list[Fraction]:
    """The i-th iterate by single steps (degree a1, then 1, 1, ...)."""
    for step in range(i):
        d, r = descend_step(r, a1 if step == 0 else 1)
        if r is None:
            raise ValueError(f"chain ends at dimension {d} before depth {i}")
    return r


def max_level(r: list[Fraction], gate: str) -> int:
    """Largest m <= dim whose gate passes, 0 if none.

    Each degree k caps m linearly (r_k k! >= the threshold numerator);
    level m passes when it is below every cap with k <= m.
    """
    cap = None
    best = 0
    for k in range(1, len(r) + 1):
        scaled = r[k - 1] * factorial(k)
        bound = {
            "thm4": scaled - 1,
            "thm5": (scaled - 1 + 2**k) / 2,
            "thm5_strong": (scaled - 2 + 2**k) / 2,
        }[gate]
        cap = bound if cap is None else min(cap, bound)
        if k <= cap:
            best = k
    return best


def certificate_levels(
    r: list[Fraction], gate: str, m: int, at_actual: bool
) -> list[list]:
    """Expected certificate rows [level, dim_bound, c1_margin, t2ch2_bound, asserted].

    Threshold mode must equal the closed forms.  Actual mode evaluates
    the coefficient sums at r with generating-polynomial coefficients and
    must dominate the closed forms.
    """
    rows = []
    for i in range(1, m):
        if gate == "thm4":
            closed = (
                Fraction(m - i),
                -i + (1 - Fraction(1, factorial(i + 1))) * (m + 1),
                Fraction(m - i + 2, 2),
            )
            asserted = True
            c1_top = i
        else:
            total = 2 * m - 2 * i - (1 if gate == "thm5" else 0)
            closed = (Fraction(total), Fraction(total), Fraction(total, 2))
            asserted = gate == "thm5_strong" or i + 1 < m
            c1_top = i + 1
        if at_actual:
            c_prev1, c_here1 = generating_row(i - 1, 1), generating_row(i, 1)
            c_prev2 = generating_row(i - 1, 2)
            values = (
                -(i - 1) + sum(c_prev1[k] * r[k - 1] for k in range(1, i + 1)) - 2,
                -i + sum(c_here1[k] * r[k - 1] for k in range(1, c1_top + 1)),
                Fraction(-(i - 1), 2)
                + sum(c_prev2[k] * r[k - 1] for k in range(1, i + 2)),
            )
            if any(v < c for v, c in zip(values, closed)):
                raise ValueError(f"actual values {values} below closed forms at level {i}")
        else:
            values = closed
        rows.append([i, *(q(v) for v in values), asserted])
    return rows


def _certify_expected(inp: dict) -> dict:
    gate, m = inp["gate"], inp["m"]
    r = [Fraction(s) for s in inp["vector"]]
    per_k = []
    for k in range(1, m + 1):
        t = threshold(gate, m, k)
        per_k.append([k, q(t), q(r[k - 1]), q(r[k - 1] - t)])
    passed = all(r[k - 1] >= threshold(gate, m, k) for k in range(1, m + 1))
    cert = None
    if passed:
        mode = "actual" if inp["at_actual"] else "threshold"
        cert = {"mode": mode, "levels": certificate_levels(r, gate, m, inp["at_actual"])}
    return {
        "passed": passed,
        "per_k": per_k,
        "conclusions": CONCLUSIONS[gate] if passed else [],
        "cert": cert,
    }


def _chain_expected(family: str, n: int) -> dict:
    if family == "P":
        dims, degrees, build = [n - s for s in range(1, n + 1)], [1] * n, projective
    else:
        degrees = quadric_degrees(n)
        dims, build = [max(n - 2 * s, 0) for s in range(1, len(degrees) + 1)], quadric
    steps = [
        [a, d, [q(x) for x in build(d)] if d >= 1 else None]
        for a, d in zip(degrees, dims)
    ]
    return {"steps": steps, "terminal": "dimension_zero", "N": len(steps)}


def expected(inp: dict, meta: dict) -> dict:
    """The exact output a correct library returns for a non-CLI request."""
    kind = inp["kind"]
    if kind == "certify":
        out = _certify_expected(inp)
        if out["passed"] != meta["passes"]:
            raise ValueError(f"generated certify input does not {'pass' if meta['passes'] else 'fail'} its gate")
        return out
    if kind == "chain":
        return _chain_expected(meta["family"], meta["n"])
    if kind == "direct":
        if meta["perturbed"]:
            r = iterated([Fraction(s) for s in inp["vector"]], inp["i"], inp["a1"])
        elif meta["family"] == "P":
            r = projective(meta["n"] - inp["i"])
        else:
            r = quadric(meta["n"] - 2 * inp["i"])
        return {"scalars": [q(x) for x in r]}
    if kind == "max_m":
        return {"max_m": max_level([Fraction(s) for s in inp["vector"]], inp["gate"])}
    raise ValueError(f"no reference for request kind {kind!r}")


def check_cli(meta: dict, output: dict, golden: dict[str, bytes]) -> str | None:
    """Verdict on one in-process CLI call; None when correct."""
    if "golden" in meta:
        name = meta["golden"]
        if output["code"] != meta["code"]:
            return f"{name}: exit {output['code']}, expected {meta['code']}"
        if output["stdout"].encode() != golden[name]:
            return f"{name}: output differs from the golden file"
        return None
    if output["code"] != 0:
        return f"verify exit {output['code']}, expected 0"
    report = json.loads(output["stdout"])
    max_i, max_n = meta["max_i"], meta["max_n"]
    results = report["results"]
    if report["parameters"] != {"max_i": max_i, "max_n": max_n, "flip_b1": False}:
        return f"verify echoed parameters {report['parameters']}"
    if report["status"] != "pass" or results["all_ok"] is not True:
        return f"verify --max-i {max_i} --max-n {max_n} did not pass"
    if [r["i"] for r in results["reports"]] != list(range(1, max_i + 1)):
        return f"verify --max-i {max_i} reported depths {[r['i'] for r in results['reports']]}"
    if not all(r["passed"] for r in results["reports"]) or not results["composition_identity"]["ok"]:
        return f"verify --max-i {max_i} --max-n {max_n} has a failing check"
    return None
