"""Seeded request generators for the three workloads.

A workload is a stream of blocks.  Every block holds the same request
sizes in a seeded order, with seeded details (slack, perturbations)
that leave the sizes alone, so every block of every seed does the same
amount of work.  A request's place before the shuffle is its slot; the
benchmark follows each slot through a run, which keeps the figures
steady across seeds even though request costs differ by two orders of
magnitude.

Each request is {"input": ..., "meta": ...}.  Only "input" reaches the
worker; "meta" carries the sizes and what the oracle needs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracle import GATES, projective, q, quadric, quadric_degrees, threshold

WORKLOADS = ("cli-verify", "certify-cold", "descent-warm")

# The argv behind tests/golden/, with the exit code each must return.
GOLDEN_CASES = (
    ("verify_full.json", ["verify", "--max-i", "12", "--max-n", "12", "--json"], 0),
    ("verify_minimal.json", ["verify", "--max-i", "1", "--json"], 0),
    ("verify_flip_b1.json", ["verify", "--max-i", "2", "--max-n", "4", "--flip-b1", "--json"], 1),
    ("chain_p4.json", ["chain", "projective_space", "4", "--json"], 0),
    ("chain_q5.json", ["chain", "quadric", "5", "--json"], 0),
    ("chain_g25.json", ["chain", "grassmannian", "2", "5", "--json"], 0),
    ("check_q6_thm5_maxm.json", ["check", "quadric", "6", "--theorem", "thm5", "--json"], 0),
    ("check_p7_thm4_m7.json",
     ["check", "projective_space", "7", "--theorem", "thm4", "--m", "7", "--json"], 0),
    ("check_q7_strong_m4.json",
     ["check", "quadric", "7", "--theorem", "thm5-strong", "--m", "4", "--json"], 1),
    ("verify_minimal.txt", ["verify", "--max-i", "1"], 0),
    ("chain_q5.txt", ["chain", "quadric", "5"], 0),
    ("check_p7_thm4_m7.txt",
     ["check", "projective_space", "7", "--theorem", "thm4", "--m", "7"], 0),
)

# "full" is the measured size; "smoke" runs the same generators and
# oracles small enough for a quick self-test, with no time bounds.
SIZES = {
    "full": {
        "verify_max": 14, "verify_copies": 2,
        "certify_m": range(2, 25), "certify_failing": 4,
        "chain_n": (8, 16, 24, 32, 40, 48, 56, 64),
        "direct_i": 12, "direct_n": 40,
        "maxm_n": (25, 50, 75, 100),
        "traced_blocks": {"cli-verify": 8, "certify-cold": 4, "descent-warm": 12},
    },
    "smoke": {
        "verify_max": 3, "verify_copies": 1,
        "certify_m": range(2, 6), "certify_failing": 1,
        "chain_n": (4, 6),
        "direct_i": 2, "direct_n": 6,
        "maxm_n": (6, 9),
        "traced_blocks": {"cli-verify": 1, "certify-cold": 3, "descent-warm": 2},
    },
}

# Distinct blocks generated per run; longer runs cycle through them.
BLOCKS = 16


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def _slack(rng: random.Random) -> Fraction:
    """A non-negative rational with a random denominator."""
    den = rng.randint(1, 97)
    return Fraction(rng.randint(0, 3 * den), den)


def warm_spec(workload: str, size: str) -> str:
    """Largest descent-warm request sizes, so set-up warms every table entry read."""
    if workload != "descent-warm":
        return "-"
    s = SIZES[size]
    return f"{s['direct_n']},{s['direct_i']},{max(s['chain_n'])}"


def _shuffled(rng: random.Random, reqs: list[dict]) -> list[dict]:
    """Number the requests by their place in the unshuffled block, then shuffle them.

    A slot holds a request of the same size in every block, so the
    benchmark can follow one kind of request through a run.
    """
    for slot, req in enumerate(reqs):
        req["meta"]["slot"] = slot
    rng.shuffle(reqs)
    return reqs


def _cli_block(seed: int, block: int, s: dict) -> list[dict]:
    rng = _rng("cli-verify", seed, block)
    top = s["verify_max"]
    # Fixed (I, N) pairs: the cost of a request is not a sum over I and N,
    # so a seeded pairing would change the work per block.
    pairs = [(i, i) for i in range(1, top + 1)]
    if s["verify_copies"] > 1:
        pairs += [(i, top + 1 - i) for i in range(1, top + 1)]
    reqs = [
        {
            "input": {"kind": "cli", "argv": ["verify", "--max-i", str(i), "--max-n", str(n), "--json"]},
            "meta": {"max_i": i, "max_n": n},
        }
        for i, n in pairs
    ]
    reqs += [
        {"input": {"kind": "cli", "argv": argv}, "meta": {"golden": name, "code": code}}
        for name, argv, code in GOLDEN_CASES
    ]
    return _shuffled(rng, reqs)


def _gate_vector(rng: random.Random, gate: str, m: int) -> list[Fraction]:
    """Thresholds at level m plus slack, padded with a few extra scalars."""
    r = [threshold(gate, m, k) + _slack(rng) for k in range(1, m + 1)]
    return r + [_slack(rng) for _ in range(rng.randint(0, 4))]


def _certify_block(seed: int, block: int, s: dict) -> list[dict]:
    rng = _rng("certify-cold", seed, block)
    levels = list(s["certify_m"])
    # The gate, the kind of vector (catalogue for half of the levels) and
    # the mode (actual for about a third) are fixed by the position of m,
    # so every block of every seed does the same work.
    reqs = []
    for pos, m in enumerate(levels):
        gate = GATES[pos % len(GATES)]
        at_actual = (pos // len(GATES)) % 3 == 0
        if pos % 2 == 0:
            extra = rng.randint(0, 4)
            r = projective(m + extra) if gate == "thm4" else quadric(
                2 * m + extra - (gate == "thm5"))
        else:
            r = _gate_vector(rng, gate, m)
        reqs.append((gate, m, r, at_actual, True))
    for _ in range(s["certify_failing"]):
        gate, m = rng.choice(GATES), rng.choice(levels)
        r = _gate_vector(rng, gate, m)
        k = rng.randint(1, m)
        r[k - 1] = threshold(gate, m, k) - Fraction(1, rng.randint(1, 97))
        reqs.append((gate, m, r, False, False))
    return _shuffled(rng, [
        {
            "input": {"kind": "certify", "gate": gate, "m": m,
                      "vector": [q(x) for x in r], "at_actual": at_actual},
            "meta": {"m": m, "dim": len(r), "passes": passes},
        }
        for gate, m, r, at_actual, passes in reqs
    ])


def _descent_block(seed: int, block: int, s: dict) -> list[dict]:
    rng = _rng("descent-warm", seed, block)
    reqs = []
    for n in s["chain_n"]:
        for family in "PQ":
            r, degrees = (projective(n), [1] * n) if family == "P" else (
                quadric(n), quadric_degrees(n))
            reqs.append({
                "input": {"kind": "chain", "vector": [q(x) for x in r], "degrees": degrees},
                "meta": {"family": family, "n": n},
            })
    for i in range(1, s["direct_i"] + 1):
        family = "PQ"[i % 2]
        low = i + 1 if family == "P" else 2 * i + 1
        n = max(low, s["direct_n"])
        r = projective(n) if family == "P" else quadric(n)
        perturbed = i % 4 < 2
        if perturbed:
            # Only degrees above i+1 change, so every level keeps its dimension.
            r = r[: i + 1] + [x + _slack(rng) for x in r[i + 1:]]
        reqs.append({
            "input": {"kind": "direct", "vector": [q(x) for x in r], "i": i, "a1": 1},
            "meta": {"family": family, "n": n, "i": i, "perturbed": perturbed},
        })
    for t, n in enumerate(s["maxm_n"]):
        # The gates meet P^n, Q^n and a threshold vector in turn, so the
        # pairing of gate, kind and size is the same in every block.
        for g, gate in enumerate(GATES):
            choice = (g + t) % len(GATES)
            if choice == 0:
                r = projective(n)
            elif choice == 1:
                r = quadric(n)
            else:
                r = [threshold(gate, n // 2, k) + _slack(rng) for k in range(1, n + 1)]
            reqs.append({
                "input": {"kind": "max_m", "vector": [q(x) for x in r], "gate": gate},
                "meta": {"n": n},
            })
    return _shuffled(rng, reqs)


_BUILDERS = {"cli-verify": _cli_block, "certify-cold": _certify_block, "descent-warm": _descent_block}


def blocks(workload: str, seed: int, size: str) -> list[list[dict]]:
    """The distinct blocks of one run; the worker cycles through them."""
    s = SIZES[size]
    return [_BUILDERS[workload](seed, b, s) for b in range(BLOCKS)]
