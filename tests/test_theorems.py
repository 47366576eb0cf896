from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import re
from fractions import Fraction
from math import factorial, gcd

import pytest

from fanodescent.cli import RunReport
from fanodescent.coeffs import CoeffTable, generating_polynomial, verify_identities
from fanodescent.descent import (
    INSUFFICIENT_DATA,
    NEGATIVE_DIMENSION,
    DescentError,
    InsufficientScalarsError,
    NonIntegralDimensionError,
    SplitChernVector,
    descend,
    descend_chain,
    descend_direct,
    grassmannian,
    iterate_scalar,
    projective_space,
    quadric,
)
from fanodescent.exact import bernoulli_table
from fanodescent.theorems import (
    _GATES,
    _refuse_level,
    COVERED_BY_PROJECTIVE_M,
    COVERED_BY_PROJECTIVE_M_MINUS_1,
    COVERED_BY_RATIONAL_M_FOLDS,
    N_LOWER_GE_M,
    N_UPPER_GE_M,
    THM4,
    THM5,
    THM5_STRONG,
    THEOREMS,
    CertificateError,
    CertificateLevel,
    HypothesisReport,
    MarginRow,
    check_hypotheses,
    check_thm4,
    check_thm5,
    hypothesis_threshold,
    max_m,
    proof_trace,
    proof_trace_thm4,
    proof_trace_thm5,
)


def test_thresholds():
    assert hypothesis_threshold(THM4, 3, 2) == 2
    assert hypothesis_threshold(THM5, 3, 1) == 5
    assert hypothesis_threshold(THM5, 4, 3) == Fraction(1, 6)
    assert hypothesis_threshold(THM5_STRONG, 4, 1) == 8
    with pytest.raises(ValueError):
        hypothesis_threshold("thm6", 2, 1)
    # k is not bounded by m.
    assert hypothesis_threshold(THM4, 2, 5) == Fraction(3, 120)


@pytest.mark.parametrize(
    "m, k, message",
    [
        (3, 0, "k must be >= 1, got 0"),
        (3, -1, "k must be >= 1, got -1"),
        (3, True, "k must be >= 1, got True"),
        (3, 1.0, "k must be >= 1, got 1.0"),
        (0, 1, "m must be >= 1, got 0"),
        (-3, 1, "m must be >= 1, got -3"),
        (True, 1, "m must be >= 1, got True"),
        (3.0, 1, "m must be >= 1, got 3.0"),
    ],
)
def test_thresholds_refuse_bad_levels_and_degrees(m, k, message):
    # (thm4, 3, 0) returned 4, (thm4, -3, 1) -2 and (thm4, True, 1) 2; a float m raised TypeError.
    with pytest.raises(ValueError) as excinfo:
        hypothesis_threshold(THM4, m, k)
    assert str(excinfo.value) == message


# --- thm4 ---------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 11))
def test_thm4_projective_space_tight(n):
    report = check_thm4(projective_space(n).vector, n)
    assert report.passed
    assert all(row.margin == 0 for row in report.per_k)
    assert report.conclusions == frozenset({N_LOWER_GE_M, COVERED_BY_RATIONAL_M_FOLDS})


def test_thm4_projective_space_any_smaller_m():
    v = projective_space(8).vector
    for m in range(1, 9):
        assert check_thm4(v, m).passed


def test_thm4_degree_one_cover_flag():
    report = check_thm4(projective_space(4).vector, 4, degree_one_cover=True)
    assert COVERED_BY_PROJECTIVE_M in report.conclusions


def test_thm4_rejects_m_beyond_dimension():
    with pytest.raises(ValueError):
        check_thm4(projective_space(3).vector, 4)
    with pytest.raises(ValueError):
        check_thm4(projective_space(3).vector, 0)


def test_thm4_quadric_six_fails_at_k3():
    report = check_thm4(quadric(6).vector, 3)
    assert not report.passed
    assert report.conclusions == frozenset()
    margins = {row.k: row.margin for row in report.per_k}
    assert margins[1] == 2  # 6 >= 4
    assert margins[2] == 0  # 2 >= 2
    assert margins[3] == Fraction(-2, 3)  # 0 < 4/6


# --- thm5 ---------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 13))
def test_thm5_quadric_at_half_dimension(n):
    m = (n + 1) // 2
    report = check_thm5(quadric(n).vector, m)
    assert report.passed
    # k = 1 margin is (n+2) - (2m+1): 1 for even n, 0 for odd n.
    assert report.per_k[0].margin == (1 if n % 2 == 0 else 0)
    assert report.conclusions == frozenset(
        {N_UPPER_GE_M, COVERED_BY_RATIONAL_M_FOLDS, COVERED_BY_PROJECTIVE_M_MINUS_1}
    )
    if m + 1 <= n:
        assert not check_thm5(quadric(n).vector, m + 1).passed


def test_thm5_all_families_flag():
    report = check_thm5(quadric(4).vector, 2, all_families_degree_one=True)
    assert N_LOWER_GE_M in report.conclusions


@pytest.mark.parametrize("n", range(2, 13))
def test_thm5_strong_boundary(n):
    v = quadric(n).vector
    assert check_thm5(v, n // 2, strong=True).passed
    if n // 2 + 1 <= n:
        assert not check_thm5(v, n // 2 + 1, strong=True).passed


def test_thm5_strong_adds_projective_cover():
    report = check_thm5(quadric(6).vector, 3, strong=True)
    assert report.passed
    assert COVERED_BY_PROJECTIVE_M in report.conclusions


@pytest.mark.parametrize("n", range(2, 11))
def test_thm5_strong_projective_space_at_half(n):
    # n+1 >= 2m+2-2^k for all k >= 1 whenever 2m <= n+1.
    assert check_thm5(projective_space(n).vector, (n + 1) // 2, strong=True).passed


# --- max_m -------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 13))
def test_max_m_tables(n):
    assert max_m(projective_space(n).vector, THM4) == n
    assert max_m(quadric(n).vector, THM5) == (n + 1) // 2
    assert max_m(quadric(n).vector, THM5_STRONG) == n // 2


def test_max_m_zero_when_nothing_passes():
    v = SplitChernVector((Fraction(1),))
    assert max_m(v, THM4) == 0


def reference_gate(v: SplitChernVector, m: int, theorem: str):
    """Reference: the gate at level m as a plain-Fraction scan of
    ``hypothesis_threshold``, returning the thresholds, the margins and
    whether every margin is non-negative."""
    thresholds = [hypothesis_threshold(theorem, m, k) for k in range(1, m + 1)]
    margins = [r - t for r, t in zip(v.scalars, thresholds)]
    return thresholds, margins, all(x >= 0 for x in margins)


def brute_force_max_m(v: SplitChernVector, theorem: str) -> int:
    """Reference: the largest level at which the plain-Fraction scan passes."""
    passing = [m for m in range(1, v.dim + 1) if reference_gate(v, m, theorem)[2]]
    return max(passing, default=0)


def random_gate_vectors(theorem: str, count: int, seed: int):
    """Seeded vectors: half drawn freely (negative entries included), half
    perturbed around the thresholds of a random level, so that caps land
    on, just above and just below integers."""
    rng = random.Random(seed)
    for idx in range(count):
        n = rng.randint(1, 9)
        if idx % 2:
            scalars = [Fraction(rng.randint(-10, 20), rng.randint(1, 7)) for _ in range(n)]
        else:
            m0 = rng.randint(1, n)
            scalars = [
                hypothesis_threshold(theorem, m0, k)
                + rng.choice((-1, 0, 0, 1, 2)) * Fraction(1, rng.randint(1, 5) * factorial(k))
                for k in range(1, n + 1)
            ]
        yield SplitChernVector(tuple(scalars))


def _wide_denominator_vectors(theorem: str, seed: int):
    """Thresholds of a random level plus slack over 97 * k! or 2^k * k!,
    denominators beyond k!, and the catalogue up to dimension 30, whose
    dyadic thresholds reach 2^30."""
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(1, 12)
        m0 = rng.randint(1, n)
        yield SplitChernVector(tuple(
            hypothesis_threshold(theorem, m0, k)
            + Fraction(rng.randint(-2, 2), rng.choice((97, 2**k)) * factorial(k))
            for k in range(1, n + 1)
        ))
    for n in range(1, 31):
        yield projective_space(n).vector
        yield quadric(n).vector


@pytest.mark.parametrize("theorem", THEOREMS)
def test_max_m_equals_brute_force_scan(theorem):
    seen = set()
    for v in [*random_gate_vectors(theorem, 400, seed=17), *_wide_denominator_vectors(theorem, 43)]:
        expected = brute_force_max_m(v, theorem)
        assert max_m(v, theorem) == expected
        seen.add("none" if expected == 0 else "all" if expected == v.dim else "some")
    # the sample reaches all three outcomes: no, some and every level passes
    assert seen == {"none", "some", "all"}


@pytest.mark.parametrize("theorem", THEOREMS)
def test_passing_levels_agree_with_the_walked_chain(theorem):
    # A gate passing at m claims the chain reaches depth m.  Walk the
    # all-ones chain: a determined N must be >= m, and a walk cut short
    # before m steps may only have run out of scalars or, for the thm5
    # pair, of degree-1 families (a conic needs a degree-2 step).
    vectors = [
        *random_gate_vectors(theorem, 2000, seed=5),
        *(projective_space(n).vector for n in range(1, 31)),
        *(quadric(n).vector for n in range(1, 31)),
    ]
    cut_short = {INSUFFICIENT_DATA} if theorem == THM4 else {INSUFFICIENT_DATA, NEGATIVE_DIMENSION}
    determined = short = 0
    for v in vectors:
        m = max_m(v, theorem)
        if m < 1:
            continue
        try:
            chain = descend_chain(v)
        except NonIntegralDimensionError:
            continue
        if chain.n_first_non_fano is not None:
            determined += 1
            assert chain.n_first_non_fano >= m, (v, m, chain.terminal)
        if len(chain.steps) < m:
            short += 1
            assert chain.terminal in cut_short, (v, m, chain.terminal)
    # Both kinds of walk occur, so neither assertion is vacuous.
    assert determined and short, (determined, short)


@pytest.mark.parametrize("theorem", THEOREMS)
def test_gate_rows_equal_a_plain_fraction_scan(theorem):
    # Every row of check_hypotheses (threshold, actual, margin) and its
    # decision against the reference scan, at every level up to and
    # including m = dim.
    outcomes, ties = set(), 0
    for v in [*random_gate_vectors(theorem, 300, seed=41), *_wide_denominator_vectors(theorem, 47)]:
        for m in range(1, v.dim + 1):
            report = check_hypotheses(v, m, theorem)
            thresholds, margins, passed = reference_gate(v, m, theorem)
            assert [row.k for row in report.per_k] == list(range(1, m + 1))
            assert [row.threshold for row in report.per_k] == thresholds
            assert [row.actual for row in report.per_k] == list(v.scalars[:m])
            assert [row.margin for row in report.per_k] == margins
            assert report.passed == passed, (v, m)
            outcomes.add(passed)
            ties += passed and 0 in margins
    assert outcomes == {True, False} and ties > 0


def test_max_m_never_runs_the_gate_check(monkeypatch):
    import fanodescent.theorems as theorems

    def refuse(*args, **kwargs):
        raise AssertionError("max_m ran the full gate check")

    monkeypatch.setattr(theorems, "check_hypotheses", refuse)
    assert theorems.max_m(quadric(9).vector, THM5) == 5
    assert theorems.max_m(projective_space(9).vector, THM4) == 9


def test_trace_never_runs_the_gate_check(monkeypatch):
    # proof_trace decides its gate through max_m; its callers have just run
    # the full check, so a second one would be wasted.
    import fanodescent.theorems as theorems

    def refuse(*args, **kwargs):
        raise AssertionError("proof_trace ran the full gate check")

    monkeypatch.setattr(theorems, "check_hypotheses", refuse)
    cert = theorems.proof_trace(projective_space(9).vector, 9, THM4)
    assert [lv.dim_bound for lv in cert.per_level] == list(range(8, 0, -1))
    cert = theorems.proof_trace(quadric(9).vector, 5, THM5, at_actual=True)
    assert len(cert.per_level) == 4 and cert.mode == "actual"
    with pytest.raises(ValueError, match="gate thm4 fails for m = 3"):
        theorems.proof_trace(quadric(6).vector, 3, THM4)


@pytest.mark.parametrize("theorem", THEOREMS)
def test_trace_refuses_exactly_when_the_gate_fails(theorem):
    outcomes = set()
    for v in random_gate_vectors(theorem, 200, seed=31):
        for m in range(1, v.dim + 1):
            passed = check_hypotheses(v, m, theorem).passed
            outcomes.add(passed)
            if passed:
                assert proof_trace(v, m, theorem).m == m
            else:
                with pytest.raises(ValueError) as excinfo:
                    proof_trace(v, m, theorem)
                assert str(excinfo.value) == (
                    f"gate {theorem} fails for m = {m}; no certificate can be issued"
                )
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "m, theorem",
    [(0, THM4), (True, THM5), (1.0, THM4), (4, THM5_STRONG), (0, "thm6"), (4, "thm6")],
)
def test_trace_refusals_before_the_gate_match_the_gate_check(m, theorem):
    # Same texts, same order: the theorem name first, then m, then the dimension.
    v = projective_space(3).vector
    with pytest.raises(ValueError) as expected:
        check_hypotheses(v, m, theorem)
    with pytest.raises(ValueError) as got:
        proof_trace(v, m, theorem)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("bad", [[0], "no", "false", 1, 0, None])
def test_assertions_and_modes_refuse_values_that_are_not_bools(bad, monkeypatch):
    import fanodescent.theorems as theorems

    v = projective_space(6).vector
    calls = {
        "degree_one_cover": [
            lambda: check_hypotheses(v, 4, THM4, degree_one_cover=bad),
            lambda: check_thm4(v, 4, degree_one_cover=bad),
        ],
        "all_families_degree_one": [
            lambda: check_hypotheses(v, 3, THM5, all_families_degree_one=bad),
            lambda: check_thm5(v, 3, all_families_degree_one=bad),
        ],
        "at_actual": [
            lambda: proof_trace(v, 4, THM4, at_actual=bad),
            lambda: proof_trace_thm4(v, 4, at_actual=bad),
            lambda: proof_trace_thm5(v, 3, at_actual=bad),
        ],
        "strong": [
            lambda: check_thm5(v, 3, strong=bad),
            lambda: proof_trace_thm5(v, 3, strong=bad),
        ],
    }
    # Refused before the gate is decided: no degree or level is looked at.
    monkeypatch.setattr(theorems, "max_m", None)
    monkeypatch.setattr(theorems, "MarginRow", None)
    for name, group in calls.items():
        for call in group:
            with pytest.raises(ValueError, match=re.escape(f"{name} must be True or False, got {bad!r}")):
                call()


def test_unknown_gate_is_rejected_everywhere():
    v = projective_space(3).vector
    for call in (
        lambda: max_m(v, "thm6"),
        lambda: check_hypotheses(v, 2, "thm6"),
        lambda: proof_trace(v, 2, "thm6"),
    ):
        with pytest.raises(ValueError, match="unknown theorem gate"):
            call()


@pytest.mark.parametrize("theorem", THEOREMS)
def test_pass_decision_equals_every_margin_non_negative(theorem):
    # The gate decides in integers; the margins are Fractions.  Ties at
    # exactly the threshold pass, and the sample must contain some.
    outcomes, ties = set(), 0
    for v in random_gate_vectors(theorem, 400, seed=29):
        for m in range(1, v.dim + 1):
            report = check_hypotheses(v, m, theorem)
            assert report.passed == all(row.margin >= 0 for row in report.per_k)
            outcomes.add(report.passed)
            ties += report.passed and any(row.margin == 0 for row in report.per_k)
    assert outcomes == {True, False}
    assert ties > 0


def test_monotonicity_in_m():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 8)
        v = SplitChernVector(
            tuple(Fraction(rng.randint(-8, 12), rng.randint(1, 4)) for _ in range(n))
        )
        for theorem in (THM4, THM5, THM5_STRONG):
            passes = [check_hypotheses(v, m, theorem).passed for m in range(1, n + 1)]
            # once it fails it must keep failing upward
            assert all(a or not b for a, b in zip(passes, passes[1:]))


# --- certificates ---------------------------------------------------------------


def test_trace_thm4_frozen_levels():
    cert = proof_trace_thm4(projective_space(3).vector, 3)
    assert cert.mode == "threshold"
    assert cert.all_positive
    by_level = {lv.level: lv for lv in cert.per_level}
    assert by_level[2].dim_bound == 1  # -1 + 4 - 2
    assert by_level[1].t2ch2_bound == 2  # (3 - 1 + 2)/2
    cert2 = proof_trace_thm4(projective_space(2).vector, 2)
    assert cert2.per_level[0].c1_margin == Fraction(1, 2)  # -1 + (1 - 1/2)*3


@pytest.mark.parametrize("n", range(1, 11))
def test_trace_thm4_projective_all_levels(n):
    cert = proof_trace_thm4(projective_space(n).vector, n)
    assert cert.all_positive
    assert len(cert.per_level) == n - 1
    for lv in cert.per_level:
        assert lv.dim_bound == n - lv.level
        assert lv.t2ch2_bound == Fraction(n - lv.level + 2, 2)
        assert lv.t2ch2_asserted


@pytest.mark.parametrize("n", range(1, 11))
def test_trace_thm5_quadric_all_levels(n):
    m = (n + 1) // 2
    cert = proof_trace_thm5(quadric(n).vector, m)
    assert cert.all_positive
    for lv in cert.per_level:
        assert lv.dim_bound == 2 * m - 2 * lv.level - 1
        assert lv.c1_margin == 2 * m - 2 * lv.level - 1
        assert lv.t2ch2_bound == Fraction(2 * m - 2 * lv.level - 1, 2)
        assert lv.t2ch2_asserted == (lv.level + 1 < m)


def test_trace_thm5_frozen_values():
    # dim bound at (m, i) = (4, 2): -(2-1) + (2*4+1) - (2+1) - 2 = 3
    cert = proof_trace_thm5(quadric(7).vector, 4)
    by_level = {lv.level: lv for lv in cert.per_level}
    assert by_level[2].dim_bound == 3
    # t2 bound at (m, i) = (3, 1): (2*3 - 2 - 1)/2 = 3/2 > 1
    cert3 = proof_trace_thm5(quadric(5).vector, 3)
    assert cert3.per_level[0].t2ch2_bound == Fraction(3, 2)


def test_trace_thm5_strong_levels():
    v = quadric(8).vector
    cert = proof_trace_thm5(v, 4, strong=True)
    assert cert.theorem == THM5_STRONG
    for lv in cert.per_level:
        assert lv.dim_bound == 8 - 2 * lv.level
        assert lv.t2ch2_bound == 4 - lv.level
        assert lv.t2ch2_asserted
    # the final level sits exactly at the non-strict threshold
    assert cert.per_level[-1].t2ch2_bound == 1


def test_trace_requires_passing_gate():
    with pytest.raises(ValueError):
        proof_trace_thm4(quadric(6).vector, 3)


@pytest.mark.parametrize("theorem", THEOREMS)
def test_trace_actual_mode_dominates_threshold_mode(theorem):
    # A vector strictly above the thresholds: actual-mode bounds must
    # dominate the threshold-mode ones at every level.
    m = 4
    scalars = tuple(
        hypothesis_threshold(theorem, m, k) + Fraction(1, k) for k in range(1, 7)
    )
    v = SplitChernVector(scalars)
    thr = proof_trace(v, m, theorem)
    act = proof_trace(v, m, theorem, at_actual=True)
    assert act.mode == "actual"
    for a, t in zip(act.per_level, thr.per_level):
        assert a.dim_bound >= t.dim_bound
        assert a.c1_margin >= t.c1_margin
        assert a.t2ch2_bound >= t.t2ch2_bound


def test_trace_actual_mode_equals_threshold_mode_on_tight_input():
    n = 6
    thr = proof_trace_thm4(projective_space(n).vector, n)
    act = proof_trace_thm4(projective_space(n).vector, n, at_actual=True)
    assert [
        (a.dim_bound, a.c1_margin, a.t2ch2_bound) for a in act.per_level
    ] == [(t.dim_bound, t.c1_margin, t.t2ch2_bound) for t in thr.per_level]


def test_trace_detects_corrupted_table():
    seed = bernoulli_table(2)
    seed[1] = -seed[1]
    bad = CoeffTable(seed)
    with pytest.raises(CertificateError) as excinfo:
        proof_trace_thm4(projective_space(5).vector, 5, table=bad)
    assert excinfo.value.level >= 1
    assert excinfo.value.quantity in {"dim_bound", "c1_margin", "t2ch2_bound"}


def _trace_outcome(v, m, theorem, table, at_actual):
    """The certificate, or the type and text of the refusal."""
    try:
        return proof_trace(v, m, theorem, table, at_actual)
    except (CertificateError, ValueError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("theorem", THEOREMS)
def test_trace_moments_equal_the_row_route(theorem):
    # An honest table takes binomial moments, a table with a prefix its
    # rows; both must issue the same certificates and the same refusals.
    rng = random.Random(211)
    toeplitz = CoeffTable([Fraction(1)])
    outcomes = set()
    for _ in range(60):
        m = rng.randint(1, 12)
        slack = [
            Fraction(rng.choice((-1, 0, 0, 1, 2, 5)), rng.choice((1, 2, 3, 4, 9, 25, 7)))
            for _ in range(m)
        ]
        extra = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(rng.randint(0, 3))]
        scalars = [hypothesis_threshold(theorem, m, k) + s for k, s in enumerate(slack, 1)]
        v = SplitChernVector((*scalars, *extra))
        for at_actual in (False, True):
            honest = CoeffTable()
            moments = _trace_outcome(v, m, theorem, honest, at_actual)
            assert moments == _trace_outcome(v, m, theorem, None, at_actual)
            assert moments == _trace_outcome(v, m, theorem, toeplitz, at_actual)
            # An honest table passed in is neither read nor filled.
            assert honest._columns == {}
            outcomes.add(moments[0] if type(moments) is tuple else "issued")
    # Bounds rise with the inputs, so a passing gate always certifies on
    # the true coefficients; the refusals are the gate's.
    assert outcomes == {"issued", ValueError}


class _StubTable:
    """A coefficient table whose kernel returns chosen (numerator,
    denominator) pairs at some (i, j) and the true pairs elsewhere.

    It declares itself not closed, so ``proof_trace`` reads its rows
    rather than binomial moments."""

    _closed = False

    def __init__(self, pairs):
        self.pairs = pairs
        self.table = CoeffTable()

    def _descended(self, i, j, scaled, common, shifted=True):
        if (i, j) in self.pairs:
            return self.pairs[i, j]
        return self.table._descended(i, j, scaled, common, shifted)


# P^3 at thm4, m = 3 (total 4).  Level 1 reads dim from (0, 1), t2 from
# (0, 2) and c1 from (1, 1); level 2 reads (1, 1), (1, 2) and (2, 1).
# The closed forms: dim 2 and 1, c1 1 and 4/3, t2 2 and 3/2.
@pytest.mark.parametrize(
    "pairs, at_actual, message",
    [
        # dim = N/Q - 2 = 18/4 - 2 = 5/2 against 2; the pair is not reduced.
        ({(0, 1): (18, 4)}, False,
         "level 1, dim_bound: coefficient-sum route gives 5/2, closed expression gives 2"),
        ({(2, 1): (10, 6)}, False,
         "level 2, c1_margin: coefficient-sum route gives 5/3, closed expression gives 4/3"),
        ({(0, 2): (-6, 4)}, False,
         "level 1, t2ch2_bound: coefficient-sum route gives -3/2, closed expression gives 2"),
        # (1, 1) is level 1's c1 (7/2 >= 1) and level 2's dim
        # (7/2 - 2 = 3/2 >= 1); both pass, and level 2's t2, 1, falls below 3/2.
        ({(1, 1): (7, 2), (1, 2): (2, 2)}, True,
         "level 2, t2ch2_bound: actual-input value 1 fell below the threshold-input value 3/2"),
        ({(2, 1): (-2, 6)}, True,
         "level 2, c1_margin: actual-input value -1/3 fell below the threshold-input value 4/3"),
        # Several bounds fail: the refusal is the first failing level's, and
        # within a level the closed forms are checked before the
        # requirements, each in the order dim_bound, c1_margin, t2ch2_bound
        # (not the order the rows are read in).
        # Two bounds of level 1.
        ({(0, 1): (18, 4), (0, 2): (-6, 4)}, False,
         "level 1, dim_bound: coefficient-sum route gives 5/2, closed expression gives 2"),
        ({(0, 1): (2, 1), (0, 2): (2, 2)}, True,
         "level 1, dim_bound: actual-input value 0 fell below the threshold-input value 2"),
        # c1 and t2 of level 2; t2's row (1, 2) is read before c1's (2, 1).
        ({(1, 2): (0, 1), (2, 1): (10, 6)}, False,
         "level 2, c1_margin: coefficient-sum route gives 5/3, closed expression gives 4/3"),
        ({(1, 2): (2, 2), (2, 1): (-2, 6)}, True,
         "level 2, c1_margin: actual-input value -1/3 fell below the threshold-input value 4/3"),
        # The last quantity of level 1 before the first failing one of level 2.
        ({(0, 2): (-6, 4), (2, 1): (10, 6)}, False,
         "level 1, t2ch2_bound: coefficient-sum route gives -3/2, closed expression gives 2"),
        ({(0, 2): (2, 2), (2, 1): (-2, 6)}, True,
         "level 1, t2ch2_bound: actual-input value 1 fell below the threshold-input value 2"),
        # Level 1's c1 before level 2's dim, both read from row (1, 1).
        ({(1, 1): (1, 2)}, True,
         "level 1, c1_margin: actual-input value 1/2 fell below the threshold-input value 1"),
    ],
)
def test_trace_certificate_error_texts(pairs, at_actual, message):
    table = _StubTable(pairs)
    with pytest.raises(CertificateError) as excinfo:
        proof_trace_thm4(projective_space(3).vector, 3, table=table, at_actual=at_actual)
    assert str(excinfo.value) == message


# More digits than the default limit of int <-> str conversion (4300).
_BIG = 10**4400


@pytest.mark.parametrize(
    "at_actual, message",
    [
        (False, "coefficient-sum route gives -1{n}/1{z}, closed expression gives 2"),
        (True, "actual-input value -1{n}/1{z} fell below the threshold-input value 2"),
    ],
    ids=["threshold", "actual"],
)
def test_certificate_error_texts_past_the_int_digit_limit(at_actual, message):
    # dim = 1/10^4400 - 2: the refusal prints it digit for digit.
    table = _StubTable({(0, 1): (1, _BIG)})
    with pytest.raises(CertificateError) as excinfo:
        proof_trace_thm4(projective_space(3).vector, 3, table=table, at_actual=at_actual)
    expected = message.format(n="9" * 4400, z="0" * 4400)
    assert str(excinfo.value) == f"level 1, dim_bound: {expected}"


def _refuse_requirement(level, quantity, value, strict, at_actual=False):
    """``_refuse_level`` on a level whose every bound equals its closed
    form, ``quantity`` at ``value`` and the other two bounds meeting their
    requirements, with the t2 bound asserted."""
    pairs = {"dim_bound": (1, 1), "c1_margin": (1, 1), "t2ch2_bound": (2, 1)}
    pairs[quantity] = (value.numerator, value.denominator)
    full = tuple(pairs.values())
    _refuse_level(level, full, full, at_actual, True, strict)


def test_requirement_error_text_past_the_int_digit_limit():
    with pytest.raises(CertificateError) as excinfo:
        _refuse_requirement(1, "c1_margin", Fraction(-1, _BIG), True)
    assert str(excinfo.value) == f"level 1, c1_margin: bound -1/1{'0' * 4400} fails the requirement > 0"


def test_level_refusals_past_the_int_digit_limit():
    v = projective_space(3).vector
    with pytest.raises(ValueError) as excinfo:
        hypothesis_threshold(THM4, -_BIG, 1)
    assert str(excinfo.value) == f"m must be >= 1, got -1{'0' * 4400}"
    for call in (check_hypotheses, proof_trace):
        with pytest.raises(ValueError) as excinfo:
            call(v, _BIG, THM4)
        assert str(excinfo.value).startswith(f"m = 1{'0' * 4400} exceeds the manifold dimension 3: ")


def test_trace_ties_in_actual_mode_pass_and_report_reduced_bounds():
    # An unreduced pair equal to the closed form meets it with equality.
    table = _StubTable({(1, 2): (6, 4), (2, 1): (16, 12)})
    cert = proof_trace_thm4(projective_space(3).vector, 3, table=table, at_actual=True)
    assert cert.per_level[1].t2ch2_bound == Fraction(3, 2)
    assert cert.per_level[1].c1_margin == Fraction(4, 3)


@pytest.mark.parametrize(
    "quantity, value, bound, strict, message",
    [
        ("dim_bound", Fraction(0), 0, True, "bound 0 fails the requirement > 0"),
        ("c1_margin", Fraction(-1, 2), 0, True, "bound -1/2 fails the requirement > 0"),
        ("t2ch2_bound", Fraction(1), 1, True, "bound 1 fails the requirement > 1"),
        ("t2ch2_bound", Fraction(2, 3), 1, False, "bound 2/3 fails the requirement >= 1"),
    ],
)
def test_requirement_error_texts(quantity, value, bound, strict, message):
    # A bound that meets its closed form in either mode is refused with the
    # same text; one above the requirement passes.
    for at_actual in (False, True):
        with pytest.raises(CertificateError) as excinfo:
            _refuse_requirement(3, quantity, value, strict, at_actual)
        assert str(excinfo.value) == f"level 3, {quantity}: {message}"
        _refuse_requirement(3, quantity, Fraction(bound + 1), strict, at_actual)


@pytest.mark.parametrize(
    "full, closed, at_actual, message",
    [
        # dim_bound 0 meets its closed form and fails only its requirement;
        # c1_margin misses its closed form 4/3.
        (((0, 1), (5, 3), (2, 1)), ((0, 1), (4, 3), (2, 1)), False,
         "level 2, c1_margin: coefficient-sum route gives 5/3, closed expression gives 4/3"),
        (((0, 1), (-1, 3), (2, 1)), ((0, 1), (4, 3), (2, 1)), True,
         "level 2, c1_margin: actual-input value -1/3 fell below the threshold-input value 4/3"),
        # c1_margin -1 meets its closed form; t2ch2_bound misses 2.
        (((1, 1), (-1, 1), (3, 1)), ((1, 1), (-1, 1), (2, 1)), False,
         "level 2, t2ch2_bound: coefficient-sum route gives 3, closed expression gives 2"),
        (((1, 1), (-1, 1), (3, 2)), ((1, 1), (-1, 1), (2, 1)), True,
         "level 2, t2ch2_bound: actual-input value 3/2 fell below the threshold-input value 2"),
    ],
)
def test_closed_form_refusals_precede_requirements(full, closed, at_actual, message):
    with pytest.raises(CertificateError) as excinfo:
        _refuse_level(2, full, closed, at_actual, True, True)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("theorem, accepted", [(THM4, False), (THM5, False), (THM5_STRONG, True)])
def test_t2_bound_exactly_one(theorem, accepted):
    # No closed t2 form of thm4 or thm5 reaches 1 at an asserted level, so
    # the strict refusal is checked on the requirement itself.
    strict = _GATES[theorem].t2_strict
    _refuse_requirement(2, "t2ch2_bound", Fraction(11, 10), strict)
    if accepted:
        _refuse_requirement(2, "t2ch2_bound", Fraction(1), strict)
    else:
        with pytest.raises(CertificateError, match="bound 1 fails the requirement > 1"):
            _refuse_requirement(2, "t2ch2_bound", Fraction(1), strict)


def test_trace_m_equals_one_is_trivially_positive():
    cert = proof_trace_thm4(projective_space(4).vector, 1)
    assert cert.per_level == ()
    assert cert.all_positive


def _assert_canonical(values):
    """Every value is a Fraction itself, in lowest terms over a positive int."""
    for x in values:
        assert type(x) is Fraction, x
        n, d = x.numerator, x.denominator
        assert type(n) is int and type(d) is int and d > 0, x
        assert gcd(n, d) == 1, x


def _public_results(v, table):
    """Every Fraction the public descent, table and gate calls report on v."""
    out = []
    for degrees in (None, [2, 1, 1], [1, 3]):
        try:
            report = descend_chain(v, degrees, table)
        except DescentError:
            continue
        out += [s for step in report.steps if step.descended for s in step.descended.scalars]
    for a in (1, 2):
        try:
            step = descend(v, a, table)
        except DescentError:
            continue
        if step.descended:
            out += step.descended.scalars
        for i in (1, 2, 3):
            try:
                out += descend_direct(v, i, a, table).scalars
            except DescentError:
                pass
    tab = table or CoeffTable()
    for i in range(v.dim):
        for j in range(1, v.dim - i + 1):
            out.append(iterate_scalar(v.scalars, i, j, table))
            out.append(tab.dot(i, j, v.scalars))
            out += [tab.coefficient(i, j, k) for k in range(1, i + j + 1)]
    for theorem in THEOREMS:
        for m in range(1, v.dim + 1):
            report = check_hypotheses(v, m, theorem)
            out += [x for row in report.per_k for x in (row.threshold, row.actual, row.margin)]
        out += [hypothesis_threshold(theorem, v.dim, k) for k in range(1, v.dim + 1)]
        top = max_m(v, theorem)
        for m in range(1, top + 1):
            for at_actual in (False, True):
                cert = proof_trace(v, m, theorem, table, at_actual)
                out += [
                    x
                    for lv in cert.per_level
                    for x in (lv.dim_bound, lv.c1_margin, lv.t2ch2_bound)
                ]
    return out


@pytest.mark.parametrize("prefix", [None, [Fraction(1)]], ids=["honest", "toeplitz"])
def test_every_reported_value_is_a_canonical_fraction(prefix):
    # The library builds its reported values directly in Fraction's slots;
    # this pins that they are the same canonical Fractions on every Python
    # the suite runs on.
    table = None if prefix is None else CoeffTable(prefix)
    rng = random.Random(43)
    vectors = [entry.vector for n in range(1, 13) for entry in (projective_space(n), quadric(n))]
    for theorem in THEOREMS:
        for v in random_gate_vectors(theorem, 20, seed=rng.randrange(1000)):
            vectors.append(v)
            # An integral r_1, so that the first descent is defined.
            r = list(v.scalars)
            r[0] = Fraction(rng.randint(3, v.dim + 2))
            vectors.append(SplitChernVector(r))
    checked = 0
    for v in vectors:
        values = _public_results(v, table)
        _assert_canonical(values)
        checked += len(values)
    assert checked > 20000


def _ordered(value):
    """``value`` with a gate report's conclusions as a sorted tuple.

    pickle and deepcopy rebuild a frozenset item by item, and under some
    hash seeds (12 of PYTHONHASHSEED=0..199 for the thm4 report below)
    that changes its iteration order, and so its repr."""
    if isinstance(value, HypothesisReport):
        return dataclasses.replace(value, conclusions=tuple(sorted(value.conclusions)))
    return value


def test_public_results_round_trip_through_pickle_and_deepcopy():
    # Each result type and both exceptions that take extra arguments can
    # cross a process boundary: same type, value, str and attributes.
    q5 = quadric(5)
    with pytest.raises(InsufficientScalarsError) as short:
        descend(SplitChernVector((5,)), 1)
    with pytest.raises(CertificateError) as failed:
        proof_trace_thm4(projective_space(5).vector, 5, table=CoeffTable([1, Fraction(1, 2)]))
    results = [
        q5.vector,
        descend(q5.vector, 1),
        descend_chain(q5.vector, q5.degrees),
        q5,
        grassmannian(2, 5),
        generating_polynomial(2, 1),
        check_hypotheses(projective_space(7).vector, 7, THM4),
        proof_trace_thm4(projective_space(7).vector, 7),
        verify_identities(3),
        RunReport("chain", {"n": 5}, {"n_first_non_fano": 3}, "pass", 0),
    ]
    for value in results:
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(copied) is type(value)
            assert copied == value
            assert repr(_ordered(copied)) == repr(_ordered(value))
    for err, attrs in [(short.value, ["family_dim"]), (failed.value, ["level", "quantity"])]:
        for copied in (pickle.loads(pickle.dumps(err)), copy.deepcopy(err)):
            assert type(copied) is type(err)
            assert str(copied) == str(err)
            assert [getattr(copied, a) for a in attrs] == [getattr(err, a) for a in attrs]


def test_rows_keep_their_record_contract_and_are_tuples():
    v = projective_space(3).vector
    row = check_hypotheses(v, 3, THM4).per_k[0]
    level = proof_trace(v, 3, THM4).per_level[0]
    assert MarginRow._fields == ("k", "threshold", "actual")
    assert CertificateLevel._fields == (
        "level", "dim_bound", "c1_margin", "t2ch2_bound", "t2ch2_asserted"
    )
    assert repr(row) == "MarginRow(k=1, threshold=Fraction(4, 1), actual=Fraction(4, 1))"
    assert repr(level) == (
        "CertificateLevel(level=1, dim_bound=Fraction(2, 1), c1_margin=Fraction(1, 1), "
        "t2ch2_bound=Fraction(2, 1), t2ch2_asserted=True)"
    )
    for value in (row, level):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(copied) is type(value)
            assert copied == value and hash(copied) == hash(value)
            assert repr(copied) == repr(value)
    # The deliberate change from frozen dataclasses: a row is the tuple of
    # its fields.
    k, threshold, actual = row
    assert row == (k, threshold, actual) == (1, Fraction(4), Fraction(4))
    assert level == (1, Fraction(2), Fraction(1), Fraction(2), True)
    assert row.margin == 0
