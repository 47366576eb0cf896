"""Hypothesis gates and exact proof-trace certificates.

Two families of positivity hypotheses on a split Chern vector are
checked exactly, degree by degree:

* gate ``thm4``:  r_k >= (m+1)/k!            for 1 <= k <= m
* gate ``thm5``:  r_k >= (2m+1-2^k)/k!       for 1 <= k <= m
* gate ``thm5_strong``:  r_k >= (2m+2-2^k)/k!

A passing gate entails conclusions about chains of minimal families and
coverings, reported as flags.  The certificate replays the inequality
chain behind those conclusions level by level, computing every bound
twice: once through the full coefficient sums and once through the
simplified closed expressions; the two routes must agree exactly.

Gates and certificates decide in integers.  Each gate's thresholds are
computed in one place, ``_Gate``: ``bound(m, k)`` is the integer
k! * threshold = slope*m + offset(k), and ``bounds(m)`` yields those
integers for k = 1, 2, ..., advancing 2^k by doubling.  A degree passes
when r_k.numerator * k! >= bound * r_k.denominator, and a certificate
bound is an unreduced pair (numerator, denominator > 0) compared with
its closed form and its requirement by cross-multiplying.  The loops
read a Fraction's ``_numerator`` and ``_denominator`` slots, advance k!
by one product per degree, and read every closed form of a level off
one running r_1, stepped once per level.  One Fraction is built per
reported value, by ``exact._fraction(num, den)``, which needs den > 0
and reduces by one gcd.  ``_refuse_level`` is entered only for a level
that fails, to raise the refusal with its text: it decides the level's
comparisons again over Fractions, built then the ordinary way, and
prints each number through ``exact._text``.

Level i of a certificate reads r_1 and r_2 of chain member i - 1 and r_1
of member i.  An honest table (None, or built without a Bernoulli
prefix) is neither read nor filled: the certificate converts its inputs
to binomial moments once and takes one Pascal step per level, so it
builds no coefficient row (see ``proof_trace``).  A table with a prefix
is read row by row, so a corrupted prefix is followed exactly.

``MarginRow`` and ``CertificateLevel`` are ``NamedTuple``s because one
is built per degree and one per level, and a frozen dataclass's
``__init__`` sets each field through ``object.__setattr__``; the
reports ``HypothesisReport`` and ``Certificate`` are built once per call
and stay frozen dataclasses.  A row keeps its dataclass repr, pickle,
deepcopy, hash and equality with another row, and setting a field
raises ``AttributeError``; being a tuple, it also unpacks, indexes, has
``_replace`` and ``_asdict``, compares equal to the plain tuple of its
fields, and is no longer a dataclass (``dataclasses.fields``,
``replace`` and ``asdict`` do not take it).
"""

from __future__ import annotations

import copyreg
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import factorial
from operator import mul, sub
from typing import Iterator, NamedTuple

from .coeffs import CoeffTable, _binomial_moments, _honest, _over_common, _pascal_step
from .descent import SplitChernVector
from .exact import _check_flag, _check_int, _fraction, _text

__all__ = [
    "THM4",
    "THM5",
    "THM5_STRONG",
    "THEOREMS",
    "N_LOWER_GE_M",
    "N_UPPER_GE_M",
    "COVERED_BY_RATIONAL_M_FOLDS",
    "COVERED_BY_PROJECTIVE_M_MINUS_1",
    "COVERED_BY_PROJECTIVE_M",
    "MarginRow",
    "HypothesisReport",
    "hypothesis_threshold",
    "check_thm4",
    "check_thm5",
    "check_hypotheses",
    "max_m",
    "CertificateError",
    "CertificateLevel",
    "Certificate",
    "proof_trace",
    "proof_trace_thm4",
    "proof_trace_thm5",
]

THM4 = "thm4"
THM5 = "thm5"
THM5_STRONG = "thm5_strong"
THEOREMS = (THM4, THM5, THM5_STRONG)

N_LOWER_GE_M = "N_lower_ge_m"
N_UPPER_GE_M = "N_upper_ge_m"
COVERED_BY_RATIONAL_M_FOLDS = "covered_by_rational_m_folds"
COVERED_BY_PROJECTIVE_M_MINUS_1 = "covered_by_projective_m_minus_1"
COVERED_BY_PROJECTIVE_M = "covered_by_projective_m"


@dataclass(frozen=True)
class _Gate:
    """The rules of one gate, as data.

    The threshold on r_k at level m is (slope*m + offset(k))/k!, with
    offset(k) = base - 2^k when ``dyadic`` and base otherwise.  k! times
    it is the integer ``bound(m, k)``, which ``hypothesis_threshold``
    reads; ``bounds(m)`` yields those integers for k = 1, 2, ..., which
    the gate loops and the certificate's threshold inputs read
    (``bounds(0)`` yields the offsets).  ``bound`` is kept beside
    ``bounds`` because k is not bounded by m there, and reaching one k by
    k doublings would cost O(k^2) bit operations.

    A pass yields ``conclusions``; the caller assertion named by
    ``assertion`` (a keyword of ``check_hypotheses``) adds ``asserted``.
    The certificate asserts the t2 bound at every level when
    ``t2_every_level``, else only while i + 1 < m, and strictly (> 1)
    when ``t2_strict``.  With ``c1_aside`` the certificate's c1 keeps
    its top descent term aside.

    The thresholds at level m are the power sums of a threshold
    manifold: total = slope*m + base Chern roots 1, less one root 2 when
    ``dyadic`` (P^m, Q^{2m-1} and Q^{2m} for the three gates).  Member n
    of its chain has r_1 = total - 2*delta - n*(1 + delta), where delta
    is 1 when ``dyadic`` and 0 otherwise; the certificate's closed forms
    are read from these.
    """

    slope: int
    base: int
    dyadic: bool
    conclusions: frozenset[str]
    assertion: str
    asserted: str
    t2_every_level: bool
    t2_strict: bool
    c1_aside: bool

    def bound(self, m: int, k: int) -> int:
        """k! times the threshold on r_k at level m: slope*m + offset(k)."""
        return self.slope * m + self.base - (2**k if self.dyadic else 0)

    def bounds(self, m: int) -> Iterator[int]:
        """bound(m, k) for k = 1, 2, ..., the power of two advanced by doubling."""
        powers = accumulate(repeat(2), mul, initial=2) if self.dyadic else repeat(0)
        return map(sub, repeat(self.slope * m + self.base), powers)


_THM5_CONCLUSIONS = frozenset(
    {N_UPPER_GE_M, COVERED_BY_RATIONAL_M_FOLDS, COVERED_BY_PROJECTIVE_M_MINUS_1}
)
# Fields in order: slope, base, dyadic, conclusions, assertion, asserted,
# t2_every_level, t2_strict, c1_aside.
_GATES = {
    THM4: _Gate(
        1, 1, False, frozenset({N_LOWER_GE_M, COVERED_BY_RATIONAL_M_FOLDS}),
        "degree_one_cover", COVERED_BY_PROJECTIVE_M, True, True, True,
    ),
    THM5: _Gate(
        2, 1, True, _THM5_CONCLUSIONS,
        "all_families_degree_one", N_LOWER_GE_M, False, True, False,
    ),
    THM5_STRONG: _Gate(
        2, 2, True, _THM5_CONCLUSIONS | {COVERED_BY_PROJECTIVE_M},
        "all_families_degree_one", N_LOWER_GE_M, True, False, False,
    ),
}


def _gate(theorem: str) -> _Gate:
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem gate {theorem!r}; choose from {THEOREMS}")
    return _GATES[theorem]


def hypothesis_threshold(theorem: str, m: int, k: int) -> Fraction:
    """The lower bound the gate demands of r_k at level m.

    m and k must be ints >= 1; k is not bounded by m.
    """
    gate = _gate(theorem)
    _check_int(m, 1, "m must be >= 1")
    _check_int(k, 1, "k must be >= 1")
    return _fraction(gate.bound(m, k), factorial(k))


class MarginRow(NamedTuple):
    k: int
    threshold: Fraction
    actual: Fraction

    @property
    def margin(self) -> Fraction:
        return self.actual - self.threshold


@dataclass(frozen=True)
class HypothesisReport:
    theorem: str
    m: int
    per_k: tuple[MarginRow, ...]
    passed: bool
    conclusions: frozenset[str]


def check_thm4(
    v: SplitChernVector, m: int, degree_one_cover: bool = False
) -> HypothesisReport:
    """Gate thm4: r_k >= (m+1)/k! for every k <= m.

    On pass the chain invariant N is at least m for every chain (flag
    ``N_lower_ge_m``) and the manifold is covered by rational m-folds.
    If the caller additionally asserts a cover by degree-1 rational
    curves, the cover upgrades to projective m-spaces.
    """
    return check_hypotheses(v, m, THM4, degree_one_cover=degree_one_cover)


def check_thm5(
    v: SplitChernVector,
    m: int,
    strong: bool = False,
    all_families_degree_one: bool = False,
) -> HypothesisReport:
    """Gate thm5: r_k >= (2m+1-2^k)/k! for every k <= m (2m+2 when strong).

    The gate presumes the manifold is covered by degree-1 rational
    curves in the chosen polarization; that is part of invoking it and
    cannot be checked in the scalar model.  On pass: some chain reaches
    depth m (``N_upper_ge_m``), plus coverings by rational m-folds and
    projective (m-1)-spaces; the strong thresholds upgrade the cover to
    projective m-spaces.  ``N_lower_ge_m`` needs the further caller
    assertion that every minimal family parametrizes degree-1 curves.
    """
    return check_hypotheses(
        v, m, _thm5(strong), all_families_degree_one=all_families_degree_one
    )


def _thm5(strong: bool) -> str:
    """The gate ``strong`` names: thm5_strong when True, thm5 when False."""
    _check_flag(strong, "strong")
    return THM5_STRONG if strong else THM5


def _checked_gate(v: SplitChernVector, m: int, theorem: str) -> _Gate:
    """The named gate, once m is an int in [1, v.dim].

    Every refusal that ``check_hypotheses`` and ``proof_trace`` make
    before the gate is decided, in one order and with one set of texts.
    """
    gate = _gate(theorem)
    _check_int(m, 1, "m must be >= 1")
    if m > v.dim:
        raise ValueError(
            f"m = {_text(m)} exceeds the manifold dimension {v.dim}: the degree-k "
            "Chern scalar vanishes for k > dim, so a positive threshold "
            "there can never be met"
        )
    return gate


def check_hypotheses(
    v: SplitChernVector,
    m: int,
    theorem: str,
    degree_one_cover: bool = False,
    all_families_degree_one: bool = False,
) -> HypothesisReport:
    """Check the named gate at level m, degree by degree.

    Each gate honours one caller assertion: ``degree_one_cover`` for
    thm4, ``all_families_degree_one`` for the thm5 pair.  Both must be
    bools, as must ``strong`` and ``at_actual`` elsewhere in this module.
    """
    gate = _checked_gate(v, m, theorem)
    _check_flag(degree_one_cover, "degree_one_cover")
    _check_flag(all_families_degree_one, "all_families_degree_one")
    rows, passed, fact = [], True, 1
    for k, r, bound in zip(range(1, m + 1), v.scalars, gate.bounds(m)):
        fact *= k
        # r >= bound/k!, cross-multiplied (both denominators are positive).
        passed = passed and r._numerator * fact >= bound * r._denominator
        rows.append(MarginRow(k, _fraction(bound, fact), r))
    per_k = tuple(rows)
    claims = {
        "degree_one_cover": degree_one_cover,
        "all_families_degree_one": all_families_degree_one,
    }
    conclusions = gate.conclusions if passed else frozenset()
    if passed and claims[gate.assertion]:
        conclusions |= {gate.asserted}
    return HypothesisReport(theorem, m, per_k, passed, conclusions)


def max_m(v: SplitChernVector, theorem: str) -> int:
    """Largest m <= dim for which the gate passes; 0 when none does.

    Degree k meets its threshold at level m exactly when
    m <= cap_k = (r_k*k! - offset(k))/slope, and threshold(m, k) rises
    with m, so the passing levels are closed downward: m passes exactly
    when m <= min(cap_1..cap_m).  One upward pass stops at the first k
    where that running minimum drops below k.
    """
    gate = _gate(theorem)
    slope = gate.slope
    # The running minimum of slope*cap_k as num/den (den > 0), started at
    # the level bound dim; slope*cap_k = (r.numerator*k! -
    # offset(k)*r.denominator) / r.denominator, and offset(k) = bound(0, k).
    num, den, fact = slope * v.dim, 1, 1
    for k, r, offset in zip(range(1, v.dim + 1), v.scalars, gate.bounds(0)):
        fact *= k
        r_den = r._denominator
        cap = r._numerator * fact - offset * r_den
        if cap * den < num * r_den:
            num, den = cap, r_den
        if num < slope * k * den:
            return k - 1
    return v.dim


class CertificateError(Exception):
    """A certificate bound failed: either the two evaluation routes
    disagreed or a bound missed its proof threshold."""

    def __init__(self, level: int, quantity: str, message: str):
        super().__init__(f"level {level}, {quantity}: {message}")
        self.level = level
        self.quantity = quantity

    def __reduce__(self):
        # Pickled and copied as its formatted message and attributes, not
        # through __init__, which would format the message again.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class CertificateLevel(NamedTuple):
    """Exact bounds certifying that the chain extends past level i:
    the family dimension stays positive, the first Chern scalar stays
    positive, and (when asserted) the twice-descended second Chern
    scalar is large enough to force the next curve degree to 1."""

    level: int
    dim_bound: Fraction
    c1_margin: Fraction
    t2ch2_bound: Fraction
    t2ch2_asserted: bool


@dataclass(frozen=True)
class Certificate:
    theorem: str
    m: int
    mode: str
    per_level: tuple[CertificateLevel, ...]
    all_positive: bool


def _refuse_level(
    level: int, full: tuple[tuple[int, int], ...], closed: tuple[tuple[int, int], ...],
    at_actual: bool, t2_asserted: bool, t2_strict: bool,
) -> None:
    """Raise the refusal of a level whose integer checks failed.

    ``full`` and ``closed`` hold the (numerator, denominator > 0) pairs of
    dim_bound, c1_margin and t2ch2_bound and of their closed forms.  Every
    bound is checked against its closed form (equal to it, or at least it
    with ``at_actual``), then against its requirement: > 0, > 0, and for
    an asserted t2 > 1 (>= 1 unless ``t2_strict``); each pass runs in the
    order dim_bound, c1_margin, t2ch2_bound.
    """
    names = ("dim_bound", "c1_margin", "t2ch2_bound")
    bounds = [Fraction(n, d) for n, d in full]
    for name, value, (p, q) in zip(names, bounds, closed):
        form = Fraction(p, q)
        if at_actual and value < form:
            text = "actual-input value {} fell below the threshold-input value {}"
        elif not at_actual and value != form:
            text = "coefficient-sum route gives {}, closed expression gives {}"
        else:
            continue
        raise CertificateError(level, name, text.format(_text(value), _text(form)))
    rules = [(">", 0), (">", 0)]
    if t2_asserted:
        rules.append((">" if t2_strict else ">=", 1))
    for name, value, (rel, bound) in zip(names, bounds, rules):
        if value < bound or (value == bound and rel == ">"):
            raise CertificateError(
                level, name, f"bound {_text(value)} fails the requirement {rel} {bound}"
            )


def _row_bounds(
    table: CoeffTable, scaled: list[int], common: int, m: int, aside: bool
) -> Iterator[tuple[int, int, int, int, int, int]]:
    """Per level i = 1..m-1, r_1 and r_2 of chain member i - 1 and r_1 of
    member i (its top term left out when ``aside``), each summed against
    a row of ``table`` (``CoeffTable._descended``), as three pairs in one
    flat tuple."""
    for i in range(1, m):
        yield (
            *table._descended(i - 1, 1, scaled, common),
            *table._descended(i - 1, 2, scaled, common),
            *table._descended(i, 1, scaled[:i] if aside else scaled, common),
        )


def _moment_bounds(
    scaled: list[int], common: int, m: int, aside: bool
) -> Iterator[tuple[int, int, int, int, int, int]]:
    """The values of ``_row_bounds`` on an honest table, read off binomial
    moments with no row: one conversion, then one Pascal step per level.

    Member i's moments lambda_l are L_i(C(t, l)) over ``den``, so its r_1
    is lambda_1 and its r_2 = L_i(t^2)/2 is (2*lambda_2 + lambda_1)/2.
    The step gives member i's lambda_1 as lambda_1 + lambda_2 - den of
    member i - 1, so lambda_2 is read off the two r_1 and no moment past
    the first is indexed.  The top term of member i's r_1 is r_{i+1} =
    scaled[i]/((i+1)! * common).
    """
    moments, den = _binomial_moments(scaled, common)
    # Trailing zero moments are dropped, so a list may be empty.
    one = moments[0] if moments else 0
    fact = 1  # (i+1)!
    for i in range(1, m):
        moments = _pascal_step(moments, den, m - i)
        after = moments[0] if moments else 0
        # 2*lambda_2 + lambda_1 of member i - 1, with lambda_2 = after - one + den.
        t2 = 2 * (after + den) - one
        if aside:
            fact *= i + 1
            c1, c1_den = after * fact * common - scaled[i] * den, den * fact * common
        else:
            c1, c1_den = after, den
        yield one, den, t2, 2 * den, c1, c1_den
        one = after


def proof_trace(
    v: SplitChernVector,
    m: int,
    theorem: str,
    table: CoeffTable | None = None,
    at_actual: bool = False,
) -> Certificate:
    """Replay the inequality chain behind the named gate at levels 1..m-1.

    Every bound is a descended scalar (the sum of ``iterate_scalar``) of
    the threshold inputs, or of the vector's own scalars when
    ``at_actual``, and is checked against its closed form in the gate's
    total slope*m + base (m+1 for thm4, 2m+1 or 2m+2 for the thm5 pair).
    The closed forms are the threshold manifold's (see ``_Gate``): with
    r_1(n) the first Chern scalar of its chain's member n and delta = 1
    for a dyadic gate, level i has dimension bound r_1(i-1) - 2, t2
    bound (r_1(i-1) - 2*delta)/2 and c1 margin r_1(i), less
    total/(i+1)! when c1 keeps its top descent term aside.
    The inputs enter as power sums k! * x_k over one common denominator,
    once per certificate; at the thresholds these are the integers
    ``gate.bounds(m)``, over the denominator 1.
    Each bound and each closed form is an integer pair (numerator,
    denominator > 0); they are compared with each other and with the
    requirement by cross-multiplying, and each reported bound is one
    Fraction, three per level.  A level that fails any comparison is
    refused by ``_refuse_level``: the first failing level, and within it
    the closed forms before the requirements, each in the order
    dim_bound, c1_margin, t2ch2_bound.

    Which table gives the bounds: a table with a Bernoulli prefix sums
    rows (i-1, 1), (i-1, 2) and (i, 1) against the inputs at level i
    (``_row_bounds``).  An honest one (``table`` None or built without
    a prefix) is not touched: the inputs become binomial moments once
    and each level takes one Pascal step (``_moment_bounds``), O(m^2)
    operations in all and no row.  The two routes give equal values.
    Write L for the functional L(t^k) = k! * x_k and L_i for L after i
    Pascal steps; then L_i(f) = L(S^i f) - sum_{a<i} (S^a f)(1), where S
    is iterated summation, and (S^a t^j)(1) = 1, so L_i(t^j) = L(S^i
    t^j) - i, which is j! times the descended scalar of row (i, j).

    The gate is refused with the texts of ``check_hypotheses``, in the
    same order; whether it passes is decided by ``max_m`` without a second
    degree-by-degree pass, which is exact because the passing levels are
    closed downward.
    """
    gate = _checked_gate(v, m, theorem)
    _check_flag(at_actual, "at_actual")
    if m > max_m(v, theorem):
        raise ValueError(
            f"gate {theorem} fails for m = {m}; no certificate can be issued"
        )
    total = gate.slope * m + gate.base
    # The m inputs as power sums over one common denominator, shared by
    # every level; level i reads at most i + 1 <= m of them.
    if at_actual:
        scaled, common = _over_common(v.scalars[:m])
    else:
        scaled = list(islice(gate.bounds(m), m))
        common = 1
    delta = 1 if gate.dyadic else 0
    # The top descent term kept aside is a positive class on its own, so
    # positivity only needs the remaining sum, which reads the first i
    # inputs (a missing one counts as zero); its closed value is total/(i+1)!.
    aside = gate.c1_aside
    if _honest(table):
        bounds = _moment_bounds(scaled, common, m, aside)
    else:
        bounds = _row_bounds(table, scaled, common, m, aside)

    every, strict = gate.t2_every_level, gate.t2_strict
    levels = []
    fact = 1  # (i+1)!
    # r_1 of the threshold manifold's chain member i - 1, stepped by
    # 1 + delta per level to member i; the closed forms p/q of the
    # dimension and t2 bounds, (r_1(i-1) - 2)/1 and (r_1(i-1) - 2*delta)/2,
    # are read off it before the step.
    after = total - 2 * delta
    for i, (n, d, t2, t2_den, c1, c1_den) in enumerate(bounds, 1):
        dim_p, t2_p = after - 2, after - 2 * delta
        after -= 1 + delta
        if aside:
            fact *= i + 1
            c1_p, c1_q = fact * after - total, fact
        else:
            c1_p, c1_q = after, 1
        dim = n - 2 * d
        t2_asserted = every or i + 1 < m
        # Each bound against its closed form, cross-multiplied over positive
        # denominators (equal, or at least it with at_actual), and against
        # its requirement: a numerator against 0 or its denominator, where
        # t2 > 1 or >= 1 is t2 - t2_den >= strict.
        if at_actual:
            agrees = dim >= dim_p * d and c1 * c1_q >= c1_p * c1_den and 2 * t2 >= t2_p * t2_den
        else:
            agrees = dim == dim_p * d and c1 * c1_q == c1_p * c1_den and 2 * t2 == t2_p * t2_den
        if not (agrees and dim > 0 and c1 > 0 and (t2 - t2_den >= strict or not t2_asserted)):
            full = ((dim, d), (c1, c1_den), (t2, t2_den))
            closed = ((dim_p, 1), (c1_p, c1_q), (t2_p, 2))
            _refuse_level(i, full, closed, at_actual, t2_asserted, strict)
        dim_bound, c1_margin = _fraction(dim, d), _fraction(c1, c1_den)
        t2_bound = _fraction(t2, t2_den)
        levels.append(CertificateLevel(i, dim_bound, c1_margin, t2_bound, t2_asserted))
    mode = "actual" if at_actual else "threshold"
    return Certificate(theorem, m, mode, tuple(levels), all_positive=True)


def proof_trace_thm4(
    v: SplitChernVector,
    m: int,
    table: CoeffTable | None = None,
    at_actual: bool = False,
) -> Certificate:
    """Replay the inequality chain behind gate thm4 at levels 1..m-1.

    At each level the certificate checks, with exact arithmetic at the
    hypothesis thresholds (the proof's worst case):

    * family dimension bound  -(i-1) + sum_k c(i-1,1,k)(m+1)/k! - 2,
      which the weight identities collapse to m - i  (must be > 0);
    * first Chern margin  -i + (1 - 1/(i+1)!)(m+1)  (must be > 0);
    * twice-descended ch_2 bound  (m-i+2)/2  (must be > 1, which pins
      the next curve degree to 1).

    ``at_actual`` evaluates the same sums at the vector's own scalars
    instead; those values must dominate the threshold-mode ones.
    """
    return proof_trace(v, m, THM4, table, at_actual)


def proof_trace_thm5(
    v: SplitChernVector,
    m: int,
    strong: bool = False,
    table: CoeffTable | None = None,
    at_actual: bool = False,
) -> Certificate:
    """Replay the inequality chain behind gate thm5 at levels 1..m-1.

    Threshold-mode closed values are 2m-2i-1 for the dimension bound and
    the first Chern margin and (2m-2i-1)/2 for the twice-descended ch_2
    bound, asserted > 1 only while i+1 < m.  The strong gate shifts all
    three by the larger thresholds (2m-2i, 2m-2i, m-i) and asserts the
    ch_2 bound >= 1 at every level, which pins every curve degree to 1.
    """
    return proof_trace(v, m, _thm5(strong), table, at_actual)
