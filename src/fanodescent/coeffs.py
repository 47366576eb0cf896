"""Descent coefficients and the identities that pin them down.

The coefficient table expresses the degree-j Chern scalar of the i-th
iterated minimal family in terms of the Chern scalars of the starting
manifold (all curve degrees past the first step equal to 1).  Three
independent routes compute the same numbers:

* a Bernoulli convolution over the iteration depth i, filled bottom-up,
* closed forms as reciprocal sums over integer compositions (j = 1, 2),
* coefficients of a falling-factorial generating polynomial (j = 1, 2).

``verify_identities`` confronts the routes with each other and with the
scalar corollaries, reporting every mismatch as an exact rational
discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from typing import Sequence

from .exact import compositions, elementary_symmetric, extend_bernoulli

__all__ = [
    "Polynomial",
    "CoeffTable",
    "descent_coefficient",
    "ch1_coefficient_closed",
    "ch2_coefficient_closed",
    "composition_sum",
    "generating_polynomial",
    "Discrepancy",
    "IdentityCheck",
    "IdentityReport",
    "composition_symmetric_check",
    "verify_identities",
    "shared_table",
]


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored lowest degree first and normalized so the
    leading coefficient is nonzero; the zero polynomial is the empty
    tuple and has degree -1.  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coefficients: Sequence[Fraction | int] = ()):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of t^k (zero beyond the stored degree)."""
        if k < 0:
            raise ValueError(f"coefficient index must be >= 0, got {k}")
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for pos, c in enumerate(b):
            out[pos] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial | Fraction | int") -> "Polynomial":
        if isinstance(other, (Fraction, int)):
            return Polynomial([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for pos1, c1 in enumerate(self.coeffs):
            if c1 == 0:
                continue
            for pos2, c2 in enumerate(other.coeffs):
                out[pos1 + pos2] += c1 * c2
        return Polynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Fraction | int) -> "Polynomial":
        return Polynomial([c / scalar for c in self.coeffs])

    def evaluate(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Polynomial(0)"
        terms = [
            f"{c}*t^{pos}" if pos else str(c)
            for pos, c in enumerate(self.coeffs)
            if c != 0
        ]
        return "Polynomial(" + " + ".join(terms) + ")"


class CoeffTable:
    """Table of descent coefficients, filled bottom-up in integer rows.

    ``coefficient(i, j, k)`` is the weight of the degree-k Chern scalar
    of the starting manifold inside the degree-j Chern scalar of its
    i-th iterated minimal family, defined for 1 <= k <= i + j.  Depth
    i = 0 is the identity descent (weight 1 exactly when k = j), which
    keeps certificate replays uniform at the first level.

    Level i is built from level i - 1 alone: row j of level i is
    ``sum_{m=0}^{j} b_m * row(i-1, j+1-m)`` with the fixed weights
    ``b_m = (-1)^m B_m / m!``, rows padded with zeros to length i + j.
    Every level holds the rows 1..R for some R.  A read that misses at
    (i, j) extends the band below it, working upward from level 0: level
    i - d gets rows 1..j + d, which is exactly what row (i, j) pulls in.
    No step recurses, so depth is bounded by memory, not by the stack.

    A row is stored as integer numerators over one common denominator,
    reduced by one gcd pass; each term of a row costs one big-integer
    multiply-add per entry instead of a Fraction normalisation.  The
    Fraction entries of a row are built once, the first time the row is
    read, so reads are plain list indexing and return the same objects.

    Entries never change once computed, so threads may share a table
    for reads inside a band that is already filled; growing the band is
    not thread-safe.  The Bernoulli prefix may be overridden (used by
    the corruption hook in the command-line tool); lazily extended
    entries then follow consistently from the override.
    """

    def __init__(self, bernoulli: Sequence[Fraction] | None = None):
        self._bernoulli = [Fraction(b) for b in bernoulli] if bernoulli else [Fraction(1)]
        if self._bernoulli[0] != 1:
            raise ValueError("B_0 must be 1")
        # b_m as (numerator, denominator) pairs.
        self._weights: list[tuple[int, int]] = []
        # Per level, the rows 1..R as (numerators, common denominator).
        self._rows: list[list[tuple[list[int], int]]] = []
        # Per level, the same rows as Fractions, or None until first read.
        self._fractions: list[list[list[Fraction] | None]] = []

    def bernoulli_number(self, m: int) -> Fraction:
        return extend_bernoulli(self._bernoulli, m)[m]

    def coefficient(self, i: int, j: int, k: int) -> Fraction:
        if i < 0 or j < 1:
            raise ValueError(f"coefficient indices require i >= 0 and j >= 1, got ({i}, {j})")
        if not 1 <= k <= i + j:
            raise ValueError(f"k = {k} out of range [1, {i + j}] for (i, j) = ({i}, {j})")
        try:
            return self._fractions[i][j - 1][k - 1]
        except (IndexError, TypeError):
            return self._row(i, j)[k - 1]

    def _row(self, i: int, j: int) -> list[Fraction]:
        """Row (i, j) as Fractions, filling the band below it first."""
        self._fill(i, j)
        fractions = self._fractions[i]
        if fractions[j - 1] is None:
            nums, den = self._rows[i][j - 1]
            fractions[j - 1] = [Fraction(n, den) for n in nums]
        return fractions[j - 1]

    def _fill(self, i: int, j: int) -> None:
        """Give level i - d the rows 1..j + d for d = i, ..., 0."""
        while len(self._rows) <= i:
            self._rows.append([])
            self._fractions.append([])
        weights = self._weights
        if len(weights) <= i + j:
            extend_bernoulli(self._bernoulli, i + j)
            for m in range(len(weights), i + j + 1):
                b = (-1) ** m * self._bernoulli[m] / factorial(m)
                weights.append((b.numerator, b.denominator))
        level0 = self._rows[0]
        for r in range(len(level0) + 1, i + j + 1):
            level0.append(([0] * (r - 1) + [1], 1))
            self._fractions[0].append(None)
        for level in range(1, i + 1):
            prev, rows = self._rows[level - 1], self._rows[level]
            for r in range(len(rows) + 1, j + i - level + 1):
                rows.append(_convolve(weights, prev, r))
                self._fractions[level].append(None)


def _convolve(
    weights: list[tuple[int, int]], prev: list[tuple[list[int], int]], j: int
) -> tuple[list[int], int]:
    """Row j of a level from the rows of the level below, in lowest terms.

    Terms with a zero weight are skipped by value: under an overridden
    Bernoulli prefix the odd B_m for m >= 3 need not vanish.
    """
    terms = []
    common = 1
    for m in range(j + 1):
        num, den = weights[m]
        if num:
            row_nums, row_den = prev[j - m]
            scale = den * row_den
            # Pairwise: lcm(*generator) builds resized argument tuples,
            # which pile up in the interpreter's tuple free lists.
            common = lcm(common, scale)
            terms.append((num, scale, row_nums))
    # m = 0 has weight 1 and the full row length, so it seeds the sum.
    num, scale, row_nums = terms[0]
    factor = num * (common // scale)
    acc = [factor * n for n in row_nums]
    for num, scale, row_nums in terms[1:]:
        factor = num * (common // scale)
        acc[: len(row_nums)] = [a + factor * n for a, n in zip(acc, row_nums)]
    g = gcd(common, *acc)
    if g != 1:
        acc = [a // g for a in acc]
        common //= g
    return acc, common


_SHARED = CoeffTable()


def shared_table() -> CoeffTable:
    """The process-wide default coefficient table."""
    return _SHARED


def descent_coefficient(i: int, j: int, k: int, table: CoeffTable | None = None) -> Fraction:
    """Descent coefficient via the Bernoulli-convolution recursion."""
    return (table or _SHARED).coefficient(i, j, k)


@lru_cache(maxsize=None)
def composition_sum(k: int, n: int) -> Fraction:
    """Sum of 1/(l_1 * ... * l_k) over all compositions of n into k positive parts."""
    if not 1 <= k <= n:
        raise ValueError(f"composition_sum requires 1 <= k <= n, got ({k}, {n})")
    return sum((Fraction(1, prod(parts)) for parts in compositions(k, n)), Fraction(0))


@lru_cache(maxsize=None)
def ch1_coefficient_closed(i: int, k: int) -> Fraction:
    """Closed form for the degree-1 row: reciprocal sum over compositions of i+1."""
    if i < 1:
        raise ValueError(f"iteration depth must be >= 1, got {i}")
    if not 1 <= k <= i + 1:
        raise ValueError(f"k = {k} out of range [1, {i + 1}]")
    return composition_sum(k, i + 1)


@lru_cache(maxsize=None)
def ch2_coefficient_closed(i: int, k: int) -> Fraction:
    """Closed form for the degree-2 row: compositions of i+2 minus half those of i+1."""
    if i < 1:
        raise ValueError(f"iteration depth must be >= 1, got {i}")
    if not 1 <= k <= i + 2:
        raise ValueError(f"k = {k} out of range [1, {i + 2}]")
    value = composition_sum(k, i + 2)
    if k <= i + 1:
        value -= composition_sum(k, i + 1) / 2
    return value


def generating_polynomial(i: int, j: int) -> Polynomial:
    """Generating polynomial whose t^k coefficient times k! is the (i, j, k) coefficient.

    j = 1: t(t+1)...(t+i) / (i+1)!
    j = 2: t(t+1)...(t+i)(t + i/2) / (i+2)!
    """
    if i < 1:
        raise ValueError(f"iteration depth must be >= 1, got {i}")
    if j not in (1, 2):
        raise ValueError(f"generating polynomials exist only for j in {{1, 2}}, got {j}")
    poly = Polynomial([0, 1])
    for c in range(1, i + 1):
        poly = poly * Polynomial([c, 1])
    if j == 1:
        return poly / factorial(i + 1)
    return poly * Polynomial([Fraction(i, 2), 1]) / factorial(i + 2)


@dataclass(frozen=True)
class Discrepancy:
    """One failed exact equality: where, what was expected, what was found."""

    location: str
    expected: Fraction
    actual: Fraction

    @property
    def diff(self) -> Fraction:
        return self.actual - self.expected


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    discrepancies: tuple[Discrepancy, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.discrepancies


@dataclass(frozen=True)
class IdentityReport:
    i: int
    checks: tuple[IdentityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)

    def first_discrepancy(self) -> tuple[str, Discrepancy] | None:
        for check in self.checks:
            if check.discrepancies:
                return check.name, check.discrepancies[0]
        return None


def composition_symmetric_check(max_n: int) -> IdentityCheck:
    """Compare composition reciprocal sums with scaled elementary symmetric values.

    Checks composition_sum(k, n) == k!/n! * e_{n-k}(1, ..., n-1) for all
    1 <= k <= n <= max_n.  Enumeration cost grows as 2^(n-1).
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    found = []
    for n in range(1, max_n + 1):
        ladder = list(range(1, n))
        for k in range(1, n + 1):
            enumerated = composition_sum(k, n)
            symmetric = Fraction(factorial(k), factorial(n)) * elementary_symmetric(
                n - k, ladder
            )
            if enumerated != symmetric:
                found.append(Discrepancy(f"(k,n)=({k},{n})", symmetric, enumerated))
    return IdentityCheck("composition_symmetric_identity", tuple(found))


def _compare_row(
    name: str, pairs: list[tuple[str, Fraction, Fraction]]
) -> IdentityCheck:
    found = tuple(
        Discrepancy(loc, expected, actual)
        for loc, expected, actual in pairs
        if expected != actual
    )
    return IdentityCheck(name, found)


def verify_identities(i: int, table: CoeffTable | None = None) -> IdentityReport:
    """Run every exact identity available at iteration depth i.

    Confronts the recursion with the composition closed forms and the
    generating polynomials (j = 1, 2), checks the scalar corollaries
    (weighted sums at t = 1 and t = 2, top coefficients), and sweeps the
    composition/symmetric-function identity up to n = i + 2.  Nothing is
    thrown on failure; every mismatch is reported with its exact
    rational discrepancy.
    """
    if i < 1:
        raise ValueError(f"iteration depth must be >= 1, got {i}")
    tab = table or _SHARED
    checks: list[IdentityCheck] = []

    recursion_j1 = {k: tab.coefficient(i, 1, k) for k in range(1, i + 2)}
    recursion_j2 = {k: tab.coefficient(i, 2, k) for k in range(1, i + 3)}

    checks.append(
        _compare_row(
            "recursion_vs_composition_ch1",
            [
                (f"(i,j,k)=({i},1,{k})", ch1_coefficient_closed(i, k), recursion_j1[k])
                for k in range(1, i + 2)
            ],
        )
    )
    checks.append(
        _compare_row(
            "recursion_vs_composition_ch2",
            [
                (f"(i,j,k)=({i},2,{k})", ch2_coefficient_closed(i, k), recursion_j2[k])
                for k in range(1, i + 3)
            ],
        )
    )

    for j, coeffs in ((1, recursion_j1), (2, recursion_j2)):
        product_poly = generating_polynomial(i, j)
        summed = Polynomial(
            [Fraction(0)]
            + [coeffs[k] / factorial(k) for k in range(1, i + j + 1)]
        )
        checks.append(
            _compare_row(
                f"generating_polynomial_ch{j}",
                [
                    (
                        f"(i,j,k)=({i},{j},{k})",
                        product_poly.coefficient(k),
                        summed.coefficient(k),
                    )
                    for k in range(0, i + j + 1)
                ],
            )
        )

    sum_j1 = sum(recursion_j1[k] / factorial(k) for k in range(1, i + 2))
    sum_j1_at2 = sum(recursion_j1[k] * 2**k / factorial(k) for k in range(1, i + 2))
    sum_j2 = sum(recursion_j2[k] / factorial(k) for k in range(1, i + 3))
    sum_j2_at2 = sum(recursion_j2[k] * 2**k / factorial(k) for k in range(1, i + 3))
    checks.append(_compare_row("sum_weights_ch1", [(f"i={i}", Fraction(1), sum_j1)]))
    checks.append(
        _compare_row("sum_weights_ch1_at_2", [(f"i={i}", Fraction(i + 2), sum_j1_at2)])
    )
    checks.append(_compare_row("sum_weights_ch2", [(f"i={i}", Fraction(1, 2), sum_j2)]))
    checks.append(
        _compare_row(
            "sum_weights_ch2_at_2", [(f"i={i}", Fraction(i + 4, 2), sum_j2_at2)]
        )
    )
    checks.append(
        _compare_row(
            "top_coefficient_ch1",
            [(f"(i,j,k)=({i},1,{i + 1})", Fraction(1), recursion_j1[i + 1])],
        )
    )
    checks.append(
        _compare_row(
            "top_coefficient_ch2",
            [(f"(i,j,k)=({i},2,{i + 2})", Fraction(1), recursion_j2[i + 2])],
        )
    )
    checks.append(composition_symmetric_check(i + 2))
    return IdentityReport(i, tuple(checks))
