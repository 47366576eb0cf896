"""Descent coefficients and the identities that pin them down.

The coefficient table expresses the degree-j Chern scalar of the i-th
iterated minimal family in terms of the Chern scalars of the starting
manifold (all curve degrees past the first step equal to 1).  Three
independent routes compute the same numbers:

* a Bernoulli recursion over the iteration depth i, filled in integer
  columns, one Toeplitz step per depth,
* closed forms as reciprocal sums over integer compositions (j = 1, 2),
  tabulated by a dynamic programme over the last part,
* iterated summation: row (i, j) lists the coefficients of S^i(t^j),
  where S f(t) = sum_{x=1}^{t} f(x), in closed form through Stirling
  numbers and the hockey-stick identity; for j = 1, 2 this is the
  rising-factorial generating polynomial.

A ``CoeffTable`` holds its rows in the power-sum basis: it stores
c(i, j, k) * j!/k!, and a vector enters a descent sum as its scalars
k! * x_k.  For a manifold whose Chern roots are integers, k! * r_k is the
k-th Newton power sum of the roots, an integer (n + 1 for P^n,
n + 2 - 2^k for Q^n), so the rows are summed against small integers.
One rule picks a table's route: a table built with no Bernoulli prefix
computes each row it is asked for in closed form by iterated summation,
and a table built with a prefix fills every column by the Toeplitz
recursion.  The closed form holds only for the true Bernoulli numbers,
and it never computes one.  ``verify`` builds its table with the prefix
[1], so that the generating polynomials stay a second route there.  What
no single table owns is computed once per process and kept for its
life, each in one ``_Store``, a list that only grows by the next terms
of its recurrence: the factorials, the Bernoulli weights that a prefix
agreeing with the true numbers reads, and the closed route's inputs (the
rising products (t+1)...(t+d) and the surjection numbers
S2(j, l) * l!).

The closed route's two stores also convert power sums rho_k = k! * r_k
to binomial moments lambda_l = L(C(t, l)), where L(t^k) = rho_k, and
back: the rising products hold the Stirling numbers of the first kind,
the surjection numbers those of the second.  In that basis a descent step at
curve degree 1 needs no row at all; it is the Pascal step
lambda_l + lambda_{l+1} - [l = 1].  ``descend_chain`` walks a chain and
``proof_trace`` reads a certificate's bounds that way on an honest table
(``_honest``); every table with a prefix, and every other descent, reads
rows.

``verify_identities`` confronts the routes with each other and with the
scalar corollaries, reporting every mismatch as an exact rational
discrepancy.  Each route yields integer rows (numerators over one common
denominator), and every identity is decided by one integer test on two
such rows, by cross-multiplication or list equality; an identity that
holds shares one record, and a Fraction is built only for a mismatch,
the ordinary way, or for a public function's result, from its integer
pair by ``exact._fraction(num, den)``, which needs den > 0 and reduces
by one gcd.  A run over many depths builds what they share
once.  Every route is polynomial in the depth: nothing here enumerates
compositions, and the closed forms keep no cache between calls.
"""

from __future__ import annotations

import threading
from collections import UserList
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, islice, repeat, zip_longest
from math import factorial, gcd, lcm
from operator import add, floordiv, itemgetter, mul
from typing import Iterator, Sequence

from .exact import (
    _check_int,
    _check_sequence,
    _fraction,
    _shown,
    _symmetric_expansions,
    _text,
    as_rational,
    extend_bernoulli,
)

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


@dataclass(frozen=True)
class Polynomial:
    """Holder of a dense univariate polynomial's exact rational coefficients.

    Coefficients are stored lowest degree first and normalized so the
    leading coefficient is nonzero; the zero polynomial is the empty
    tuple and has degree -1.  There is no arithmetic:
    ``generating_polynomial`` builds one from integer numerators, and
    callers read its coefficients.
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coefficients: Sequence[Fraction | int] = ()):
        coeffs = [as_rational(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of t^k (zero beyond the stored degree)."""
        _check_int(k, 0, "coefficient index must be >= 0")
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Polynomial(0)"
        terms = [
            f"{c}*t^{pos}" if pos else str(c)
            for pos, c in enumerate(self.coeffs)
            if c != 0
        ]
        return "Polynomial(" + " + ".join(terms) + ")"


class _Store(UserList):
    """The terms t_0, t_1, ... of one running recurrence, in the plain list ``data``.

    ``upto(n)`` makes t_0..t_n available: it advances the store's
    generator under the store's own lock, so two threads never step one
    recurrence at once and each term is computed once.  Terms are only
    appended, each one whole, so a reader indexes any entry it sees
    without the lock; a hit is a length test and an index.  Hot readers
    index ``data`` itself: a plain list takes the interpreter's fast
    subscript path, which an instance of a list subclass does not.  A
    generator may read another store, never its own: the weights read
    ``_FACTORIALS``, which reads none.

    Every table ``coeffs`` keeps is one: ``_FACTORIALS``, ``_HONEST``
    (and the private weights of each overridden prefix), ``_RISING`` and
    ``_SURJECTIONS``.  A module-level store keeps every term it has
    reached for the life of the process.
    """

    def __init__(self, steps: Iterator):
        super().__init__()
        self._steps = steps
        self._lock = threading.Lock()

    def upto(self, n: int) -> None:
        terms = self.data
        if len(terms) <= n:
            with self._lock:
                terms.extend(islice(self._steps, max(0, n + 1 - len(terms))))


# m! for m = 0, 1, ...
_FACTORIALS = _Store(accumulate(count(1), mul, initial=1))


def _weight_terms(bernoulli: list[Fraction]) -> Iterator[tuple[Fraction, tuple[int, int], int]]:
    """(B_m, b_m, the lcm of the denominators of b_0..b_m) for m = 0, 1, ...

    B_m continues the prefix ``bernoulli``, which the generator owns, by
    ``extend_bernoulli``, so an overridden prefix extends consistently
    from itself; b_m = (-1)^m B_m / m! is the Toeplitz weight, as
    (numerator, denominator), and the lcm scales b_0..b_m to integers.
    """
    last = 1
    for m in count():
        extend_bernoulli(bernoulli, m)
        _FACTORIALS.upto(m)
        b = (-1) ** m * bernoulli[m] / _FACTORIALS.data[m]
        last = lcm(last, b.denominator)
        yield bernoulli[m], (b.numerator, b.denominator), last


# The true Bernoulli weights, shared by every table whose prefix agrees with them.
_HONEST = _Store(_weight_terms([Fraction(1)]))


def _surjection_rows() -> Iterator[list[int]]:
    """S2(j, l) * l!, l = 0..j, the surjections of a j-set onto an l-set, for j = 0, 1, ...

    Each row comes from the one before by F(j, l) = l * (F(j-1, l-1) +
    F(j-1, l)), so reaching row j costs O(j^2) small-integer operations
    once.
    """
    row = [1]
    while True:
        yield row
        row = list(map(mul, count(), map(add, [0, *row], [*row, 0])))


# The closed route's inputs, shared by every honest table, the identity pass,
# generating_polynomial and the binomial-moment conversions:
# _RISING[d] holds the coefficients of (t+1)...(t+d), t^0 first, and
# _SURJECTIONS[j] holds S2(j, l) * l! for l = 0..j.
_RISING = _Store(e[::-1] for e in _symmetric_expansions(count(1)))
_SURJECTIONS = _Store(_surjection_rows())


def _binomial_moments(scaled: Sequence[int], common: int) -> tuple[list[int], int]:
    """The binomial moments of the power sums ``scaled`` over ``common``.

    The power sums rho_k = k! * r_k, k = 1..n, define a functional L on
    polynomials without a constant term, L(t^k) = rho_k.  Its binomial
    moments are lambda_l = L(C(t, l)) = sum_{k<=l} s(l, k) * rho_k / l!
    for l = 1..n, where s(l, k) = (-1)^(l-k) * _RISING[l-1][k-1] is the
    signed Stirling number of the first kind.  Returns the moments as
    integer numerators over one denominator, reduced once by
    ``_reduced``, with trailing zeros dropped: P^n gives [n + 1] over 1
    and Q^n gives [n, -1] over 1.  O(n^2) multiply-adds.
    """
    n = len(scaled)
    _RISING.upto(n - 1)
    rising = _RISING.data
    # (-1)^k * rho_k, so that moment l sums the unsigned _RISING[l-1] against it.
    alternating = [-r if k % 2 else r for k, r in enumerate(scaled, 1)]
    nums, scale = [], 1
    for l in range(n, 0, -1):
        # Over the denominator n! * common: l! * lambda_l times n!/l!.
        total = scale * sum(map(mul, rising[l - 1], alternating))
        nums.append(-total if l % 2 else total)
        scale *= l
    nums.reverse()
    while nums and not nums[-1]:
        nums.pop()
    return _reduced(nums, scale * common)


def _pascal_step(moments: Sequence[int], den: int, d: int) -> list[int]:
    """One descent step at curve degree 1 to a dimension-d family, on binomial moments.

    The descended functional is L'(f) = L(S f) - f(1): summation sends
    C(t, l) to C(t+1, l+1) = C(t, l+1) + C(t, l), and the -1/j! of each
    descended scalar is -f(1), which is [l = 1] for f = C(t, l).  So
    lambda'_l = lambda_l + lambda_{l+1} - [l = 1] for l = 1..d, over the
    same denominator; it reads lambda_1..lambda_{d+1}, and ``moments``
    may stop early at its last nonzero entry.  Trailing zeros are
    dropped again.  O(d).
    """
    stepped = list(map(add, moments[:d], [*moments[1 : d + 1], 0]))
    stepped[0] -= den
    while stepped and not stepped[-1]:
        stepped.pop()
    return stepped


def _power_sums(moments: Sequence[int], top: int) -> list[int]:
    """rho_k = sum_{l<=k} S2(k, l) * l! * lambda_l for k = 1..top, over the moments' denominator.

    The inverse of ``_binomial_moments``, summed by columns of
    ``_SURJECTIONS``.  Column 1 is all ones, so the sums start as
    lambda_1; each further nonzero moment lambda_l, l <= top, adds
    lambda_l times column l, rows l..top, in one pass.  A zero moment
    costs nothing, and ``_SURJECTIONS`` is read only when a moment past
    the first is stored: P^n ([n + 1]) takes no pass and Q^n ([n, -1])
    one, while a dense vector still costs about top^2 / 2 multiply-adds.
    """
    sums = [moments[0] if moments else 0] * top
    if len(moments) > 1:
        _SURJECTIONS.upto(top)
        # Rows top..1 and the sums from rho_top down, so that rows l..top
        # are a prefix: the pass reads the sums in place and stops at the
        # column's end, and the slice is assigned once the pass is done.
        rows = _SURJECTIONS.data[top:0:-1]
        for l in range(2, min(len(moments), top) + 1):
            moment = moments[l - 1]
            if moment:
                column = map(itemgetter(l), rows[: top - l + 1])
                sums[: top - l + 1] = map(add, sums, map(mul, column, repeat(moment)))
        sums.reverse()
    return sums


class CoeffTable:
    """Table of descent coefficients, held in integer columns, one per degree j.

    ``coefficient(i, j, k)`` is the weight of the degree-k Chern scalar
    of the starting manifold inside the degree-j Chern scalar of its
    i-th iterated minimal family, defined for 1 <= k <= i + j.  Depth
    i = 0 is the identity descent (weight 1 exactly when k = j), which
    keeps certificate replays uniform at the first level.

    The table stores rows in the power-sum basis: row (i, j) holds
    ``c^(i, j, k) = c(i, j, k) * j!/k!`` for k = 1..i+j, the weight of
    k! * x_k inside j! * y_j.  It keeps one column of rows per j, a list
    indexed by depth that starts with the unit row at depth 0; a read
    that misses at (i, j) touches column j only.  No step recurses, so
    depth is bounded by memory, not by the stack.  Whether a Bernoulli
    prefix was given picks the route, for every column alike:

    * Closed (no prefix: an honest table).  Row (d, j) is the list of
      t^k coefficients of S^d(t^j), where S f(t) = sum_{x=1}^{t} f(x):
      t(t+1)...(t+d) times a degree j - 1 polynomial G over (d+j)!, with
      G built from the surjection numbers S2(j, l) * l! (see
      ``_generating_numerators``).  No earlier row enters, so a miss
      computes row (d, j) alone into its slot, and the column holds
      None at the depths nobody read.  The rising products (t+1)...(t+d)
      and the surjection numbers are shared by every honest table in the
      process, each grown by one step of its recurrence, so a cold row
      costs O(j^2) small operations for G and O(min(d, j) * (d + j))
      big-integer operations for the product; for j = 1, 2, G is 1 and
      2t + d, and a row costs O(d).  A cold read of one row at depth d
      thus costs one row, not the d rows above it.  No Bernoulli number
      is computed.
    * Toeplitz (a prefix was given: the corruption hook's override, or
      the prefix [1] of ``verify``, so that its generating polynomial
      check confronts two routes).  Depth i is depth i - 1 followed by
      one more step, so a miss extends column j from its deepest row to
      depth i; the step is the Toeplitz matrix of the weights
      ``b_m = (-1)^m B_m / m!``:
      ``c(i, j, k) = sum_l c(i-1, j, l) * b_{l+1-k}``.  The previous row
      is scaled by l!/j! into the c basis, the step is taken there, and
      the result is scaled back by j!/k!; the two scalings are O(d)
      passes around the step.  The step to depth d costs about
      (d + j)^2 / 2 big-integer multiply-adds, so a column grown from
      depth 0 to depth i costs about ((i + j)^3 - j^3) / 6.  Weights
      enter by value (zero weights add nothing), so an overridden
      Bernoulli prefix whose odd B_m do not vanish is followed exactly.

    Both routes store a row as integer numerators over one common
    denominator, reduced by one gcd pass (``_reduced``); that form is
    unique, so the two routes store identical rows.  A vector of
    rational scalars x_k enters as k! * x_k over their least common
    denominator, computed once (``_over_common``); ``dot``, every
    descended scalar and every certificate bound sum a row against
    those integers into one unreduced integer pair (``_descended``),
    which a reported value turns into one Fraction by
    ``exact._fraction`` (the denominator is positive, so one gcd
    reduces it) and a comparison cross-multiplies, so a descended
    scalar costs about i + j multiply-adds of a row entry by a vector
    entry.
    For the catalogue manifolds the vector's denominator is 1 and its
    entries have a few bits, so the cost lies in the row entries: row
    (1, 64) holds numerators of up to 150 bits over a 19-bit
    denominator, where the same row in the c basis has a 313-bit common
    denominator and P^64 over its own one a 290-bit one.  The Fraction
    entries that ``coefficient`` returns are converted back to the c
    basis once per row, the first time the row is read that way, so
    repeated reads return the same objects.

    The true Bernoulli numbers and their weights are computed once per
    process, in the shared store ``_HONEST``, and so are the factorials
    and the closed route's inputs.  A table whose prefix agrees with the
    true Bernoulli numbers reads ``_HONEST``, and so does
    ``bernoulli_number`` of a table without a prefix; a table with an
    overridden prefix keeps a private store, extended lazily and
    consistently from the override, and never writes into the shared
    one.  Entries never change once computed, so threads may share a
    table for reads of rows that already exist; growing a column of one
    table is not thread-safe.  Tables in different threads may grow
    their columns at once: each shared store grows under its own lock
    (see ``_Store``).
    """

    def __init__(self, bernoulli: Sequence[Fraction] | None = None):
        self._weights = _HONEST
        # No prefix: the closed route; a prefix: the Toeplitz route.
        self._closed = bernoulli is None
        if not self._closed:
            _check_sequence(bernoulli, "bernoulli")
            prefix = [as_rational(b) for b in bernoulli]
            if not prefix or prefix[0] != 1:
                raise ValueError("B_0 must be 1")
            # A prefix that agrees with the true Bernoulli numbers reads the shared store.
            if prefix != extend_bernoulli([Fraction(1)], len(prefix) - 1):
                self._weights = _Store(_weight_terms(prefix))
        # Per j, the rows (0, j), (1, j), ... as (numerators, common denominator);
        # a closed column holds None at the depths not read yet.
        self._columns: dict[int, list[tuple[list[int], int] | None]] = {}
        # Per (i, j), the row as Fractions, built on its first coefficient read.
        self._fractions: dict[tuple[int, int], list[Fraction]] = {}

    def bernoulli_number(self, m: int) -> Fraction:
        self._weights.upto(m)
        return self._weights.data[m][0]

    def coefficient(self, i: int, j: int, k: int) -> Fraction:
        _check_indices(i, j)
        _check_k(k, i + j, f" for (i, j) = {_shown((i, j))}")
        try:
            return self._fractions[i, j][k - 1]
        except KeyError:
            nums, den = self._row(i, j)
            # c(i, j, k) = c^(i, j, k) * k!/j!.
            den *= factorial(j)
            facts = accumulate(range(1, len(nums) + 1), mul)
            row = self._fractions[i, j] = [_fraction(n * f, den) for n, f in zip(nums, facts)]
            return row[k - 1]

    def dot(self, i: int, j: int, x: Sequence[Fraction]) -> Fraction:
        """sum_{k=1}^{i+j} c(i, j, k) * x[k-1], as one Fraction.

        ``x`` must hold at least i + j rational scalars (floats and bools
        are refused); later ones are ignored.  The scalars are brought
        over one common denominator once, as k! * x[k-1], and summed
        against the row's integer numerators, so no Fraction is built per
        term.
        """
        return _fraction(*self._descended(i, j, *_row_scalars(i, j, x), shifted=False))

    def _descended(
        self, i: int, j: int, scaled: Sequence[int], common: int, shifted: bool = True
    ) -> tuple[int, int]:
        """-i/j! + sum_{k=1}^{i+j} c(i, j, k) * x_k, as an unreduced pair.

        The kernel behind every descended scalar and every certificate
        bound.  ``scaled`` holds the power sums k! * x_k as integer
        numerators over ``common`` (see ``_over_common``); entries past
        i + j are ignored and missing ones count as zero.  Since
        c(i, j, k) * x_k = c^(i, j, k) * (k! * x_k) / j!, the sum runs in
        integers against the stored row.  The result is the pair
        (numerator, denominator), denominator > 0, not reduced: a caller
        that reports a scalar builds ``_fraction(*pair)``, one that only
        compares cross-multiplies.  The -i/j! term is left out unless
        ``shifted``.  Nothing is checked: callers pass valid indices and
        enough numerators.
        """
        nums, den = self._row(i, j)
        total = sum(map(mul, nums, scaled))
        den *= common
        if shifted:
            total -= i * den
        return total, factorial(j) * den

    def _row(self, i: int, j: int) -> tuple[list[int], int]:
        """Row (i, j) in integers, computed on its first read."""
        column = self._columns.get(j)
        if column is None:
            column = self._columns[j] = [([0] * (j - 1) + [1], 1)]
        if len(column) > i and (row := column[i]) is not None:
            return row
        if self._closed:
            # Iterated summation needs no earlier row of the column.
            column += [None] * (i + 1 - len(column))
            row = column[i] = _generating_numerators(i, j)
            return row
        # Growing the weights grows _FACTORIALS at least as far.
        self._weights.upto(i + j - 1)
        terms, facts = self._weights.data, _FACTORIALS.data
        # (i+j)!/k! at position k - 1, the first being (i+j)!.
        to_hat = list(accumulate(range(i + j, 1, -1), mul, initial=1))[::-1]
        for depth in range(len(column), i + 1):
            prev, prev_den = column[-1]
            # prev holds l = 1..top; times l! it is c(depth-1, j, l) over
            # prev_den * j!.  Row entry k sums c(depth-1, j, l) * b_{l+1-k}.
            top = depth - 1 + j
            scale = terms[top][2]
            w = [num * (scale // den) for _, (num, den), _ in terms[: top + 1]]
            prev = list(map(mul, prev, islice(facts, 1, None)))
            nums = [sum(map(mul, prev, w[1:]))]
            nums += [sum(map(mul, prev[start:], w)) for start in range(top)]
            # Entry k is c(depth, j, k) over prev_den * j! * scale; times
            # j!/k! it is nums[k-1] * (i+j)!/k! over prev_den * scale * (i+j)!.
            nums = list(map(mul, nums, to_hat))
            column.append(_reduced(nums, prev_den * scale * to_hat[0]))
        return column[i]


def _honest(table: CoeffTable | None) -> bool:
    """Whether ``table`` is honest: the default (None) or built without a
    Bernoulli prefix, so that its rows are the closed ones.

    Callers read descended scalars at curve degree 1 off binomial
    moments (``_binomial_moments``, ``_pascal_step``) on an honest table
    and never touch it; a table with a prefix is read row by row, so an
    overridden prefix is followed exactly.
    """
    return table is None or table._closed


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    """``(nums, den)`` divided by the gcd of den and every numerator; den > 0."""
    # One gcd per entry: a gcd(den, *nums) call leaves its argument tuple
    # in the interpreter's tuple free lists, so a long run's memory creeps.
    # From the last entry: on the closed route that is G's leading
    # coefficient j!, small next to the others, which share most of the
    # factors of the denominator (i+j)!.
    g = den
    for a in reversed(nums):
        g = gcd(g, a)
        if g == 1:
            return nums, den
    return [a // g for a in nums], den // g


_INDICES = "coefficient indices require i >= 0 and j >= 1"
_DEPTH = "iteration depth must be >= 1"


def _check_indices(i: int, j: int) -> None:
    _check_int(i, 0, _INDICES, (i, j))
    _check_int(j, 1, _INDICES, (i, j))


def _check_k(k: int, top: int, where: str = "") -> None:
    """Refuse k unless it is an int in [1, top]; an int out of range says so."""
    if type(k) is int and not 1 <= k <= top:
        raise ValueError(f"k = {_text(k)} out of range [1, {_text(top)}]{where}")
    _check_int(k, 1, f"k must be an int in [1, {_text(top)}]{where}")


def _over_common(x: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """The power sums k! * x[k-1], k = 1, 2, ..., over their least common denominator.

    The one place a vector enters the power-sum basis that the table's
    rows are stored in; floats and bools are refused as by
    ``as_rational``.  Returns the integer numerators and the common
    denominator, which is 1 for every catalogue manifold.
    """
    nums, dens = [], []
    common = fact = 1
    for k, v in enumerate(x, 1):
        v = as_rational(v)
        fact *= k
        den = v.denominator
        q, r = divmod(fact, den)
        if r:
            # k! * x_k is not an integer; its denominator is den / gcd(k!, den).
            g = gcd(fact, den)
            q, den = fact // g, den // g
            # A two-argument call: lcm(*dens) would leave its argument tuple
            # in the interpreter's tuple free lists, so memory would creep.
            common = lcm(common, den)
        else:
            den = 1
        nums.append(v.numerator * q)
        dens.append(den)
    if common == 1:
        return nums, 1
    return [n * (common // d) for n, d in zip(nums, dens)], common


def _row_scalars(i: int, j: int, x: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """The i + j scalars that row (i, j) reads from ``x``, over one denominator.

    Checks the indices, that ``x`` is not a str or bytes, and that it
    holds at least i + j scalars.
    """
    _check_indices(i, j)
    _check_sequence(x, "x")
    n = i + j
    if len(x) < n:
        raise IndexError(f"row {_shown((i, j))} needs {_text(n)} scalars, got {len(x)}")
    return _over_common(x[:n])


_SHARED = CoeffTable()


def shared_table() -> CoeffTable:
    """The process-wide default coefficient table."""
    return _SHARED


def descent_coefficient(i: int, j: int, k: int, table: CoeffTable | None = None) -> Fraction:
    """Descent coefficient via the Bernoulli-convolution recursion."""
    return (table or _SHARED).coefficient(i, j, k)


def _composition_rows(max_n: int) -> list[list[int]]:
    """rows[n][k] = n! * S(k, n) for 0 <= k <= n <= max_n, without enumeration.

    S(k, n) is the sum of 1/(l_1 * ... * l_k) over the compositions of n
    into k positive parts.  Splitting off the last part l gives
    S(k, n) = sum_{l=1}^{n-k+1} S(k-1, n-l) / l, from S(0, 0) = 1 and
    S(0, n) = 0 for n >= 1.  The recurrence runs on the integers
    n! * S(k, n), where 1/l becomes the integer weight
    n! / ((n-l)! * l) = n(n-1)...(n-l+1) / l, so each of the O(max_n^3)
    terms is one big-integer multiply-add instead of a Fraction
    normalisation.  The table is also kept by columns: column k holds
    m! * S(k, m) for m = k, k+1, ... (column 0 holds S(0, m) from m = 0),
    so entry (n, k) is one ``sum(map(mul, ...))`` of the weights against
    column k - 1 read from its last entry back.  Neither the Bernoulli
    numbers nor the elementary symmetric values enter.  Row n is thus
    S(., n) over the denominator n!.
    """
    rows, columns = [[1]], [[1]]
    for n in range(1, max_n + 1):
        # weights[l-1] = n(n-1)...(n-l+1) / l for l = 1..n.
        weights = list(map(floordiv, accumulate(range(n, 0, -1), mul), count(1)))
        # Column k - 1 holds m = k-1..n-1, so its reversal pairs part l with m = n - l.
        row = [sum(map(mul, weights, reversed(column))) for column in columns]
        columns[0].append(0)
        for column, entry in zip(columns[1:], row):
            column.append(entry)
        columns.append(row[-1:])
        rows.append([0, *row])
    return rows


def _closed_row(rows: list[list[int]], i: int, j: int) -> tuple[list[int], int]:
    """Closed-form row (i, j), k = 1..i+j, as numerators over one denominator.

    j = 1: S(k, i+1).  j = 2: S(k, i+2) - S(k, i+1)/2, the second term
    vanishing at k = i + 2; over 2 * (i+2)! its numerator is
    2 * rows[i+2][k] - (i+2) * rows[i+1][k].
    """
    if j == 1:
        return rows[i + 1][1:], factorial(i + 1)
    nums = [2 * a - (i + 2) * b for a, b in zip(rows[i + 2][1:], [*rows[i + 1][1:], 0])]
    return nums, 2 * factorial(i + 2)


def composition_sum(k: int, n: int) -> Fraction:
    """Sum of 1/(l_1 * ... * l_k) over all compositions of n into k positive parts.

    Each call rebuilds the composition table to n, O(n^3) big-integer
    operations, and keeps nothing: reading every k of one n this way
    costs O(n^4).
    """
    rule = "composition_sum requires 1 <= k <= n"
    _check_int(k, 1, rule, (k, n))
    _check_int(n, k, rule, (k, n))
    return _fraction(_composition_rows(n)[n][k], factorial(n))


def ch1_coefficient_closed(i: int, k: int) -> Fraction:
    """Closed form for the degree-1 row: reciprocal sum over compositions of i+1.

    Each call rebuilds the composition table to i + 1, O(i^3) big-integer
    operations, and keeps nothing: reading the whole row one k at a time
    costs O(i^4).
    """
    _check_int(i, 1, _DEPTH)
    _check_k(k, i + 1)
    nums, den = _closed_row(_composition_rows(i + 1), i, 1)
    return _fraction(nums[k - 1], den)


def ch2_coefficient_closed(i: int, k: int) -> Fraction:
    """Closed form for the degree-2 row: compositions of i+2 minus half those of i+1.

    Each call rebuilds the composition table to i + 2, O(i^3) big-integer
    operations, and keeps nothing: reading the whole row one k at a time
    costs O(i^4).
    """
    _check_int(i, 1, _DEPTH)
    _check_k(k, i + 2)
    nums, den = _closed_row(_composition_rows(i + 2), i, 2)
    return _fraction(nums[k - 1], den)


def _generating_numerators(i: int, j: int) -> tuple[list[int], int]:
    """S^i(t^j), from t^1, as reduced integer numerators over one denominator.

    This is row (i, j) of an honest table, the closed route; it holds
    only for the true Bernoulli numbers.  S f(t) = sum_{x=1}^{t} f(x),
    and S^i(t^j) is j! times generating polynomial (i, j): its t^k
    coefficient is c^(i, j, k) = c(i, j, k) * j!/k!, for k = 1..i+j (the
    t^0 coefficient is 0).  With t^j = sum_l S2(j, l) l! C(t, l) and the
    hockey-stick identity S^i C(t, l) = C(t+i, l+i),

        S^i(t^j) = t(t+1)...(t+i) * G(t) / (i+j)!,
        G(t) = sum_{l=1}^{j} S2(j, l) l! (i+j)!/(i+l)! (t-1)(t-2)...(t-l+1).

    The two inputs are read from the shared store, grown first if
    needed: ``_RISING[i]``, the coefficients of (t+1)...(t+i), t^0 first,
    that is e_i, ..., e_0 of 1, ..., i, and ``_SURJECTIONS[j]``, S2(j, l) *
    l! for l = 0..j.  G is expanded by Horner in the Newton basis, O(j^2)
    operations; it is 1 for j = 1 and 2t + i for j = 2.  The product
    runs Horner over the shorter factor, O(min(i, j) * (i + j))
    operations, so a row of j = 1, 2 costs O(i).  No earlier row is
    needed.
    """
    rising, surjection_rows = _RISING.data, _SURJECTIONS.data
    if len(rising) <= i or len(surjection_rows) <= j:
        _RISING.upto(i)
        _SURJECTIONS.upto(j)
    shifted, surjections = rising[i], surjection_rows[j]
    g, scale = [surjections[j]], 1
    for l in range(j - 1, 0, -1):
        # scale = (i+j)!/(i+l)!; g <- g * (t - l) + S2(j, l) l! * scale.
        scale *= i + l + 1
        g.append(0)
        g = [a - l * b for a, b in zip([surjections[l] * scale, *g], g)]
    # (t+1)...(t+i) is monic, so by Gauss's lemma the product's content is
    # G's: reducing G against (i+j)! reduces the whole row.
    g, den = _reduced(g, factorial(i + j))
    # Horner over the shorter factor, whose leading coefficient enters the
    # first step.  A one-entry factor is [1] (G for j = 1, the empty product
    # for i = 0), so then the row is the other factor itself.
    a = shifted
    if len(a) < len(g):
        a, g = g, a
    row, lead = a, g[-1]
    for c in g[-2::-1]:
        row = [c * x + lead * y for x, y in zip_longest(a, [0, *row], fillvalue=0)]
        lead = 1
    return row, den


def generating_polynomial(i: int, j: int) -> Polynomial:
    """Generating polynomial whose t^k coefficient times k! is the (i, j, k) coefficient.

    j = 1: t(t+1)...(t+i) / (i+1)!
    j = 2: t(t+1)...(t+i)(t + i/2) / (i+2)!
    """
    _check_int(i, 1, _DEPTH)
    rule = "generating polynomials exist only for j in {1, 2}"
    _check_int(j, 1, rule)
    if j > 2:
        raise ValueError(f"{rule}, got {_text(j)}")
    nums, den = _generating_numerators(i, j)
    den *= factorial(j)
    return Polynomial([0, *(_fraction(n, den) for n in nums)])


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


_SYMMETRIC = "composition_symmetric_identity"

# The record of each identity of one depth that holds, in report order, the
# symmetric one last.  Each is shared by every report: records compare by
# value, so sharing one is invisible.
_HOLDING = tuple(map(IdentityCheck, (
    "recursion_vs_composition_ch1",
    "recursion_vs_composition_ch2",
    "generating_polynomial_ch1",
    "generating_polynomial_ch2",
    "sum_weights_ch1",
    "sum_weights_ch1_at_2",
    "sum_weights_ch2",
    "sum_weights_ch2_at_2",
    "top_coefficient_ch1",
    "top_coefficient_ch2",
    _SYMMETRIC,
)))
# Where a depth's mismatch lies, formatted with an identity's ``at`` and then
# the mismatch's position p: (i, j) and p = k, (i, j, k) alone, or i alone.
_AT_K, _AT_I = "(i,j,k)=({},{},{})", "i={}"
# A row as (numerators, denominator), and a scalar as (numerator, denominator).
_IntRow, _Int = tuple[list[int], int], tuple[int, int]


def _compare(
    name: str, where: str, at: tuple[int, ...], expected: _IntRow, actual: _IntRow
) -> IdentityCheck:
    """The record of an identity that failed its integer test.

    Both sides are exact rows, each integer numerators over one
    denominator, and they must have the same length (else ValueError).
    Entries are compared by cross-multiplying integers, and each
    mismatch, at 1-based position p, is reported in the order of the row
    at ``where.format(*at, p)``, with both values as Fractions.  Only a
    failing identity comes here, so a location text or a Fraction is
    built only for a failure.
    """
    (expected_nums, expected_den), (actual_nums, actual_den) = expected, actual
    found = tuple(
        Discrepancy(where.format(*at, p), Fraction(e, expected_den), Fraction(a, actual_den))
        for p, (e, a) in enumerate(zip(expected_nums, actual_nums, strict=True), 1)
        if e * actual_den != a * expected_den
    )
    return IdentityCheck(name, found)


def _row_identity(
    held: IdentityCheck, at: tuple[int, int], expected: _IntRow, actual: _IntRow
) -> IdentityCheck:
    """An identity between two rows at (i, j) = ``at``: equal lengths and equal cross products."""
    (expected_nums, expected_den), (actual_nums, actual_den) = expected, actual
    if len(expected_nums) == len(actual_nums):
        cross = list(map(mul, actual_nums, repeat(expected_den)))
        if list(map(mul, expected_nums, repeat(actual_den))) == cross:
            return held
    return _compare(held.name, _AT_K, at, expected, actual)


def _scalar_identity(
    held: IdentityCheck, where: str, at: tuple[int, ...], expected: _Int, actual: _Int
) -> IdentityCheck:
    """An identity between two scalars, each (numerator, denominator): equal cross products."""
    (expected_num, expected_den), (actual_num, actual_den) = expected, actual
    if expected_num * actual_den == actual_num * expected_den:
        return held
    sides = ([expected_num], expected_den), ([actual_num], actual_den)
    return _compare(held.name, where, at, *sides)


class _IdentityPass:
    """What every depth of one identity run shares, built once up to n = top.

    Holds the composition rows n! * S(k, n) for n <= top and the outcome
    of the composition/symmetric identity
    n! * S(k, n) == k! * e_{n-k}(1, ..., n-1) at every 1 <= k <= n <= top.
    Both sides of size n lie over n!, so the identity holds at n exactly
    when the two integer rows are equal lists.  The values
    e_{n-k}(1, ..., n-1) are the coefficients of (t+1)...(t+n-1), read
    from the process-wide store ``_RISING`` that the generating
    polynomials also read, and the factorials through top are read from
    ``_FACTORIALS``.  ``report(i)`` for i <= top - 2 and
    ``symmetric_check(n)`` for n <= top only read them and the table's
    integer rows, so a run over all depths is O(top^3) exact operations
    besides the coefficient table.

    Every route is an integer row (numerators, denominator) or scalar,
    and every identity is decided by one integer test, one per kind:
    list equality for the symmetric identity, cross products for a row
    identity (``_row_identity``) and for a scalar one
    (``_scalar_identity``).  An identity that holds is its shared record
    in ``_HOLDING``; only one that fails goes through ``_compare``, which
    places and values each mismatch.
    """

    def __init__(self, top: int):
        _FACTORIALS.upto(top)
        self.rows = _composition_rows(top)
        _RISING.upto(top - 1)
        # 2^k for k = 1..top, to sum a row at t = 2.
        self._twos = list(accumulate(repeat(2, top), mul))
        self._symmetric: list[Discrepancy] = []
        # _symmetric_upto[n]: the number of discrepancies at sizes <= n.
        self._symmetric_upto = [0]
        facts, rising = _FACTORIALS.data, _RISING.data
        for n in range(1, top + 1):
            symmetric = list(map(mul, islice(facts, 1, None), rising[n - 1]))
            composition = self.rows[n][1:]
            if symmetric != composition:
                sides = (symmetric, facts[n]), (composition, facts[n])
                check = _compare(_SYMMETRIC, "(k,n)=({1},{0})", (n,), *sides)
                self._symmetric += check.discrepancies
            self._symmetric_upto.append(len(self._symmetric))

    def symmetric_check(self, max_n: int) -> IdentityCheck:
        """The composition/symmetric identity for 1 <= k <= n <= max_n."""
        upto = self._symmetric_upto[max_n]
        return IdentityCheck(_SYMMETRIC, tuple(self._symmetric[:upto])) if upto else _HOLDING[-1]

    def report(self, i: int, table: CoeffTable) -> IdentityReport:
        """Every identity at depth i, the symmetric one through n = i + 2."""
        facts = _FACTORIALS.data
        # The table's rows c^(i, j, k) = c(i, j, k) * j!/k!.  Over den * j!
        # they are c(i, j, k)/k!, the t^k coefficients of
        # sum_k c(i, j, k) t^k / k!; times k! they are c(i, j, k), the basis
        # the closed forms and every reported discrepancy are in.
        series, recursion = [], []
        for j in (1, 2):
            nums, den = table._row(i, j)
            series.append((nums, den * facts[j]))
            recursion.append((list(map(mul, nums, islice(facts, 1, None))), den * facts[j]))
        # The identities are decided in report order, each with its shared record.
        held = iter(_HOLDING)
        checks = [
            _row_identity(next(held), (i, j), _closed_row(self.rows, i, j), recursion[j - 1])
            for j in (1, 2)
        ]
        for j in (1, 2):
            # The t^k coefficient of the generating polynomial S^i(t^j)/j!
            # against c(i, j, k)/k! = c^(i, j, k)/j!, for k = 1..i+j.
            product, den = _generating_numerators(i, j)
            generating = product, den * facts[j]
            checks.append(_row_identity(next(held), (i, j), generating, series[j - 1]))
        for j in (1, 2):
            # The generating polynomial is 1/j! at t = 1 and (i + 2^j)/j! at t = 2.
            nums, den = series[j - 1]
            for closed, total in ((1, sum(nums)), (i + 2**j, sum(map(mul, nums, self._twos)))):
                sides = (closed, facts[j]), (total, den)
                checks.append(_scalar_identity(next(held), _AT_I, (i,), *sides))
        for j in (1, 2):
            nums, den = recursion[j - 1]
            sides = (1, 1), (nums[-1], den)
            checks.append(_scalar_identity(next(held), _AT_K, (i, j, i + j), *sides))
        checks.append(self.symmetric_check(i + 2))
        return IdentityReport(i, tuple(checks))


def composition_symmetric_check(max_n: int) -> IdentityCheck:
    """Compare composition reciprocal sums with scaled elementary symmetric values.

    Checks composition_sum(k, n) == k!/n! * e_{n-k}(1, ..., n-1) for all
    1 <= k <= n <= max_n.  Both sides are O(max_n^3) exact operations.
    """
    _check_int(max_n, 1, "max_n must be >= 1")
    return _IdentityPass(max_n).symmetric_check(max_n)


def verify_identities(i: int, table: CoeffTable | None = None) -> IdentityReport:
    """Run every exact identity available at iteration depth i.

    Confronts the recursion with the composition closed forms and the
    generating polynomials (j = 1, 2), checks the scalar corollaries
    (weighted sums at t = 1 and t = 2, top coefficients), and sweeps the
    composition/symmetric-function identity up to n = i + 2.  Nothing is
    thrown on failure; every mismatch is reported with its exact
    rational discrepancy.

    Without ``table`` the rows come from a fresh table given the true
    prefix [1], which takes the Toeplitz route.  An honest
    ``CoeffTable()`` passed in serves its rows from the generating
    polynomials, so for it only the composition closed forms are an
    independent route.
    """
    _check_int(i, 1, _DEPTH)
    return _IdentityPass(i + 2).report(i, table or CoeffTable([Fraction(1)]))
