"""Exact rational arithmetic and elementary combinatorial primitives.

Everything downstream works over exact fractions; no floating point is
used anywhere in this package. ``Rational`` is an alias for the standard
library's :class:`fractions.Fraction`, which already guarantees the
canonical form we rely on (positive denominator, gcd(num, den) = 1,
exact arithmetic on arbitrary-precision integers).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

__all__ = [
    "Rational",
    "bernoulli_table",
    "binomial",
    "compositions",
    "elementary_symmetric",
    "extend_bernoulli",
]

Rational = Fraction


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 whenever k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial arguments must be non-negative, got ({n}, {k})")
    return math.comb(n, k)


def extend_bernoulli(values: list[Fraction], max_m: int) -> list[Fraction]:
    """Extend a Bernoulli prefix in place through B_max_m and return it.

    New entries come from the recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0
    for m >= 1, applied to whatever prefix is given, so an overridden
    prefix (say with a flipped B_1) extends consistently from itself.
    """
    if max_m < 0:
        raise ValueError(f"max_m must be >= 0, got {max_m}")
    for m in range(len(values), max_m + 1):
        acc = sum(binomial(m + 1, j) * values[j] for j in range(m))
        values.append(Fraction(-acc, m + 1))
    return values


def bernoulli_table(max_m: int) -> list[Fraction]:
    """Bernoulli numbers B_0 .. B_max_m as exact fractions.

    Convention: the exponential generating function is t/(e^t - 1), so
    B_1 = -1/2.  The rival B_1 = +1/2 convention (generating function
    t/(1 - e^-t)) is deliberately rejected: a sign flip here silently
    corrupts every descent coefficient built on top of this table.

    Values come from ``extend_bernoulli`` starting at B_0 = 1; the zero
    entries at odd m >= 3 fall out of the recurrence exactly.
    """
    return extend_bernoulli([Fraction(1)], max_m)


def compositions(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """All k-tuples of positive integers summing to n, in lexicographic order.

    Empty for k > n (there is no way to split n into more than n positive
    parts).  The total count over all k is 2^(n-1), so keep n modest.
    """
    if k < 1 or n < 1:
        raise ValueError(f"compositions requires k >= 1 and n >= 1, got ({k}, {n})")
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in compositions(k - 1, n - first):
            yield (first, *rest)


def elementary_symmetric(l: int, values: Sequence[Fraction | int]) -> Fraction:
    """Elementary symmetric polynomial e_l evaluated at the given values.

    Uses the one-pass product recurrence (expand prod_i (1 + v_i x) and
    read off the coefficient of x^l); e_0 is the empty product 1.
    """
    if l < 0 or l > len(values):
        raise ValueError(
            f"elementary_symmetric index {l} out of range for {len(values)} values"
        )
    acc = [Fraction(1)] + [Fraction(0)] * l
    for count, v in enumerate(values, start=1):
        for pos in range(min(count, l), 0, -1):
            acc[pos] += v * acc[pos - 1]
    return acc[l]
