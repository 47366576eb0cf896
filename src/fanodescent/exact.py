"""Exact rational arithmetic and elementary combinatorial primitives.

Everything downstream works over exact fractions; no floating point is
used anywhere in this package. ``Rational`` is an alias for the standard
library's :class:`fractions.Fraction`, which already guarantees the
canonical form we rely on (positive denominator, gcd(num, den) = 1,
exact arithmetic on arbitrary-precision integers).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Set
from decimal import Decimal
from fractions import Fraction
from math import gcd
from typing import Iterator, Sequence

__all__ = [
    "Rational",
    "as_rational",
    "bernoulli_table",
    "binomial",
    "compositions",
    "elementary_symmetric",
    "extend_bernoulli",
]

Rational = Fraction


def as_rational(value: Fraction | int | str) -> Fraction:
    """``Fraction(value)``, refusing floats and bools.

    A binary float is not the rational it was written as, and a bool is
    not a scalar; both are rejected rather than silently coerced.  A
    Fraction is returned as it is: Fractions are immutable, so no copy
    is needed.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, (bool, float)):
        raise ValueError(
            f"{value!r} is not an exact rational; give an int, a Fraction "
            "or a 'p/q' string"
        )
    return Fraction(value)


_new = object.__new__


def _fraction(num: int, den: int) -> Fraction:
    """``Fraction(num, den)`` for ints with ``den > 0``, reduced by one gcd.

    The library builds every value it reports from an integer pair it
    computed, so the checks and type dispatch of ``Fraction(num, den)``
    buy nothing there and cost most of the build.  The value is set
    directly in the ``_numerator`` and ``_denominator`` slots, as
    CPython 3.12's ``Fraction._from_coprime_ints`` does, and is the same
    canonical Fraction.  A caller must pass ints and a positive ``den``;
    nothing is checked.
    """
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    value = _new(Fraction)
    value._numerator = num
    value._denominator = den
    return value


def _text(x: Fraction | int) -> str:
    """``str(x)``, for an int or a Fraction at any size.

    str() refuses an integer of more digits than
    ``sys.get_int_max_str_digits()`` allows (4300 by default); Decimal
    converts exactly at any size, so a number str() refuses goes through
    it, and that process-wide limit is left alone.  Any other value is
    written by str() alone.  Every number the library prints, in a report
    or in an error message, is formatted here.
    """
    try:
        return str(x)
    except ValueError:
        num = str(Decimal(x.numerator))
        return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def _check_int(value: int, least: int, rule: str, got: object = None) -> None:
    """Refuse ``value`` unless it is an int >= ``least``.

    Only the type ``int`` itself passes: bools, floats and other int
    subclasses are refused.  The error reads "<rule>, got <got>", ``got``
    defaulting to ``value``; an int is written by ``_text``, a tuple as
    its entries in parentheses, each written the same way, and anything
    else by its repr.
    """
    if type(value) is not int or value < least:
        raise ValueError(f"{rule}, got {_shown(value if got is None else got)}")


def _check_sequence(value: object, name: str) -> None:
    """Refuse a str, bytes, bytearray, set or mapping given as the sequence ``name``.

    Iterating one would silently read its characters or byte values as
    entries, a set's members in an order that is not the caller's, or a
    mapping's keys in place of its values.  ``collections.abc.Set`` and
    ``Mapping`` cover frozensets, dict views of keys and the like; other
    iterables, generators among them, are taken in their own order.
    """
    if isinstance(value, (str, bytes, bytearray, Set, Mapping)):
        raise ValueError(f"{name} must be a sequence of numbers, got {type(value).__name__}")


def _check_flag(value: object, name: str) -> None:
    """Refuse ``value`` unless it is True or False: no other truthy value counts."""
    if type(value) is not bool:
        raise ValueError(f"{name} must be True or False, got {value!r}")


def _shown(got: object) -> str:
    """``got`` as ``_check_int`` writes it."""
    if type(got) is int:
        return _text(got)
    if type(got) is tuple:
        return f"({', '.join(map(_shown, got))})"
    return repr(got)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 whenever k > n."""
    if n < 0 or k < 0:
        raise ValueError(
            f"binomial arguments must be non-negative, got ({_text(n)}, {_text(k)})"
        )
    return math.comb(n, k)


def extend_bernoulli(values: list[Fraction], max_m: int) -> list[Fraction]:
    """Extend a Bernoulli prefix in place through B_max_m and return it.

    New entries come from the recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0
    for m >= 1, applied to whatever prefix is given, so an overridden
    prefix (say with a flipped B_1) extends consistently from itself.
    """
    if max_m < 0:
        raise ValueError(f"max_m must be >= 0, got {_text(max_m)}")
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
    The library computes composition sums without enumerating; this
    generator is the brute-force oracle the tests compare them against.
    """
    if k < 1 or n < 1:
        raise ValueError(
            f"compositions requires k >= 1 and n >= 1, got ({_text(k)}, {_text(n)})"
        )
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in compositions(k - 1, n - first):
            yield (first, *rest)


def _symmetric_expansions(values: Sequence[Fraction | int]) -> Iterator[list[Fraction | int]]:
    """e_0, ..., e_m at the first m values, for m = 0, ..., len(values) in turn.

    Expands prod_i (1 + v_i x) one factor at a time with the product
    recurrence e_l <- e_l + v * e_{l-1}; the coefficient of x^l is e_l,
    and e_0 is the empty product 1.  Each step yields a new list, so a
    caller may keep every prefix.  The recurrence only adds and
    multiplies, so integer values give integer entries, computed without
    Fraction normalisation.
    """
    acc: list[Fraction | int] = [1]
    yield acc
    for v in values:
        acc = [a + v * b for a, b in zip([*acc, 0], [0, *acc])]
        yield acc


def elementary_symmetric(l: int, values: Sequence[Fraction | int]) -> Fraction:
    """Elementary symmetric polynomial e_l evaluated at the given values."""
    if l < 0 or l > len(values):
        raise ValueError(
            f"elementary_symmetric index {_text(l)} out of range for {len(values)} values"
        )
    *_, expansion = _symmetric_expansions(values)
    return Fraction(expansion[l])
