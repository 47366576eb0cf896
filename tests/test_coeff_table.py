"""The bottom-up coefficient table against independent references."""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from fanodescent.coeffs import CoeffTable, generating_polynomial
from fanodescent.descent import descend_direct, projective_space
from fanodescent.exact import bernoulli_table


def _flipped_seed() -> list[Fraction]:
    seed = bernoulli_table(2)
    seed[1] = -seed[1]
    return seed


class ReferenceTable:
    """Depth-first memoized recursion over c(i-1, j+1-m, k), an independent oracle."""

    def __init__(self, bernoulli=None):
        self._bernoulli = [Fraction(b) for b in bernoulli] if bernoulli else [Fraction(1)]
        self._memo = {}

    def bernoulli_number(self, m):
        while len(self._bernoulli) <= m:
            top = len(self._bernoulli)
            acc = sum(comb(top + 1, j) * self._bernoulli[j] for j in range(top))
            self._bernoulli.append(-acc / (top + 1))
        return self._bernoulli[m]

    def coefficient(self, i, j, k):
        if i == 0:
            return Fraction(1) if k == j else Fraction(0)
        key = (i, j, k)
        if key not in self._memo:
            if i == 1:
                m = j + 1 - k
                value = (-1) ** m * self.bernoulli_number(m) / factorial(m)
            else:
                value = Fraction(0)
                for m in range(min(j, i + j - k) + 1):
                    value += (
                        (-1) ** m
                        * self.bernoulli_number(m)
                        / factorial(m)
                        * self.coefficient(i - 1, j + 1 - m, k)
                    )
            self._memo[key] = value
        return self._memo[key]


MAX_I, MAX_J = 12, 8
KEYS = [
    (i, j, k)
    for i in range(MAX_I + 1)
    for j in range(1, MAX_J + 1)
    for k in range(1, i + j + 1)
]


@pytest.mark.parametrize("seed", [None, "flipped"])
@pytest.mark.parametrize("order", ["deep_first", "shallow_first"])
def test_table_matches_reference_recursion(seed, order):
    prefix = _flipped_seed() if seed else None
    reference = ReferenceTable(prefix)
    table = CoeffTable(prefix)
    keys = sorted(KEYS, reverse=order == "deep_first")
    for key in keys:
        assert table.coefficient(*key) == reference.coefficient(*key), key


def test_low_rows_match_generating_polynomials():
    table = CoeffTable()
    for i in range(1, 41):
        for j in (1, 2):
            poly = generating_polynomial(i, j)
            for k in range(1, i + j + 1):
                assert table.coefficient(i, j, k) == poly.coefficient(k) * factorial(k)


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_deep_fill_needs_no_stack():
    table = CoeffTable()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 30)
    try:
        value = table.coefficient(60, 1, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert value == Fraction(1, 61)


def test_cold_direct_descent_of_p60_is_p40():
    v = descend_direct(projective_space(60).vector, 20, 1, table=CoeffTable())
    assert v.scalars == tuple(Fraction(41, factorial(k)) for k in range(1, 41))


def test_repeated_reads_return_the_same_object():
    table = CoeffTable()
    for key in [(0, 3, 3), (0, 3, 1), (5, 2, 4), (9, 1, 10)]:
        assert table.coefficient(*key) is table.coefficient(*key)
    # Growing the band afterwards keeps rows already read.
    first = table.coefficient(3, 1, 2)
    table.coefficient(12, 6, 1)
    assert table.coefficient(3, 1, 2) is first
