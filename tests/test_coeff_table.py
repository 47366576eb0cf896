"""The bottom-up coefficient table against independent references."""

from __future__ import annotations

import functools
import itertools
import random
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, gcd, lcm
from operator import mul

import pytest

from fanodescent import coeffs
from fanodescent.coeffs import CoeffTable, generating_polynomial
from fanodescent.descent import descend_direct, iterate_scalar, projective_space
from fanodescent.exact import bernoulli_table, extend_bernoulli


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


class BandTable:
    """The earlier production fill, kept as a second oracle.

    Level i is the j-convolution ``row(i, j) = sum_m b_m * row(i-1, j+1-m)``
    of level i - 1, in integer rows; a read at (i, j) first gives level
    i - d the rows 1..j + d for d = i, ..., 0.
    """

    def __init__(self, bernoulli=None):
        self._bernoulli = [Fraction(b) for b in bernoulli] if bernoulli else [Fraction(1)]
        self._weights = []
        self._rows = []

    def coefficient(self, i, j, k):
        self._fill(i, j)
        nums, den = self._rows[i][j - 1]
        return Fraction(nums[k - 1], den)

    def _fill(self, i, j):
        while len(self._rows) <= i:
            self._rows.append([])
        weights = self._weights
        if len(weights) <= i + j:
            extend_bernoulli(self._bernoulli, i + j)
            for m in range(len(weights), i + j + 1):
                b = (-1) ** m * self._bernoulli[m] / factorial(m)
                weights.append((b.numerator, b.denominator))
        level0 = self._rows[0]
        for r in range(len(level0) + 1, i + j + 1):
            level0.append(([0] * (r - 1) + [1], 1))
        for level in range(1, i + 1):
            prev, rows = self._rows[level - 1], self._rows[level]
            for r in range(len(rows) + 1, j + i - level + 1):
                rows.append(_convolve(weights, prev, r))


def _convolve(weights, prev, j):
    """Row j of a level from the rows of the level below, zero weights skipped."""
    terms = []
    common = 1
    for m in range(j + 1):
        num, den = weights[m]
        if num:
            row_nums, row_den = prev[j - m]
            scale = den * row_den
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


BAND_I, BAND_J = 30, 14


@functools.lru_cache(maxsize=None)
def _band_rows(seed):
    """Every (i, j) row of the band oracle for i <= BAND_I, j <= BAND_J."""
    band = BandTable(_flipped_seed() if seed else None)
    return {
        (i, j): [band.coefficient(i, j, k) for k in range(1, i + j + 1)]
        for i in range(BAND_I + 1)
        for j in range(1, BAND_J + 1)
    }


@pytest.mark.parametrize("seed", [None, "flipped"])
@pytest.mark.parametrize("order", ["deep_first", "shallow_first"])
def test_columns_match_the_band_fill(seed, order):
    expected = _band_rows(seed)
    table = CoeffTable(_flipped_seed() if seed else None)
    for i, j in sorted(expected, reverse=order == "deep_first"):
        row = [table.coefficient(i, j, k) for k in range(1, i + j + 1)]
        assert row == expected[i, j], (i, j)


def test_degree_one_constant_term_is_a_reciprocal():
    table = CoeffTable()
    for i in range(121):
        assert table.coefficient(i, 1, 1) == Fraction(1, i + 1)


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
    # Growing the columns afterwards keeps rows already read.
    first = table.coefficient(3, 1, 2)
    table.coefficient(12, 6, 1)
    assert table.coefficient(3, 1, 2) is first


def _random_scalars(rng, count):
    """Rationals over pairwise coprime prime-power denominators, with signs and zeros."""
    dens = [2**5, 3**4, 5**3, 7**2, 11, 13, 17, 19, 23, 29, 31, 37]
    out = []
    for pos in range(count):
        if rng.random() < 0.2:
            out.append(Fraction(0))
        else:
            out.append(Fraction(rng.randint(-10**6, 10**6), dens[pos % len(dens)]))
    return out


def _written_out(table, i, j, x):
    total = Fraction(0)
    for k in range(1, i + j + 1):
        total += table.coefficient(i, j, k) * x[k - 1]
    return total


@pytest.mark.parametrize("seed", [None, "flipped"])
def test_dot_and_iterate_scalar_match_the_written_out_sum(seed):
    rng = random.Random(7)
    table = CoeffTable(_flipped_seed() if seed else None)
    for i in range(0, 25, 3):
        for j in range(1, 9):
            # Longer than i + j: the surplus must be ignored.
            x = _random_scalars(rng, i + j + rng.randint(0, 3))
            expected = _written_out(table, i, j, x)
            assert table.dot(i, j, x) == expected
            assert type(table.dot(i, j, tuple(x))) is Fraction
            scalar = iterate_scalar(x, i, j, table)
            assert scalar == Fraction(-i, factorial(j)) + expected
            assert type(scalar) is Fraction
    # Integers are scalars too.
    assert table.dot(2, 1, [1, 2, 3]) == _written_out(table, 2, 1, [1, 2, 3])


def test_dot_reads_a_cold_table():
    x = _random_scalars(random.Random(3), 40)
    assert CoeffTable().dot(20, 20, x) == _written_out(CoeffTable(), 20, 20, x)


@pytest.mark.parametrize("i, j", [(0, 1), (0, 4), (3, 1), (5, 2), (9, 7)])
def test_short_scalar_lists_raise_index_error(i, j):
    table = CoeffTable()
    x = _random_scalars(random.Random(i + j), i + j - 1)
    with pytest.raises(IndexError):
        table.dot(i, j, x)
    with pytest.raises(IndexError):
        iterate_scalar(x, i, j, table)
    with pytest.raises(IndexError):
        iterate_scalar([], i, j, table)


def test_dot_refuses_floats_bools_and_bad_indices():
    table = CoeffTable()
    with pytest.raises(ValueError):
        table.dot(1, 1, [Fraction(1), 0.5])
    with pytest.raises(ValueError):
        table.dot(1, 1, [True, Fraction(1)])
    with pytest.raises(ValueError):
        table.dot(-1, 1, [Fraction(1)])
    with pytest.raises(ValueError):
        table.dot(1, 0, [Fraction(1)])


@pytest.mark.parametrize("prefix", [[1, 0.1], [True]], ids=["float", "bool"])
def test_table_refuses_float_and_bool_bernoulli_prefix(prefix):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10.
    with pytest.raises(ValueError, match=re.escape(repr(prefix[-1]))):
        CoeffTable(prefix)


def test_closed_rows_equal_toeplitz_rows_to_depth_200():
    # Both routes store the unique reduced (numerators, denominator) form.
    # A table given the true prefix takes the Toeplitz route in every column.
    closed, toeplitz = CoeffTable(), CoeffTable([Fraction(1)])
    for i in range(201):
        for j in (1, 2):
            assert closed._row(i, j) == toeplitz._row(i, j), (i, j)
    for j in range(3, 13):
        for i in range(61):
            assert closed._row(i, j) == toeplitz._row(i, j), (i, j)


def test_empty_bernoulli_prefix_is_refused():
    with pytest.raises(ValueError, match="B_0 must be 1"):
        CoeffTable([])


def _fresh_honest_weights(monkeypatch):
    """A fresh shared weight store in place of ``coeffs._HONEST``, returned."""
    store = coeffs._Store(coeffs._weight_terms([Fraction(1)]))
    monkeypatch.setattr(coeffs, "_HONEST", store)
    return store


def _weight_pairs(bernoulli):
    """b_m = (-1)^m B_m / m! as (numerator, denominator), written out."""
    return [((-1) ** m * b / factorial(m)).as_integer_ratio() for m, b in enumerate(bernoulli)]


def test_honest_tables_leave_the_shared_weights_alone(monkeypatch):
    store = _fresh_honest_weights(monkeypatch)
    table = CoeffTable()
    for j in range(1, 13):
        table.coefficient(30, j, 1)
    assert store == []


def test_cold_degree_one_constant_term_at_depth_300():
    assert CoeffTable().coefficient(300, 1, 1) == Fraction(1, 301)


def test_override_tables_leave_the_shared_weights_alone(monkeypatch):
    # A fresh shared store, so the flipped table grows past everything in it.
    store = _fresh_honest_weights(monkeypatch)
    flipped = CoeffTable(_flipped_seed())
    for j in (1, 2, 5):
        flipped.coefficient(40, j, 1)
    assert flipped.bernoulli_number(50) != bernoulli_table(50)[50]
    assert store == []
    # The override's private store extends the flipped prefix from itself.
    assert [b for b, _, _ in flipped._weights] == extend_bernoulli(_flipped_seed(), 50)
    honest = CoeffTable([Fraction(1)])
    honest.coefficient(40, 5, 1)
    expected = bernoulli_table(50)
    assert [pair for _, pair, _ in store] == _weight_pairs(expected[:45])
    assert [honest.bernoulli_number(m) for m in range(51)] == expected
    assert [b for b, _, _ in store] == expected
    assert [pair for _, pair, _ in store] == _weight_pairs(expected)


def test_tables_in_threads_grow_the_shared_weights_consistently(monkeypatch):
    # More threads than cores and a short switch interval, so the growth of
    # the shared store interleaves; a lost or doubled update breaks the
    # lengths or the values checked below.
    store = _fresh_honest_weights(monkeypatch)
    factorials = coeffs._Store(accumulate(itertools.count(1), mul, initial=1))
    monkeypatch.setattr(coeffs, "_FACTORIALS", factorials)
    depths = list(range(1, 41))
    random.Random(5).shuffle(depths)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [
                pool.submit(lambda i: CoeffTable([Fraction(1)]).coefficient(i, 4, 1), i)
                for i in depths
            ]
            rows = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    # The closed route reads no Bernoulli number, so it is an independent reference.
    reference = CoeffTable()
    assert rows == [reference.coefficient(i, 4, 1) for i in depths]
    assert len(store) == len(factorials) == 44
    assert [b for b, _, _ in store] == bernoulli_table(43)
    pairs = _weight_pairs(bernoulli_table(43))
    assert [pair for _, pair, _ in store] == pairs
    assert [last for _, _, last in store] == list(accumulate((den for _, den in pairs), lcm))
    assert factorials == [factorial(m) for m in range(44)]


def test_closed_rows_read_out_of_order_equal_rows_read_in_order():
    # The depth-40 row of every column first, then every other row in a
    # seeded order: each closed row is computed alone, into its own slot.
    pairs = [(i, j) for i in range(41) for j in range(1, 13)]
    rng = random.Random(23)
    deepest = [p for p in pairs if p[0] == 40]
    rest = [p for p in pairs if p[0] < 40]
    rng.shuffle(deepest)
    rng.shuffle(rest)
    sparse = CoeffTable()
    for i, j in deepest:
        sparse._row(i, j)
    # Only the unit row and the row read are held; nobody read depths 1..39.
    for j in range(1, 13):
        column = sparse._columns[j]
        assert len(column) == 41 and column[0] is not None and column[40] is not None
        assert column[1:40] == [None] * 39
    in_order, toeplitz = CoeffTable(), CoeffTable([Fraction(1)])
    expected = {(i, j): in_order._row(i, j) for j in range(1, 13) for i in range(41)}
    for i, j in deepest + rest:
        assert sparse._row(i, j) == expected[i, j] == toeplitz._row(i, j), (i, j)
    # A Toeplitz column is filled through every depth above the row read.
    assert all(row is not None for column in toeplitz._columns.values() for row in column)


def test_cold_direct_descent_computes_each_closed_row_it_reads_once(monkeypatch):
    calls = []
    closed = coeffs._generating_numerators

    def counted(i, j):
        calls.append((i, j))
        return closed(i, j)

    monkeypatch.setattr(coeffs, "_generating_numerators", counted)
    table = CoeffTable()
    v = descend_direct(projective_space(100).vector, 33, 1, table=table)
    assert v.scalars == projective_space(67).vector.scalars
    # The level checks read (level - 1, 1) for levels 1..33 (depth 0 is the
    # unit row) and the result reads (33, j) for j = 1..67: 99 rows, where
    # filling every column through every depth took 67 * 33 = 2211.
    expected = {(level, 1) for level in range(1, 33)} | {(33, j) for j in range(1, 68)}
    assert len(calls) == len(set(calls)) == 99
    assert set(calls) == expected
    # Warm, the same descent computes nothing.
    descend_direct(projective_space(100).vector, 33, 1, table=table)
    assert len(calls) == 99


def test_honest_tables_in_threads_grow_the_shared_closed_inputs_consistently(monkeypatch):
    # Fresh shared inputs, more threads than cores and a short switch
    # interval, so their growth interleaves; a lost or doubled step, or
    # two threads advancing one recurrence at once, breaks the checks below.
    steps = coeffs._symmetric_expansions(itertools.count(1))
    monkeypatch.setattr(coeffs, "_RISING", coeffs._Store(e[::-1] for e in steps))
    monkeypatch.setattr(coeffs, "_SURJECTIONS", coeffs._Store(coeffs._surjection_rows()))
    pairs = [(i, j) for i in range(1, 41) for j in (1, 2, 5, 9)]
    random.Random(5).shuffle(pairs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [
                pool.submit(lambda i, j: CoeffTable().coefficient(i, j, 1), i, j)
                for i, j in pairs
            ]
            values = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    # The Toeplitz route reads neither input, so it is an independent reference.
    reference = CoeffTable([Fraction(1)])
    assert values == [reference.coefficient(i, j, 1) for i, j in pairs]
    assert coeffs._RISING == _rising_products(40)
    assert coeffs._SURJECTIONS == [
        [_stirling2(j, l) * factorial(l) for l in range(j + 1)] for j in range(10)
    ]


def _rising_products(depth):
    """(t+1)...(t+d), t^0 first, for d = 0..depth, one factor t + d at a time."""
    rising = [[1]]
    for d in range(1, depth + 1):
        rising.append([d * a + b for a, b in zip([*rising[-1], 0], [0, *rising[-1]])])
    return rising


def _counted(steps, produced):
    """``steps``, recording each term it yields and handing the GIL over mid-step."""
    for term in steps:
        produced.append(term)
        time.sleep(0)
        yield term


def test_each_store_advances_its_recurrence_once_per_term_under_contention():
    # Four fresh stores on the recurrences the module keeps, read by more
    # threads than cores at seeded depths.  A step interleaved with another
    # thread's raises "generator already executing"; a lost or doubled step
    # breaks the counts or the values checked below.
    steps = {
        "weights": coeffs._weight_terms([Fraction(1)]),
        "factorials": accumulate(itertools.count(1), mul, initial=1),
        "rising": (e[::-1] for e in coeffs._symmetric_expansions(itertools.count(1))),
        "surjections": coeffs._surjection_rows(),
    }
    produced = {name: [] for name in steps}
    stores = {name: coeffs._Store(_counted(steps[name], produced[name])) for name in steps}
    rng = random.Random(7)
    reads = [(name, rng.randrange(60)) for _ in range(100) for name in stores]

    def read(name, n):
        stores[name].upto(n)
        return stores[name][n]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(read, name, n) for name, n in reads]
            values = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for name, store in stores.items():
        deepest = max(n for other, n in reads if other == name)
        assert len(store) == len(produced[name]) == deepest + 1, name
        assert all(a is b for a, b in zip(store, produced[name])), name
    pairs = _weight_pairs(bernoulli_table(59))
    lcms = accumulate((den for _, den in pairs), lcm)
    reference = {
        "weights": list(zip(bernoulli_table(59), pairs, lcms)),
        "factorials": [factorial(m) for m in range(60)],
        "rising": _rising_products(59),
        "surjections": [
            [_stirling2(j, l) * factorial(l) for l in range(j + 1)] for j in range(60)
        ],
    }
    for (name, n), value in zip(reads, values):
        assert value == reference[name][n], (name, n)


@functools.lru_cache(maxsize=None)
def _stirling2(n, k):
    """S2(n, k), set partitions of n into k blocks, by the standard recurrence."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def _shifted_binomial(i, l):
    """C(t + i, l + i) as rational t^0.. coefficients: (t+i)(t+i-1)...(t-l+1) / (l+i)!."""
    poly = [Fraction(1)]
    for a in range(-l + 1, i + 1):
        poly = [x * a + y for x, y in zip([*poly, 0], [0, *poly])]
    return [c / factorial(l + i) for c in poly]


def _stirling_row(i, j):
    """c(i, j, k) for k = 1..i+j as (k!/j!) sum_l S2(j, l) l! [t^k] C(t+i, l+i).

    Iterated summation S f(t) = sum_{x=1}^t f(x) turns t^j/j! into
    sum_k c(i, j, k) t^k/k!, and S^i C(t, l) = C(t+i, l+i).
    """
    series = [Fraction(0)] * (i + j + 1)
    for l in range(1, j + 1):
        weight = _stirling2(j, l) * factorial(l)
        for k, c in enumerate(_shifted_binomial(i, l)):
            series[k] += weight * c
    return [series[k] * factorial(k) / factorial(j) for k in range(1, i + j + 1)]


def test_stirling_numbers_match_sympy():
    from sympy.functions.combinatorial.numbers import stirling

    for n in range(13):
        for k in range(n + 2):
            assert _stirling2(n, k) == stirling(n, k, kind=2), (n, k)


def test_stirling_route_matches_the_table_for_higher_degrees():
    table = CoeffTable()
    for i in range(1, 16):
        for j in range(3, 10):
            row = [table.coefficient(i, j, k) for k in range(1, i + j + 1)]
            assert row == _stirling_row(i, j), (i, j)


# --- the power-sum basis -------------------------------------------------------
#
# Rows are stored as c^(i, j, k) = c(i, j, k) * j!/k!, and a vector enters a
# descent sum as k! * x_k over one denominator.


@pytest.mark.parametrize("kind", ["honest", "toeplitz", "flipped"])
def test_stored_rows_are_in_the_power_sum_basis(kind):
    def build():
        if kind == "flipped":
            return CoeffTable(_flipped_seed())
        return CoeffTable([Fraction(1)] if kind == "toeplitz" else None)

    # Rows from one table, Fraction coefficients from another filled in
    # the opposite order, so neither read serves the other.
    rows, values = build(), build()
    keys = [(i, j) for i in range(41) for j in range(1, 13)]
    expected = {
        (i, j): [
            values.coefficient(i, j, k) * factorial(j) / factorial(k) for k in range(1, i + j + 1)
        ]
        for i, j in reversed(keys)
    }
    for i, j in keys:
        nums, den = rows._row(i, j)
        assert den > 0 and functools.reduce(gcd, nums, den) == 1, (i, j)
        assert [Fraction(n, den) for n in nums] == expected[i, j], (i, j)


def test_over_common_returns_power_sums_over_the_least_denominator():
    rng = random.Random(12)
    for _ in range(200):
        x = [Fraction(rng.randint(-50, 50), rng.randint(1, 40)) for _ in range(rng.randint(1, 12))]
        x[rng.randrange(len(x))] = rng.randint(-5, 5)
        nums, common = coeffs._over_common(x)
        power_sums = [factorial(k) * v for k, v in enumerate(x, 1)]
        assert all(type(n) is int for n in nums) and type(common) is int
        assert [Fraction(n, common) for n in nums] == power_sums
        assert common == lcm(*[p.denominator for p in power_sums])
    assert coeffs._over_common([]) == ([], 1)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False])
def test_over_common_refuses_floats_and_bools(bad):
    for x in ([bad], [Fraction(1, 2), bad, 3]):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            coeffs._over_common(x)
