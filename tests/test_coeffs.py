from __future__ import annotations

import argparse
import dataclasses
import random
import re
from fractions import Fraction
from math import factorial, prod

import pytest

from fanodescent import coeffs
from fanodescent.cli import cmd_verify
from fanodescent.coeffs import (
    CoeffTable,
    Discrepancy,
    IdentityCheck,
    IdentityReport,
    Polynomial,
    ch1_coefficient_closed,
    ch2_coefficient_closed,
    composition_sum,
    composition_symmetric_check,
    descent_coefficient,
    generating_polynomial,
    verify_identities,
)
from fanodescent.exact import bernoulli_table, compositions, elementary_symmetric


# --- Polynomial ---------------------------------------------------------------
#
# ``Polynomial`` only holds coefficients.  The oracles below multiply and
# evaluate plain coefficient lists, lowest degree first, with these two
# helpers.


def _poly_mul(a, b):
    """The product of two coefficient lists, as Fractions."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for pos1, c1 in enumerate(a):
        for pos2, c2 in enumerate(b):
            out[pos1 + pos2] += c1 * c2
    return out


def _poly_eval(coeffs, x):
    """The value at x of a coefficient list, by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_polynomial_normalization_and_degree():
    assert Polynomial([0, 1, 0]).coeffs == (0, 1)
    assert Polynomial([]).degree == -1
    assert Polynomial([0, 0]).degree == -1
    assert Polynomial([5]).degree == 0
    assert Polynomial([1, 2]).coefficient(5) == 0


def test_polynomial_repr():
    assert repr(Polynomial()) == "Polynomial(0)"
    assert repr(Polynomial([0, 0])) == "Polynomial(0)"
    assert repr(Polynomial([1, 0, Fraction(-1, 2)])) == "Polynomial(1 + -1/2*t^2)"


def test_polynomial_arithmetic():
    # The test-side product and evaluation that the oracles rely on.
    p, q = [1, 2], [0, 0, 3]  # 1 + 2t, 3t^2
    assert _poly_mul(p, q) == [0, 0, 3, 6]
    assert _poly_mul(q, p) == [0, 0, 3, 6]
    assert _poly_mul(p, [Fraction(1, 2)]) == [Fraction(1, 2), 1]
    assert Polynomial(_poly_mul(p, [1, -1])) == Polynomial([1, 1, -2])
    assert _poly_eval(p, Fraction(1, 2)) == 2
    assert _poly_eval(q, -2) == 12
    assert _poly_eval([], 3) == 0


def test_polynomial_immutable():
    p = Polynomial([1])
    with pytest.raises(AttributeError):
        p.coeffs = (2,)


def test_polynomial_refuses_a_name_that_is_not_a_field():
    p = Polynomial([1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.x = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del p.coeffs


@pytest.mark.parametrize("bad", [0.5, True])
def test_polynomial_rejects_float_and_bool_coefficients(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        Polynomial([1, bad])


@pytest.mark.parametrize("bad", [True, 1.0])
def test_coefficient_index_and_max_n_refuse_bool_and_float(bad):
    # True used to read t^1 and run max_n = 1; 1.0 crashed on an index.
    calls = [
        lambda: generating_polynomial(2, 1).coefficient(bad),
        lambda: composition_symmetric_check(bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            call()


def test_coefficient_index_and_max_n_out_of_range_messages():
    with pytest.raises(ValueError, match=r"^coefficient index must be >= 0, got -1$"):
        Polynomial([1]).coefficient(-1)
    with pytest.raises(ValueError, match=r"^max_n must be >= 1, got 0$"):
        composition_symmetric_check(0)


def test_polynomial_product_coefficients_are_elementary_symmetric():
    rng = random.Random(20240817)
    for _ in range(25):
        values = [
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(rng.randint(0, 6))
        ]
        poly = [Fraction(1)]
        for v in values:
            poly = _poly_mul(poly, [v, 1])
        m = len(values)
        for l in range(m + 1):
            assert poly[m - l] == elementary_symmetric(l, values)


# --- coefficient table ---------------------------------------------------------


def test_base_depth_values():
    # Hand-derived from the depth-1 formula with B_0 = 1, B_1 = -1/2, B_2 = 1/6.
    assert descent_coefficient(1, 1, 1) == Fraction(1, 2)
    assert descent_coefficient(1, 1, 2) == 1
    assert descent_coefficient(1, 2, 1) == Fraction(1, 12)
    assert descent_coefficient(1, 2, 2) == Fraction(1, 2)
    assert descent_coefficient(1, 2, 3) == 1


def test_depth_two_values():
    # t(t+1)(t+2)/3! = t/3 + t^2/2 + t^3/6 pins the depth-2 degree-1 row.
    assert descent_coefficient(2, 1, 1) == Fraction(1, 3)
    assert descent_coefficient(2, 1, 2) == 1
    assert descent_coefficient(2, 1, 3) == 1
    # t(t+1)^2(t+2)/4! pins the degree-2 row.
    assert descent_coefficient(2, 2, 1) == Fraction(1, 12)
    assert descent_coefficient(2, 2, 2) == Fraction(5, 12)
    assert descent_coefficient(2, 2, 3) == 1
    assert descent_coefficient(2, 2, 4) == 1


def test_identity_depth_zero():
    table = CoeffTable()
    assert table.coefficient(0, 3, 3) == 1
    assert table.coefficient(0, 3, 1) == 0
    with pytest.raises(ValueError):
        table.coefficient(0, 2, 3)


def test_coefficient_domain_errors():
    with pytest.raises(ValueError):
        descent_coefficient(1, 1, 3)
    with pytest.raises(ValueError):
        descent_coefficient(2, 1, 0)
    with pytest.raises(ValueError):
        descent_coefficient(-1, 1, 1)
    with pytest.raises(ValueError):
        descent_coefficient(1, 0, 1)


def test_coefficient_table_reuses_memo():
    table = CoeffTable()
    first = table.coefficient(6, 2, 3)
    assert table.coefficient(6, 2, 3) is first


def test_table_rejects_bad_bernoulli_seed():
    with pytest.raises(ValueError):
        CoeffTable([Fraction(2)])


def test_corrupted_bernoulli_seed_extends_consistently():
    seed = bernoulli_table(2)
    seed[1] = -seed[1]
    table = CoeffTable(seed)
    assert table.bernoulli_number(1) == Fraction(1, 2)
    # Lazily extended entries follow from the corrupted prefix, so they
    # differ from the honest table.
    assert table.bernoulli_number(3) != bernoulli_table(3)[3]


# --- closed forms ----------------------------------------------------------


def test_ch1_closed_values():
    assert ch1_coefficient_closed(1, 1) == Fraction(1, 2)
    assert ch1_coefficient_closed(2, 2) == 1
    for i in range(1, 9):
        assert ch1_coefficient_closed(i, i + 1) == 1


def test_ch2_closed_values():
    assert ch2_coefficient_closed(1, 2) == Fraction(1, 2)
    assert ch2_coefficient_closed(1, 1) == Fraction(1, 12)
    for i in range(1, 9):
        assert ch2_coefficient_closed(i, i + 2) == 1


def test_closed_form_domain_errors():
    with pytest.raises(ValueError):
        ch1_coefficient_closed(2, 4)
    with pytest.raises(ValueError):
        ch2_coefficient_closed(2, 5)


def test_composition_sum_values():
    assert composition_sum(2, 3) == 1  # 1/2 + 1/2
    assert composition_sum(2, 4) == Fraction(11, 12)  # 1/3 + 1/4 + 1/3
    for n in range(1, 9):
        assert composition_sum(1, n) == Fraction(1, n)
        assert composition_sum(n, n) == 1
    with pytest.raises(ValueError):
        composition_sum(3, 2)


def test_composition_sum_matches_enumeration():
    # Brute force over every composition: the oracle for small n only,
    # since there are 2^(n-1) of them.
    for n in range(1, 11):
        for k in range(1, n + 1):
            enumerated = sum(
                (Fraction(1, prod(parts)) for parts in compositions(k, n)), Fraction(0)
            )
            assert composition_sum(k, n) == enumerated


def test_composition_rows_match_a_fraction_recurrence():
    # S(k, n) = sum_l S(k-1, n-l)/l over the last part l, in plain Fractions
    # from S(0, 0) = 1: independent of sympy, and far past enumeration.
    top = 40
    s = [[Fraction(int(n == 0)) for n in range(top + 1)]]
    for k in range(1, top + 1):
        s.append([sum((s[k - 1][n - l] / l for l in range(1, n + 1)), Fraction(0))
                  for n in range(top + 1)])
    rows = coeffs._composition_rows(top)
    assert [len(row) for row in rows] == list(range(1, top + 2))
    for n, row in enumerate(rows):
        assert row == [factorial(n) * s[k][n] for k in range(n + 1)]


def test_closed_forms_are_exact_fractions():
    # An int padding divided by 2 would leak a float that still compares
    # equal to the right value, so the type is checked, not just the value.
    values = [composition_sum(k, n) for n in range(1, 15) for k in range(1, n + 1)]
    values += [ch1_coefficient_closed(i, k) for i in range(1, 14) for k in range(1, i + 2)]
    values += [ch2_coefficient_closed(i, k) for i in range(1, 13) for k in range(1, i + 3)]
    assert all(type(v) is Fraction for v in values)


def test_generating_polynomial_values():
    assert generating_polynomial(1, 1) == Polynomial([0, Fraction(1, 2), Fraction(1, 2)])
    assert generating_polynomial(2, 1) == Polynomial(
        [0, Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)]
    )
    # t(t+1)(t+1/2)/6 = t/12 + t^2/4 + t^3/6
    assert generating_polynomial(1, 2) == Polynomial(
        [0, Fraction(1, 12), Fraction(1, 4), Fraction(1, 6)]
    )
    with pytest.raises(ValueError):
        generating_polynomial(2, 3)


@pytest.mark.parametrize("bad", [True, 1.0, 2.0])
def test_generating_polynomial_refuses_bool_and_float_degree(bad):
    # True and 1.0 used to give the j = 1 polynomial, 2.0 the j = 2 one.
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        generating_polynomial(3, bad)


# --- identity suite -----------------------------------------------------------


@pytest.mark.parametrize("i", range(1, 13))
def test_triple_agreement(i):
    table = CoeffTable()
    poly1 = generating_polynomial(i, 1)
    poly2 = generating_polynomial(i, 2)
    for k in range(1, i + 2):
        recursive = table.coefficient(i, 1, k)
        assert recursive == ch1_coefficient_closed(i, k)
        assert recursive == poly1.coefficient(k) * factorial(k)
        assert recursive > 0
    for k in range(1, i + 3):
        recursive = table.coefficient(i, 2, k)
        assert recursive == ch2_coefficient_closed(i, k)
        assert recursive == poly2.coefficient(k) * factorial(k)
        assert recursive > 0


@pytest.mark.parametrize("i", range(1, 13))
def test_scalar_corollaries(i):
    table = CoeffTable()
    row1 = [table.coefficient(i, 1, k) for k in range(1, i + 2)]
    row2 = [table.coefficient(i, 2, k) for k in range(1, i + 3)]
    assert sum(c / factorial(k) for k, c in enumerate(row1, 1)) == 1
    assert sum(c * 2**k / factorial(k) for k, c in enumerate(row1, 1)) == i + 2
    assert sum(c / factorial(k) for k, c in enumerate(row2, 1)) == Fraction(1, 2)
    assert sum(c * 2**k / factorial(k) for k, c in enumerate(row2, 1)) == Fraction(i + 4, 2)
    assert row1[-1] == 1
    assert row2[-1] == 1


def test_composition_symmetric_identity_to_12():
    assert composition_symmetric_check(12).ok


def test_verify_identities_passes():
    for i in (1, 2, 7, 12):
        report = verify_identities(i)
        assert report.passed
        assert len(report.checks) == 11
        assert report.first_discrepancy() is None


@pytest.mark.parametrize("i", [16, 20, 24])
def test_verify_identities_passes_past_depth_12(i):
    report = verify_identities(i)
    assert report.passed
    assert len(report.checks) == 11


def test_composition_symmetric_identity_to_30():
    assert composition_symmetric_check(30).ok


def test_verify_identities_flags_corrupted_convention():
    seed = bernoulli_table(2)
    seed[1] = -seed[1]  # the rejected B_1 = +1/2 convention
    report = verify_identities(1, CoeffTable(seed))
    assert not report.passed
    name, disc = report.first_discrepancy()
    assert name == "recursion_vs_composition_ch1"
    assert disc.location == "(i,j,k)=(1,1,1)"
    assert disc.expected == Fraction(1, 2)
    assert disc.actual == Fraction(-1, 2)
    assert disc.diff == -1


def test_depth_three_and_four_rows_exist_via_recursion():
    # No closed form exists for degree rows j >= 3; the recursion is the
    # only route.  Record the observed signs without asserting them.
    table = CoeffTable()
    observed = {
        (i, j, k): table.coefficient(i, j, k)
        for i in range(1, 5)
        for j in (3, 4)
        for k in range(1, i + j + 1)
    }
    assert all(isinstance(v, Fraction) for v in observed.values())


# --- reference oracle for the identity suite ----------------------------------
#
# The per-depth identity suite as it was before the shared integer pass:
# generating polynomials from generic Fraction products, the weighted
# sums read off a Fraction polynomial by Horner's rule, and the
# composition/symmetric identity re-expanded from scratch at every n of
# every depth.  The composition rows come from the library's DP, looked up
# at call time, so a test may corrupt them for both sides at once; the DP
# returns n! * S(k, n) in integers, turned into Fractions here.


def _reference_rows(max_n):
    return [
        [Fraction(s, factorial(n)) for s in row]
        for n, row in enumerate(coeffs._composition_rows(max_n))
    ]


def _reference_closed_row(rows, i, j):
    row = rows[i + j][1:]
    if j == 2:
        for pos, value in enumerate(rows[i + 1][1:]):
            row[pos] -= value / 2
    return row


def _reference_expansion(values):
    acc = [1] + [0] * len(values)
    for count, v in enumerate(values, start=1):
        for pos in range(count, 0, -1):
            acc[pos] += v * acc[pos - 1]
    return acc


def _reference_generating_polynomial(i, j):
    poly = [0, 1]
    for c in range(1, i + 1):
        poly = _poly_mul(poly, [c, 1])
    if j == 2:
        poly = _poly_mul(poly, [Fraction(i, 2), 1])
    return Polynomial([c / factorial(i + j) for c in poly])


def _reference_symmetric_check(rows):
    found = []
    for n in range(1, len(rows)):
        symmetric_values = _reference_expansion(range(1, n))
        for k in range(1, n + 1):
            symmetric = Fraction(factorial(k), factorial(n)) * symmetric_values[n - k]
            if rows[n][k] != symmetric:
                found.append(Discrepancy(f"(k,n)=({k},{n})", symmetric, rows[n][k]))
    return IdentityCheck("composition_symmetric_identity", tuple(found))


def _reference_compare(name, pairs):
    found = tuple(
        Discrepancy(loc, expected, actual) for loc, expected, actual in pairs if expected != actual
    )
    return IdentityCheck(name, found)


def _reference_verify(i, table):
    rows = _reference_rows(i + 2)
    recursion = {j: [table.coefficient(i, j, k) for k in range(1, i + j + 1)] for j in (1, 2)}
    summed = {
        j: Polynomial([Fraction(0)] + [c / factorial(k) for k, c in enumerate(row, 1)])
        for j, row in recursion.items()
    }
    checks = []
    for j in (1, 2):
        closed = _reference_closed_row(rows, i, j)
        checks.append(
            _reference_compare(
                f"recursion_vs_composition_ch{j}",
                [
                    (f"(i,j,k)=({i},{j},{k})", c, r)
                    for k, (c, r) in enumerate(zip(closed, recursion[j]), 1)
                ],
            )
        )
    for j in (1, 2):
        product_poly = _reference_generating_polynomial(i, j)
        checks.append(
            _reference_compare(
                f"generating_polynomial_ch{j}",
                [
                    (f"(i,j,k)=({i},{j},{k})", product_poly.coefficient(k), summed[j].coefficient(k))
                    for k in range(0, i + j + 1)
                ],
            )
        )
    for j in (1, 2):
        for t, suffix, closed in ((1, "", 1), (2, "_at_2", i + 2**j)):
            checks.append(
                _reference_compare(
                    f"sum_weights_ch{j}{suffix}",
                    [(f"i={i}", Fraction(closed, factorial(j)), _poly_eval(summed[j].coeffs, t))],
                )
            )
    for j in (1, 2):
        checks.append(
            _reference_compare(
                f"top_coefficient_ch{j}",
                [(f"(i,j,k)=({i},{j},{i + j})", Fraction(1), recursion[j][-1])],
            )
        )
    checks.append(_reference_symmetric_check(rows))
    return IdentityReport(i, tuple(checks))


def _flipped_table():
    seed = bernoulli_table(2)
    seed[1] = -seed[1]
    return CoeffTable(seed)


def _fields(check):
    return (
        check.name,
        check.ok,
        [(d.location, d.expected, d.actual) for d in check.discrepancies],
    )


def _json_fields(check):
    # Rationals are serialized as exact p/q strings, so Fraction() restores them.
    return (
        check["name"],
        check["ok"],
        [
            (d["location"], Fraction(d["expected"]), Fraction(d["actual"]))
            for d in check["discrepancies"]
        ],
    )


def _assert_verify_matches_reference(max_i, max_n, flip):
    results = cmd_verify(argparse.Namespace(max_i=max_i, max_n=max_n, flip_b1=flip)).results
    table = _flipped_table() if flip else CoeffTable()
    expected = [_reference_verify(i, table) for i in range(1, max_i + 1)]
    composition = _reference_symmetric_check(_reference_rows(max_n))
    assert [(r["i"], r["passed"]) for r in results["reports"]] == [
        (rep.i, rep.passed) for rep in expected
    ]
    assert [[_json_fields(c) for c in r["checks"]] for r in results["reports"]] == [
        [_fields(c) for c in rep.checks] for rep in expected
    ]
    assert _json_fields(results["composition_identity"]) == _fields(composition)
    assert results["all_ok"] == (all(rep.passed for rep in expected) and composition.ok)
    return results


# max_n below, equal to and above max_i + 2.
VERIFY_SIZES = [(1, 1), (1, 3), (1, 5), (5, 3), (5, 7), (5, 12), (16, 9), (16, 18), (16, 24)]


@pytest.mark.parametrize("flip", [False, True], ids=["honest", "flip_b1"])
@pytest.mark.parametrize("max_i, max_n", VERIFY_SIZES)
def test_cli_verify_matches_reference(max_i, max_n, flip):
    results = _assert_verify_matches_reference(max_i, max_n, flip)
    assert results["all_ok"] is not flip


def test_cli_verify_matches_reference_on_corrupted_composition_rows(monkeypatch):
    # The composition DP does not read the Bernoulli table, so no flag makes
    # the symmetric identity fail; corrupt two entries to reach that path.
    original = coeffs._composition_rows

    def corrupted(max_n):
        rows = original(max_n)
        for k, n in ((2, 4), (3, 9)):
            if n <= max_n:
                rows[n][k] += 1
        return rows

    monkeypatch.setattr(coeffs, "_composition_rows", corrupted)
    for max_i, max_n in ((2, 3), (2, 4), (5, 8), (5, 12), (9, 6)):
        results = _assert_verify_matches_reference(max_i, max_n, False)
        assert not results["all_ok"]
    assert [d.location for d in composition_symmetric_check(10).discrepancies] == [
        "(k,n)=(2,4)",
        "(k,n)=(3,9)",
    ]


@pytest.mark.parametrize("flip", [False, True], ids=["honest", "flip_b1"])
def test_verify_identities_matches_reference(flip):
    table = _flipped_table() if flip else CoeffTable()
    for i in range(1, 17):
        report = verify_identities(i, table)
        assert report == _reference_verify(i, table)
        assert all(
            type(d.expected) is Fraction and type(d.actual) is Fraction
            for check in report.checks
            for d in check.discrepancies
        )


# True B_2 = 1/6 and B_4 = -1/30, changed; the tail extends from the change.
OVERRIDDEN_PREFIXES = {
    "b2": [Fraction(1), Fraction(-1, 2), Fraction(1, 5)],
    "b4": [Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0), Fraction(1, 30)],
}


@pytest.mark.parametrize("prefix", OVERRIDDEN_PREFIXES.values(), ids=OVERRIDDEN_PREFIXES)
def test_verify_identities_matches_reference_on_overridden_prefixes(prefix):
    table = CoeffTable(prefix)
    reports = [verify_identities(i, table) for i in range(1, 13)]
    assert reports == [_reference_verify(i, table) for i in range(1, 13)]
    # Every identity between the table and another route fails somewhere.
    failed = {check.name for report in reports for check in report.checks if not check.ok}
    assert failed == {
        f"{name}_ch{j}{suffix}"
        for name, suffixes in (
            ("recursion_vs_composition", [""]),
            ("generating_polynomial", [""]),
            ("sum_weights", ["", "_at_2"]),
        )
        for j in (1, 2)
        for suffix in suffixes
    }


class _OffByOne(CoeffTable):
    """The true Toeplitz table, except that the top entry of one row is off by one."""

    def __init__(self, at):
        super().__init__([Fraction(1)])
        self.at = at

    def _row(self, i, j):
        nums, den = super()._row(i, j)
        if (i, j) == self.at:
            nums = [*nums[:-1], nums[-1] + 1]
        return nums, den


@pytest.mark.parametrize("j", [1, 2])
def test_verify_identities_matches_reference_on_an_off_by_one_top_entry(j):
    # A prefix starts with B_0 = 1, so no prefix reaches top_coefficient_ch*.
    table = _OffByOne((4, j))
    for i in range(1, 8):
        report = verify_identities(i, table)
        assert report == _reference_verify(i, table)
        failed = {check.name for check in report.checks if not check.ok}
        assert (f"top_coefficient_ch{j}" in failed) is (i == 4)
        assert report.passed is (i != 4)


class _Resized(CoeffTable):
    """The true Toeplitz table, except that one row is one entry short or one entry long."""

    def __init__(self, at, longer):
        super().__init__([Fraction(1)])
        self.at, self.longer = at, longer

    def _row(self, i, j):
        nums, den = super()._row(i, j)
        if (i, j) == self.at:
            nums = [*nums, 0] if self.longer else nums[:-1]
        return nums, den


@pytest.mark.parametrize("longer", [False, True], ids=["short", "long"])
@pytest.mark.parametrize("j", [1, 2])
def test_verify_identities_refuses_a_row_of_the_wrong_length(j, longer):
    table = _Resized((3, j), longer)
    assert verify_identities(2, table).passed
    with pytest.raises(ValueError):
        verify_identities(3, table)


def test_composition_symmetric_check_matches_reference():
    for n in range(1, 21):
        assert composition_symmetric_check(n) == _reference_symmetric_check(_reference_rows(n))


@pytest.mark.parametrize("j", [1, 2])
def test_generating_polynomial_matches_generic_product(j):
    for i in range(1, 41):
        poly = generating_polynomial(i, j)
        assert poly == _reference_generating_polynomial(i, j)
        assert all(type(c) is Fraction for c in poly.coeffs)


# --- cross-checks against sympy ---------------------------------------------


def test_composition_sums_are_scaled_stirling_numbers():
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    for n in range(1, 31):
        for k in range(1, n + 1):
            scaled = factorial(n) // factorial(k) * composition_sum(k, n)
            assert scaled == int(numbers.stirling(n, k, kind=1))


def test_bernoulli_table_matches_sympy():
    sympy = pytest.importorskip("sympy")
    table = bernoulli_table(40)
    for m in range(41):
        if m != 1:
            expected = sympy.bernoulli(m)
            assert table[m] == Fraction(int(expected.p), int(expected.q))
    # sympy >= 1.12 takes B_1 = +1/2; this library keeps B_1 = -1/2.
    assert sympy.bernoulli(1) == sympy.Rational(1, 2)
    assert table[1] == Fraction(-1, 2)
