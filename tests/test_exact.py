from __future__ import annotations

import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fanodescent.coeffs import CoeffTable, composition_sum, generating_polynomial
from fanodescent.descent import (
    DescentError,
    InsufficientScalarsError,
    SplitChernVector,
    descend,
    descend_direct,
    grassmannian,
    iterate_scalar,
    projective_space,
)
from fanodescent.exact import (
    Rational,
    _fraction,
    bernoulli_table,
    binomial,
    compositions,
    elementary_symmetric,
    extend_bernoulli,
)


class NaiveFrac:
    """Independent unreduced fraction used as a cross-check oracle.

    Stores numerator/denominator verbatim and compares by
    cross-multiplication, so it shares no normalization code with the
    Fraction-based implementation under test.
    """

    def __init__(self, num, den=1):
        if den == 0:
            raise ZeroDivisionError
        self.num, self.den = num, den

    def __add__(self, other):
        return NaiveFrac(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return NaiveFrac(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return NaiveFrac(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return NaiveFrac(self.num * other.den, self.den * other.num)

    def equals(self, frac: Fraction) -> bool:
        return self.num * frac.denominator == frac.numerator * self.den


small_ints = st.integers(min_value=-(2**31), max_value=2**31)
nonzero_small = small_ints.filter(lambda v: v != 0)


@given(small_ints, nonzero_small, small_ints, nonzero_small)
def test_rational_ops_match_naive_oracle(p1, q1, p2, q2):
    a, b = Fraction(p1, q1), Fraction(p2, q2)
    na, nb = NaiveFrac(p1, q1), NaiveFrac(p2, q2)
    assert (na + nb).equals(a + b)
    assert (na - nb).equals(a - b)
    assert (na * nb).equals(a * b)
    if p2 != 0:
        assert (na / nb).equals(a / b)
    for res in (a + b, a - b, a * b):
        assert res.denominator > 0
        assert math.gcd(res.numerator, res.denominator) == 1


def _fraction_cases(seed, count):
    """Seeded (n, d): n in [-2^200, 2^200], d in [1, 2^200], with small,
    zero, unit and shared-factor cases at every size."""
    rng = random.Random(seed)
    top = 2**200
    yield from [(0, 1), (0, top), (1, 1), (-1, 1), (top, top), (-top, 1), (6, 4), (-6, 4)]
    for _ in range(count):
        bits = rng.choice((4, 40, 200))
        n = rng.randint(-(2**bits), 2**bits) if rng.random() < 0.9 else 0
        d = rng.randint(1, 2**rng.choice((4, 40, 200)))
        if rng.random() < 0.5:
            # A common factor, so that the gcd divides something out.
            g = rng.randint(2, 2**rng.choice((3, 60)))
            n, d = n * g, d * g
        yield max(-top, min(n, top)), min(d, top)


def test_direct_fraction_equals_the_standard_constructor():
    for n, d in _fraction_cases(101, 3000):
        got, want = _fraction(n, d), Fraction(n, d)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert type(got.numerator) is int and type(got.denominator) is int
        assert got == want and hash(got) == hash(want)
        assert str(got) == str(want) and repr(got) == repr(want)
        back = pickle.loads(pickle.dumps(got))
        assert type(back) is Fraction and back == want
        assert (back.numerator, back.denominator) == (want.numerator, want.denominator)
        assert got + 1 == want + 1 and type(got + 1) is Fraction


def test_rational_is_exact_fraction():
    assert Rational is Fraction
    assert Rational(1, 3) + Rational(1, 6) == Rational(1, 2)


# --- Bernoulli -------------------------------------------------------------

# First values derived by hand from the recurrence
# sum_{j=0}^{m} C(m+1, j) B_j = 0:
#   B_2: 1 + 3(-1/2) + 3 B_2 = 0        -> B_2 = 1/6
#   B_4: 1 + 5(-1/2) + 10/6 + 0 + 5 B_4 = 0 -> B_4 = -1/30
KNOWN_BERNOULLI = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
]


def test_bernoulli_first_values():
    assert bernoulli_table(0) == [Fraction(1)]
    assert bernoulli_table(6) == KNOWN_BERNOULLI


def test_bernoulli_convention_is_minus_one_half():
    assert bernoulli_table(1)[1] == Fraction(-1, 2)


def test_bernoulli_odd_entries_vanish():
    table = bernoulli_table(30)
    for m in range(3, 31, 2):
        assert table[m] == 0


def test_bernoulli_generating_function_product():
    # (sum B_m t^m / m!) * ((e^t - 1)/t) must be 1 up to the truncation order.
    order = 30
    table = bernoulli_table(order)
    left = [table[m] / math.factorial(m) for m in range(order + 1)]
    right = [Fraction(1, math.factorial(r + 1)) for r in range(order + 1)]
    for deg in range(order + 1):
        coeff = sum(left[s] * right[deg - s] for s in range(deg + 1))
        assert coeff == (1 if deg == 0 else 0), f"degree {deg}"


# --- binomial ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n,k,expected", [(5, 0, 1), (5, 2, 10), (3, 7, 0), (0, 0, 1), (12, 6, 924)]
)
def test_binomial_values(n, k, expected):
    assert binomial(n, k) == expected


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


# --- compositions -----------------------------------------------------------


def test_compositions_examples():
    assert list(compositions(1, 3)) == [(3,)]
    assert list(compositions(2, 3)) == [(1, 2), (2, 1)]
    assert list(compositions(3, 2)) == []


def test_compositions_lexicographic_and_valid():
    for k in range(1, 7):
        for n in range(1, 9):
            tuples = list(compositions(k, n))
            assert tuples == sorted(tuples)
            assert len(set(tuples)) == len(tuples)
            for parts in tuples:
                assert len(parts) == k
                assert all(part >= 1 for part in parts)
                assert sum(parts) == n


def test_compositions_cardinality():
    for n in range(1, 13):
        for k in range(1, n + 1):
            count = sum(1 for _ in compositions(k, n))
            assert count == binomial(n - 1, k - 1)


def test_compositions_rejects_nonpositive():
    with pytest.raises(ValueError):
        list(compositions(0, 3))
    with pytest.raises(ValueError):
        list(compositions(2, 0))


# --- elementary symmetric ---------------------------------------------------


def test_elementary_symmetric_small_cases():
    values = [Fraction(1), Fraction(2), Fraction(3)]
    assert elementary_symmetric(0, values) == 1
    assert elementary_symmetric(1, values) == 6
    assert elementary_symmetric(2, values) == 11  # 1*2 + 1*3 + 2*3
    assert elementary_symmetric(3, values) == 6


def test_elementary_symmetric_rejects_out_of_range():
    with pytest.raises(ValueError):
        elementary_symmetric(4, [1, 2, 3])
    with pytest.raises(ValueError):
        elementary_symmetric(-1, [1])


@given(
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=0,
        max_size=7,
    )
)
def test_elementary_symmetric_matches_subset_expansion(values):
    # Independent oracle: sum of products over all l-subsets.
    import itertools

    for l in range(len(values) + 1):
        direct = sum(
            (math.prod(sub, start=Fraction(1)) for sub in itertools.combinations(values, l)),
            Fraction(0),
        )
        assert elementary_symmetric(l, values) == direct


# Past the default limit of int <-> str conversion (4300 digits), a refusal
# that names a pair still prints both entries digit for digit.
_HUGE = 10**5000


@pytest.mark.parametrize(
    "call, head",
    [
        (lambda: CoeffTable().coefficient(-1, _HUGE, 1),
         "coefficient indices require i >= 0 and j >= 1, got (-1, "),
        (lambda: grassmannian(0, _HUGE), "grassmannian needs 0 < k < m, got (0, "),
        (lambda: composition_sum(0, _HUGE), "composition_sum requires 1 <= k <= n, got (0, "),
        (lambda: binomial(-1, _HUGE), "binomial arguments must be non-negative, got (-1, "),
        (lambda: list(compositions(0, _HUGE)),
         "compositions requires k >= 1 and n >= 1, got (0, "),
    ],
    ids=["coefficient", "grassmannian", "composition_sum", "binomial", "compositions"],
)
def test_pair_refusals_past_the_int_digit_limit_keep_their_text(call, head):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == f"{head}1{'0' * 5000})"


_HUGE_TEXT = f"1{'0' * 5000}"


@pytest.mark.parametrize(
    "call, error, text",
    [
        (lambda: projective_space(3).vector.ch(_HUGE), ValueError,
         f"ch_{_HUGE_TEXT} not stored for a dimension-3 vector"),
        (lambda: CoeffTable().coefficient(1, 1, _HUGE), ValueError,
         f"k = {_HUGE_TEXT} out of range [1, 2] for (i, j) = (1, 1)"),
        (lambda: CoeffTable().coefficient(_HUGE, 1, 0), ValueError,
         f"k = 0 out of range [1, 1{'0' * 4999}1] for (i, j) = ({_HUGE_TEXT}, 1)"),
        # d = 4*10**5000 - 2 needs ch_{d+1} of a vector that carries three.
        (lambda: descend(projective_space(3).vector, _HUGE), InsufficientScalarsError,
         f"descent to a dimension-3{'9' * 4999}8 family needs ch_3{'9' * 5000}, "
         "but its source only carries scalars up to degree 3"),
        (lambda: descend_direct(projective_space(3).vector, _HUGE, 1), DescentError,
         "chain reaches family dimension 0 at level 3; "
         f"no dimension-{_HUGE_TEXT} iterate exists"),
        (lambda: descend_direct(SplitChernVector((-_HUGE, 1, 1)), 1, 1), DescentError,
         f"chain reaches family dimension -1{'0' * 4999}2 at level 1; "
         "no dimension-1 iterate exists"),
        (lambda: iterate_scalar([1] * 3, _HUGE, 1), IndexError,
         f"row ({_HUGE_TEXT}, 1) needs 1{'0' * 4999}1 scalars, got 3"),
        (lambda: generating_polynomial(1, _HUGE), ValueError,
         f"generating polynomials exist only for j in {{1, 2}}, got {_HUGE_TEXT}"),
        (lambda: extend_bernoulli([], -_HUGE), ValueError, f"max_m must be >= 0, got -{_HUGE_TEXT}"),
        (lambda: elementary_symmetric(_HUGE, [1]), ValueError,
         f"elementary_symmetric index {_HUGE_TEXT} out of range for 1 values"),
    ],
    ids=[
        "ch", "coefficient-k", "coefficient-i", "descend", "descend_direct-depth",
        "descend_direct-dimension", "iterate_scalar", "generating_polynomial",
        "extend_bernoulli", "elementary_symmetric",
    ],
)
def test_number_refusals_past_the_int_digit_limit_keep_their_text(call, error, text):
    # Only requests the library refuses: a valid request this large would
    # start work that nothing bounds.
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == text


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: binomial(Fraction(-1, 2), 3),
         "binomial arguments must be non-negative, got (-1/2, 3)"),
        (lambda: binomial(2, -1.5), "binomial arguments must be non-negative, got (2, -1.5)"),
        (lambda: list(compositions(Fraction(1, 2), 3)),
         "compositions requires k >= 1 and n >= 1, got (1/2, 3)"),
        (lambda: extend_bernoulli([], Fraction(-1, 2)), "max_m must be >= 0, got -1/2"),
        (lambda: elementary_symmetric(-0.5, [1]),
         "elementary_symmetric index -0.5 out of range for 1 values"),
    ],
    ids=["binomial-fraction", "binomial-float", "compositions", "extend_bernoulli",
         "elementary_symmetric"],
)
def test_exact_refusals_write_arguments_that_are_not_ints_as_str_does(call, text):
    # Only an int is formatted past the digit limit; a Fraction still reads p/q.
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == text
