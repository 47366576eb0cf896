from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import re
from fractions import Fraction
from math import comb, factorial, gcd

import pytest

from fanodescent.coeffs import (
    CoeffTable,
    _binomial_moments,
    _over_common,
    _pascal_step,
    _power_sums,
    ch1_coefficient_closed,
    ch2_coefficient_closed,
    composition_sum,
    generating_polynomial,
    shared_table,
    verify_identities,
)
from fanodescent.descent import (
    CATALOGUE_NAMES,
    DIMENSION_ZERO,
    INSUFFICIENT_DATA,
    NEGATIVE_DIMENSION,
    NOT_FANO,
    CatalogueEntry,
    DescentError,
    InsufficientScalarsError,
    NonIntegralDimensionError,
    SplitChernVector,
    _from_power_sums,
    catalogue,
    descend,
    descend_chain,
    descend_direct,
    family_dimension,
    grassmannian,
    iterate_scalar,
    projective_space,
    quadric,
)
from fanodescent.exact import as_rational, bernoulli_table
from fanodescent.theorems import (
    THEOREMS,
    CertificateError,
    check_hypotheses,
    hypothesis_threshold,
    proof_trace,
)


def vec(*scalars) -> SplitChernVector:
    return SplitChernVector(tuple(Fraction(s) for s in scalars))


# --- SplitChernVector --------------------------------------------------------


def test_vector_basics():
    v = vec(4, 2, "2/3")
    assert v.dim == 3
    assert v.ch(1) == 4 and v.ch(3) == Fraction(2, 3)
    assert v.is_fano
    assert not vec(0, 1).is_fano
    assert not vec(-1).is_fano
    with pytest.raises(ValueError):
        v.ch(4)
    with pytest.raises(ValueError):
        v.ch(0)
    with pytest.raises(ValueError):
        SplitChernVector(())


@pytest.mark.parametrize("k", [True, False, 1.0, 2.0, 0, 4])
def test_ch_refuses_bool_float_and_out_of_range_degrees(k):
    # ch(True) used to return r_1 and ch(1.0) raised TypeError.
    with pytest.raises(ValueError, match=re.escape(f"ch_{k!r} not stored for a dimension-3 vector")):
        vec(4, 2, "2/3").ch(k)


@pytest.mark.parametrize("bad", [0.1, 2.0, True, False])
def test_vector_rejects_float_and_bool_scalars(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        SplitChernVector((bad, 2))


# Each entry that takes a sequence of numbers refuses a str or bytes, which
# would otherwise be read character by character or byte by byte, and a set
# or a mapping, read in the set's own order (the vector {3, 1, 2} became
# (1, 2, 3)) or as the mapping's keys.
@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: SplitChernVector("123"), "scalars must be a sequence of numbers, got str"),
        (lambda: SplitChernVector(b"12"), "scalars must be a sequence of numbers, got bytes"),
        (lambda: iterate_scalar("555", 1, 1), "x must be a sequence of numbers, got str"),
        (lambda: CoeffTable().dot(1, 1, b"12"), "x must be a sequence of numbers, got bytes"),
        (lambda: CoeffTable("10"), "bernoulli must be a sequence of numbers, got str"),
        (
            lambda: descend_chain(projective_space(3).vector, b"\x01\x01"),
            "degrees must be a sequence of numbers, got bytes",
        ),
        (
            lambda: catalogue("projective_space", b"\x04"),
            "params must be a sequence of numbers, got bytes",
        ),
        (lambda: SplitChernVector({3, 1, 2}), "scalars must be a sequence of numbers, got set"),
        (
            lambda: SplitChernVector(frozenset({1, 2})),
            "scalars must be a sequence of numbers, got frozenset",
        ),
        (
            lambda: SplitChernVector({3: 0, 1: 0}.keys()),
            "scalars must be a sequence of numbers, got dict_keys",
        ),
        (lambda: iterate_scalar({1, 2, 3}, 1, 1), "x must be a sequence of numbers, got set"),
        (lambda: CoeffTable({1: "a"}), "bernoulli must be a sequence of numbers, got dict"),
        (
            lambda: descend_chain(projective_space(4).vector, {1: "x", 2: "y"}),
            "degrees must be a sequence of numbers, got dict",
        ),
        (
            lambda: catalogue("projective_space", {4}),
            "params must be a sequence of numbers, got set",
        ),
    ],
    ids=[
        "vector-str", "vector-bytes", "iterate_scalar", "dot", "table", "chain", "catalogue",
        "vector-set", "vector-frozenset", "vector-dict-keys", "iterate_scalar-set",
        "table-dict", "chain-dict", "catalogue-set",
    ],
)
def test_sequence_entries_refuse_str_and_bytes(call, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        call()


def test_sequence_entries_take_generators_in_their_order():
    assert SplitChernVector(x for x in (3, 1, 2)).scalars == (3, 1, 2)
    assert catalogue("projective_space", (n for n in [4])).label == "P^4"


def test_vector_accepts_exact_scalars():
    v = SplitChernVector((3, Fraction(1, 2), "-2/3"))
    assert v.scalars == (3, Fraction(1, 2), Fraction(-2, 3))


@pytest.mark.parametrize("bad", [True, 1.0])
def test_curve_degrees_reject_float_and_bool(bad):
    v = projective_space(3).vector
    calls = [
        lambda: family_dimension(v, bad),
        lambda: descend(v, bad),
        lambda: descend_direct(v, 1, bad),
        lambda: descend_chain(v, [bad]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            call()


@pytest.mark.parametrize("bad", [True, False, 1.0, 2.5])
def test_integer_indices_reject_float_and_bool(bad):
    # Depths, coefficient indices and gate levels are ints; True and 1.0
    # used to pass as 1.
    v = projective_space(3).vector
    table = CoeffTable()
    calls = [
        lambda: table.coefficient(bad, 1, 1),
        lambda: table.coefficient(1, bad, 1),
        lambda: table.dot(bad, 1, [1, 1, 1, 1]),
        lambda: ch1_coefficient_closed(bad, 1),
        lambda: ch2_coefficient_closed(bad, 1),
        lambda: generating_polynomial(bad, 1),
        lambda: verify_identities(bad, table),
        lambda: descend_direct(v, bad, 1),
        lambda: check_hypotheses(v, bad, "thm4"),
        lambda: proof_trace(v, bad, "thm4"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            call()


@pytest.mark.parametrize("bad", [True, False, 1.0, 2.5])
def test_coefficient_k_rejects_float_and_bool(bad):
    # True and 1.0 used to pass as k = 1 (or crash on a list index).
    table = CoeffTable()
    calls = [
        lambda: table.coefficient(1, 1, bad),
        lambda: composition_sum(bad, 2),
        lambda: composition_sum(1, bad),
        lambda: ch1_coefficient_closed(2, bad),
        lambda: ch2_coefficient_closed(2, bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            call()


def test_coefficient_k_out_of_range_message():
    table = CoeffTable()
    for k in (0, 3):
        message = f"k = {k} out of range [1, 2] for (i, j) = (1, 1)"
        with pytest.raises(ValueError, match=re.escape(message)):
            table.coefficient(1, 1, k)
        with pytest.raises(ValueError, match=re.escape(f"k = {k} out of range [1, 2]")):
            ch1_coefficient_closed(1, k)
    with pytest.raises(ValueError, match=re.escape("1 <= k <= n, got (3, 2)")):
        composition_sum(3, 2)


# --- family dimension --------------------------------------------------------


def test_family_dimension_examples():
    assert family_dimension(projective_space(3).vector, 1) == 2
    assert family_dimension(quadric(4).vector, 1) == 2
    assert family_dimension(vec(1), 2) == 0  # conic on a dimension-1 member
    assert family_dimension(vec("5/2", 0), 2) == 3


def test_family_dimension_rejects_non_integral_degree():
    with pytest.raises(NonIntegralDimensionError):
        family_dimension(vec("5/2", 0), 1)
    with pytest.raises(ValueError):
        family_dimension(vec(3, 0), 0)


# --- single descent step -----------------------------------------------------


def test_descend_projective_three():
    step = descend(projective_space(3).vector, 1)
    assert step.family_dim == 2
    assert step.degree_used == 1
    assert step.descended.scalars == (Fraction(3), Fraction(3, 2))


def test_descend_quadric_four():
    step = descend(quadric(4).vector, 1)
    assert step.family_dim == 2
    assert step.descended.scalars == (Fraction(2), Fraction(0))


def test_descend_dimension_zero_has_no_vector():
    step = descend(projective_space(1).vector, 1)
    assert step.family_dim == 0
    assert step.descended is None


def test_descend_negative_dimension_has_no_vector():
    step = descend(vec(1, 0, 0), 1)
    assert step.family_dim == -1
    assert step.descended is None


def test_descend_requires_enough_scalars():
    # r_1 = 6 forces a 4-dimensional family, needing ch_5 of the source.
    with pytest.raises(InsufficientScalarsError) as excinfo:
        descend(vec(6, 0, 0), 1)
    assert excinfo.value.family_dim == 4


def test_descend_first_scalar_closed_form():
    # s_1 = (r_1 a - 2)/2 + r_2 a^2 for every defined step.
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(3, 7)
        a = rng.randint(1, 3)
        d = rng.randint(1, n - 1)
        r1 = Fraction(d + 2, a)
        rest = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n - 1)]
        v = SplitChernVector((r1, *rest))
        step = descend(v, a)
        assert step.descended is not None
        expected = Fraction(step.family_dim, 2) + v.ch(2) * a * a
        assert step.descended.ch(1) == expected


# --- self-similarity of the catalogue families --------------------------------


@pytest.mark.parametrize("n", range(2, 11))
def test_projective_space_descends_to_previous(n):
    step = descend(projective_space(n).vector, 1)
    assert step.descended.scalars == projective_space(n - 1).vector.scalars


@pytest.mark.parametrize("n", range(3, 11))
def test_quadric_descends_two_steps_down(n):
    step = descend(quadric(n).vector, 1)
    assert step.descended.scalars == quadric(n - 2).vector.scalars


# --- chains --------------------------------------------------------------------


def test_projective_chain_reaches_point():
    entry = projective_space(4)
    report = descend_chain(entry.vector, entry.degrees)
    assert len(report.steps) == 4
    assert report.terminal == DIMENSION_ZERO
    assert report.n_first_non_fano == 4
    assert report.degree_sequence == (1, 1, 1, 1)


def test_quadric_chain_with_catalogue_degrees():
    entry = quadric(5)
    report = descend_chain(entry.vector, entry.degrees)
    assert [s.family_dim for s in report.steps] == [3, 1, 0]
    assert report.terminal == DIMENSION_ZERO
    assert report.n_first_non_fano == 3


def test_quadric_chain_default_degrees_hits_negative_dimension():
    # Without the final conic step the dimension-1 member admits no
    # degree-1 family: the attempt is not recorded as a step.
    report = descend_chain(quadric(5).vector)
    assert len(report.steps) == 2
    assert report.terminal == NEGATIVE_DIMENSION
    assert report.n_first_non_fano is None


def test_chain_reports_insufficient_data_without_a_step():
    report = descend_chain(vec(6, 0, 0))
    assert report.terminal == INSUFFICIENT_DATA
    assert report.n_first_non_fano is None
    assert report.steps == ()


def test_chain_stops_at_non_fano_member():
    # descend((4, -2, 0), 1) gives dim 2 and s_1 = 1 - 2 = -1 < 0.
    report = descend_chain(vec(4, -2, 0))
    assert report.terminal == NOT_FANO
    assert report.n_first_non_fano == 1
    assert report.steps[0].descended.ch(1) == -1


def test_chain_dims_strictly_decrease():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(2, 8)
        scalars = [Fraction(rng.randint(-4, 8), rng.randint(1, 3)) for _ in range(n)]
        scalars[0] = Fraction(rng.randint(1, n + 1))
        try:
            report = descend_chain(SplitChernVector(tuple(scalars)))
        except NonIntegralDimensionError:
            continue
        dims = [n] + [s.family_dim for s in report.steps]
        assert all(a > b for a, b in zip(dims, dims[1:]))


@pytest.mark.parametrize("n", range(1, 11))
def test_chain_invariants_projective(n):
    entry = projective_space(n)
    report = descend_chain(entry.vector, entry.degrees)
    assert report.n_first_non_fano == n


@pytest.mark.parametrize("n", range(1, 11))
def test_chain_invariants_quadric(n):
    entry = quadric(n)
    report = descend_chain(entry.vector, entry.degrees)
    assert report.n_first_non_fano == (n + 1) // 2


# --- direct descent -------------------------------------------------------------


def test_iterate_scalar_is_the_depth_i_sum():
    tab = shared_table()
    x = [Fraction(7, k) - k for k in range(1, 9)]
    for i in range(5):
        for j in range(1, 4):
            expected = Fraction(-i, factorial(j)) + sum(
                tab.coefficient(i, j, k) * x[k - 1] for k in range(1, i + j + 1)
            )
            assert iterate_scalar(x, i, j) == expected
    # depth 0 is the identity descent
    assert [iterate_scalar(x, 0, j) for j in range(1, 9)] == x


def test_direct_depth_one_equals_single_step():
    for v, a in [(projective_space(6).vector, 1), (quadric(7).vector, 1), (vec("5/2", 1, 0, 0), 2)]:
        assert descend_direct(v, 1, a).scalars == descend(v, a).descended.scalars


def test_direct_projective_and_quadric():
    assert descend_direct(projective_space(5).vector, 2, 1).scalars == (
        projective_space(3).vector.scalars
    )
    assert descend_direct(quadric(6).vector, 2, 1).scalars == quadric(2).vector.scalars
    assert descend_direct(projective_space(8).vector, 4, 1).scalars == (
        projective_space(4).vector.scalars
    )


def test_direct_raises_when_chain_ends_early():
    with pytest.raises(DescentError):
        descend_direct(projective_space(2).vector, 3, 1)


def test_direct_propagates_insufficient_scalars():
    with pytest.raises(InsufficientScalarsError):
        descend_direct(vec(6, 0, 0), 1, 1)


def random_defined_vectors(count: int, seed: int = 20250809):
    """Deterministic pool of split vectors with at least one defined step.

    Feasible depth is probed with the iterated walk; vectors that fail
    immediately are discarded so every yielded item supports depth >= 1.
    """
    rng = random.Random(seed)
    pool = [Fraction(p, q) for p in range(-6, 7) for q in (1, 2, 3, 4)]
    produced = 0
    while produced < count:
        n = rng.randint(3, 8)
        a = rng.randint(1, 2)
        d1 = rng.randint(1, n - 1)
        scalars = [Fraction(d1 + 2, a)] + [rng.choice(pool) for _ in range(n - 1)]
        v = SplitChernVector(tuple(scalars))
        depth = 0
        current = v
        for level in range(1, 5):
            try:
                step = descend(current, a if level == 1 else 1)
            except DescentError:
                break
            if step.descended is None:
                break
            depth = level
            current = step.descended
        if depth < 1:
            continue
        produced += 1
        yield v, a, depth


def test_direct_equals_iterated_on_random_pool():
    checked = 0
    for v, a, depth in random_defined_vectors(200):
        current = v
        for i in range(1, depth + 1):
            current = descend(current, a if i == 1 else 1).descended
            assert descend_direct(v, i, a).scalars == current.scalars
            checked += 1
    assert checked >= 200


# --- catalogue -------------------------------------------------------------------


def test_catalogue_projective_space():
    entry = catalogue("projective_space", [4])
    assert entry.vector.scalars == (
        Fraction(5),
        Fraction(5, 2),
        Fraction(5, 6),
        Fraction(5, 24),
    )
    assert entry.degrees == (1, 1, 1, 1)
    assert entry.chains == (("P^4", "P^3", "P^2", "P^1", "pt"),)
    assert entry.n_lower == entry.n_upper == 4


def test_catalogue_quadric():
    entry = catalogue("quadric", [6])
    expected = tuple(Fraction(8 - 2**k, factorial(k)) for k in range(1, 7))
    assert entry.vector.scalars == expected
    assert entry.degrees == (1, 1, 1)
    assert entry.chains == (("Q^6", "Q^4", "Q^2", "pt"),)
    odd = catalogue("quadric", [5])
    assert odd.degrees == (1, 1, 2)
    assert odd.chains == (("Q^5", "Q^3", "Q^1", "pt"),)
    assert catalogue("quadric", [1]).degrees == (2,)


def test_split_catalogue_entries_are_written_out():
    # Every field of P^n and Q^n, n = 1..40, from the closed forms:
    # r_k = (n+1)/k! and (n+2-2^k)/k!, one dimension (P) or two (Q) per
    # step, and an odd quadric's last step a conic (degree 2).
    for n in range(1, 41):
        members = tuple(f"P^{d}" for d in range(n, 0, -1)) + ("pt",)
        scalars = tuple(Fraction(n + 1, factorial(k)) for k in range(1, n + 1))
        assert projective_space(n) == CatalogueEntry(
            name="projective_space",
            params=(n,),
            label=f"P^{n}",
            split=True,
            vector=SplitChernVector(scalars, label=f"P^{n}"),
            degrees=(1,) * n,
            chains=(members,),
            n_lower=n,
            n_upper=n,
        )
        steps = (n + 1) // 2
        members = tuple(f"Q^{d}" for d in range(n, 0, -2)) + ("pt",)
        scalars = tuple(Fraction(n + 2 - 2**k, factorial(k)) for k in range(1, n + 1))
        assert quadric(n) == CatalogueEntry(
            name="quadric",
            params=(n,),
            label=f"Q^{n}",
            split=True,
            vector=SplitChernVector(scalars, label=f"Q^{n}"),
            degrees=(1,) * (steps - 1) + ((2,) if n % 2 else (1,)),
            chains=(members,),
            n_lower=steps,
            n_upper=steps,
        )
        assert len(members) == steps + 1


def test_catalogue_grassmannian():
    entry = grassmannian(2, 5)
    assert not entry.split
    assert entry.vector is None
    assert entry.n_lower == 2 and entry.n_upper == 3
    assert entry.chains[0] == ("G(2,5)", "P^1xP^2", "pt")
    assert entry.chains[1] == ("G(2,5)", "P^1xP^2", "P^1", "pt")


def test_grassmannian_chains_have_as_many_steps_as_their_invariants():
    accepted = 0
    for m in range(2, 13):
        for k in range(1, m):
            try:
                entry = grassmannian(k, m)
            except ValueError:
                assert k in (1, m - 1)
                continue
            accepted += 1
            steps = sorted(len(chain) - 1 for chain in entry.chains)
            assert steps == [entry.n_lower, entry.n_upper], (k, m)
            assert all(chain[0] == entry.label and chain[-1] == "pt" for chain in entry.chains)
    assert accepted == sum(m - 3 for m in range(4, 13))


def test_catalogue_validation():
    with pytest.raises(ValueError):
        catalogue("flag_variety", [2])
    with pytest.raises(ValueError):
        catalogue("projective_space", [0])
    with pytest.raises(ValueError):
        catalogue("projective_space", [2, 3])
    with pytest.raises(ValueError):
        grassmannian(3, 3)


_FAMILIES = "choose from projective_space, quadric, grassmannian"


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("flag_variety", [2], f"unknown manifold family 'flag_variety'; {_FAMILIES}"),
        ("", [], f"unknown manifold family ''; {_FAMILIES}"),
        ("Quadric", [3], f"unknown manifold family 'Quadric'; {_FAMILIES}"),
        ("projective_space", [], "projective_space takes 1 integer parameter(s), got 0"),
        ("projective_space", [2, 3], "projective_space takes 1 integer parameter(s), got 2"),
        ("quadric", (3, 7), "quadric takes 1 integer parameter(s), got 2"),
        ("grassmannian", [2], "grassmannian takes 2 integer parameter(s), got 1"),
        ("grassmannian", [2, 5, 1], "grassmannian takes 2 integer parameter(s), got 3"),
        # G(1, m) and G(m-1, m) are P^{m-1}, whose first family P^{m-2} is split.
        ("grassmannian", [1, 2], "G(1,2) is the projective space P^1; use projective_space(1)"),
        ("grassmannian", [1, 4], "G(1,4) is the projective space P^3; use projective_space(3)"),
        ("grassmannian", [3, 4], "G(3,4) is the projective space P^3; use projective_space(3)"),
        ("grassmannian", [6, 7], "G(6,7) is the projective space P^6; use projective_space(6)"),
    ],
)
def test_catalogue_refusal_texts(name, params, message):
    with pytest.raises(ValueError) as excinfo:
        catalogue(name, params)
    assert str(excinfo.value) == message


def test_catalogue_names_list_every_family_in_order():
    assert CATALOGUE_NAMES == ("projective_space", "quadric", "grassmannian")
    params = {"projective_space": [2], "quadric": [3], "grassmannian": [2, 5]}
    names = [catalogue(name, params[name]).name for name in CATALOGUE_NAMES]
    assert names == list(CATALOGUE_NAMES)


@pytest.mark.parametrize(
    "builder, params, message",
    [
        (projective_space, (True,), "projective_space needs n >= 1, got True"),
        (projective_space, (2.0,), "projective_space needs n >= 1, got 2.0"),
        (projective_space, (0,), "projective_space needs n >= 1, got 0"),
        (quadric, (True,), "quadric needs n >= 1, got True"),
        (quadric, (3.0,), "quadric needs n >= 1, got 3.0"),
        (quadric, (-1,), "quadric needs n >= 1, got -1"),
        (grassmannian, (True, 3), "grassmannian needs 0 < k < m, got (True, 3)"),
        (grassmannian, (2, 5.0), "grassmannian needs 0 < k < m, got (2, 5.0)"),
        (grassmannian, (2.0, 5), "grassmannian needs 0 < k < m, got (2.0, 5)"),
        (grassmannian, (0, 5), "grassmannian needs 0 < k < m, got (0, 5)"),
        (grassmannian, (3, 3), "grassmannian needs 0 < k < m, got (3, 3)"),
        (grassmannian, (4, 2), "grassmannian needs 0 < k < m, got (4, 2)"),
    ],
)
def test_catalogue_builders_refuse_bool_float_and_small_parameters(builder, params, message):
    # Bools used to pass (P^True), floats raised TypeError; int messages are unchanged.
    with pytest.raises(ValueError) as excinfo:
        builder(*params)
    assert str(excinfo.value) == message


# --- the integer-row kernel against the per-term Fraction sum ------------------
#
# The library brings each vector over one common denominator and builds
# one Fraction per descended scalar.  The reference below is the sum
# written out term by term in Fractions, weight a^k included.


def _reference_scalar(table, r, a, i, j, top=None):
    """-i/j! + sum_{k=1}^{top} c(i, j, k) * r_k * a^k, top defaulting to i + j."""
    total = Fraction(-i, factorial(j))
    for k in range(1, (i + j if top is None else top) + 1):
        total += table.coefficient(i, j, k) * r[k - 1] * a**k
    return total


def _flipped_table():
    seed = bernoulli_table(2)
    seed[1] = -seed[1]
    return CoeffTable(seed)


# Numerators -9..9 (zero included) over coprime prime powers.
_ORACLE_POOL = [Fraction(p, q) for p in range(-9, 10) for q in (1, 2, 4, 8, 3, 9, 27, 5, 25, 7, 49)]


def _reference_descend(table, r, a):
    """One descent step by the reference sum; the family dimension r_1 * a - 2 >= 1."""
    return [_reference_scalar(table, r, a, 1, j) for j in range(1, int(r[0] * a) - 1)]


def _oracle_vectors(table, seed, count):
    """Seeded (vector, a, steps): a walk with degrees (a, 1, 1, ...) of ``steps`` steps.

    r_{s+1} enters r_1 of the member at depth s once, with the weight
    a^{s+1} (every descent row ends in the coefficient 1), so it is solved
    for to give that member a chosen integral r_1, falling by 1 to 3 per
    step until a member is a point, has no family or is not Fano.  The
    other entries, zeros and negatives among them, come from the pool.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 9)
        a = rng.choice((1, 2, 3))
        r = [rng.choice(_ORACLE_POOL) for _ in range(n)]
        r[rng.randrange(1, n)] = Fraction(0)
        degree = rng.randint(3, n + 1)  # r_1 * a, a family of dimension 1..n-1
        r[0] = Fraction(degree, a)
        steps = 1
        while degree > 2:
            degree -= rng.randint(1, 3)
            r[steps] = Fraction(0)
            member = _reference_descend(table, r, a)
            for _ in range(steps - 1):
                member = _reference_descend(table, member, 1)
            r[steps] = (degree - member[0]) / a ** (steps + 1)
            steps += 1 if degree > 1 else 0
        yield SplitChernVector(tuple(r)), a, steps


@pytest.mark.parametrize("flip", [False, True], ids=["honest", "flip_b1"])
def test_descend_and_chain_match_reference_sum(flip):
    table = _flipped_table() if flip else CoeffTable()
    compared = 0
    for v, a, steps in _oracle_vectors(table, 11 + flip, 120):
        expected = _reference_descend(table, v.scalars, a)
        assert list(descend(v, a, table).descended.scalars) == expected
        report = descend_chain(v, [a], table)
        assert len(report.steps) == steps
        source = v
        for step in report.steps:
            if step.descended is None:
                break
            expected = _reference_descend(table, source.scalars, step.degree_used)
            assert list(step.descended.scalars) == expected
            source = step.descended
            compared += 1
    assert compared >= 200


@pytest.mark.parametrize("flip", [False, True], ids=["honest", "flip_b1"])
def test_descend_direct_matches_reference_sum(flip):
    table = _flipped_table() if flip else CoeffTable()
    compared = 0
    for v, a, steps in _oracle_vectors(table, 21 + flip, 120):
        for i in range(1, steps + 1):
            try:
                result = descend_direct(v, i, a, table)
            except DescentError:
                continue
            # The family at depth i has dimension r_1 - 2 of the member above.
            d = int(_reference_scalar(table, v.scalars, a, i - 1, 1)) - 2
            assert result.dim == d
            assert list(result.scalars) == [
                _reference_scalar(table, v.scalars, a, i, j) for j in range(1, d + 1)
            ]
            compared += 1
    assert compared >= 150


def _reference_levels(table, x, m, thm4):
    """Per level 1..m-1, the certificate's three bounds as reference sums."""
    for i in range(1, m):
        yield {
            "dim_bound": _reference_scalar(table, x, 1, i - 1, 1) - 2,
            # thm4 keeps the top term of c1 aside.
            "c1_margin": _reference_scalar(table, x, 1, i, 1, top=i if thm4 else None),
            "t2ch2_bound": _reference_scalar(table, x, 1, i - 1, 2),
        }


@pytest.mark.parametrize("flip", [False, True], ids=["honest", "flip_b1"])
def test_proof_trace_matches_reference_sum(flip):
    table = _flipped_table() if flip else CoeffTable()
    rng = random.Random(31 + flip)
    issued = refused = 0
    for theorem in THEOREMS:
        for m in range(2, 10):
            for _ in range(4):
                slack = [
                    Fraction(rng.randint(0, 6), rng.choice((1, 2, 4, 3, 9, 5, 25, 7)))
                    for _ in range(m)
                ]
                thresholds = [hypothesis_threshold(theorem, m, k) for k in range(1, m + 1)]
                scalars = [t + s for t, s in zip(thresholds, slack)]
                v = SplitChernVector((*scalars, rng.choice(_ORACLE_POOL)))
                for at_actual in (False, True):
                    x = scalars if at_actual else thresholds
                    refs = list(_reference_levels(table, x, m, theorem == "thm4"))
                    try:
                        cert = proof_trace(v, m, theorem, table, at_actual)
                    except CertificateError as err:
                        # Every refusal names the full-route value it saw.
                        value = re.escape(str(refs[err.level - 1][err.quantity]))
                        assert re.search(rf"(gives|value|bound) {value}[, ]", str(err))
                        refused += 1
                        continue
                    assert [
                        {"dim_bound": lv.dim_bound, "c1_margin": lv.c1_margin,
                         "t2ch2_bound": lv.t2ch2_bound}
                        for lv in cert.per_level
                    ] == refs
                    issued += 1
    if flip:
        # The flipped B_1 breaks the threshold-mode closed forms.
        assert refused >= 96
    else:
        assert issued >= 150


@pytest.mark.parametrize("flip", [False, True], ids=["honest", "flip_b1"])
def test_iterate_scalar_and_dot_match_reference_sum(flip):
    table = _flipped_table() if flip else CoeffTable()
    rng = random.Random(41 + flip)
    for _ in range(40):
        x = [rng.choice(_ORACLE_POOL) for _ in range(8)]
        for i in range(5):
            for j in range(1, 4):
                expected = _reference_scalar(table, x, 1, i, j)
                assert iterate_scalar(x, i, j, table) == expected
                assert table.dot(i, j, x) == expected + Fraction(i, factorial(j))


def test_as_rational_returns_a_fraction_as_is():
    f = Fraction(7, 12)
    assert as_rational(f) is f
    assert as_rational(3) == 3 and type(as_rational(3)) is Fraction
    # A vector keeps the Fractions it is given; it does not copy them.
    assert SplitChernVector((f, 1)).scalars[0] is f


@pytest.mark.parametrize("bad", [0.5, 1.0, True])
def test_iterate_scalar_and_dot_refuse_bad_input(bad):
    table = CoeffTable()
    calls = [
        lambda: iterate_scalar([bad, 1, 1], 1, 1, table),
        lambda: table.dot(1, 1, [1, bad]),
        lambda: iterate_scalar([1, 1, 1], bad, 1, table),
        lambda: table.dot(1, bad, [1, 1, 1]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            call()
    for i, j in ((-1, 1), (0, 0)):
        with pytest.raises(ValueError, match="coefficient indices"):
            iterate_scalar([1, 1, 1], i, j, table)
        with pytest.raises(ValueError, match="coefficient indices"):
            table.dot(i, j, [1, 1, 1])
    with pytest.raises(IndexError, match=re.escape("row (1, 2) needs 3 scalars, got 2")):
        iterate_scalar([1, 1], 1, 2, table)
    with pytest.raises(IndexError, match=re.escape("row (2, 2) needs 4 scalars, got 3")):
        table.dot(2, 2, [1, 2, 3])


# --- the power-sum basis ---------------------------------------------------------


def test_catalogue_vectors_have_power_sums_over_denominator_one():
    # k! * r_k is the k-th power sum of the Chern roots: n + 1 for P^n and
    # n + 2 - 2^k for Q^n.
    for n in range(1, 101):
        for build, power_sum in (
            (projective_space, lambda k: n + 1),
            (quadric, lambda k: n + 2 - 2**k),
        ):
            scaled, common = _over_common(build(n).vector.scalars)
            assert common == 1, (build.__name__, n)
            assert scaled == [power_sum(k) for k in range(1, n + 1)], (build.__name__, n)


def _mixed_degree_vectors(table, seed, count):
    """Seeded (vector, degrees): every chain member has an integral anticanonical degree.

    The degrees are drawn from {1, 2, 3}.  r_{s+1} enters r_1 of the member
    at depth s linearly, so it is solved for to give that member the
    chosen degree, which falls by 1 to 3 per step.
    """
    rng = random.Random(seed)

    def member_r1(r, degrees, s):
        member = r
        for a in degrees[:s]:
            member = _reference_descend(table, member, a)
        return member[0]

    for _ in range(count):
        n = rng.randint(3, 9)
        degrees = [rng.choice((1, 2, 3)) for _ in range(n)]
        r = [rng.choice(_ORACLE_POOL) for _ in range(n)]
        degree = rng.randint(3, n + 1)  # a first family of dimension 1..n-1
        r[0] = Fraction(degree, degrees[0])
        s = 1
        while degree > 2:
            degree -= rng.randint(1, 3)
            r[s] = Fraction(0)
            base = member_r1(r, degrees, s)
            r[s] = Fraction(1)
            weight = member_r1(r, degrees, s) - base
            r[s] = (Fraction(degree, degrees[s]) - base) / weight
            s += 1
        yield SplitChernVector(tuple(r)), degrees


def _reference_chain(table, r, degrees):
    """(steps, terminal) of the walk by reference sums; steps are (a, d, scalars or None)."""
    steps = []
    while True:
        a = degrees[len(steps)] if len(steps) < len(degrees) else 1
        assert (r[0] * a).denominator == 1
        d = int(r[0] * a) - 2
        if d >= 1 and len(r) < d + 1:
            return steps, INSUFFICIENT_DATA
        if d < 0:
            return steps, NEGATIVE_DIMENSION
        if d == 0:
            steps.append((a, 0, None))
            return steps, DIMENSION_ZERO
        r = _reference_descend(table, r, a)
        steps.append((a, d, r))
        if r[0] <= 0:
            return steps, NOT_FANO


@pytest.mark.parametrize("flip", [False, True], ids=["honest", "flip_b1"])
def test_descend_chain_with_mixed_degrees_matches_reference_sum(flip):
    table = _flipped_table() if flip else CoeffTable()
    compared = 0
    for v, degrees in _mixed_degree_vectors(table, 51 + flip, 100):
        report = descend_chain(v, degrees, table)
        steps, terminal = _reference_chain(table, list(v.scalars), degrees)
        assert report.terminal == terminal
        assert [
            (s.degree_used, s.family_dim, s.descended and list(s.descended.scalars))
            for s in report.steps
        ] == steps
        compared += len(steps)
    assert compared >= 150


# --- binomial moments ----------------------------------------------------------------


def _moments_of(v):
    return _binomial_moments(*_over_common(v.scalars))


def test_binomial_moments_of_the_catalogue():
    # lambda_l = L(C(t, l)) = sum over the roots of C(root, l).  The power sums
    # n + 1 of P^n are those of n + 1 roots 1, and n + 2 - 2^k of Q^n those of
    # n + 2 roots 1 less one root 2, so lambda = (n + 2)[l = 1] - C(2, l).
    for n in range(1, 71):
        assert _moments_of(projective_space(n).vector) == ([n + 1], 1), n
        assert _moments_of(quadric(n).vector) == ([n, -1] if n > 1 else [1], 1), n


def test_binomial_moments_of_complete_intersections():
    # Type (d) in P^N: rho_k = N + 1 - d^k, so lambda_l = (N+1)[l = 1] - C(d, l),
    # for the N - 1 scalars of the hypersurface; trailing zeros are dropped.
    for big_n in range(2, 31):
        for d in range(1, 8):
            power_sums = [big_n + 1 - d**k for k in range(1, big_n)]
            expected = [(big_n + 1 if l == 1 else 0) - comb(d, l) for l in range(1, big_n)]
            while expected and not expected[-1]:
                expected.pop()
            assert _binomial_moments(power_sums, 1) == (expected, 1), (big_n, d)


def _power_sums_by_rows(moments, top):
    """rho_k = sum_l S2(k, l) * l! * lambda_l, k = 1..top, by rows; the surjection
    numbers by inclusion-exclusion, zero for l > k."""
    def surjections(k, l):
        return sum((-1) ** i * comb(l, i) * (l - i) ** k for i in range(l + 1))

    return [sum(surjections(k, l) * m for l, m in enumerate(moments, 1)) for k in range(1, top + 1)]


def test_power_sums_invert_binomial_moments_on_pool_vectors():
    rng = random.Random(61)
    # Empty moments, interior zeros, and (for small top) more moments than top.
    edges = [[], [5], [0, 0, 3], [3, 0, -2, 0, 7], [-1, 2, 0, 0, 0, 4], [0, 9]]
    for _ in range(300):
        n = rng.randint(1, 14)
        r = [rng.choice(_ORACLE_POOL) for _ in range(n)]
        scaled, common = _over_common(r)
        moments, den = _binomial_moments(scaled, common)
        # One reduced form: no factor is shared by den and every numerator.
        assert den > 0 and gcd(den, *moments) == 1
        assert len(moments) <= n and (not moments or moments[-1])
        sums = _power_sums(moments, n)
        assert [Fraction(p, den) for p in sums] == [Fraction(s, common) for s in scaled]
        holed = moments[:]
        if len(holed) > 2:
            holed[rng.randrange(1, len(holed) - 1)] = 0
        for top in range(1, n + 3):
            for lam in (moments, holed):
                assert _power_sums(lam, top) == _power_sums_by_rows(lam, top), (lam, top)
    for lam in edges:
        for top in range(1, 9):
            assert _power_sums(lam, top) == _power_sums_by_rows(lam, top), (lam, top)


def test_vectors_from_power_sums_equal_the_public_constructors():
    rng = random.Random(67)
    for _ in range(100):
        n = rng.randint(1, 12)
        den = rng.choice((1, 2, 3, 12, 35))
        sums = [rng.randint(-50, 50) for _ in range(n)]
        label = rng.choice((None, "X", "Q^3"))
        built = _from_power_sums(sums, den, label)
        public = SplitChernVector(
            tuple(Fraction(p, factorial(k) * den) for k, p in enumerate(sums, 1)), label
        )
        for v in (built, pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
            assert v == public and hash(v) == hash(public) and repr(v) == repr(public)
            assert all(type(x) is Fraction for x in v.scalars)
        assert pickle.dumps(built) == pickle.dumps(public)
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.label = "Y"


def test_one_pascal_step_is_one_catalogue_step():
    for n in range(2, 71):
        moments, den = _moments_of(projective_space(n).vector)
        assert _pascal_step(moments, den, n - 1) == _moments_of(projective_space(n - 1).vector)[0]
    for n in range(3, 71):
        moments, den = _moments_of(quadric(n).vector)
        assert _pascal_step(moments, den, n - 2) == _moments_of(quadric(n - 2).vector)[0]


def _chain_outcome(v, degrees, table=None):
    """The report of descend_chain, or the type and text of what it raised."""
    try:
        return descend_chain(v, degrees, table)
    except DescentError as err:
        return type(err), str(err)


def _cross_route_cases(seed, count):
    """Seeded (vector, degrees): every terminal, and non-integral dimensions.

    The vectors of ``_mixed_degree_vectors`` walk integral chains; copies
    are cut short (missing scalars), have a tail entry redrawn from the
    pool (a later member may have a non-integral degree) or walk other
    degree lists, none among them.
    """
    rng = random.Random(seed)
    for v, degrees in _mixed_degree_vectors(CoeffTable(), seed, count):
        r = list(v.scalars)
        yield v, degrees
        yield v, None
        yield SplitChernVector(r[: rng.randint(1, len(r))]), degrees
        redrawn = r[:]
        redrawn[rng.randrange(1, len(r))] = rng.choice(_ORACLE_POOL)
        yield SplitChernVector(redrawn), degrees
        yield v, [rng.choice((1, 2, 3)) for _ in range(rng.randint(0, 4))]


def _complete_intersections(seed, count):
    """Seeded (vector, degrees): a Fano type (d_1..d_c) in P^N, N <= 30, c = 1..3, each
    d_i in 2..5.

    rho_k = N + 1 - sum_i d_i^k for the N - c scalars, so the moments
    are nonzero up to l = max d_i.
    """
    rng = random.Random(seed)
    for _ in range(count):
        c = rng.randint(1, 3)
        ds = [rng.randint(2, 5) for _ in range(c)]
        big_n = rng.randint(max(sum(ds), c + 1), 30)
        sums = [big_n + 1 - sum(d**k for d in ds) for k in range(1, big_n - c + 1)]
        v = SplitChernVector(tuple(Fraction(p, factorial(k)) for k, p in enumerate(sums, 1)))
        yield v, rng.choice((None, [rng.choice((1, 2, 3)) for _ in range(rng.randint(0, 4))]))


def test_chain_on_moments_equals_chain_on_rows_on_random_vectors():
    rows = CoeffTable([Fraction(1)])
    seen = set()
    for v, degrees in (*_cross_route_cases(71, 80), *_complete_intersections(73, 80)):
        outcome = _chain_outcome(v, degrees)
        assert outcome == _chain_outcome(v, degrees, rows), (v, degrees)
        seen.add(outcome[0] if isinstance(outcome, tuple) else outcome.terminal)
    assert seen >= {
        DIMENSION_ZERO, NOT_FANO, INSUFFICIENT_DATA, NEGATIVE_DIMENSION, NonIntegralDimensionError
    }


def test_chain_on_moments_equals_chain_on_rows_on_the_catalogue():
    rows = CoeffTable([Fraction(1)])
    for n in range(1, 71):
        for entry in (projective_space(n), quadric(n)):
            for degrees in (entry.degrees, None):
                report = descend_chain(entry.vector, degrees)
                assert report == descend_chain(entry.vector, degrees, rows), (entry.label, degrees)
        # An odd quadric's chain ends on its degree-2 step, to a point.
        if n % 2:
            report = descend_chain(quadric(n).vector, quadric(n).degrees)
            assert report.degree_sequence[-1] == 2 and report.terminal == DIMENSION_ZERO


def test_honest_chain_reads_no_coefficient_row(monkeypatch):
    def refuse(self, i, j):
        raise AssertionError(f"row ({i}, {j}) read")

    monkeypatch.setattr(CoeffTable, "_row", refuse)
    entry = projective_space(64)
    report = descend_chain(entry.vector, entry.degrees)
    assert (report.terminal, report.n_first_non_fano) == (DIMENSION_ZERO, 64)
    assert [s.descended.scalars for s in report.steps[:-1]] == [
        projective_space(d).vector.scalars for d in range(63, 0, -1)
    ]
    assert descend_chain(entry.vector, entry.degrees, CoeffTable()) == report
    with pytest.raises(AssertionError, match=re.escape("row (1, ")):
        descend_chain(entry.vector, entry.degrees, CoeffTable([Fraction(1)]))
