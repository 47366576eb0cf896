"""The split Chern model and descent along minimal rational-curve families.

A manifold enters the model as a vector of rational scalars r_1..r_n,
one per degree of its Chern character against a distinguished
polarization.  Descending to the minimal family of degree-a rational
curves produces a shorter vector over the family's own polarization;
iterating builds chains whose first non-Fano member defines the chain
invariant N.  Single steps, direct descent and the certificates sum
coefficient rows against the vector's power sums k! * r_k.  A chain on
an honest table reads no row: it carries each member's binomial moments
L(C(t, l)), where L(t^k) = k! * r_k, and one step of curve degree 1 is
one Pascal step on them.  Two model manifold families (projective
spaces, quadric hypersurfaces) are built in; Grassmannians are
catalogued by chain shape only since their minimal families leave the
scalar model.

Each kind of value has one constructor.  ``_from_power_sums`` turns
integer power sums over one denominator into a vector: the catalogue's
vectors and every chain member read back from its moments.
``_at_depth`` reads a depth-i iterate off coefficient rows, for
``descend`` and ``descend_direct``.  ``_split_entry`` builds every split
catalogue entry from its power sums, degrees and chain labels.
"""

from __future__ import annotations

import copyreg
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Callable, Sequence

from .coeffs import (
    _DEPTH,
    CoeffTable,
    _binomial_moments,
    _honest,
    _over_common,
    _pascal_step,
    _power_sums,
    _row_scalars,
    shared_table,
)
from .exact import _check_int, _check_sequence, _fraction, _shown, _text, as_rational

__all__ = [
    "DescentError",
    "NonIntegralDimensionError",
    "InsufficientScalarsError",
    "SplitChernVector",
    "DescentStep",
    "ChainReport",
    "DIMENSION_ZERO",
    "NOT_FANO",
    "INSUFFICIENT_DATA",
    "NEGATIVE_DIMENSION",
    "family_dimension",
    "iterate_scalar",
    "descend",
    "descend_direct",
    "descend_chain",
    "CatalogueEntry",
    "projective_space",
    "quadric",
    "grassmannian",
    "catalogue",
    "CATALOGUE_NAMES",
]


class DescentError(ValueError):
    """A descent step cannot be carried out on the given data."""


class NonIntegralDimensionError(DescentError):
    """The first Chern scalar times the curve degree is not an integer.

    That product is the anticanonical degree of the curves in the family
    and must be integral for any consistent model.
    """


class InsufficientScalarsError(DescentError):
    """The vector is too short to express the descended scalars.

    Raised when the family dimension d satisfies d + 1 > dim: the step
    would need the degree-(d+1) Chern scalar, which the model does not
    carry.  ``family_dim`` records the d that was attempted.
    """

    def __init__(self, message: str, family_dim: int):
        super().__init__(message)
        self.family_dim = family_dim

    def __reduce__(self):
        # Pickled and copied as its message and attributes, not through
        # __init__, whose arguments are not ``args``.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


@dataclass(frozen=True)
class SplitChernVector:
    """A manifold whose degree-k Chern character is r_k times c1(L)^k.

    ``scalars`` lists r_1..r_n; the manifold dimension is the length.
    Positivity of a class in this model is positivity of its scalar, so
    the manifold is Fano exactly when r_1 > 0.
    """

    scalars: tuple[Fraction, ...]
    label: str | None = None

    def __post_init__(self):
        _check_sequence(self.scalars, "scalars")
        # Tuples are built from lists here and in the descent and gate
        # results: tuple() over a generator over-allocates and then
        # shrinks, and the shrunk tuples pile up in the interpreter's tuple
        # free lists until a full garbage collection, megabytes over a
        # long run of small requests.
        coerced = tuple([as_rational(s) for s in self.scalars])
        if not coerced:
            raise ValueError("a split Chern vector needs at least one scalar")
        object.__setattr__(self, "scalars", coerced)

    @property
    def dim(self) -> int:
        return len(self.scalars)

    def ch(self, k: int) -> Fraction:
        """The degree-k Chern scalar r_k, 1-indexed; k must be an int."""
        if type(k) is not int or not 1 <= k <= self.dim:
            raise ValueError(f"ch_{_shown(k)} not stored for a dimension-{self.dim} vector")
        return self.scalars[k - 1]

    @property
    def is_fano(self) -> bool:
        return self.scalars[0] > 0


@dataclass(frozen=True)
class DescentStep:
    """One descent: the curve degree used, the family dimension it gave,
    and the descended vector (present only when the dimension is >= 1
    and the source carried enough scalars)."""

    degree_used: int
    family_dim: int
    descended: SplitChernVector | None


DIMENSION_ZERO = "dimension_zero"
NOT_FANO = "not_fano"
INSUFFICIENT_DATA = "insufficient_data"
NEGATIVE_DIMENSION = "negative_dimension"


@dataclass(frozen=True)
class ChainReport:
    """Record of a full descent walk.

    ``n_first_non_fano`` is the index of the step that produced the
    first non-Fano member (a point or a vector with r_1 <= 0); it is
    None when the walk ended for a bookkeeping reason instead
    (missing scalars, or no degree-1 family at the attempted step).
    """

    steps: tuple[DescentStep, ...]
    degree_sequence: tuple[int, ...]
    terminal: str
    n_first_non_fano: int | None


_DEGREE = "curve degree must be a positive integer"


def _family_dim(num: int, den: int, carried: int | None = None, where: str = "") -> int:
    """The family dimension degree - 2 from an anticanonical degree num/den.

    The degree must be an integer, which ``num % den`` decides (den > 0);
    a Fraction is built only for the error message.  When ``carried`` is
    given, a positive dimension d also needs ch_{d+1} among the
    ``carried`` scalars of the source, which the descended scalars
    consume.
    """
    degree, rest = divmod(num, den)
    if rest:
        raise NonIntegralDimensionError(
            f"anticanonical degree {_text(Fraction(num, den))}{where} is not an integer; "
            "the model is inconsistent for this curve degree"
        )
    d = degree - 2
    if carried is not None and d >= 1 and carried < d + 1:
        raise InsufficientScalarsError(
            f"descent to a dimension-{_text(d)} family{where} needs ch_{_text(d + 1)}, but "
            f"its source only carries scalars up to degree {carried}",
            family_dim=d,
        )
    return d


def family_dimension(v: SplitChernVector, a: int) -> int:
    """Dimension of the minimal family of degree-a rational curves: r_1*a - 2."""
    _check_int(a, 1, _DEGREE)
    r = v.scalars[0]
    return _family_dim(r.numerator * a, r.denominator)


def iterate_scalar(
    x: Sequence[Fraction], i: int, j: int, table: CoeffTable | None = None
) -> Fraction:
    """The degree-j scalar of the i-th iterated family:

        -i/j! + sum_{k=1}^{i+j} c(i, j, k) * x[k-1],

    where x lists at least i + j source scalars, already weighted by
    the powers of the first curve degree (r_k * a^k).  Depth 0 is the
    identity.  The power sums k! * x[k-1] are brought over one common
    denominator and the result is one Fraction, built from an integer
    sum by ``exact._fraction`` (denominator > 0, one gcd).
    """
    tab = table or shared_table()
    return _fraction(*tab._descended(i, j, *_row_scalars(i, j, x)))


def _weighted(v: SplitChernVector, a: int, top: int) -> tuple[list[int], int]:
    """The power sums k! * r_k * a^k for k = 1..top, as integer numerators
    over one common denominator.

    The weight multiplies the numerators only; nothing is multiplied
    when a = 1.
    """
    scaled, common = _over_common(v.scalars[:top])
    if a != 1:
        scaled = [r * a**k for k, r in enumerate(scaled, start=1)]
    return scaled, common


_new, _set = object.__new__, object.__setattr__


def _from_power_sums(sums: list[int], den: int, label: str | None = None) -> SplitChernVector:
    """The vector with r_k = sums[k-1] / (k! * den), k = 1..len(sums).

    Each scalar is one Fraction built from its integer pair by
    ``exact._fraction`` (den > 0, one gcd), so the vector is built without
    ``__post_init__``, whose coercion and refusal of an empty vector have
    nothing to do here: every caller passes at least one power sum.
    """
    facts = accumulate(range(1, len(sums) + 1), mul)
    v = _new(SplitChernVector)
    _set(v, "scalars", tuple([_fraction(p, f * den) for p, f in zip(sums, facts)]))
    _set(v, "label", label)
    return v


def _at_depth(
    table: CoeffTable, i: int, d: int, scaled: list[int], common: int
) -> SplitChernVector:
    """The depth-i iterate's d scalars s_1..s_d, from the weighted power
    sums ``scaled`` over ``common``, each one Fraction built from the
    table's integer pair by ``exact._fraction``."""
    return SplitChernVector(
        tuple([_fraction(*table._descended(i, j, scaled, common)) for j in range(1, d + 1)])
    )


def descend(v: SplitChernVector, a: int, table: CoeffTable | None = None) -> DescentStep:
    """One descent step to the minimal family of degree-a curves.

    For family dimension d >= 1 the descended scalars are

        s_j = -1/j! + sum_{k=1}^{j+1} c(1, j, k) * r_k * a^k,   j = 1..d,

    which consumes r_{d+1}; a shorter vector raises
    InsufficientScalarsError.  For d <= 0 the step records the dimension
    and carries no vector.  The weighted power sums k! * r_k * a^k are
    brought over one common denominator once per step (it is 1 for P^n
    and Q^n), and each s_j is one Fraction built from an integer sum by
    ``exact._fraction``, whose denominator j! * den * common is positive.
    """
    _check_int(a, 1, _DEGREE)
    r = v.scalars[0]
    d = _family_dim(r.numerator * a, r.denominator, v.dim)
    if d <= 0:
        return DescentStep(a, d, None)
    scaled, common = _weighted(v, a, d + 1)
    return DescentStep(a, d, _at_depth(table or shared_table(), 1, d, scaled, common))


def descend_direct(
    v: SplitChernVector, i: int, a1: int, table: CoeffTable | None = None
) -> SplitChernVector:
    """The i-th iterated family in one evaluation (degrees a1, 1, 1, ...).

    Uses the depth-i coefficients directly:

        s_j = -i/j! + sum_{k=1}^{i+j} c(i, j, k) * r_k * a1^k,

    with the same per-level dimension bookkeeping the step-by-step walk
    performs, so it raises exactly when the iterated walk would.  The
    weighted power sums k! * r_k * a1^k are brought over one common
    denominator once, for every level check and every final scalar.
    """
    _check_int(i, 1, _DEPTH)
    _check_int(a1, 1, _DEGREE)
    tab = table or shared_table()
    scaled, common = _weighted(v, a1, v.dim)
    d = v.dim
    for level in range(1, i + 1):
        # Curves at this level have anticanonical degree r_1 of the member
        # above.  Each level lowers d by at least one, so no row read here
        # or below needs more than the v.dim weighted scalars.
        num, den = tab._descended(level - 1, 1, scaled, common)
        d = _family_dim(num, den, d, f" at level {level}")
        if d < 1:
            raise DescentError(
                f"chain reaches family dimension {_text(d)} at level {level}; "
                f"no dimension-{_text(i)} iterate exists"
            )
    return _at_depth(tab, i, d, scaled, common)


def _moment_walk(v: SplitChernVector) -> Callable[[int], DescentStep]:
    """One chain step after another from v, carried on binomial moments.

    Each call takes the curve degree of the next step and returns the
    step ``descend`` would give on an honest table.  The walk keeps the
    member's binomial moments lambda_l = L(C(t, l)) as integer numerators
    over one denominator (see ``coeffs._binomial_moments``), converted
    from the power sums of v once, at the first step, and again only
    after a step of degree a != 1, which scales rho_k by a^k.  Since
    r_1 = lambda_1, the family dimension is read off lambda_1; a step of
    degree 1 is then the Pascal step lambda_l + lambda_{l+1} - [l = 1],
    l = 1..d, and the member's scalars k! * r_k are read back one column
    of surjection numbers per nonzero moment (``coeffs._power_sums``).
    No coefficient row is read.
    """
    moments: list[int] | None = None
    r = v.scalars[0]
    den, dim = r.denominator, v.dim

    def step(a: int) -> DescentStep:
        nonlocal moments, den, dim
        lead = r.numerator if moments is None else moments[0]
        d = _family_dim(lead * a, den, dim)
        if d <= 0:
            return DescentStep(a, d, None)
        if moments is None:
            moments, den = _binomial_moments(*_weighted(v, a, d + 1))
        elif a != 1:
            sums = _power_sums(moments, d + 1)
            moments, den = _binomial_moments([p * a**k for k, p in enumerate(sums, 1)], den)
        moments, dim = _pascal_step(moments, den, d), d
        return DescentStep(a, d, _from_power_sums(_power_sums(moments, d), den))

    return step


def descend_chain(
    v: SplitChernVector,
    degrees: tuple[int, ...] | list[int] | None = None,
    table: CoeffTable | None = None,
) -> ChainReport:
    """Walk descent steps until the chain terminates.

    Step i uses degrees[i-1] when provided and 1 otherwise.  A step of
    family dimension 0 is a genuine chain member (a point, the first
    non-Fano one) and is recorded.  Attempts that produce no member at
    all are not recorded as steps: a negative dimension (no family of
    that degree exists) and missing scalars both only set the terminal
    cause, which keeps family dimensions strictly decreasing along the
    recorded steps.

    On an honest table (``table`` None or built without a Bernoulli
    prefix) the walk carries the members' binomial moments from step to
    step (``_moment_walk``): a degree-1 step to a dimension-d family is
    one Pascal step, O(d), and its d scalars are read back one column
    per nonzero moment: lambda_1 fills them all, and each further
    nonzero lambda_l adds one pass over d - l + 1 of them.  The
    catalogue's moments have one or two nonzero entries, so a walk on
    P^n or Q^n costs O(n^2) besides one Fraction per reported scalar (one
    gcd each, by ``exact._fraction``), where rows cost about n^3 / 6
    multiply-adds; a dense vector still costs about n^3 / 6.  A table
    with a prefix is followed row by row through ``descend``, so a
    corrupted prefix is followed exactly.
    """
    if degrees is not None:
        _check_sequence(degrees, "degrees")
        for a in degrees:
            _check_int(a, 1, _DEGREE)
    if _honest(table):
        walk = _moment_walk(v)
    else:
        current = v

        def walk(a: int) -> DescentStep:
            nonlocal current
            step = descend(current, a, table)
            current = step.descended
            return step

    steps: list[DescentStep] = []
    terminal = None
    n_value: int | None = None
    while terminal is None:
        idx = len(steps)
        a = degrees[idx] if degrees is not None and idx < len(degrees) else 1
        try:
            step = walk(a)
        except InsufficientScalarsError:
            terminal = INSUFFICIENT_DATA
            break
        if step.family_dim < 0:
            terminal = NEGATIVE_DIMENSION
            break
        steps.append(step)
        if step.family_dim == 0:
            terminal = DIMENSION_ZERO
            n_value = len(steps)
        elif not step.descended.is_fano:
            terminal = NOT_FANO
            n_value = len(steps)
    return ChainReport(
        tuple(steps), tuple([s.degree_used for s in steps]), terminal, n_value
    )


@dataclass(frozen=True)
class CatalogueEntry:
    """A model manifold: split vector (when the model applies), the
    degree sequence that realizes its chain, the expected chain labels,
    and the expected first/last non-Fano indices."""

    name: str
    params: tuple[int, ...]
    label: str
    split: bool
    vector: SplitChernVector | None
    degrees: tuple[int, ...] | None
    chains: tuple[tuple[str, ...], ...]
    n_lower: int
    n_upper: int


def _split_entry(
    name: str, n: int, sums: list[int], degrees: tuple[int, ...], members: tuple[str, ...]
) -> CatalogueEntry:
    """The split entry whose vector has the integer power sums ``sums``
    and whose chain ``members`` run from the manifold down to "pt".

    The manifold is labelled ``members[0]``, and N, both its lower and
    its upper chain invariant, is the number of steps, ``len(degrees)``.
    """
    label, steps = members[0], len(degrees)
    vector = _from_power_sums(sums, 1, label)
    return CatalogueEntry(name, (n,), label, True, vector, degrees, (members,), steps, steps)


def projective_space(n: int) -> CatalogueEntry:
    """P^n with r_k = (n+1)/k!; its chain drops one dimension per step."""
    _check_int(n, 1, "projective_space needs n >= 1")
    members = tuple(f"P^{d}" for d in range(n, 0, -1)) + ("pt",)
    return _split_entry("projective_space", n, [n + 1] * n, (1,) * n, members)


def quadric(n: int) -> CatalogueEntry:
    """Q^n with r_k = (n+2-2^k)/k!; its chain drops two dimensions per step.

    The degree sequence is all ones except that an odd chain ends at a
    dimension-1 member whose minimal rational curve is a conic in the
    inherited polarization, so the final step uses degree 2.
    """
    _check_int(n, 1, "quadric needs n >= 1")
    sums = [n + 2 - 2**k for k in range(1, n + 1)]
    steps = (n + 1) // 2
    degrees = (1,) * (steps - 1) + (2,) if n % 2 else (1,) * steps
    members = tuple(f"Q^{d}" for d in range(n, 0, -2)) + ("pt",)
    return _split_entry("quadric", n, sums, degrees, members)


_GRASSMANNIAN = "grassmannian needs 0 < k < m"


def grassmannian(k: int, m: int) -> CatalogueEntry:
    """G(k, m) for 2 <= k <= m - 2: chain shape only.

    The first family is a product P^{k-1} x P^{m-k-1} of projective
    spaces, which has no split vector, so no descent is possible; the two
    chain branches and the resulting invariants min{k, m-k} and
    max{k, m-k} are catalogued as stated shapes.  G(1, m) and G(m-1, m)
    are the projective space P^{m-1}, whose first family P^{m-2} is
    split, so they are refused in favour of ``projective_space``.
    """
    _check_int(k, 1, _GRASSMANNIAN, (k, m))
    _check_int(m, k + 1, _GRASSMANNIAN, (k, m))
    if k in (1, m - 1):
        n = _text(m - 1)
        raise ValueError(
            f"G({_text(k)},{_text(m)}) is the projective space P^{n}; use projective_space({n})"
        )
    head = (f"G({k},{m})", f"P^{k - 1}xP^{m - k - 1}")

    def branch(top: int) -> tuple[str, ...]:
        return head + tuple(f"P^{d}" for d in range(top, 0, -1)) + ("pt",)

    return CatalogueEntry(
        name="grassmannian",
        params=(k, m),
        label=f"G({k},{m})",
        split=False,
        vector=None,
        degrees=None,
        chains=(branch(k - 2), branch(m - k - 2)),
        n_lower=min(k, m - k),
        n_upper=max(k, m - k),
    )


# Each family's builder and the number of integer parameters it takes.
_BUILDERS = {
    "projective_space": (projective_space, 1),
    "quadric": (quadric, 1),
    "grassmannian": (grassmannian, 2),
}
CATALOGUE_NAMES = tuple(_BUILDERS)


def catalogue(name: str, params: tuple[int, ...] | list[int]) -> CatalogueEntry:
    """Look up a model manifold by family name and integer parameters."""
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown manifold family {name!r}; choose from {', '.join(CATALOGUE_NAMES)}"
        )
    builder, arity = _BUILDERS[name]
    _check_sequence(params, "params")
    params = tuple(params)
    if len(params) != arity:
        raise ValueError(f"{name} takes {arity} integer parameter(s), got {len(params)}")
    return builder(*params)
