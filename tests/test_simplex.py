import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hicalib.errors import (
    AbsoluteContinuityViolation,
    DimensionMismatch,
    SumMismatch,
    ZeroDenominator,
)
from hicalib.simplex import (
    dist_from_json,
    entropy,
    kl_divergence,
    l1_distance_exact,
    make_rational_dist,
    point_mass,
    uniform,
)
from reference import l1_distance


def dists(d=None, full_support=False):
    lo = 1 if full_support else 0
    dim = st.just(d) if d else st.integers(2, 6)
    return dim.flatmap(
        lambda n: st.lists(st.integers(lo, 30), min_size=n, max_size=n)
    ).map(
        lambda units: make_rational_dist(
            units if any(units) else [1] + [0] * (len(units) - 1), max(sum(units), 1)
        )
    )


class TestMakeRationalDist:
    def test_gcd_reduction(self):
        a = make_rational_dist([8, 4], 12)
        assert (a.numerators, a.denominator) == ((2, 1), 3)

    def test_point_mass_fixed_point(self):
        a = make_rational_dist([1, 0, 0], 1)
        assert (a.numerators, a.denominator) == ((1, 0, 0), 1)

    def test_sum_mismatch(self):
        with pytest.raises(SumMismatch):
            make_rational_dist([3, 2], 6)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            make_rational_dist([0, 0], 0)

    def test_dimension_floor(self):
        with pytest.raises(DimensionMismatch):
            make_rational_dist([1], 1)

    def test_json_round_trip(self):
        a = make_rational_dist([2, 3, 5], 10)
        assert dist_from_json(a.to_json()) == a


class TestL1:
    def test_identity(self):
        a = make_rational_dist([3, 5], 8)
        assert l1_distance(a, a) == 0.0

    def test_disjoint_point_masses(self):
        assert l1_distance(point_mass(2, 1), point_mass(2, 2)) == 2.0

    def test_hand_value(self):
        a = make_rational_dist([1, 1], 2)
        b = make_rational_dist([3, 1], 4)
        assert l1_distance_exact(a, b) == Fraction(1, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            l1_distance(uniform(2), uniform(3))


class TestEntropy:
    def test_point_mass(self):
        assert entropy(point_mass(5, 3)) == 0.0

    def test_uniform(self):
        assert entropy(uniform(4)) == pytest.approx(math.log(4), abs=1e-12)

    def test_half_support(self):
        a = make_rational_dist([1, 1, 0, 0], 2)
        assert entropy(a) == pytest.approx(math.log(2), abs=1e-12)


class TestKL:
    def test_self_is_zero(self):
        a = make_rational_dist([2, 3, 5], 10)
        assert kl_divergence(a, a) == 0.0

    def test_point_vs_uniform(self):
        assert kl_divergence(point_mass(2, 1), uniform(2)) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_hand_value(self):
        # independent evaluation: 0.75 ln(3/2) + 0.25 ln(1/2)
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        x = make_rational_dist([3, 1], 4)
        p = uniform(2)
        assert kl_divergence(x, p) == pytest.approx(0.1308120359411370, abs=1e-9)
        assert kl_divergence(x, p) == pytest.approx(expected, abs=1e-12)

    def test_absolute_continuity(self):
        with pytest.raises(AbsoluteContinuityViolation):
            kl_divergence(uniform(2), point_mass(2, 1))


class TestCanonicalKey:
    def test_scaled_forms_share_key(self):
        assert make_rational_dist([8, 4], 12) == make_rational_dist([2, 1], 3)

    def test_distinct_points_differ(self):
        assert make_rational_dist([1, 1], 2) != make_rational_dist([1, 3], 4)


@given(dists(), dists())
def test_l1_bounds(a, b):
    if a.d != b.d:
        return
    v = l1_distance_exact(a, b)
    assert 0 <= v <= 2


@given(dists(d=4), dists(d=4), dists(d=4))
def test_l1_triangle(a, b, c):
    assert l1_distance_exact(a, c) <= l1_distance_exact(a, b) + l1_distance_exact(b, c)


@given(dists(d=3), dists(d=3, full_support=True))
def test_pinsker(x, p):
    assert l1_distance(x, p) ** 2 <= 2 * kl_divergence(x, p) + 1e-9


@given(dists())
def test_entropy_bounds(a):
    assert -1e-12 <= entropy(a) <= math.log(a.d) + 1e-12


@given(dists(), st.integers(1, 50))
def test_key_congruence(a, scale):
    scaled = make_rational_dist(
        [n * scale for n in a.numerators], a.denominator * scale
    )
    assert scaled == a


class TestPointType:
    """One type per simplex point: the point is its own key."""

    def test_repr_names_the_key_type(self):
        # Benchmark reference digests hash this repr.
        assert repr(make_rational_dist([2, 2], 4)) == (
            "PredictionKey(numerators=(1, 1), denominator=2)"
        )

    def test_equals_and_hashes_like_its_tuple(self):
        a = make_rational_dist([6, 3], 9)
        assert a == ((2, 1), 3) and hash(a) == hash(((2, 1), 3))
        assert {((2, 1), 3): "x"}[a] == "x"
        assert {a: "y"}[((2, 1), 3)] == "y"

    def test_points_sort_as_tuples(self):
        pts = [make_rational_dist(n, sum(n)) for n in ([1, 1], [0, 1], [1, 0], [2, 1], [1, 3])]
        assert sorted(pts) == sorted(pts, key=lambda p: (tuple(p.numerators), p.denominator))
        assert [tuple(p) for p in sorted(pts)] == sorted(tuple(p) for p in pts)

    def test_point_mass_is_the_one_hot_vector(self):
        assert point_mass(3, 2) == make_rational_dist([0, 1, 0], 1)
        assert point_mass(3, 2).value(1) == 1 and point_mass(3, 2).d == 3


def _reference_dist(nums, den):
    """Naive make_rational_dist: the same checks in the same order, reduction by Fraction."""
    if den <= 0:
        raise ZeroDenominator(den)
    if len(nums) < 2:
        raise DimensionMismatch(len(nums))
    if any(n < 0 for n in nums):
        raise SumMismatch(nums)
    if sum(nums) != den:
        raise SumMismatch(nums)
    fracs = [Fraction(n, den) for n in nums]
    common = math.lcm(*(f.denominator for f in fracs))
    return tuple(int(f * common) for f in fracs), common


def _result_or_error(fn, *args):
    try:
        return fn(*args)
    except (ZeroDenominator, DimensionMismatch, SumMismatch) as exc:
        return type(exc)


_unit = st.one_of(st.just(0), st.integers(1, 9), st.integers(2**64, 2**70))


@settings(max_examples=40)
@given(
    st.integers(2, 300).flatmap(lambda d: st.lists(_unit, min_size=d, max_size=d)),
    st.one_of(st.just(1), st.integers(2, 12), st.integers(2**64, 2**66)),
)
def test_constructor_matches_fraction_reference(units, scale):
    nums = [u * scale for u in units]
    got = _result_or_error(make_rational_dist, nums, sum(nums))
    want = _result_or_error(_reference_dist, nums, sum(nums))
    if isinstance(want, tuple):
        assert (got.numerators, got.denominator) == want
    else:
        assert got is want


@given(
    st.lists(st.one_of(st.integers(-3, 9), st.integers(2**64, 2**65)), max_size=6),
    st.integers(-2, 2),
    st.one_of(st.none(), st.integers(-3, 0)),
)
@example([-1, 2], 0, None)  # negative entry, right sum
@example([1, 2], 1, None)  # wrong sum
@example([1], 0, None)  # d < 2
@example([0, 0], 0, None)  # den 0
@example([1, 1], 0, -2)  # den < 0
def test_constructor_errors_match_reference(nums, off, den_override):
    den = sum(nums) + off if den_override is None else den_override
    got = _result_or_error(make_rational_dist, nums, den)
    want = _result_or_error(_reference_dist, nums, den)
    if isinstance(want, tuple):
        assert (got.numerators, got.denominator) == want
    else:
        assert got is want
