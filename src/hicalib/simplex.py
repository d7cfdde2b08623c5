"""Exact arithmetic on the probability simplex over a finite outcome space.

Distributions are vectors of nonnegative integer numerators over a shared
positive denominator, kept in canonical (gcd-reduced) form so that equal
points of the simplex compare, hash, and serialize identically.  A point is
its own key: `PredictionKey` (alias `RationalDist`) is the one point type,
a (numerators, denominator) named tuple, and `make_rational_dist` is its one
validating constructor.  Exactness matters because calibration errors group
days by *equal* predictions: a float-keyed grouping would silently split
identical predictions.  Outcomes are plain 1-based ints.

Information functionals (entropy, KL, l1 distance) return floats computed
from the exact representation; the convention 0*ln(0) = 0 applies
throughout.  Numerators and denominators are arbitrary-precision ints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import (
    AbsoluteContinuityViolation,
    DimensionMismatch,
    SumMismatch,
    ZeroDenominator,
)


class PredictionKey(NamedTuple):
    """A point of the simplex in canonical form; build via make_rational_dist.

    The point is its own key: equal points are equal, hash equal and sort
    equal as (numerators, denominator) tuples.
    """

    numerators: tuple[int, ...]
    denominator: int

    @property
    def d(self) -> int:
        return len(self.numerators)

    def value(self, i: int) -> Fraction:
        """Mass at 0-based coordinate i."""
        return Fraction(self.numerators[i], self.denominator)

    def to_json(self) -> list:
        """JSON array form [[n_1,...,n_d], den], used in transcript files."""
        return [list(self.numerators), self.denominator]


RationalDist = PredictionKey


def make_rational_dist(numerators: Sequence[int], denominator: int) -> RationalDist:
    """Validate and gcd-reduce a numerator vector over a common denominator."""
    if denominator <= 0:
        raise ZeroDenominator(f"denominator must be positive, got {denominator}")
    nums = tuple(map(int, numerators))
    if len(nums) < 2:
        raise DimensionMismatch(f"need d >= 2 coordinates, got {len(nums)}")
    if min(nums) < 0:
        raise SumMismatch(f"negative numerator in {nums}")
    total = sum(nums)
    if total != denominator:
        raise SumMismatch(f"numerators sum to {total}, denominator is {denominator}")
    g = math.gcd(denominator, *nums)
    if g > 1:
        nums = tuple(n // g for n in nums)
        denominator //= g
    return PredictionKey(nums, denominator)


def uniform(d: int) -> RationalDist:
    return make_rational_dist((1,) * d, d)


def point_mass(d: int, index: int) -> RationalDist:
    """Point mass at 1-based coordinate `index`."""
    if not 1 <= index <= d:
        raise DimensionMismatch(f"index {index} outside [1, {d}]")
    return make_rational_dist(tuple(1 if i == index - 1 else 0 for i in range(d)), 1)


def _check_dims(a: RationalDist, b: RationalDist) -> None:
    if a.d != b.d:
        raise DimensionMismatch(f"dimension {a.d} vs {b.d}")


def l1_distance_exact(a: RationalDist, b: RationalDist) -> Fraction:
    """Sum_i |a_i - b_i| as an exact rational, in [0, 2]."""
    _check_dims(a, b)
    da, db = a.denominator, b.denominator
    total = sum(abs(na * db - nb * da) for na, nb in zip(a.numerators, b.numerators))
    return Fraction(total, da * db)


def l1_distance(a: RationalDist, b: RationalDist) -> float:
    return float(l1_distance_exact(a, b))


def entropy(a: RationalDist) -> float:
    """Sum_i a_i ln(1/a_i) with 0 ln(1/0) = 0; in [0, ln d]."""
    den = a.denominator
    s = 0.0
    for n in a.numerators:
        if n:
            s += n * math.log(n)
    val = math.log(den) - s / den
    return max(val, 0.0)


def kl_divergence(x: RationalDist, p: RationalDist) -> float:
    """Sum_i x_i ln(x_i / p_i), zero terms dropped; >= 0.

    Requires p_i > 0 wherever x_i > 0.
    """
    _check_dims(x, p)
    dx, dp = x.denominator, p.denominator
    s = 0.0
    for nx, np in zip(x.numerators, p.numerators):
        if nx == 0:
            continue
        if np == 0:
            raise AbsoluteContinuityViolation(
                "x has mass where p has none; KL undefined"
            )
        s += nx * math.log(nx * dp / (dx * np))
    return max(s / dx, 0.0)


def dist_from_json(obj) -> RationalDist:
    """Parse the [[n_1,...,n_d], den] transcript form."""
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not isinstance(obj[0], (list, tuple))
    ):
        raise SumMismatch(f"not a serialized distribution: {obj!r}")
    return make_rational_dist(obj[0], obj[1])
