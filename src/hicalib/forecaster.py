"""The L-level hierarchical forecaster.

Level ``l`` (1-based) splits the horizon of ``T = S * H**L`` days into
intervals of ``T_{l-1} = S * H**(L-l+1)`` days, works through each interval
in ``H`` iterations of ``T_l = S * H**(L-l)`` days, and during one iteration
predicts the smoothed empirical outcome frequency of the *completed*
iterations of the current interval:

    prediction  =  (counts + (m * T_l / d) * ones) / ((h - 1 + m) * T_l)

held fixed for the iteration's ``T_l`` days.  ``m`` is the integer smoothing
mass (the accuracy parameter is ``eps = 1/m``), so predictions are exact
rationals with denominator ``d * (h - 1 + m) * T_l`` and full support.  Each
day the forecaster's output distribution puts weight ``1/L`` on every
level's current prediction (equal keys merged); in sampled mode a level is
drawn uniformly at random.

Parameters (d, L, H, S, m) are decoupled so that desk-scale horizons exist;
``coupled_parameters`` recovers the regime the guarantees target, with T
growing like d**3 * m**6 * (m**4)**L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress
from typing import Iterable, Sequence

from .errors import (
    BudgetExceeded,
    ConfigInvalid,
    DimensionMismatch,
    InconsistentCounts,
    OutOfRange,
    SumMismatch,
    ZeroDenominator,
)
from .rng import Stream
from .simplex import PredictionKey, RationalDist

# No prediction goes through make_rational_dist; it stays bound here so that
# perfbench/tracer.py can patch it by name.
from .simplex import make_rational_dist  # noqa: F401

DEFAULT_DAY_BUDGET = 2**26


@dataclass(frozen=True)
class ForecastConfig:
    """Forecaster parameters; all derived horizons are exact integers."""

    d: int
    L: int
    H: int
    S: int
    m: int

    def __post_init__(self):
        if self.d < 2:
            raise ConfigInvalid(f"d must be >= 2, got {self.d}")
        if self.L < 1:
            raise ConfigInvalid(f"L must be >= 1, got {self.L}")
        if self.H < 2:
            raise ConfigInvalid(f"H must be >= 2, got {self.H}")
        if self.S < 1:
            raise ConfigInvalid(f"S must be >= 1, got {self.S}")
        if self.m < 1:
            raise ConfigInvalid(f"m must be >= 1, got {self.m}")

    @property
    def T(self) -> int:
        return self.S * self.H**self.L

    def period(self, level: int) -> int:
        """T_level = S * H**(L - level); period(0) = T, period(L) = S."""
        if not 0 <= level <= self.L:
            raise OutOfRange(f"level {level} outside [0, {self.L}]")
        return self.S * self.H ** (self.L - level)

    @property
    def epsilon(self) -> Fraction:
        return Fraction(1, self.m)


def coupled_parameters(
    d: int, epsilon: float, max_days: int = DEFAULT_DAY_BUDGET, allow_large: bool = False
) -> ForecastConfig:
    """Coupled parameters: m = ceil(1/eps), H = m**4, L = ceil(ln(d) m**2), S = d**3 m**6.

    The 1e-9 nudge keeps float artifacts (1/0.1 = 10.000000000000002) from
    bumping a ceiling that is an exact integer in real arithmetic.
    """
    if not 0.0 < epsilon < 1.0:
        raise ConfigInvalid(f"epsilon must be in (0, 1), got {epsilon}")
    m = math.ceil(1.0 / epsilon - 1e-9)
    if m < 2:
        raise ConfigInvalid(f"epsilon={epsilon} gives m={m}, H={m**4} < 2")
    H = m**4
    L = math.ceil(math.log(d) * m * m - 1e-9)
    S = d**3 * m**6
    cfg = ForecastConfig(d=d, L=L, H=H, S=S, m=m)
    if cfg.T > max_days and not allow_large:
        raise BudgetExceeded(
            f"T = {cfg.T} exceeds the day budget {max_days}; pass allow_large=True"
        )
    return cfg


def smoothed_prediction(
    counts: Sequence[int] | dict[int, int], h: int, t_level: int, d: int, m: int
) -> RationalDist:
    """The prediction for iteration h given outcome counts of iterations < h.

    Exact form: numerators d*C_i + m*T_level over denominator
    d*(h-1+m)*T_level, gcd-reduced.  `counts` is either the d counts or a
    {0-based coordinate: count} map that may leave out zero counts; the
    cost follows the support, not d.  Off the support every numerator is
    the background m*T_level, which enters the gcd only when some
    coordinate has count 0.  The key equals `make_rational_dist` of the
    dense numerators.
    """
    if isinstance(counts, dict):
        support = counts
    elif len(counts) != d:
        raise DimensionMismatch(f"{len(counts)} counts for d = {d}")
    else:
        support = dict(zip(compress(range(d), counts), filter(None, counts)))
    total = sum(support.values())
    if total != (h - 1) * t_level:
        raise InconsistentCounts(
            f"counts sum {total} != (h-1)*T_level = {(h - 1) * t_level}"
        )
    den = d * (h - 1 + m) * t_level
    if den <= 0:
        raise ZeroDenominator(f"denominator must be positive, got {den}")
    if d < 2:
        raise DimensionMismatch(f"need d >= 2 coordinates, got {d}")
    if support:
        if min(support.values()) < 0:
            raise SumMismatch(f"negative count in {support}")
        if min(support) < 0 or max(support) >= d:
            raise DimensionMismatch(f"count coordinates outside [0, {d}): {sorted(support)}")
    smooth = m * t_level
    nums = [d * c + smooth for c in support.values()]
    if len(nums) < d:
        g = math.gcd(den, smooth, *nums)
    else:
        g = math.gcd(den, *nums)
    dense = [smooth // g] * d
    for i, n in zip(support, nums):
        dense[i] = n // g
    return PredictionKey(tuple(dense), den // g)


@dataclass(frozen=True)
class MixtureRecord:
    """Day-t prediction distribution: merged (key, weight) entries, weights sum to 1."""

    t: int
    entries: tuple[tuple[PredictionKey, Fraction], ...]


@cache
def _level_weight(n: int, L: int) -> Fraction:
    """n/L, the weight of a key that n of the L levels predict; one object per (n, L)."""
    return Fraction(n, L)


def merge_mixture(t: int, keys: Iterable[PredictionKey], L: int) -> MixtureRecord:
    """Weight 1/L per level, equal keys merged, entries sorted for determinism."""
    mults: dict[PredictionKey, int] = {}
    for k in keys:
        mults[k] = mults.get(k, 0) + 1
    entries = tuple((k, _level_weight(n, L)) for k, n in sorted(mults.items()))
    return MixtureRecord(t, entries)


def sample_prediction(mix: MixtureRecord, stream: Stream) -> PredictionKey:
    """Draw a key with its mixture weight; exact, deterministic given the stream."""
    dens = [w.denominator for _, w in mix.entries]
    common = math.lcm(*dens)
    u = stream.below(common)
    acc = 0
    for key, w in mix.entries:
        acc += w.numerator * (common // w.denominator)
        if u < acc:
            return key
    raise AssertionError("mixture weights do not sum to 1")
