"""Outcome-sequence generators: recursive hard sequence, i.i.d., and adaptive.

The hard sequence is oblivious: all randomness (one uniform tau in [R] per
tuple prefix) is drawn up front, after which every day's outcome
distribution is a fixed function of the day index.  Day t maps to a tuple
(k_1, ..., k_{R-1}) in [K]^{R-1} (k_1 most significant) and its distribution
puts mass 1/R on one hidden coordinate of block D_{r, k_r} for each
r < R, plus 1/R spread uniformly over the last block D_R.

The adaptive adversary picks the outcome minimizing the forecaster's
expected predicted mass for the current day; it sees the day's L level
predictions (a deterministic function of past outcomes) but never the
day's random draws.

Every adversary's `next(t, level_keys)` takes the day and the tuple of the
L level predictions, level 1 first, and returns the day's law as a
canonical simplex point (`RationalDist`); `sample_outcome` draws a 1-based
int outcome from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import MissingTauEntry, ConfigInvalid, OutOfRange
from .rng import ROLE_TAU, Stream, derive_stream
from .simplex import PredictionKey, RationalDist, point_mass

# No law goes through make_rational_dist; it stays bound here so that
# perfbench/tracer.py can patch it by name.
from .simplex import make_rational_dist  # noqa: F401

TauTree = dict[tuple[int, ...], int]


@dataclass(frozen=True)
class HardSeqConfig:
    """Hard-sequence parameters: R recursion levels, K sub-blocks per level."""

    R: int
    K: int

    def __post_init__(self):
        if self.R < 2:
            raise ConfigInvalid(f"R must be >= 2, got {self.R}")
        if self.K < 1:
            raise ConfigInvalid(f"K must be >= 1, got {self.K}")

    @property
    def d(self) -> int:
        return self.R * self.R * self.K

    @property
    def T(self) -> int:
        return self.K ** (self.R - 1)

    def block(self, r: int) -> range:
        """D_r, 1-based coordinate range of size d/R."""
        w = self.d // self.R
        return range((r - 1) * w + 1, r * w + 1)

    def sub_block(self, r: int, k: int) -> range:
        """D_{r,k}, the k-th R-sized slice of D_r."""
        base = (r - 1) * (self.d // self.R)
        return range(base + (k - 1) * self.R + 1, base + k * self.R + 1)

    def one_hot_index(self, r: int, k: int, j: int) -> int:
        """Coordinate of the (r, k, j) one-hot; lies inside D_{r,k}."""
        return (r - 1) * (self.d // self.R) + (k - 1) * self.R + j


@dataclass(frozen=True)
class EpsSchedule:
    """Error parameters eps_r = (1/R)**(6(R-r+1)), strictly increasing in r."""

    R: int

    def __getitem__(self, r: int) -> Fraction:
        if not 1 <= r <= self.R:
            raise OutOfRange(f"r={r} outside [1, {self.R}]")
        return Fraction(1, self.R ** (6 * (self.R - r + 1)))

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(self[r] for r in range(1, self.R + 1))


def sample_tau_tree(cfg: HardSeqConfig, stream: Stream) -> TauTree:
    """One independent uniform tau in [R] per prefix in [K]^r, r = 1..R-1.

    Prefixes are visited in (r, lexicographic) order, so the draw sequence
    is a pure function of (cfg, stream state).
    """
    tree: TauTree = {}
    for r in range(1, cfg.R):
        prefixes = [()]
        for _ in range(r):
            prefixes = [p + (k,) for p in prefixes for k in range(1, cfg.K + 1)]
        for prefix in prefixes:
            tree[prefix] = stream.below(cfg.R) + 1
    return tree


def day_tuple(t: int, cfg: HardSeqConfig) -> tuple[int, ...]:
    """Bijection [1, K**(R-1)] -> [K]**(R-1), k_1 most significant."""
    if not 1 <= t <= cfg.T:
        raise OutOfRange(f"day {t} outside [1, {cfg.T}]")
    rem = t - 1
    digits = []
    for pos in range(cfg.R - 1):
        scale = cfg.K ** (cfg.R - 2 - pos)
        digits.append(rem // scale + 1)
        rem %= scale
    return tuple(digits)


def tuple_to_day(tup: tuple[int, ...], cfg: HardSeqConfig) -> int:
    if len(tup) != cfg.R - 1 or any(not 1 <= k <= cfg.K for k in tup):
        raise OutOfRange(f"tuple {tup} outside [K]^(R-1)")
    t = 0
    for k in tup:
        t = t * cfg.K + (k - 1)
    return t + 1


def day_hot_coordinates(tree: TauTree, t: int, cfg: HardSeqConfig) -> tuple[int, ...]:
    """0-based coordinates of p_t's one-hots: the tau-th of D_{r, k_r} for r < R."""
    tup = day_tuple(t, cfg)
    hot = []
    for r in range(1, cfg.R):
        prefix = tup[:r]
        tau = tree.get(prefix)
        if tau is None:
            raise MissingTauEntry(f"no tau for prefix {prefix}")
        hot.append(cfg.one_hot_index(r, tup[r - 1], tau) - 1)
    return tuple(hot)


def hard_law(cfg: HardSeqConfig, hot: Iterable[int]) -> RationalDist:
    """Mass 1/R on each 0-based coordinate in `hot` (one per D_r, r < R), 1/R uniform on D_R."""
    w = cfg.d // cfg.R
    units = [0] * cfg.d  # in units of 1/d
    units[cfg.d - w :] = [1] * w  # D_R
    for i in hot:
        units[i] = w
    # D_R's numerators are 1, so the units are already in lowest terms.
    return PredictionKey(tuple(units), cfg.d)


def day_distribution(tree: TauTree, t: int, cfg: HardSeqConfig) -> RationalDist:
    """p_t: mass 1/R on one coordinate of D_{r, k_r} per r < R, uniform on D_R."""
    return hard_law(cfg, day_hot_coordinates(tree, t, cfg))


def sample_outcome(p: RationalDist, stream: Stream) -> int:
    """1-based index i with probability p_i; exact via one uniform draw below the denominator."""
    u = stream.below(p.denominator)
    acc = 0
    for i, n in enumerate(p.numerators):
        acc += n
        if u < acc:
            return i + 1
    raise AssertionError("distribution does not sum to its denominator")


class IIDAdversary:
    """Plays the same outcome law q every day."""

    constant_within_block = True

    def __init__(self, q: RationalDist):
        self.q = q
        self.name = "iid"

    def next(self, t: int, level_keys: tuple[RationalDist, ...] | None = None) -> RationalDist:
        return self.q


class AdaptiveArgminAdversary:
    """Point mass on the coordinate with the least expected predicted mass.

    Ties break toward the smallest index.  Uses only the day's level
    predictions, which are a deterministic function of the realized past.
    Coordinate i scores sum_l n_{l,i} * (lcm / den_l) over the level keys
    n_l / den_l: L * lcm times its mixture mass, so the argmin is exact in
    integers.  Equal level keys are merged first, as in `merge_mixture`:
    each distinct key n / den is scored once, weighted by its multiplicity
    c as c * (lcm / den), which gives the same integer scores.
    """

    constant_within_block = True

    def __init__(self, d: int):
        self.d = d
        self.name = "adaptive_argmin"
        self._point_masses: dict[int, RationalDist] = {}  # built on first play

    def next(self, t: int, level_keys: tuple[RationalDist, ...] | None = None) -> RationalDist:
        if level_keys is None:
            raise ConfigInvalid("adaptive adversary needs the day's level predictions")
        mults: dict[RationalDist, int] = {}
        for key in level_keys:
            mults[key] = mults.get(key, 0) + 1
        lcm = math.lcm(*(key.denominator for key in mults))
        scores = [0] * self.d
        for (nums, den), c in mults.items():
            scale = c * (lcm // den)
            for i, n in enumerate(nums):
                scores[i] += n * scale
        index = scores.index(min(scores)) + 1
        law = self._point_masses.get(index)
        if law is None:
            law = self._point_masses[index] = point_mass(self.d, index)
        return law


class HardSequenceAdversary:
    """Oblivious recursive hard sequence; the tau tree is fixed at construction."""

    constant_within_block = False

    def __init__(self, cfg: HardSeqConfig, seed: int | None = None, tree: TauTree | None = None, trial: int = 0):
        self.cfg = cfg
        if tree is None:
            if seed is None:
                raise ConfigInvalid("hard adversary needs a seed or an explicit tree")
            tree = sample_tau_tree(cfg, derive_stream(seed, ROLE_TAU, trial))
        self.tree = tree
        self.name = "hard"

    def next(self, t: int, level_keys: tuple[RationalDist, ...] | None = None) -> RationalDist:
        return day_distribution(self.tree, t, self.cfg)


def export_hard_sequence_jsonl(path, cfg: HardSeqConfig, tree: TauTree, seed: int | None) -> None:
    """Header {R, K, d, T, seed} then one {t, tuple, dist} record per day."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {"R": cfg.R, "K": cfg.K, "T": cfg.T, "d": cfg.d, "seed": seed}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for t in range(1, cfg.T + 1):
            rec = {
                "dist": day_distribution(tree, t, cfg).to_json(),
                "t": t,
                "tuple": list(day_tuple(t, cfg)),
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def export_tau_tree_json(path, tree: TauTree) -> None:
    entries = [[list(prefix), tau] for prefix, tau in sorted(tree.items())]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"entries": entries}, fh, sort_keys=True)
        fh.write("\n")
