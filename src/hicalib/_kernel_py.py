"""Day-simulation kernel: the engine's per-day draws and tallies.

Per day: one rejection-sampled uniform below the distribution's denominator
decides the outcome (linear scan of cumulative numerators), then, when level
sampling is on, one uniform below n_levels picks the realized sub-forecaster.
Counters advance one per 64-bit word drawn, accepted or rejected, so every
draw is the one `rng.Stream.below` would make from the same position.
"""

from __future__ import annotations

from .rng import GOLDEN, MASK64, Stream, mix64

_MOD = 1 << 64


def _below(key: int, ctr: int, n: int) -> tuple[int, int]:
    """Stream.below(n) for n < 2**64, inlined; returns (value, new counter)."""
    threshold = (_MOD - n) % n
    while True:
        ctr += 1
        r = mix64((key + GOLDEN * ctr) & MASK64)
        if r >= threshold:
            return r % n, ctr


def _below_wide(key: int, ctr: int, n: int) -> tuple[int, int]:
    """Stream.below(n) for any n, drawing as many words per attempt as n needs."""
    s = Stream(key, ctr)
    return s.below(n), s.counter


def sim_days(
    okey: int,
    octr: int,
    n_days: int,
    cum_nums: list[int],
    den: int,
    d: int,
    lkey: int,
    lctr: int,
    n_levels: int,
    sample_levels: bool,
    record_outcomes: bool,
    record_levels: bool,
):
    """Simulate n_days i.i.d. draws from one distribution.

    Returns (octr, lctr, counts[d], tally[n_levels][d] | None,
    outcomes 1-based | None, levels 0-based | None).
    """
    below = _below if den < _MOD else _below_wide
    counts = [0] * d
    tally = [[0] * d for _ in range(n_levels)] if sample_levels else None
    outcomes = [] if record_outcomes else None
    levels = [] if record_levels else None
    for _ in range(n_days):
        u, octr = below(okey, octr, den)
        idx = 0
        while cum_nums[idx] <= u:
            idx += 1
        counts[idx] += 1
        if outcomes is not None:
            outcomes.append(idx + 1)
        if sample_levels:
            v, lctr = _below(lkey, lctr, n_levels)
            tally[v][idx] += 1
            if levels is not None:
                levels.append(v)
    return octr, lctr, counts, tally, outcomes, levels


def draw_level_counts(
    lkey: int, lctr: int, n_days: int, n_levels: int, record: bool
):
    """n_days uniform draws over [0, n_levels); returns (lctr, counts, seq | None)."""
    counts = [0] * n_levels
    seq = [] if record else None
    for _ in range(n_days):
        v, lctr = _below(lkey, lctr, n_levels)
        counts[v] += 1
        if seq is not None:
            seq.append(v)
    return lctr, counts, seq
