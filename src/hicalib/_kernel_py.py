"""Day-simulation kernel: the engine's per-day draws and tallies.

Per day: one rejection-sampled uniform below the distribution's denominator
decides the outcome (bisect over the cumulative numerators), then, when
level sampling is on, one uniform below n_levels picks the realized
sub-forecaster.  The outcome and level streams are independent, so a call
draws all of its outcome uniforms, then all of its level uniforms, each
through `_uniforms`.

Counters advance one per 64-bit word drawn, accepted or rejected, so every
value is the one `rng.Stream.below` would return from the same position.
`_uniforms` takes one of two paths:

- a denominator of 2**64 or more goes through `Stream.below`, which draws
  several words per attempt;
- any smaller denominator draws its words in lane-packed batches of up to
  `CHUNK` consecutive counters (`_words`).  One Python int holds the whole
  batch, 128 bits per lane, and the finalizer runs on every lane at once in
  a dozen big-integer operations.  Each lane is masked to 64 bits before every
  multiply, so a lane's 128-bit product never carries into its neighbour.
  A batch whose words all clear the rejection threshold is accepted whole;
  otherwise the rejected words are filtered out.  A batch never holds more
  words than values still needed, so the counter always stops where
  `Stream.below` would leave it.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from functools import cache
from itertools import repeat
from operator import mod

from .rng import GOLDEN, MASK64, MIX_C1, MIX_C2, Stream

_MOD = 1 << 64

# Lanes per packed integer: bounds the lane constants (3 x 16·CHUNK bytes)
# and the transient big integers of one batch.
CHUNK = 2048

# `_decode` reads 64-bit words in host order from little-endian bytes.
_BIG_ENDIAN_HOST = sys.byteorder == "big"


@cache
def _lanes() -> tuple[int, int, int]:
    """(ones, ramp, mask) over CHUNK lanes, built on first use.

    Lane i holds 1, GOLDEN·i mod 2**64 and 2**64 − 1 respectively.  A batch
    of n lanes uses the top n lanes (a right shift), whose ramp runs from
    GOLDEN·(CHUNK − n).
    """
    ones = int.from_bytes((b"\x01" + bytes(15)) * CHUNK, "little")
    ramp = int.from_bytes(
        b"".join((GOLDEN * i & MASK64).to_bytes(16, "little") for i in range(CHUNK)),
        "little",
    )
    return ones, ramp, ones * MASK64


def _decode(packed: bytes, swap: bool) -> list[int]:
    """Low 64-bit word of every 128-bit lane of little-endian `packed`."""
    words = array("Q", packed)
    if swap:
        words.byteswap()
    return words[::2].tolist()


def _words(key: int, ctr: int, n: int) -> list[int]:
    """Draws ctr+1 .. ctr+n of the stream `key`, for 1 <= n <= CHUNK."""
    ones, ramp, mask = _lanes()
    shift = 128 * (CHUNK - n)
    start = (key + GOLDEN * (ctr + 1 - CHUNK + n)) & MASK64
    # `mask` need not be shifted: `&` only runs over the shorter operand.
    z = (start * (ones >> shift) + (ramp >> shift)) & mask
    z = ((z ^ (z >> 30)) & mask) * MIX_C1 & mask
    z = ((z ^ (z >> 27)) & mask) * MIX_C2 & mask
    # The last shift pulls the next lane's bits only into bits 97..127,
    # which `_decode` drops.
    z ^= z >> 31
    return _decode(z.to_bytes(16 * n, "little"), _BIG_ENDIAN_HOST)


def _uniforms(key: int, ctr: int, n: int, m: int) -> tuple[list[int], int]:
    """n successive `Stream(key, ctr).below(m)` values; returns (values, counter)."""
    if m >= _MOD:
        s = Stream(key, ctr)
        return [s.below(m) for _ in range(n)], s.counter
    threshold = (_MOD - m) % m
    vals: list[int] = []
    need = n
    while need:
        k = min(need, CHUNK)
        words = _words(key, ctr, k)
        ctr += k
        if min(words) >= threshold:
            vals += map(mod, words, repeat(m))
        else:
            vals += [w % m for w in words if w >= threshold]
        need = n - len(vals)
    return vals, ctr


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
    us, octr = _uniforms(okey, octr, n_days, den)
    idx = list(map(bisect_right, repeat(cum_nums), us))
    counts = [0] * d
    for i in idx:
        counts[i] += 1
    tally = None
    levels: list[int] = []
    if sample_levels:
        levels, lctr = _uniforms(lkey, lctr, n_days, n_levels)
        tally = [[0] * d for _ in range(n_levels)]
        for v, i in zip(levels, idx):
            tally[v][i] += 1
    outcomes = [i + 1 for i in idx] if record_outcomes else None
    return octr, lctr, counts, tally, outcomes, levels if record_levels else None


def draw_level_counts(
    lkey: int, lctr: int, n_days: int, n_levels: int, record: bool
):
    """n_days uniform draws over [0, n_levels); returns (lctr, counts, seq | None)."""
    seq, lctr = _uniforms(lkey, lctr, n_days, n_levels)
    counts = [0] * n_levels
    for v in seq:
        counts[v] += 1
    return lctr, counts, seq if record else None
