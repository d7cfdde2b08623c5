"""Day-simulation kernel: the engine's per-day draws and day counts.

Per day: one rejection-sampled uniform below the distribution's denominator
decides the outcome (bisect over the cumulative numerators), then, when
level sampling is on, one uniform below n_levels picks the realized
sub-forecaster.  The outcome and level streams are independent, so a call
draws all of its outcome uniforms, then all of its level uniforms.

`sim_days` returns the day counts per outcome and, when a caller asks for
levels or outcomes, what it drew: the 1-based outcome of each day, and in
sampled mode the 0-based level of each day.  It tallies no (level,
outcome) pairs; the engine folds the two lists itself.

Counters advance one per 64-bit word drawn, accepted or rejected, so every
value is the one `rng.Stream.below` would return from the same position.
Words below 2**64 are drawn in lane-packed batches of up to `CHUNK`
consecutive counters (`_packed`): one Python int holds the whole batch,
128 bits per lane, and the SplitMix64 finalizer runs on every lane at once
in a dozen big-integer operations.  Each lane is masked to 64 bits before
every multiply, so a lane's 128-bit product never carries into its
neighbour.  A call takes one of three paths:

- a denominator of 2**64 or more goes through `Stream.below`, which draws
  several words per attempt;
- a `sim_days` call that needs only day counts, over at most
  `POPCOUNT_MAX_D` outcomes and a power-of-two denominator m = 2**k below
  2**64, never decodes its batches (`_pow2_counts`).  Such a modulus
  rejects no word, and a lane's value is its word's low k bits.  Adding
  m − c to every lane sets bit k exactly in the lanes whose value is at
  least c, so one mask and one `int.bit_count()` count them, per distinct
  boundary c.  Each boundary costs a few passes over the whole batch, so
  this only beats the list path's bisect when there are few boundaries;
- every other call decodes each batch into a list (`_words`), filters out
  rejected words, reduces the rest mod m, bisects and counts in Python.  A
  batch never holds more words than values still needed, so the counter
  always stops where `Stream.below` would leave it.

A batch of `PAGE` words or more is packed and decoded on its own.  A
shorter one, such as a one- or eight-day segment's, is sliced from aligned
pages of `PAGE` draws (`_page`, draws PAGE·p + 1 .. PAGE·p + PAGE), which a
small LRU cache keeps per (stream key, page number).  Successive short
calls on a stream thus pack and decode one page per `PAGE` draws, not one
batch per call.  A draw depends only on (key, counter), so a page holds
the same words whichever call first fills it.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from bisect import bisect_right
from functools import cache, lru_cache
from itertools import repeat
from operator import mod, sub

from .rng import GOLDEN, MASK64, MIX_C1, MIX_C2, Stream

_MOD = 1 << 64

# Lanes per packed integer: bounds the lane constants (3 x 16·CHUNK bytes)
# and the transient big integers of one batch.
CHUNK = 2048

# Draws per cached page of `_words`.  On CPython 3.11 a 64-word page took
# ≈10.5 µs (≈165 ns per word) and a separately packed 8-word batch ≈2.7 µs,
# so a run of 8-word calls cost ≈1.9 µs per call paged, ≈2.7 µs unpaged.
PAGE = 64

# The popcount path's cost grows with the number of boundaries, the list
# path's with its logarithm: at d = 2 or 3 the popcount path was faster for
# every day count from 1 to 4,096, at d = 4 up to 6% slower for a few days,
# at d = 9 up to 50% slower.
POPCOUNT_MAX_D = 3

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


def _packed(key: int, ctr: int, n: int) -> int:
    """Draws ctr+1 .. ctr+n of the stream `key`, for 1 <= n <= CHUNK, lane-packed.

    Lane j (bits 128·j .. 128·j + 127) holds draw ctr+1+j in its low 64 bits,
    zeros in bits 64..96 and stray bits of lane j+1 in bits 97..127.
    """
    ones, ramp, mask = _lanes()
    shift = 128 * (CHUNK - n)
    start = (key + GOLDEN * (ctr + 1 - CHUNK + n)) & MASK64
    # `mask` need not be shifted: `&` only runs over the shorter operand.
    z = (start * (ones >> shift) + (ramp >> shift)) & mask
    z = ((z ^ (z >> 30)) & mask) * MIX_C1 & mask
    z = ((z ^ (z >> 27)) & mask) * MIX_C2 & mask
    # The last shift pulls the next lane's bits only into bits 97..127.
    return z ^ (z >> 31)


def _batch(key: int, ctr: int, n: int) -> list[int]:
    """Draws ctr+1 .. ctr+n of the stream `key`, for 1 <= n <= CHUNK, decoded."""
    return _decode(_packed(key, ctr, n).to_bytes(16 * n, "little"), _BIG_ENDIAN_HOST)


@lru_cache(maxsize=8)
def _page(key: int, page: int) -> list[int]:
    """Draws PAGE·page + 1 .. PAGE·page + PAGE of the stream `key`; not to be mutated."""
    return _batch(key, PAGE * page, PAGE)


def _words(key: int, ctr: int, n: int) -> list[int]:
    """Draws ctr+1 .. ctr+n of the stream `key`, for 1 <= n <= CHUNK."""
    if n >= PAGE:
        return _batch(key, ctr, n)
    page, at = divmod(ctr, PAGE)
    words = _page(key, page)[at : at + n]
    if at + n > PAGE:
        words += _page(key, page + 1)[: at + n - PAGE]
    return words


def _pow2_counts(key: int, ctr: int, n: int, k: int, bounds: Sequence[int]) -> list[int]:
    """How many of n successive `Stream(key, ctr).below(2**k)` values fall in
    each bucket `bisect_right(bounds, value)`, for nondecreasing `bounds` in
    [0, 2**k] and k <= 63.

    No word is rejected, so the values are the low k bits of draws
    ctr+1 .. ctr+n.
    """
    m = 1 << k
    ones = _lanes()[0]
    # How many values are at least c; a boundary repeats where an outcome
    # has zero mass, and is counted once.
    hits = dict.fromkeys(bounds, 0)
    left = n
    while left:
        b = min(left, CHUNK)
        lane = ones >> 128 * (CHUNK - b)
        u = _packed(key, ctr, b) & lane * (m - 1)
        top = lane << k
        # u + m − c < 2m <= 2**64 in every lane: no carry leaves a lane.
        for c in hits:
            hits[c] += ((u + lane * (m - c)) & top).bit_count()
        ctr += b
        left -= b
    above = list(map(hits.__getitem__, bounds))
    return list(map(sub, [n, *above], [*above, 0]))


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
):
    """Simulate n_days i.i.d. draws from one distribution.

    Returns (octr, lctr, counts[d], outcomes, levels): `outcomes` (1-based)
    is a list when levels are sampled or outcomes recorded, else None;
    `levels` (0-based) is a list when levels are sampled, else None.
    """
    listed = sample_levels or record_outcomes
    if not listed and d <= POPCOUNT_MAX_D and den < _MOD and not den & (den - 1):
        counts = _pow2_counts(okey, octr, n_days, den.bit_length() - 1, cum_nums[:-1])
        return octr + n_days, lctr, counts, None, None
    us, octr = _uniforms(okey, octr, n_days, den)
    idx = list(map(bisect_right, repeat(cum_nums), us))
    counts = [0] * d
    for i in idx:
        counts[i] += 1
    outcomes = [i + 1 for i in idx] if listed else None
    levels = None
    if sample_levels:
        levels, lctr = _uniforms(lkey, lctr, n_days, n_levels)
    return octr, lctr, counts, outcomes, levels


def draw_level_counts(
    lkey: int, lctr: int, n_days: int, n_levels: int, record: bool
):
    """n_days uniform draws over [0, n_levels); returns (lctr, counts, seq | None)."""
    seq, lctr = _uniforms(lkey, lctr, n_days, n_levels)
    counts = [0] * n_levels
    for v in seq:
        counts[v] += 1
    return lctr, counts, seq if record else None
