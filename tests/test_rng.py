import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hicalib import _kernel_py
from hicalib._kernel_py import CHUNK, PAGE
from hicalib.adversary import sample_outcome
from hicalib.rng import GOLDEN, MASK64, Stream, draw_u64, mix64, stream_key
from hicalib.simplex import make_rational_dist


def test_mix64_reference_values():
    # SplitMix64 finalizer of 0 advanced by GOLDEN equals the classic first
    # output of splitmix64 seeded with 0.
    assert mix64(GOLDEN) == 0xE220A8397B1DCDAF
    assert mix64(2 * GOLDEN & MASK64) == 0x6E789E6AA1B965F4


def test_streams_are_counter_indexed():
    s = Stream(key=123)
    first = [s.next_u64() for _ in range(5)]
    assert first == [draw_u64(123, i) for i in range(1, 6)]
    # replaying from a counter offset continues the same sequence
    s2 = Stream(key=123, counter=2)
    assert s2.next_u64() == first[2]


def test_stream_keys_depend_on_all_fields():
    keys = {
        stream_key(1, 1, 0),
        stream_key(1, 2, 0),
        stream_key(1, 1, 1),
        stream_key(2, 1, 0),
        stream_key(1, 2, 1),
        stream_key(1, 1, 2),
    }
    assert len(keys) == 6


def test_below_exact_range_and_determinism():
    s = Stream(key=99)
    vals = [s.below(7) for _ in range(2000)]
    assert all(0 <= v < 7 for v in vals)
    s2 = Stream(key=99)
    assert [s2.below(7) for _ in range(2000)] == vals


def test_below_uniformity_3sigma():
    s = Stream(key=5)
    n, k = 70000, 7
    counts = [0] * k
    for _ in range(n):
        counts[s.below(k)] += 1
    p = 1 / k
    sigma = (n * p * (1 - p)) ** 0.5
    for c in counts:
        assert abs(c - n * p) <= 3 * sigma


def test_below_handles_wide_denominators():
    s = Stream(key=7)
    big = (1 << 80) + 12345
    vals = [s.below(big) for _ in range(50)]
    assert all(0 <= v < big for v in vals)
    assert max(vals) > 1 << 70  # actually spans the wide range


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        Stream(key=1).below(0)


# Denominators around 2**62 and 2**63, and on both sides of 2**64, above
# which each rejection attempt draws more than one 64-bit word.
KERNEL_DENS = [
    10, (1 << 62) - 1, 1 << 62, (1 << 62) + 7, (1 << 63) + 3,
    (1 << 64) - 1, 1 << 64, (1 << 64) + 1, (1 << 70) + 12345,
]


def _reference_days(okey, octr, n_days, nums, lkey, lctr, n_levels):
    """sim_days' result by a `sample_outcome`/`Stream.below` loop, levels sampled:
    (octr, lctr, counts, outcomes, levels)."""
    d, den = len(nums), sum(nums)
    dist = make_rational_dist(nums, den)
    assert dist.denominator == den  # otherwise the two would draw below different n
    ostream, lstream = Stream(okey, octr), Stream(lkey, lctr)
    outcomes, levels = [], []
    for _ in range(n_days):
        outcomes.append(sample_outcome(dist, ostream))
        levels.append(lstream.below(n_levels))
    counts = [outcomes.count(i) for i in range(1, d + 1)]
    return ostream.counter, lstream.counter, counts, outcomes, levels


def _check_sim_days(okey, octr, n_days, nums, lkey, lctr, n_levels):
    want = _reference_days(okey, octr, n_days, nums, lkey, lctr, n_levels)
    cums = [sum(nums[: i + 1]) for i in range(len(nums))]
    args = (okey, octr, n_days, cums, sum(nums), len(nums), lkey, lctr, n_levels)
    assert _kernel_py.sim_days(*args, True, True) == want
    # sampled levels come with the outcomes they pair with, recorded or not
    assert _kernel_py.sim_days(*args, True, False) == want
    # without level sampling the level stream is left untouched
    octr_end, _, counts, outcomes, _ = want
    assert _kernel_py.sim_days(*args, False, True) == (octr_end, lctr, counts, outcomes, None)
    assert _kernel_py.sim_days(*args, False, False) == (octr_end, lctr, counts, None, None)
    return want


@pytest.mark.parametrize("den", KERNEL_DENS)
def test_kernel_matches_stream_reference(den):
    _check_sim_days(11, 5, 300, [1, den // 3, den - 1 - den // 3], 22, 2, 3)


# Day counts from none, through batches of a few lanes and one full chunk,
# to more than one chunk of lanes.
EDGE_DAYS = [0, 1, 7, 8, 9, 100, CHUNK, CHUNK + 11]


@pytest.mark.parametrize("n_days", EDGE_DAYS)
def test_kernel_block_sizes_match_stream_reference(n_days):
    _check_sim_days(11, 5, n_days, [1, 3, 6], 22, 2, 3)
    s = Stream(4, 7)
    seq = [s.below(5) for _ in range(n_days)]
    counts = [seq.count(v) for v in range(5)]
    assert _kernel_py.draw_level_counts(4, 7, n_days, 5, True) == (s.counter, counts, seq)


@pytest.mark.parametrize("n_days", [1, 9, 300])
def test_kernel_counters_wrap_near_2_64(n_days):
    # key + GOLDEN·ctr wraps mod 2**64 at once, and the counter itself runs
    # past 2**64
    _check_sim_days(MASK64, MASK64 - 2, n_days, [1, 2, 4], MASK64 - 1, MASK64, 3)


# Counts-only calls over a power-of-two denominator and at most
# POPCOUNT_MAX_D outcomes take the popcount path.
POW2_DENS = [1 << k for k in (0, 1, 3, 62, 63)]


def _pow2_laws(den):
    """Laws over exactly `den`, with zero-mass outcomes (a leading 0,
    repeated cumulative numerators): two on the popcount path, two over
    more outcomes on the list path."""
    odd = den // 3 | 1  # coprime to den, so the law keeps its denominator
    return [[0, 1, den - 1], [odd, 0, den - odd], [0, 1, 0, 0, den - 1], [odd, 0, den - odd, 0]]


@pytest.mark.parametrize("den", POW2_DENS)
@pytest.mark.parametrize("n_days", EDGE_DAYS + [2 * CHUNK + 7])
def test_kernel_power_of_two_counts_match_stream_reference(den, n_days):
    for nums in _pow2_laws(den):
        _check_sim_days(11, 5, n_days, nums, 22, 2, 3)


@pytest.mark.parametrize("den", POW2_DENS)
@pytest.mark.parametrize("n_days", [1, 9, 300])
def test_kernel_power_of_two_counters_wrap_near_2_64(den, n_days):
    for nums in _pow2_laws(den):
        _check_sim_days(MASK64, MASK64 - 2, n_days, nums, MASK64 - 1, MASK64, 3)


@pytest.mark.parametrize("n_levels", [1, 2, 4, 16])
@pytest.mark.parametrize("n_days", [0, 1, 300, CHUNK + 11])
def test_kernel_power_of_two_level_counts_match_stream_reference(n_levels, n_days):
    for ctr in (7, MASK64 - 2):
        s = Stream(4, ctr)
        seq = [s.below(n_levels) for _ in range(n_days)]
        counts = [seq.count(v) for v in range(n_levels)]
        assert _kernel_py.draw_level_counts(4, ctr, n_days, n_levels, True) == (s.counter, counts, seq)
        assert _kernel_py.draw_level_counts(4, ctr, n_days, n_levels, False) == (s.counter, counts, None)


def test_kernel_counts_only_power_of_two_calls_never_decode(monkeypatch):
    args = (11, 5, CHUNK + 9, [3, 3, 8], 8, 3, 22, 2, 4)
    day_counts = _kernel_py.sim_days(*args, False, False)

    def no_decode(*_):
        raise AssertionError("counts-only power-of-two call decoded its words")

    monkeypatch.setattr(_kernel_py, "_decode", no_decode)
    # a short call decodes only a page that no earlier call has cached
    _kernel_py._page.cache_clear()
    assert _kernel_py.sim_days(*args, False, False) == day_counts
    # any call that samples levels, records a list or has more outcomes
    # still decodes
    with pytest.raises(AssertionError, match="decoded"):
        _kernel_py.sim_days(*args, True, False)
    with pytest.raises(AssertionError, match="decoded"):
        _kernel_py.sim_days(*args, False, True)
    with pytest.raises(AssertionError, match="decoded"):
        _kernel_py.sim_days(11, 5, 9, [1, 3, 5, 8], 8, 4, 22, 2, 4, False, False)


def test_kernel_den_2_64_goes_through_stream_below(monkeypatch):
    nums = [1, 1 << 63, (1 << 63) - 1]
    want = _check_sim_days(11, 5, 20, nums, 22, 2, 3)
    calls = []
    below = Stream.below

    def spy_below(self, n):
        calls.append(n)
        return below(self, n)

    monkeypatch.setattr(Stream, "below", spy_below)
    cums = [1, (1 << 63) + 1, 1 << 64]
    got = _kernel_py.sim_days(11, 5, 20, cums, 1 << 64, 3, 22, 2, 3, False, False)
    assert got == (want[0], 2, want[2], None, None)
    assert calls == [1 << 64] * 20


@pytest.mark.parametrize("n_days", [1, 9, 300])
def test_kernel_single_level(n_days):
    *_, levels = _check_sim_days(3, 0, n_days, [1, 4], 9, 0, 1)
    assert levels == [0] * n_days


@pytest.mark.parametrize("n_days", [1, 300])
def test_kernel_many_outcomes(n_days):
    # d = 288, as in the hard sequence: the outcome is found by bisection
    nums = [1 + i % 7 for i in range(288)]
    _, _, counts, *_ = _check_sim_days(8, 1, n_days, nums, 6, 4, 10)
    assert sum(1 for c in counts if c) >= min(n_days, 100)


def test_kernel_rejections_inside_and_at_end_of_a_chunk():
    # About half the words fall below this denominator's threshold and are
    # rejected.  Start where the first chunk's last lane is one of them.
    den = (1 << 63) + 3
    threshold = (1 << 64) % den
    key = 31
    octr = next(c for c in range(1000) if draw_u64(key, c + CHUNK) < threshold)
    n_days = 2 * CHUNK + 5
    rejected = [
        i for i in range(1, CHUNK + 1) if draw_u64(key, octr + i) < threshold
    ]
    assert rejected[0] < CHUNK and rejected[-1] == CHUNK
    ctr_end, *_ = _check_sim_days(key, octr, n_days, [1, den // 2, den - 1 - den // 2], 5, 0, 3)
    assert ctr_end - octr > n_days + CHUNK // 4  # many rejections in all


@pytest.mark.parametrize("key", [0, MASK64])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 100, CHUNK])
def test_lane_words_match_draw_u64(key, n):
    for ctr in (0, 12345, MASK64 - 3):
        want = [draw_u64(key, ctr + i) for i in range(1, n + 1)]
        assert _kernel_py._words(key, ctr, n) == want


def _one_batch(key, ctr, n):
    """Draws ctr+1 .. ctr+n packed and decoded as one batch, never paged."""
    packed = _kernel_py._packed(key, ctr, n).to_bytes(16 * n, "little")
    return _kernel_py._decode(packed, _kernel_py._BIG_ENDIAN_HOST)


@given(
    key=st.integers(0, MASK64),
    ctr=st.one_of(
        st.integers(0, 4 * PAGE),
        st.integers(MASK64 - 2 * PAGE, MASK64 + 2 * PAGE),  # across 2**64
        st.integers(2**64, 2**80),
    ),
    n=st.integers(1, 2 * PAGE + 1),
)
# calls that straddle a page boundary, one of them where the counter passes 2**64
@example(key=41, ctr=PAGE - 1, n=2)
@example(key=41, ctr=2 * PAGE - 1, n=PAGE - 1)
@example(key=41, ctr=MASK64 - 2, n=8)
def test_paged_words_equal_one_batch(key, ctr, n):
    try:
        assert _kernel_py._words(key, ctr, n) == _one_batch(key, ctr, n)
        # the same words again, now from the cached pages
        assert _kernel_py._words(key, ctr, n) == _one_batch(key, ctr, n)
    finally:
        _kernel_py._page.cache_clear()


def test_one_day_calls_pack_one_page_per_page_of_draws(monkeypatch):
    packed = []
    pack = _kernel_py._packed

    def spy_packed(key, ctr, n):
        packed.append((ctr, n))
        return pack(key, ctr, n)

    monkeypatch.setattr(_kernel_py, "_packed", spy_packed)
    _kernel_py._page.cache_clear()
    s = Stream(77)
    lctr, seq = 0, []
    try:
        for _ in range(3 * PAGE + 5):
            lctr, counts, day = _kernel_py.draw_level_counts(77, lctr, 1, 4, True)
            seq += day
    finally:
        _kernel_py._page.cache_clear()
    # four levels reject no word: one draw per day
    assert seq == [s.below(4) for _ in range(3 * PAGE + 5)] and lctr == s.counter
    assert packed == [(p * PAGE, PAGE) for p in range(4)]


def test_lane_decode_byteswaps_on_big_endian_hosts():
    assert _kernel_py._BIG_ENDIAN_HOST == (sys.byteorder == "big")
    words = [draw_u64(9, i) for i in range(1, 6)]
    high = b"\xff" * 8  # a lane's high half is never read
    native = b"".join(w.to_bytes(8, sys.byteorder) + high for w in words)
    assert _kernel_py._decode(native, swap=False) == words
    # what a host of the other byte order reads from the same words
    other = "little" if sys.byteorder == "big" else "big"
    foreign = b"".join(w.to_bytes(8, other) + high for w in words)
    assert _kernel_py._decode(foreign, swap=True) == words


def test_kernel_level_draws_match_stream_reference():
    s = Stream(4, 7)
    seq = [s.below(5) for _ in range(1000)]
    counts = [seq.count(v) for v in range(5)]
    assert _kernel_py.draw_level_counts(4, 7, 1000, 5, True) == (s.counter, counts, seq)
    assert _kernel_py.draw_level_counts(4, 7, 1000, 5, False) == (s.counter, counts, None)
