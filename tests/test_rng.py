import pytest

from hicalib import _kernel_py
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


@pytest.mark.parametrize("den", KERNEL_DENS)
def test_kernel_matches_stream_reference(den):
    nums = [1, den // 3, den - 1 - den // 3]
    dist = make_rational_dist(nums, den)
    cums = [nums[0], nums[0] + nums[1], den]
    n_days, n_levels = 300, 3
    okey, octr, lkey, lctr = 11, 5, 22, 2
    ostream, lstream = Stream(okey, octr), Stream(lkey, lctr)
    outcomes, levels = [], []
    for _ in range(n_days):
        outcomes.append(sample_outcome(dist, ostream).index)
        levels.append(lstream.below(n_levels))
    counts = [outcomes.count(i) for i in (1, 2, 3)]
    tally = [[0] * 3 for _ in range(n_levels)]
    for x, v in zip(outcomes, levels):
        tally[v][x - 1] += 1

    got = _kernel_py.sim_days(
        okey, octr, n_days, cums, den, 3, lkey, lctr, n_levels, True, True, True
    )
    assert got == (ostream.counter, lstream.counter, counts, tally, outcomes, levels)
    # without level sampling the level stream is left untouched
    assert _kernel_py.sim_days(
        okey, octr, n_days, cums, den, 3, lkey, lctr, n_levels, False, True, False
    ) == (ostream.counter, lctr, counts, None, outcomes, None)


def test_kernel_level_draws_match_stream_reference():
    s = Stream(4, 7)
    seq = [s.below(5) for _ in range(1000)]
    counts = [seq.count(v) for v in range(5)]
    assert _kernel_py.draw_level_counts(4, 7, 1000, 5, True) == (s.counter, counts, seq)
    assert _kernel_py.draw_level_counts(4, 7, 1000, 5, False) == (s.counter, counts, None)
