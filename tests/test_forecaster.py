from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import fixed_stream
from hicalib.errors import (
    BudgetExceeded,
    ConfigInvalid,
    DimensionMismatch,
    InconsistentCounts,
    OutOfOrderDay,
    OutOfRange,
    SumMismatch,
)
from hicalib.forecaster import (
    ForecastConfig,
    merge_mixture,
    coupled_parameters,
    sample_prediction,
    smoothed_prediction,
)
from hicalib.simplex import make_rational_dist, uniform
from reference import HierarchicalForecaster, LevelState, interval_of, predict_level


class TestConfig:
    def test_derived_horizons(self):
        cfg = ForecastConfig(d=2, L=2, H=2, S=1, m=1)
        assert cfg.T == 4
        assert [cfg.period(l) for l in (0, 1, 2)] == [4, 2, 1]

    @pytest.mark.parametrize(
        "kw",
        [dict(d=1), dict(L=0), dict(H=1), dict(S=0), dict(m=0)],
    )
    def test_validation(self, kw):
        base = dict(d=2, L=1, H=2, S=1, m=1)
        base.update(kw)
        with pytest.raises(ConfigInvalid):
            ForecastConfig(**base)


class TestPaperParameters:
    def test_d2_eps_half(self):
        cfg = coupled_parameters(2, 0.5)
        assert (cfg.m, cfg.H, cfg.L, cfg.S) == (2, 16, 3, 512)
        assert cfg.T == 512 * 16**3 == 2_097_152

    def test_degenerate_epsilon_rejected(self):
        with pytest.raises(ConfigInvalid):
            coupled_parameters(2, 1.0)

    def test_d8_levels(self):
        cfg = coupled_parameters(8, 0.5, allow_large=True)
        assert (cfg.m, cfg.H, cfg.L) == (2, 16, 9)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            coupled_parameters(8, 0.5)

    def test_float_noise_does_not_bump_ceilings(self):
        assert coupled_parameters(2, 0.1, allow_large=True).m == 10


class TestIntervalOf:
    CFG = ForecastConfig(d=2, L=2, H=2, S=1, m=1)

    def test_level1(self):
        assert interval_of(3, 1, self.CFG) == (2,)

    def test_level2(self):
        assert interval_of(3, 2, self.CFG) == (2, 1)

    def test_first_day(self):
        for level in (1, 2):
            assert interval_of(1, level, self.CFG) == (1,) * level

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            interval_of(5, 1, self.CFG)
        with pytest.raises(OutOfRange):
            interval_of(1, 3, self.CFG)

    def test_prefix_consistency(self):
        cfg = ForecastConfig(d=2, L=3, H=3, S=2, m=1)
        for t in range(1, cfg.T + 1):
            tuples = [interval_of(t, level, cfg) for level in range(1, cfg.L + 1)]
            for shorter, longer in zip(tuples, tuples[1:]):
                assert longer[: len(shorter)] == shorter


class TestPredictLevel:
    def test_first_iteration_is_uniform(self):
        assert smoothed_prediction([0, 0, 0], 1, 4, 3, 2) == uniform(3)

    def test_hand_value(self):
        got = smoothed_prediction([2, 0], 2, 2, 2, 2)
        assert got == make_rational_dist([2, 1], 3)  # (2/3, 1/3)

    def test_full_support_floor(self):
        cfg = ForecastConfig(d=3, L=1, H=4, S=2, m=2)
        pred = smoothed_prediction([6, 0, 0], 4, 2, 3, 2)
        floor = Fraction(cfg.m, cfg.d * (cfg.H - 1 + cfg.m))
        assert all(pred.value(i) >= floor for i in range(3))
        assert all(n > 0 for n in pred.numerators)

    def test_inconsistent_counts(self):
        with pytest.raises(InconsistentCounts):
            smoothed_prediction([1, 0], 3, 2, 2, 1)
        state = LevelState(1, [1, 0], [0, 0], 3, uniform(2))
        with pytest.raises(InconsistentCounts):
            predict_level(state, ForecastConfig(d=2, L=1, H=4, S=2, m=1))
        with pytest.raises(InconsistentCounts):
            smoothed_prediction({0: 1}, 3, 2, 2, 1)

    @pytest.mark.parametrize("counts", [[3, -1], {0: 3, 1: -1}, {1: 3, 0: -1}])
    def test_negative_count(self, counts):
        # d*c + m*T_l = 0 >= 0 here, so only the count itself shows the error
        with pytest.raises(SumMismatch):
            smoothed_prediction(counts, 2, 2, 2, 1)

    @pytest.mark.parametrize("counts", [{2: 2}, {-1: 2}, {0: 1, 5: 1}, [2, 0, 0], [2]])
    def test_coordinate_outside_the_simplex(self, counts):
        with pytest.raises(DimensionMismatch):
            smoothed_prediction(counts, 2, 2, 2, 1)


@st.composite
def smoothing_cases(draw):
    """(counts, h, T_l, d, m) with counts summing to (h-1)*T_l, dense."""
    d = draw(st.one_of(st.just(2), st.integers(3, 9), st.integers(64, 300)))
    h = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    full = h > 1 and draw(st.booleans())
    t_level = draw(st.integers(d if full else 1, 2 * d + 8))
    counts = [1 if full else 0] * d
    rest = (h - 1) * t_level - sum(counts)
    coords = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=8))
    for j, i in enumerate(coords):
        share = rest if j == len(coords) - 1 else draw(st.integers(0, rest))
        counts[i] += share
        rest -= share
    return counts, h, t_level, d, m


class TestSupportForm:
    @given(smoothing_cases())
    @example(([0, 0], 1, 3, 2, 2))  # h = 1: no counts at all
    @example(([1, 1], 2, 2, 2, 1))  # full support: gcd 4, background 2 stays out
    @example(([0] * 64, 1, 1, 64, 1))
    def test_equals_the_dense_constructor(self, case):
        counts, h, t_level, d, m = case
        want = make_rational_dist(
            tuple(d * c + m * t_level for c in counts), d * (h - 1 + m) * t_level
        )
        support = {i: c for i, c in enumerate(counts) if c}
        for form in (counts, support, dict(enumerate(counts))):
            got = smoothed_prediction(form, h, t_level, d, m)
            assert got == want
            assert repr(got) == repr(want)


class TestObserve:
    def test_iteration_counts_accumulate(self):
        cfg = ForecastConfig(d=2, L=1, H=4, S=3, m=1)
        fc = HierarchicalForecaster(cfg)
        for t in range(1, cfg.period(1) + 1):
            fc.observe(1, t)
        assert sum(fc.level_state(1).counts) == cfg.period(1)

    def test_level2_resets_at_level1_boundary(self):
        cfg = ForecastConfig(d=2, L=2, H=2, S=1, m=1)
        fc = HierarchicalForecaster(cfg)
        fc.observe(1, 1)
        fc.observe(2, 2)
        # t=3 starts a new level-1 iteration, i.e. a new level-2 interval
        assert fc.level_state(2).counts == [0, 0]
        assert fc.level_state(2).h == 1
        # level-1 counts never reset before t = T
        assert sum(fc.level_state(1).counts) == 2

    def test_out_of_order(self):
        fc = HierarchicalForecaster(ForecastConfig(d=2, L=1, H=2, S=1, m=1))
        fc.observe(1, 1)
        with pytest.raises(OutOfOrderDay):
            fc.observe(1, 3)

    def test_outcome_range(self):
        fc = HierarchicalForecaster(ForecastConfig(d=2, L=1, H=2, S=1, m=1))
        with pytest.raises(OutOfRange):
            fc.observe(3)


class TestMixture:
    def test_day_one_single_uniform_entry(self):
        fc = HierarchicalForecaster(ForecastConfig(d=3, L=3, H=2, S=1, m=2))
        mix = fc.mixture()
        assert mix.entries == ((uniform(3), Fraction(1)),)

    def test_two_distinct_levels(self):
        cfg = ForecastConfig(d=2, L=2, H=2, S=1, m=1)
        fc = HierarchicalForecaster(cfg)
        fc.observe(1, 1)
        mix = fc.mixture()  # t=2: level 2 updated, level 1 still uniform
        assert len(mix.entries) == 2
        assert all(w == Fraction(1, 2) for _, w in mix.entries)

    def test_equal_predictions_merge(self):
        # S = H: after one level-1 iteration (= 2 leaf blocks) both levels
        # have seen the same prefix; balanced outcomes make level 2's
        # smoothed average uniform again, colliding with level 1's key.
        cfg = ForecastConfig(d=2, L=2, H=2, S=2, m=1)
        fc = HierarchicalForecaster(cfg)
        for t, x in [(1, 1), (2, 2)]:
            fc.observe(x, t)
        mix = fc.mixture()  # t=3
        assert mix.entries == ((uniform(2), Fraction(1)),)

    def test_weights_sum_to_one(self):
        mix = merge_mixture(1, [uniform(2), uniform(2), point_mass_key()], 3)
        assert sum(w for _, w in mix.entries) == 1

    def test_weights_are_one_object_per_multiplicity(self):
        a, b = uniform(2), make_rational_dist([1, 3], 4)
        first = merge_mixture(1, [a, b, a], 3).entries
        second = merge_mixture(2, [b, b, a], 3).entries
        assert first == ((a, Fraction(2, 3)), (b, Fraction(1, 3)))
        assert second == ((a, Fraction(1, 3)), (b, Fraction(2, 3)))
        assert first[0][1] is second[1][1] and first[1][1] is second[0][1]

    def test_smoothness_per_step_bound(self):
        # consecutive iteration predictions move by at most 2/(h+m), exactly
        cfg = ForecastConfig(d=3, L=1, H=8, S=2, m=2)
        fc = HierarchicalForecaster(cfg)
        stream = fixed_stream(77)
        prev = fc.level_state(1).prediction
        from hicalib.simplex import l1_distance_exact

        for t in range(1, cfg.T + 1):
            fc.observe(1 + stream.below(3), t)
            st = fc.level_state(1)
            if (t % cfg.period(1)) == 0 and st.h > 1:
                gap = l1_distance_exact(prev, st.prediction)
                assert gap <= Fraction(2, (st.h - 1) + cfg.m)
                prev = st.prediction


def point_mass_key():
    from hicalib.simplex import point_mass

    return point_mass(2, 1)


class TestPrefixKeyCoincidence:
    def test_identical_prefixes_share_keys_across_runs(self):
        # two histories that agree through the first iteration boundary emit
        # the same prediction key there, then diverge afterwards
        cfg = ForecastConfig(d=2, L=1, H=4, S=2, m=1)
        a = HierarchicalForecaster(cfg)
        b = HierarchicalForecaster(cfg)
        for t, x in [(1, 1), (2, 2)]:
            a.observe(x, t)
            b.observe(x, t)
        assert a.mixture().entries == b.mixture().entries
        a.observe(1, 3)
        a.observe(1, 4)
        b.observe(2, 3)
        b.observe(2, 4)
        assert a.mixture().entries != b.mixture().entries


class TestRecomputationIdentity:
    def test_cached_equals_fresh_recompute(self):
        cfg = ForecastConfig(d=3, L=2, H=3, S=2, m=1)
        fc = HierarchicalForecaster(cfg)
        stream = fixed_stream(5)
        history = []
        for t in range(1, cfg.T + 1):
            for level in range(1, cfg.L + 1):
                t_level = cfg.period(level)
                t_interval = cfg.period(level - 1)
                start = ((t - 1) // t_interval) * t_interval  # interval start day - 1
                iter_start = ((t - 1) // t_level) * t_level
                counts = [0] * cfg.d
                for day in range(start, iter_start):
                    counts[history[day] - 1] += 1
                h = (iter_start - start) // t_level + 1
                fresh = LevelState(level, counts, [0] * cfg.d, h, uniform(cfg.d))
                assert predict_level(fresh, cfg) == fc.level_state(level).prediction
            x = 1 + stream.below(3)
            history.append(x)
            fc.observe(x, t)


class TestSamplePrediction:
    def test_single_entry(self):
        mix = merge_mixture(1, [uniform(2)] * 3, 3)
        assert sample_prediction(mix, fixed_stream(1)) == uniform(2)

    def test_uniform_frequencies(self):
        keys = [
            make_rational_dist([1, 0], 1),
            make_rational_dist([0, 1], 1),
            make_rational_dist([1, 1], 2),
        ]
        mix = merge_mixture(1, keys, 3)
        stream = fixed_stream(2)
        n = 30000
        counts = {k: 0 for k in keys}
        for _ in range(n):
            counts[sample_prediction(mix, stream)] += 1
        p = 1 / 3
        sigma = (n * p * (1 - p)) ** 0.5
        for k in keys:
            assert abs(counts[k] - n * p) <= 3 * sigma

    def test_seed_determinism(self):
        keys = [make_rational_dist([1, 0], 1), make_rational_dist([0, 1], 1)]
        mix = merge_mixture(1, keys, 2)
        a = [sample_prediction(mix, fixed_stream(3)) for _ in range(1)]
        s1, s2 = fixed_stream(9), fixed_stream(9)
        seq1 = [sample_prediction(mix, s1) for _ in range(200)]
        seq2 = [sample_prediction(mix, s2) for _ in range(200)]
        assert seq1 == seq2
