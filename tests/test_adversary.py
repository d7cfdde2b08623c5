from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import fixed_stream
from hicalib.adversary import (
    AdaptiveArgminAdversary,
    EpsSchedule,
    HardSeqConfig,
    HardSequenceAdversary,
    IIDAdversary,
    day_distribution,
    day_tuple,
    export_hard_sequence_jsonl,
    export_tau_tree_json,
    sample_outcome,
    sample_tau_tree,
    tuple_to_day,
)
from hicalib.errors import ConfigInvalid, MissingTauEntry, OutOfRange
from hicalib.forecaster import merge_mixture
from hicalib.simplex import make_rational_dist, point_mass, uniform

ALL_SMALL = [(R, K) for R in (2, 3) for K in (1, 2, 3)]


class TestHardSeqConfig:
    def test_derived_sizes(self):
        cfg = HardSeqConfig(R=2, K=2)
        assert (cfg.d, cfg.T) == (8, 2)

    @pytest.mark.parametrize("R,K", ALL_SMALL)
    def test_blocks_partition(self, R, K):
        cfg = HardSeqConfig(R=R, K=K)
        coords = []
        for r in range(1, R + 1):
            block = list(cfg.block(r))
            assert len(block) == cfg.d // R
            sub = []
            for k in range(1, K + 1):
                chunk = list(cfg.sub_block(r, k))
                assert len(chunk) == R
                sub.extend(chunk)
            assert sub == block
            coords.extend(block)
        assert coords == list(range(1, cfg.d + 1))

    @pytest.mark.parametrize("R,K", ALL_SMALL)
    def test_one_hot_lands_in_its_sub_block(self, R, K):
        cfg = HardSeqConfig(R=R, K=K)
        for r in range(1, R):
            for k in range(1, K + 1):
                for j in range(1, R + 1):
                    assert cfg.one_hot_index(r, k, j) in cfg.sub_block(r, k)

    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            HardSeqConfig(R=1, K=2)
        with pytest.raises(ConfigInvalid):
            HardSeqConfig(R=2, K=0)


class TestEpsSchedule:
    def test_values(self):
        eps = EpsSchedule(R=2)
        assert eps[1] == Fraction(1, 2**12)
        assert eps[2] == Fraction(1, 2**6)

    def test_strictly_increasing_and_last(self):
        for R in (2, 3, 4):
            eps = EpsSchedule(R=R)
            vals = eps.values
            assert all(a < b for a, b in zip(vals, vals[1:]))
            assert vals[-1] == Fraction(1, R**6)


class TestTauTree:
    def test_entry_counts(self):
        assert len(sample_tau_tree(HardSeqConfig(2, 2), fixed_stream(1))) == 2
        assert len(sample_tau_tree(HardSeqConfig(3, 2), fixed_stream(1))) == 6

    def test_tau_uniform_3sigma(self):
        cfg = HardSeqConfig(R=3, K=2)
        counts = [0] * cfg.R
        n = 0
        for trial in range(2000):
            for tau in sample_tau_tree(cfg, fixed_stream(1000 + trial)).values():
                counts[tau - 1] += 1
                n += 1
        p = 1 / cfg.R
        sigma = (n * p * (1 - p)) ** 0.5
        for c in counts:
            assert abs(c - n * p) <= 3 * sigma

    def test_determinism(self):
        cfg = HardSeqConfig(R=3, K=3)
        assert sample_tau_tree(cfg, fixed_stream(7)) == sample_tau_tree(cfg, fixed_stream(7))


class TestDayTuple:
    def test_first_day(self):
        assert day_tuple(1, HardSeqConfig(3, 2)) == (1, 1)

    def test_mixed_radix(self):
        assert day_tuple(3, HardSeqConfig(3, 2)) == (2, 1)

    def test_round_trip(self):
        cfg = HardSeqConfig(3, 3)
        for t in range(1, cfg.T + 1):
            assert tuple_to_day(day_tuple(t, cfg), cfg) == t

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            day_tuple(0, HardSeqConfig(2, 2))
        with pytest.raises(OutOfRange):
            day_tuple(3, HardSeqConfig(2, 2))


class TestDayDistribution:
    def test_hand_example(self):
        cfg = HardSeqConfig(R=2, K=2)
        tree = {(1,): 2, (2,): 1}
        p = day_distribution(tree, 1, cfg)
        assert p.value(1) == Fraction(1, 2)  # coordinate 2, 0-based index 1
        for i in (4, 5, 6, 7):  # D_2 = coordinates 5..8
            assert p.value(i) == Fraction(1, 8)
        assert p.value(0) == p.value(2) == p.value(3) == 0

    @pytest.mark.parametrize("R,K", ALL_SMALL)
    def test_mass_sums_to_one_exactly(self, R, K):
        cfg = HardSeqConfig(R=R, K=K)
        tree = sample_tau_tree(cfg, fixed_stream(11))
        for t in range(1, cfg.T + 1):
            p = day_distribution(tree, t, cfg)
            assert sum(p.numerators) == p.denominator

    @pytest.mark.parametrize("R,K", ALL_SMALL)
    def test_block_support_structure(self, R, K):
        cfg = HardSeqConfig(R=R, K=K)
        tree = sample_tau_tree(cfg, fixed_stream(12))
        for t in range(1, cfg.T + 1):
            tup = day_tuple(t, cfg)
            p = day_distribution(tree, t, cfg)
            for r in range(1, R):
                hot = cfg.one_hot_index(r, tup[r - 1], tree[tup[:r]])
                for i in cfg.block(r):
                    expected = Fraction(1, R) if i == hot else 0
                    assert p.value(i - 1) == expected
            for i in cfg.block(R):
                assert p.value(i - 1) == Fraction(1, cfg.d)

    def test_block_restriction_constant_on_prefix_interval(self):
        cfg = HardSeqConfig(R=3, K=3)
        tree = sample_tau_tree(cfg, fixed_stream(14))
        dists = [day_distribution(tree, t, cfg) for t in range(1, cfg.T + 1)]
        for r in range(1, cfg.R):
            by_prefix = {}
            for t in range(1, cfg.T + 1):
                prefix = day_tuple(t, cfg)[:r]
                slice_r = tuple(dists[t - 1].value(i - 1) for i in cfg.block(r))
                by_prefix.setdefault(prefix, slice_r)
                assert by_prefix[prefix] == slice_r

    def test_missing_tau(self):
        with pytest.raises(MissingTauEntry):
            day_distribution({}, 1, HardSeqConfig(2, 2))

    def test_oblivious_of_everything_but_tree_and_day(self):
        cfg = HardSeqConfig(R=2, K=2)
        tree = sample_tau_tree(cfg, fixed_stream(13))
        adv = HardSequenceAdversary(cfg, tree=tree)
        a = adv.next(1)
        b = adv.next(1, (uniform(cfg.d),))
        assert a == b == day_distribution(tree, 1, cfg)


class TestSampleOutcome:
    def test_point_mass(self):
        s = fixed_stream(2)
        assert all(sample_outcome(point_mass(4, 3), s) == 3 for _ in range(20))

    def test_uniform_frequencies(self):
        s = fixed_stream(3)
        n = 40000
        counts = [0] * 4
        for _ in range(n):
            counts[sample_outcome(uniform(4), s) - 1] += 1
        p = 0.25
        sigma = (n * p * (1 - p)) ** 0.5
        for c in counts:
            assert abs(c - n * p) <= 3 * sigma

    def test_fixed_seed_fixed_sequence(self):
        q = make_rational_dist([2, 3, 5], 10)
        seq1 = [sample_outcome(q, fixed_stream(4)) for _ in range(1)]
        s1, s2 = fixed_stream(5), fixed_stream(5)
        assert [sample_outcome(q, s1) for _ in range(300)] == [
            sample_outcome(q, s2) for _ in range(300)
        ]


class TestSimpleAdversaries:
    def test_iid_constant(self):
        q = make_rational_dist([1, 3], 4)
        adv = IIDAdversary(q)
        assert all(adv.next(t) == q for t in range(1, 10))

    def test_adaptive_argmin_picks_least_predicted(self):
        adv = AdaptiveArgminAdversary(d=2)
        assert adv.next(1, (make_rational_dist([7, 3], 10),)) == point_mass(2, 2)

    def test_adaptive_argmin_tie_breaks_low(self):
        adv = AdaptiveArgminAdversary(d=3)
        assert adv.next(1, (uniform(3),)) == point_mass(3, 1)

    def test_adaptive_requires_mixture(self):
        with pytest.raises(ConfigInvalid):
            AdaptiveArgminAdversary(d=2).next(1)

    @given(st.data())
    def test_adaptive_integer_argmin_matches_mixture_mass(self, data):
        d = data.draw(st.sampled_from([2, 3, 8, 288]))
        rnd = data.draw(st.randoms(use_true_random=False))
        pool = []
        keys = []
        for _ in range(data.draw(st.integers(1, 13))):
            kind = data.draw(st.sampled_from(["repeat", "uniform", "small", "large"]))
            if kind == "repeat" and pool:
                key = rnd.choice(pool)
            elif kind in ("repeat", "uniform"):
                key = uniform(d)
            else:
                # small denominators leave zero numerators, hence ties
                den = rnd.randint(1, 12 if kind == "small" else 2**70)
                cuts = sorted(rnd.randint(0, den) for _ in range(d - 1))
                key = make_rational_dist(
                    [b - a for a, b in zip([0, *cuts], [*cuts, den])], den
                )
            pool.append(key)
            keys.append(key)
        assert AdaptiveArgminAdversary(d).next(1, tuple(keys)) == _mixture_mass_argmin(d, keys)


def _mixture_mass_argmin(d, keys):
    """Reference: Fraction mass of each coordinate under the day's mixture."""
    scores = [Fraction(0)] * d
    for key, w in merge_mixture(1, keys, len(keys)).entries:
        den = key.denominator
        for i, n in enumerate(key.numerators):
            if n:
                scores[i] += w * Fraction(n, den)
    best = min(range(d), key=lambda i: (scores[i], i))
    return point_mass(d, best + 1)


class TestExports:
    def test_hard_sequence_export_is_reproducible(self, tmp_path):
        cfg = HardSeqConfig(R=3, K=2)
        tree = sample_tau_tree(cfg, fixed_stream(21))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_hard_sequence_jsonl(p1, cfg, tree, seed=21)
        export_hard_sequence_jsonl(p2, cfg, tree, seed=21)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert len(lines) == cfg.T + 1

    def test_tau_tree_export(self, tmp_path):
        import json

        cfg = HardSeqConfig(R=2, K=3)
        tree = sample_tau_tree(cfg, fixed_stream(22))
        path = tmp_path / "tau.json"
        export_tau_tree_json(path, tree)
        data = json.loads(path.read_text())
        assert {tuple(p): tau for p, tau in data["entries"]} == tree
