from fractions import Fraction

import pytest

from conftest import fixed_stream
from hicalib.errors import MissingMixture, MissingRealizedPrediction
from hicalib.forecaster import MixtureRecord, sample_prediction
from hicalib.harness import random_transcript
from hicalib.metrics import (
    DayRecord,
    RestrictionSpec,
    Transcript,
    dce,
    dce_restricted,
    ece_estimate,
    ece_trajectory,
    exhaustive_ece,
    oracle_dce_direct,
)
from hicalib.simplex import point_mass, uniform

HALF = uniform(2)
E1 = point_mass(2, 1)
E2 = point_mass(2, 2)


def day(t, entries, outcome, realized=None):
    mix = MixtureRecord(t, tuple((k, Fraction(w)) for k, w in entries))
    return DayRecord(t=t, mixture=mix, outcome=outcome, realized=realized)


class TestDce:
    def test_perfect_point_prediction(self):
        tr = Transcript(2, [day(1, [(E1, 1)], 1)])
        assert dce(tr) == 0.0

    def test_balanced_uniform(self):
        tr = Transcript(2, [day(1, [(HALF, 1)], 1), day(2, [(HALF, 1)], 2)])
        assert dce(tr) == 0.0

    def test_split_mixture_hand_value(self):
        tr = Transcript(2, [day(1, [(E1, Fraction(1, 2)), (E2, Fraction(1, 2))], 1)])
        assert dce(tr) == 1.0

    def test_missing_mixture(self):
        tr = Transcript(2, [DayRecord(1, None, 1)])
        with pytest.raises(MissingMixture):
            dce(tr)

    def test_grouping_merges_split_weights(self):
        # splitting an entry (p, w) into (p, w/2) + (p, w/2) changes nothing
        whole = Transcript(2, [day(1, [(HALF, 1)], 1), day(2, [(E1, 1)], 2)])
        split = Transcript(
            2,
            [
                day(1, [(HALF, Fraction(1, 2)), (HALF, Fraction(1, 2))], 1),
                day(2, [(E1, 1)], 2),
            ],
        )
        assert dce(whole) == dce(split)

    def test_scale_bound(self):
        for tag in range(20):
            tr = random_transcript(fixed_stream(100 + tag), 12, 4)
            assert dce(tr) <= 2 * tr.T + 1e-9


class TestEceTrajectory:
    def test_point_predictions_of_realized_outcomes(self):
        tr = Transcript(
            2,
            [
                day(1, [(E1, 1)], 1, realized=E1),
                day(2, [(E2, 1)], 2, realized=E2),
            ],
        )
        assert ece_trajectory(tr) == 0.0

    def test_single_uniform_day(self):
        tr = Transcript(2, [day(1, [(HALF, 1)], 1, realized=HALF)])
        assert ece_trajectory(tr) == 1.0

    def test_balanced_two_days(self):
        tr = Transcript(
            2,
            [
                day(1, [(HALF, 1)], 1, realized=HALF),
                day(2, [(HALF, 1)], 2, realized=HALF),
            ],
        )
        assert ece_trajectory(tr) == 0.0

    def test_scale_bound(self):
        from hicalib.metrics import DayRecord as DR

        for tag in range(10):
            tr = random_transcript(fixed_stream(150 + tag), 12, 4)
            realized = Transcript(
                tr.d,
                [DR(r.t, r.mixture, r.outcome, realized=r.mixture.entries[0][0]) for r in tr.days],
            )
            assert ece_trajectory(realized) <= 2 * tr.T + 1e-9

    def test_missing_realized(self):
        tr = Transcript(2, [day(1, [(HALF, 1)], 1)])
        with pytest.raises(MissingRealizedPrediction):
            ece_trajectory(tr)


class TestDceRestricted:
    def test_hand_case(self):
        tr = Transcript(2, [day(1, [(HALF, 1)], 1)])
        spec = RestrictionSpec(frozenset({1}), frozenset({HALF}), frozenset({1, 2}))
        assert dce_restricted(tr, spec) == 1.0

    def test_empty_sets_give_zero(self):
        tr = Transcript(2, [day(1, [(HALF, 1)], 1)])
        full_days, full_keys = frozenset({1}), frozenset({HALF})
        assert dce_restricted(tr, RestrictionSpec(full_days, frozenset(), frozenset({1}))) == 0.0
        assert dce_restricted(tr, RestrictionSpec(full_days, full_keys, frozenset())) == 0.0

    def test_full_spec_equals_dce(self):
        for tag in range(10):
            tr = random_transcript(fixed_stream(200 + tag), 10, 4)
            keys = {k for rec in tr.days for k, _ in rec.mixture.entries}
            spec = RestrictionSpec(
                frozenset(range(1, tr.T + 1)), frozenset(keys), frozenset(range(1, tr.d + 1))
            )
            assert dce_restricted(tr, spec) == pytest.approx(dce(tr), abs=1e-12)

    def test_monotone_in_keys_and_coords(self):
        stream = fixed_stream(300)
        for tag in range(15):
            tr = random_transcript(fixed_stream(301 + tag), 10, 4)
            keys = sorted({k for rec in tr.days for k, _ in rec.mixture.entries})
            days = frozenset(range(1, tr.T + 1, 2))
            coords = list(range(1, tr.d + 1))
            for cut_k in range(len(keys) + 1):
                for cut_c in range(1, len(coords) + 1):
                    small = dce_restricted(
                        tr, RestrictionSpec(days, frozenset(keys[:cut_k]), frozenset(coords[:cut_c]))
                    )
                    big = dce_restricted(
                        tr, RestrictionSpec(days, frozenset(keys), frozenset(coords))
                    )
                    assert small <= big + 1e-12


class TestOracle:
    def test_matches_on_hand_cases(self):
        cases = [
            Transcript(2, [day(1, [(E1, 1)], 1)]),
            Transcript(2, [day(1, [(HALF, 1)], 1), day(2, [(HALF, 1)], 2)]),
            Transcript(2, [day(1, [(E1, Fraction(1, 2)), (E2, Fraction(1, 2))], 1)]),
        ]
        for tr in cases:
            assert oracle_dce_direct(tr) == pytest.approx(dce(tr), abs=1e-15)

    def test_matches_on_random_transcripts(self):
        for tag in range(100):
            tr = random_transcript(fixed_stream(400 + tag), 16, 4)
            assert abs(dce(tr) - oracle_dce_direct(tr)) <= 1e-12


class TestExhaustiveEce:
    def test_single_day_hand_value(self):
        tr = Transcript(2, [day(1, [(E1, Fraction(1, 2)), (E2, Fraction(1, 2))], 1)])
        # realizations: (1,0) -> 0 error; (0,1) -> l1 = 2; expectation = 1
        assert exhaustive_ece(tr) == 1.0

    def test_deterministic_mixture_equals_trajectory(self):
        tr = Transcript(2, [day(1, [(HALF, 1)], 1), day(2, [(HALF, 1)], 2)])
        realized = Transcript(
            2, [DayRecord(r.t, r.mixture, r.outcome, realized=HALF) for r in tr.days]
        )
        assert exhaustive_ece(tr) == ece_trajectory(realized)

    def test_jensen_direction_vs_dce(self):
        # exhaustively computed E[ECE] dominates DCE on hand-sized cases
        for tag in range(12):
            tr = random_transcript(fixed_stream(500 + tag), 6, 2, max_keys_per_day=2)
            assert exhaustive_ece(tr) >= dce(tr) - 1e-12

    def test_assignment_budget(self):
        days = [day(t, [(E1, Fraction(1, 2)), (E2, Fraction(1, 2))], 1) for t in range(1, 25)]
        with pytest.raises(ValueError):
            exhaustive_ece(Transcript(2, days), max_assignments=1000)


class TestEceEstimate:
    @staticmethod
    def _factory_for(tr, seed_tag):
        def factory(trial):
            stream = fixed_stream(seed_tag * 100000 + trial)
            days = [
                DayRecord(r.t, r.mixture, r.outcome, realized=sample_prediction(r.mixture, stream))
                for r in tr.days
            ]
            return Transcript(tr.d, days)

        return factory

    def test_deterministic_mixture_zero_stderr(self):
        tr = Transcript(2, [day(1, [(HALF, 1)], 1), day(2, [(HALF, 1)], 1)])
        est = ece_estimate(self._factory_for(tr, 1), trials=10)
        assert est.stderr == 0.0
        realized = Transcript(
            2, [DayRecord(r.t, r.mixture, r.outcome, realized=HALF) for r in tr.days]
        )
        assert est.mean == ece_trajectory(realized)

    def test_matches_exhaustive_within_3_stderr(self):
        tr = random_transcript(fixed_stream(600), 8, 2, max_keys_per_day=2)
        exact = exhaustive_ece(tr)
        est = ece_estimate(self._factory_for(tr, 2), trials=2000)
        assert abs(est.mean - exact) <= 3 * max(est.stderr, 1e-12)

    def test_stderr_shrinks_with_trials(self):
        tr = random_transcript(fixed_stream(601), 8, 2, max_keys_per_day=2)
        small = ece_estimate(self._factory_for(tr, 3), trials=300)
        large = ece_estimate(self._factory_for(tr, 3), trials=1200)
        # quadrupling trials should halve the standard error, up to noise
        assert large.stderr < small.stderr * 0.75
        assert large.stderr > small.stderr * 0.3

    def test_needs_two_trials(self):
        with pytest.raises(ValueError):
            ece_estimate(lambda trial: 0.0, trials=1)


class TestTranscriptValidate:
    def test_contiguity(self):
        tr = Transcript(2, [day(2, [(HALF, 1)], 1)])
        with pytest.raises(ValueError):
            tr.validate()

    def test_weight_sum(self):
        bad = Transcript(2, [day(1, [(HALF, Fraction(1, 2))], 1)])
        with pytest.raises(ValueError):
            bad.validate()
