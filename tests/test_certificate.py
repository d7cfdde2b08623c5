import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import fixed_stream, random_dist, simulate_recorded
from hicalib.adversary import (
    AdaptiveArgminAdversary,
    HardSeqConfig,
    HardSequenceAdversary,
    IIDAdversary,
)
from hicalib.certificate import (
    RunView,
    certify_run,
    check_chain,
    check_pseudo_regret,
    check_pseudo_regret_all,
    check_recomputation,
    check_smoothness,
    check_telescope,
)
from hicalib.engine import run_from_outcomes, simulate
from hicalib.errors import OutOfRange
from hicalib.forecaster import ForecastConfig, smoothed_prediction
from hicalib.simplex import (
    entropy,
    l1_distance_exact,
    make_rational_dist,
    point_mass,
    uniform,
)

# Hand evaluation of the d=2, H=2, m=1 interval with outcomes (1, 2):
# w1=(1,0), w2=(0,1); z2=(3/4,1/4), z3=(1/2,1/2)
# lhs   = <w1, ln 1/z2> + <w2, ln 1/z3> = ln(4/3) + ln 2
# tight = [4 ln 4 - 2 ln 2 - 2] + 2 [-(3/2) ln(3/2) + (1/2) ln(1/2) + 1]
HAND_LHS = math.log(4 / 3) + math.log(2)
HAND_TIGHT = (4 * math.log(4) - 2 * math.log(2) - 2) + 2 * (
    -1.5 * math.log(1.5) + 0.5 * math.log(0.5) + 1
)


def random_run(tag, cfg=None, mode="distributional", adversary=None):
    stream = fixed_stream(7000 + tag)
    if cfg is None:
        cfg = ForecastConfig(
            d=(2, 3, 4)[stream.below(3)],
            L=1 + stream.below(3),
            H=2 + stream.below(3),
            S=1 + stream.below(3),
            m=1 + stream.below(3),
        )
    if adversary is None:
        adversary = IIDAdversary(random_dist(stream, cfg.d, full_support=True))
    return simulate(cfg, adversary, seed=6000 + tag, mode=mode)


class TestPseudoRegret:
    @pytest.mark.parametrize("level, v", [(0, 0), (3, 0), (1, -1), (1, 1), (2, 2)])
    def test_interval_outside_the_tree_is_out_of_range(self, level, v):
        run = run_from_outcomes(ForecastConfig(d=2, L=2, H=2, S=1, m=1), [1, 2, 2, 1])
        check_pseudo_regret(run, 2, 1)  # the last interval exists
        with pytest.raises(OutOfRange):
            check_pseudo_regret(run, level, v)

    def test_hand_case(self):
        run = run_from_outcomes(ForecastConfig(d=2, L=1, H=2, S=1, m=1), [1, 2])
        res = check_pseudo_regret(run, level=1, interval_index=0)
        assert res.lhs == pytest.approx(HAND_LHS, abs=1e-9)
        assert res.tight_bound == pytest.approx(HAND_TIGHT, abs=1e-9)
        assert res.lhs == pytest.approx(0.98083, abs=1e-4)
        assert res.tight_bound == pytest.approx(2.2493, abs=1e-4)
        assert res.passed
        # here the fixed-slack H*Ent + H/m^2 form dominates the tight bound
        assert res.coarse_bound == pytest.approx(2 * math.log(2) + 2, abs=1e-12)
        assert res.coarse_applies

    def test_constant_outcome_zero_entropy_parent(self):
        cfg = ForecastConfig(d=2, L=1, H=4, S=2, m=1)
        run = run_from_outcomes(cfg, [1] * cfg.T)
        res = check_pseudo_regret(run, 1, 0)
        view = RunView(run)
        assert view.ent_by_depth[0][0] == 0.0
        assert res.passed
        assert res.tight_bound - res.lhs > 0.1  # large margin

    def test_tight_bound_holds_on_random_runs(self):
        for tag in range(25):
            run = random_run(tag)
            view = RunView(run)
            for level in range(1, run.cfg.L + 1):
                for v in range(run.cfg.H ** (level - 1)):
                    res = check_pseudo_regret(view, level, v)
                    assert res.lhs <= res.tight_bound + 1e-9


class TestSmoothness:
    def test_first_step_from_uniform(self):
        # m=2: uniform -> (2/3, 1/3) moves 2/3 = exactly the 2/(1+m) bound
        cfg = ForecastConfig(d=2, L=1, H=2, S=2, m=2)
        run = run_from_outcomes(cfg, [1, 1, 1, 1])
        rows, max_gap, violations = check_smoothness(run)
        assert violations == 0
        assert max_gap <= 2 / cfg.m + 1e-12

    def test_identical_consecutive_predictions(self):
        # balanced outcomes keep the smoothed average at uniform: zero gaps
        cfg = ForecastConfig(d=2, L=1, H=2, S=2, m=1)
        run = run_from_outcomes(cfg, [1, 2, 1, 2])
        rows, max_gap, _ = check_smoothness(run)
        assert max_gap == 0.0

    def test_no_violations_across_random_runs(self):
        for tag in range(25):
            run = random_run(100 + tag)
            rows, max_gap, violations = check_smoothness(run)
            assert violations == 0
            assert max_gap <= 2 / run.cfg.m + 1e-12
            assert all(r.passed for r in rows)


class TestTelescope:
    def test_constant_outcome_both_sides_zero(self):
        cfg = ForecastConfig(d=2, L=2, H=2, S=2, m=1)
        run = run_from_outcomes(cfg, [2] * cfg.T)
        res = check_telescope(run)
        assert res.lhs == res.rhs == 0.0

    def test_residual_vanishes_on_random_runs(self):
        for tag in range(25):
            run = random_run(200 + tag)
            res = check_telescope(run)
            assert abs(res.residual) <= 1e-9

    def test_specific_d4_case(self):
        cfg = ForecastConfig(d=4, L=3, H=4, S=4, m=1)
        run = random_run(999, cfg=cfg)
        assert abs(check_telescope(run).residual) <= 1e-9


class TestChain:
    def test_tiny_two_day_run(self):
        run = run_from_outcomes(ForecastConfig(d=2, L=1, H=2, S=1, m=1), [1, 2])
        rep = check_chain(run)
        chain = rep.chain
        assert all(math.isfinite(chain[k]) for k in ("A0", "A1", "A2", "A3"))
        assert chain["A0"] <= chain["A1"] <= chain["A2"] <= chain["A3"] + 1e-9
        assert rep.passed

    def test_ordered_on_random_runs(self):
        for tag in range(20):
            mode = "sampled" if tag % 2 else "distributional"
            run = random_run(300 + tag, mode=mode)
            rep = check_chain(run)
            assert rep.passed, [c for c in rep.checks if not c.passed]

    def test_adaptive_argmin_runs_certify(self):
        cfg = ForecastConfig(d=3, L=2, H=3, S=2, m=2)
        run = simulate(cfg, AdaptiveArgminAdversary(3), seed=8)
        assert check_chain(run).passed

    def test_constant_outcome_dce_rate_small(self):
        # long constant-outcome run: smoothing decays and the rate drops well
        # below the trivial 2.0 per day
        cfg = ForecastConfig(d=2, L=2, H=16, S=16, m=1)
        run = run_from_outcomes(cfg, [1] * cfg.T)
        rep = check_chain(run)
        assert rep.passed
        assert rep.chain["dce_per_day"] < 0.3

    def test_single_level_distinct_keys_makes_step1_tight(self):
        # keys per iteration: uniform, (3,1)/4, (2,1)/3, (5,3)/8 - all distinct,
        # so grouping by value cannot merge anything and A0 == A1 exactly.
        cfg = ForecastConfig(d=2, L=1, H=4, S=2, m=1)
        outcomes = [1, 1, 1, 2, 1, 2, 2, 2]
        run = run_from_outcomes(cfg, outcomes)
        assert len(set(run.level_iter_keys[0])) == 4
        rep = check_chain(run)
        assert rep.chain["A0"] == rep.chain["A1"]

    def test_kl_budget_row_present_and_sound(self):
        run = random_run(400)
        rep = check_chain(run)
        row = next(c for c in rep.checks if c.name == "chain-step4-kl-budget")
        assert row.passed
        assert rep.chain["K_bar"] <= math.log(run.cfg.d) / run.cfg.L + rep.chain["C_bar"] + 1e-9


class TestRecomputation:
    def test_clean_run_passes(self):
        run = random_run(500)
        assert check_recomputation(run).passed

    def test_tampered_keys_detected(self):
        # key 0 is always the uniform day-one prediction; repointing any
        # non-uniform iteration at it must trip the recomputation check
        run = random_run(501)
        tampered = [list(level) for level in run.level_iter_keys]
        cell = next(
            (li, j)
            for li, level in enumerate(tampered)
            for j, kid in enumerate(level)
            if kid != 0
        )
        tampered[cell[0]][cell[1]] = 0
        run2 = dataclasses.replace(run, level_iter_keys=tampered)
        assert not check_recomputation(run2).passed

    def test_takes_a_view(self):
        run = random_run(502)
        assert check_recomputation(RunView(run)).passed

    def test_view_is_checked_against_its_own_run(self):
        # a view carries its run, so no run can be paired with another's view
        deep = run_from_outcomes(ForecastConfig(d=2, L=2, H=2, S=1, m=1), [1, 2, 2, 1])
        shallow = run_from_outcomes(ForecastConfig(d=2, L=1, H=2, S=1, m=1), [1, 2])
        for run in (deep, shallow):
            row = check_recomputation(RunView(run))
            assert (row.passed, row.measured) == (True, 0.0)
        with pytest.raises(TypeError):
            check_recomputation(deep, RunView(shallow))

    def test_tampered_keys_detected_through_a_view(self):
        run = random_run(503)
        tampered = [list(level) for level in run.level_iter_keys]
        tampered[-1][-1] = next(k for k in range(len(run.keys)) if k != tampered[-1][-1])
        row = check_recomputation(RunView(dataclasses.replace(run, level_iter_keys=tampered)))
        assert (row.passed, row.measured) == (False, 1.0)

    def test_tampered_key_in_a_repeated_interval_counts_once(self):
        # adaptive d=2, H=2, S=2 repeats one interval per level: each
        # distinct cell is compared once, yet one edited cell among its
        # repeats is one mismatch, and the untouched repeats none
        cfg = ForecastConfig(d=2, L=6, H=2, S=2, m=1)
        run = simulate(cfg, AdaptiveArgminAdversary(2), seed=3, mode="sampled")
        view = RunView(run)
        level, h = 4, 2
        ids = view.interval_ids[level - 1]
        assert len(set(ids)) == 1 and len(ids) == 8
        tampered = [list(keys) for keys in run.level_iter_keys]
        recorded = tampered[level - 1]
        cell = 5 * cfg.H + h - 1  # interval v=5, iteration h
        other = next(k for k in range(len(run.keys)) if k != recorded[cell])
        recorded[cell] = other
        row = check_recomputation(dataclasses.replace(run, level_iter_keys=tampered))
        assert (row.passed, row.measured) == (False, 1.0)
        # the same edit in all 8 repeats is one distinct cell, 8 mismatches
        recorded[h - 1 :: cfg.H] = [other] * len(ids)
        row = check_recomputation(dataclasses.replace(run, level_iter_keys=tampered))
        assert (row.passed, row.measured) == (False, 8.0)

    def test_tampered_outcome_breaks_certificate(self):
        cfg = ForecastConfig(d=2, L=2, H=2, S=2, m=1)
        run, outcomes, _ = simulate_recorded(cfg, IIDAdversary(uniform(2)), seed=11)
        flipped = list(outcomes)
        flipped[3] = 3 - flipped[3]
        replay = run_from_outcomes(cfg, flipped)
        # replay is self-consistent, but its keys differ from the original run
        assert replay.level_iter_keys != run.level_iter_keys


# the chain and its supporting bounds are claimed for every outcome
# sequence, not in expectation: fuzz raw histories directly
PATHWISE_CFG = ForecastConfig(d=3, L=2, H=2, S=6, m=1)  # T = 24


@given(st.lists(st.integers(1, 3), min_size=24, max_size=24))
def test_certificate_holds_on_arbitrary_histories(outcomes):
    run = run_from_outcomes(PATHWISE_CFG, outcomes)
    rep = check_chain(run)
    assert rep.passed, [c for c in rep.checks if not c.passed]


@given(st.lists(st.integers(1, 3), min_size=24, max_size=24))
def test_aggregated_dce_equals_metric_on_any_history(outcomes):
    from hicalib.engine import dce_value
    from hicalib.metrics import dce
    from reference import expand_to_transcript

    run = run_from_outcomes(PATHWISE_CFG, outcomes)
    assert dce(expand_to_transcript(run, outcomes)) == dce_value(run)


class TestReportShape:
    def test_json_and_csv_are_deterministic(self):
        run = random_run(600)
        r1, r2 = certify_run(run, run_id="abc"), certify_run(run, run_id="abc")
        assert r1.to_json() == r2.to_json()
        assert r1.csv_rows() == r2.csv_rows()
        assert r1.to_json_dict()["run_id"] == "abc"


def _kl_reference(x, p):
    """KL(x || p) with one Fraction per log argument, as simplex once had it."""
    s = 0.0
    for nx, np_ in zip(x.numerators, p.numerators):
        if nx:
            s += nx * math.log(Fraction(nx * p.denominator, x.denominator * np_))
    return max(s / x.denominator, 0.0)


def dense_counts(run):
    """Dense outcome counts of every interval-tree node, index = depth 0..L."""
    H = run.cfg.H
    counts = [[list(c) for c in run.leaf_counts]]
    for _ in range(run.cfg.L):
        below = counts[0]
        counts.insert(
            0, [[sum(col) for col in zip(*below[j : j + H])] for j in range(0, len(below), H)]
        )
    return counts


def reference_chain(run):
    """A0, A1, A2, K_bar and smoothness rows from per-cell Fraction terms.

    Predictions are recomputed per interval, each cell's l1 terms are
    l1_distance_exact Fractions summed in (level, v, h) order, and each
    smoothness bound is Fraction(2, h+m).
    """
    cfg = run.cfg
    d, H, L, m = cfg.d, cfg.H, cfg.L, cfg.m
    counts = dense_counts(run)
    a0 = Fraction(0)
    for kid, rec in run.dce_tallies.items():
        nums, den = run.keys[kid]
        a0 += Fraction(sum(abs(nu * rec[0] - den * v) for nu, v in zip(nums, rec[1:])), den * L)
    a1 = a2 = Fraction(0)
    k_bar = 0.0
    smooth = []
    for level in range(1, L + 1):
        t_level = cfg.period(level)
        level_max, min_margin, bad = 0.0, math.inf, 0
        for v in range(H ** (level - 1)):
            prefix = [0] * d
            z = smoothed_prediction(prefix, 1, t_level, d, m)
            for h in range(1, H + 1):
                c = counts[level][v * H + h - 1]
                prefix = [p + ci for p, ci in zip(prefix, c)]
                succ = smoothed_prediction(prefix, h + 1, t_level, d, m)
                x = make_rational_dist(c, t_level)
                a1 += t_level * l1_distance_exact(z, x)
                a2 += t_level * l1_distance_exact(succ, x)
                k_bar += _kl_reference(x, succ) / H**level
                gap, bound = l1_distance_exact(z, succ), Fraction(2, h + m)
                bad += gap > bound
                level_max = max(level_max, float(gap))
                min_margin = min(min_margin, float(bound - gap))
                z = succ
        smooth.append((level_max, min_margin, bad == 0 and level_max <= 2.0 / m))
    return a0, a1 / L, a2 / L + Fraction(2 * cfg.T, m), k_bar / L, smooth


def assert_chain_matches_reference(run):
    a0, a1, a2, k_bar, smooth = reference_chain(run)
    rep = check_chain(run)
    assert [rep.chain[k] for k in ("A0", "A1", "A2", "K_bar")] == [
        float(a0), float(a1), float(a2), k_bar
    ]
    rows = {c.name: c for c in rep.checks}
    assert rows["chain-step1-triangle"].margin == float(a1 - a0)
    assert rows["chain-step2-successor-swap"].margin == float(a2 - a1)
    got = [(c.measured, c.margin, c.passed) for c in rep.checks if c.name == "smoothness-step"]
    assert got == smooth


@given(st.lists(st.integers(1, 3), min_size=24, max_size=24))
def test_chain_equals_fraction_reference_on_any_history(outcomes):
    assert_chain_matches_reference(run_from_outcomes(PATHWISE_CFG, outcomes))


@pytest.mark.parametrize("tag", range(12))
def test_chain_equals_fraction_reference_on_random_runs(tag):
    assert_chain_matches_reference(
        random_run(700 + tag, mode="sampled" if tag % 2 else "distributional")
    )


def _few_coordinates(tag, cfg, coords):
    stream = fixed_stream(7500 + tag)
    return run_from_outcomes(cfg, [coords[stream.below(len(coords))] for _ in range(cfg.T)])


def _every_coordinate(d, L, H, m):
    # each S = 2d day block holds every outcome once, then d draws from 1..3
    stream = fixed_stream(7600 + d)
    cfg = ForecastConfig(d=d, L=L, H=H, S=2 * d, m=m)
    outcomes = []
    for _ in range(H**L):
        outcomes += list(range(1, d + 1)) + [1 + stream.below(3) for _ in range(d)]
    return run_from_outcomes(cfg, outcomes)


# d >= 64 at S = 1: each cell touches a few coordinates and the rest enter
# the certificate's sums as one background term
WIDE_RUNS = {
    "hard-seq-d64": lambda: simulate(
        ForecastConfig(d=64, L=4, H=2, S=1, m=2),
        HardSequenceAdversary(HardSeqConfig(R=2, K=16), seed=3), seed=3, mode="sampled",
    ),
    "hard-seq-d72": lambda: simulate(
        ForecastConfig(d=72, L=6, H=2, S=1, m=1),
        HardSequenceAdversary(HardSeqConfig(R=3, K=8), seed=4), seed=4, mode="sampled",
    ),
    "adaptive-d64": lambda: simulate(
        ForecastConfig(d=64, L=3, H=4, S=1, m=3), AdaptiveArgminAdversary(64), seed=5
    ),
    "three-coordinates-d97": lambda: _few_coordinates(
        0, ForecastConfig(d=97, L=3, H=3, S=1, m=1), (1, 50, 97)
    ),
    "one-coordinate-d64": lambda: _few_coordinates(
        1, ForecastConfig(d=64, L=2, H=4, S=1, m=2), (64,)
    ),
    # every cell touches every coordinate: no background term anywhere
    "every-coordinate-d64": lambda: _every_coordinate(64, L=2, H=2, m=1),
}


def assert_support_walks_match_dense(run):
    """Entropies and pseudo-regret bounds equal their dense evaluations exactly."""
    cfg = run.cfg
    d, H, m = cfg.d, cfg.H, cfg.m
    counts = dense_counts(run)
    view = RunView(run)
    for depth, nodes in enumerate(counts):
        assert view.ent_by_depth[depth] == [
            entropy(make_rational_dist(c, cfg.period(depth))) for c in nodes
        ]
    c_smooth = m / d
    for level in range(1, cfg.L + 1):
        t_level = cfg.period(level)
        for v in range(H ** (level - 1)):
            zs = view.preds[level - 1][v]
            lhs = 0.0
            for h in range(1, H + 1):
                for i, c in enumerate(counts[level][v * H + h - 1]):
                    if c:
                        lhs += (c / t_level) * math.log(zs[h].denominator / zs[h].numerators[i])
            tight = (H + 1 + m) * math.log(H + 1 + m) - (1 + m) * math.log(1 + m) - H
            for w_count in counts[level - 1][v]:
                w = w_count / t_level
                tight += -(w + c_smooth) * math.log(w + c_smooth) + c_smooth * math.log(c_smooth) + w
            res = check_pseudo_regret(view, level, v)
            assert (res.lhs, res.tight_bound) == (lhs, tight)


@pytest.mark.parametrize("name", sorted(WIDE_RUNS))
def test_wide_runs_match_dense_references(name):
    run = WIDE_RUNS[name]()
    supports = {len(list(filter(None, c))) for c in run.leaf_counts}
    if name.startswith("every-coordinate"):
        assert supports == {run.cfg.d}
    else:
        assert run.cfg.d >= 64 and run.cfg.S == 1 and supports == {1}
    assert_chain_matches_reference(run)
    assert_support_walks_match_dense(run)
    assert check_chain(run).passed


@st.composite
def repeating_runs(draw):
    """Runs whose interval subtrees repeat: d=2 and an even S, driven by the
    adaptive adversary or a point-mass iid law."""
    H = draw(st.integers(2, 3))
    cfg = ForecastConfig(
        d=2, L=draw(st.integers(1, 5 if H == 2 else 3)), H=H,
        S=2 * draw(st.integers(1, 3)), m=draw(st.integers(1, 3)),
    )
    if draw(st.booleans()):
        adversary = AdaptiveArgminAdversary(2)
    else:
        adversary = IIDAdversary(point_mass(2, draw(st.integers(1, 2))))
    mode = draw(st.sampled_from(["distributional", "sampled"]))
    return simulate(cfg, adversary, seed=draw(st.integers(0, 2**32)), mode=mode)


def dense_telescope_lhs(view):
    """The telescope's left side, one entropy drop per interval, in order."""
    H, L = view.cfg.H, view.cfg.L
    lhs = 0.0
    for level in range(1, L + 1):
        inner = 0.0
        parents, children = view.ent_by_depth[level - 1], view.ent_by_depth[level]
        for v in range(H ** (level - 1)):
            s = 0.0
            for ent in children[v * H : v * H + H]:
                s += ent
            inner += H * parents[v] - s
        lhs += inner / H**level
    return lhs / L


@given(repeating_runs())
def test_repeating_subtrees_match_dense_references(run):
    assert_chain_matches_reference(run)
    assert_support_walks_match_dense(run)
    cfg = run.cfg
    view = RunView(run)
    dense = [
        check_pseudo_regret(view, level, v)
        for level in range(1, cfg.L + 1)
        for v in range(cfg.H ** (level - 1))
    ]
    _, results = check_pseudo_regret_all(view)
    for res in dense:
        level, v = res.level, res.interval_index
        shared = results[level - 1][view.interval_ids[level - 1][v]]
        assert repr(res) == repr(dataclasses.replace(shared, interval_index=v))
    c_bar = 0.0
    for res in dense:
        parent = view.ent_by_depth[res.level - 1][res.interval_index]
        c_bar += (res.tight_bound - cfg.H * parent) / cfg.H**res.level
    rep = check_chain(view)
    assert repr((rep.chain["C_bar"], check_telescope(view).lhs)) == repr(
        (c_bar / cfg.L, dense_telescope_lhs(view))
    )
    assert rep.passed


def test_fixed_slack_row_needs_every_interval_in_the_coarse_regime():
    cfg = ForecastConfig(d=2, L=3, H=4, S=8, m=2)
    view = RunView(simulate(cfg, IIDAdversary(uniform(2)), seed=1, mode="sampled"))
    applies = [
        check_pseudo_regret(view, level, v).coarse_applies
        for level in range(1, cfg.L + 1)
        for v in range(cfg.H ** (level - 1))
    ]
    assert 0 < sum(applies) < len(applies)
    assert "chain-step4-fixed-slack" not in [c.name for c in check_chain(view).checks]


def test_pseudo_regret_all_keeps_one_result_per_distinct_interval():
    cfg = ForecastConfig(d=2, L=8, H=2, S=2, m=1)
    run = simulate(cfg, AdaptiveArgminAdversary(2), seed=0)
    _, results = check_pseudo_regret_all(run)
    assert [len(r) for r in results] == [1] * 8
    assert [r[0].interval_index for r in results] == [0] * 8


BIG = st.integers(1, 2**300)


@given(BIG, BIG)
def test_int_division_log_equals_fraction_log(a, b):
    assert math.log(a / b) == math.log(Fraction(a, b))


@given(st.integers(0, 2**300), BIG, BIG)
def test_int_division_margin_equals_fraction_margin(n, D, k):
    assert n / D == float(Fraction(n, D))
    assert (2 * D - n * k) / (k * D) == float(Fraction(2, k) - Fraction(n, D))


def _small_iid_view():
    """The RunView of a small i.i.d. run; its per-depth lists are writable."""
    cfg = ForecastConfig(d=3, L=2, H=2, S=2, m=2)
    return RunView(simulate(cfg, IIDAdversary(make_rational_dist([1, 2, 3], 6)), seed=4))


def _failing_rows(view):
    return {(row.name, row.scope) for row in check_chain(view).checks if not row.passed}


def test_perturbed_views_fail_exactly_the_rows_that_read_them():
    assert _failing_rows(_small_iid_view()) == set()
    # Entropies reach the chain only through C_bar.  The telescope identity
    # holds for any values at the nodes, so it passes.
    view = _small_iid_view()
    view.ent_by_depth = [[e + 5 for e in ents] for ents in view.ent_by_depth]
    assert _failing_rows(view) == {("chain-step4-kl-budget", "K_bar <= ln(d)/L + C_bar")}
    # z_3, the never-played successor of level 1's one interval, moved far
    # from z_2: A2, A3 and K_bar move too but stay within their bounds, and
    # no recorded key is compared with z_3.
    view = _small_iid_view()
    view.preds[0][0][2] = make_rational_dist([98, 1, 1], 100)
    assert _failing_rows(view) == {("smoothness-step", "level=1"), ("pseudo-regret-tight", "level=1")}
