from fractions import Fraction

import pytest

from conftest import fixed_stream, random_dist, simulate_recorded
from hicalib import _kernel_py, engine
from hicalib.adversary import (
    AdaptiveArgminAdversary,
    HardSeqConfig,
    HardSequenceAdversary,
    IIDAdversary,
    day_distribution,
    sample_tau_tree,
)
from hicalib.engine import (
    _tally_abs_sum,
    dce_value,
    ece_value,
    run_from_outcomes,
    simulate,
)
from hicalib.errors import ConfigInvalid
from hicalib.forecaster import ForecastConfig, merge_mixture
from hicalib.metrics import dce, ece_trajectory, oracle_dce_direct
from hicalib.rng import ROLE_OUTCOME, Stream, stream_key
from hicalib.simplex import make_rational_dist, uniform
from reference import HierarchicalForecaster, block_key_ids, expand_to_transcript, sample_outcome

SMALL_CONFIGS = [
    ForecastConfig(d=2, L=1, H=2, S=1, m=1),
    ForecastConfig(d=2, L=2, H=2, S=1, m=1),
    ForecastConfig(d=3, L=2, H=3, S=2, m=2),
    ForecastConfig(d=5, L=1, H=4, S=3, m=1),
    ForecastConfig(d=2, L=3, H=2, S=2, m=2),
    ForecastConfig(d=4, L=2, H=2, S=4, m=3),
    # deep and narrow: most rolled levels repeat an earlier prediction input
    ForecastConfig(d=2, L=6, H=2, S=2, m=2),
]


def adversaries_for(cfg, tag):
    yield IIDAdversary(random_dist(fixed_stream(tag), cfg.d, full_support=True))
    yield AdaptiveArgminAdversary(cfg.d)


@pytest.mark.parametrize("cfg", SMALL_CONFIGS)
def test_engine_agrees_with_reference_forecaster(cfg):
    for tag, adv in enumerate(adversaries_for(cfg, 900)):
        run, outcomes, _ = simulate_recorded(cfg, adv, seed=50 + tag, mode="sampled")
        fc = HierarchicalForecaster(cfg)
        for t in range(1, cfg.T + 1):
            mix = fc.mixture()
            b = (t - 1) // cfg.S
            eng = merge_mixture(t, (run.keys[kid] for kid in block_key_ids(run, b)), cfg.L)
            assert mix.entries == eng.entries, f"t={t} adversary={adv.name}"
            fc.observe(outcomes[t - 1], t)


@pytest.mark.parametrize("cfg", SMALL_CONFIGS)
def test_aggregates_match_transcript_metrics(cfg):
    for tag, adv in enumerate(adversaries_for(cfg, 910)):
        run, outcomes, levels = simulate_recorded(cfg, adv, seed=80 + tag, mode="sampled")
        tr = expand_to_transcript(run, outcomes, levels)
        tr.validate()
        assert dce(tr) == dce_value(run)
        assert oracle_dce_direct(tr) == pytest.approx(dce_value(run), abs=1e-12)
        assert ece_trajectory(tr) == ece_value(run)


def assert_replay_matches(run, outcomes):
    """The replay of a run's recorded outcomes rebuilds the run's aggregates."""
    replay = run_from_outcomes(run.cfg, outcomes)
    assert replay.keys == run.keys
    assert replay.level_iter_keys == run.level_iter_keys
    assert replay.leaf_counts == run.leaf_counts
    assert replay.dce_tallies == run.dce_tallies


@pytest.mark.parametrize("cfg", SMALL_CONFIGS[:3])
def test_replay_reproduces_run(cfg):
    adv = IIDAdversary(uniform(cfg.d))
    run, outcomes, _ = simulate_recorded(cfg, adv, seed=7, mode="sampled")
    assert_replay_matches(run, outcomes)


def test_replay_from_generator_equals_replay_from_list():
    cfg = ForecastConfig(d=3, L=2, H=3, S=2, m=2)
    _, outcomes, _ = simulate_recorded(cfg, IIDAdversary(uniform(3)), seed=8)
    from_list = run_from_outcomes(cfg, outcomes)
    from_gen = run_from_outcomes(cfg, (x for x in outcomes))
    assert from_gen == from_list


@pytest.mark.parametrize("n", [0, 7, 9, 17])
def test_replay_needs_exactly_T_outcomes(n):
    cfg = ForecastConfig(d=2, L=2, H=2, S=2, m=1)  # T = 8
    with pytest.raises(ConfigInvalid):
        run_from_outcomes(cfg, [1] * n)
    with pytest.raises(ConfigInvalid):
        run_from_outcomes(cfg, (1 for _ in range(n)))


@pytest.mark.parametrize("bad", [0, -1, 3, True, 1.0])
def test_replay_rejects_outcomes_it_cannot_count(bad):
    # 0 and -1 would count as coordinates d and d-1, True as 1
    cfg = ForecastConfig(d=2, L=1, H=2, S=1, m=1)
    with pytest.raises(ConfigInvalid, match=r"not an integer in \[1, 2\]"):
        run_from_outcomes(cfg, [1, bad])


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_simulate_refuses_a_seed_outside_64_bits(seed):
    # read mod 2**64, -1 would draw the days of 2**64 - 1 and record seed -1
    cfg = ForecastConfig(d=2, L=1, H=2, S=1, m=1)
    with pytest.raises(ConfigInvalid, match=r"seed must be in \[0, 2\*\*64\)"):
        simulate(cfg, IIDAdversary(uniform(2)), seed)


def test_replay_shows_each_block_mixture_before_pulling_its_days():
    cfg = ForecastConfig(d=2, L=2, H=2, S=3, m=1)
    _, recorded, _ = simulate_recorded(cfg, IIDAdversary(uniform(2)), seed=4)
    events = []

    def outcomes():
        for t, x in enumerate(recorded, 1):
            events.append(("day", t))
            yield x

    def on_block(t, level_keys):
        events.append(("block", t))

    run_from_outcomes(cfg, outcomes(), on_block=on_block)
    expected = []
    for b in range(cfg.H**cfg.L):
        expected.append(("block", b * cfg.S + 1))
        expected.extend(("day", b * cfg.S + j) for j in range(1, cfg.S + 1))
    assert events == expected


def test_on_day_sees_each_iid_block_as_one_segment():
    cfg = ForecastConfig(d=3, L=2, H=2, S=4, m=1)
    q = make_rational_dist([1, 2, 3], 6)
    calls = []
    run = simulate(cfg, IIDAdversary(q), seed=5, mode="sampled",
                   on_day=lambda *args: calls.append(args))
    assert [c[0] for c in calls] == list(range(1, cfg.T + 1, cfg.S))  # H**L segments
    assert all(len(c[1]) == len(c[2]) == cfg.S and c[3] == q for c in calls)
    outcomes = [x for c in calls for x in c[1]]
    levels = [v for c in calls for v in c[2]]
    assert_replay_matches(run, outcomes)
    assert ece_trajectory(expand_to_transcript(run, outcomes, levels)) == ece_value(run)


def test_on_day_sees_each_hard_day_as_its_own_segment():
    hcfg = HardSeqConfig(R=2, K=6)  # d=24, T=6
    cfg = ForecastConfig(d=hcfg.d, L=1, H=2, S=3, m=1)
    tree = sample_tau_tree(hcfg, fixed_stream(45))
    calls = []
    run = simulate(cfg, HardSequenceAdversary(hcfg, tree=tree), seed=6,
                   on_day=lambda *args: calls.append(args))
    assert [c[0] for c in calls] == list(range(1, cfg.T + 1))
    assert all(len(c[1]) == 1 for c in calls)
    assert_replay_matches(run, [x for c in calls for x in c[1]])
    assert all(c[2] is None for c in calls)  # distributional mode draws no levels
    assert [c[3] for c in calls] == [day_distribution(tree, t, hcfg) for t in range(1, cfg.T + 1)]


@pytest.mark.parametrize("adv, mode", [
    pytest.param(IIDAdversary(uniform(3)), "sampled", id="iid"),
    pytest.param(AdaptiveArgminAdversary(3), "sampled", id="adaptive"),
    # a law over 4 takes the kernel's popcount path
    pytest.param(IIDAdversary(make_rational_dist([1, 2, 1], 4)), "distributional", id="iid-den-4"),
])
def test_runs_without_a_day_sink_ask_the_kernel_for_counts_only(monkeypatch, adv, mode):
    # No per-day list leaves the engine except through on_day, so a run
    # without one, at any T, asks the kernel to record no outcomes or levels.
    flags = []
    decodes = []
    sim_days, draw_level_counts = _kernel_py.sim_days, _kernel_py.draw_level_counts
    decode = _kernel_py._decode

    def spy_sim_days(*args):
        flags.append(("sim_days", args[-1]))
        return sim_days(*args)

    def spy_draw_level_counts(*args):
        flags.append(("draw_level_counts", args[-1]))
        return draw_level_counts(*args)

    def spy_decode(*args):
        decodes.append(1)
        return decode(*args)

    monkeypatch.setattr(_kernel_py, "sim_days", spy_sim_days)
    monkeypatch.setattr(_kernel_py, "draw_level_counts", spy_draw_level_counts)
    monkeypatch.setattr(_kernel_py, "_decode", spy_decode)
    cfg = ForecastConfig(d=3, L=2, H=2, S=4, m=1)
    sampled = mode == "sampled"
    run = simulate(cfg, adv, seed=12, mode=mode)
    assert flags and set(flags) <= {("sim_days", False), ("draw_level_counts", False)}
    if not sampled:
        assert not decodes  # a power-of-two law is counted without decoding
    flags.clear()
    _, outcomes, levels = simulate_recorded(cfg, adv, seed=12, mode=mode)
    assert flags and set(flags) <= {("sim_days", True), ("draw_level_counts", True)}
    if sampled:
        assert len(levels) == cfg.T  # the sink saw every day's level
    assert_replay_matches(run, outcomes)
    recorded = expand_to_transcript(run, outcomes, levels)
    assert dce_value(run) == dce(recorded)
    if sampled:
        assert ece_trajectory(recorded) == ece_value(run)


@pytest.mark.parametrize("cfg, make_adv", [
    pytest.param(ForecastConfig(d=3, L=3, H=2, S=1, m=1),
                 lambda: IIDAdversary(make_rational_dist([1, 2, 4], 7)), id="iid"),
    # point masses: the levels come from draw_level_counts
    pytest.param(ForecastConfig(d=3, L=3, H=2, S=1, m=1),
                 lambda: AdaptiveArgminAdversary(3), id="adaptive"),
    # d = 32, T = 8: one-day segments
    pytest.param(ForecastConfig(d=32, L=3, H=2, S=1, m=1),
                 lambda: HardSequenceAdversary(HardSeqConfig(R=4, K=2), seed=5), id="hard"),
])
def test_ece_tallies_are_the_fold_of_the_drawn_days(cfg, make_adv):
    # Only keys realized on some day have a vector, and the vectors are the
    # per-day fold of the (level, outcome) pairs an on_day sink sees.
    run = simulate(cfg, make_adv(), seed=21, mode="sampled")
    rec_run, outcomes, levels = simulate_recorded(cfg, make_adv(), seed=21, mode="sampled")
    assert run.ece_tallies and all(sum(vec) > 0 for vec in run.ece_tallies.values())
    want: dict = {}
    for t, (x, v) in enumerate(zip(outcomes, levels)):
        key = run.keys[block_key_ids(run, t // cfg.S)[v]]
        want.setdefault(key, [0] * cfg.d)[x - 1] += 1
    for r in (run, rec_run):
        assert {r.keys[kid]: vec for kid, vec in r.ece_tallies.items()} == want


def test_simulation_is_deterministic():
    cfg = ForecastConfig(d=3, L=2, H=3, S=2, m=1)
    adv = lambda: IIDAdversary(random_dist(fixed_stream(33), 3, full_support=True))
    a, a_out, a_lv = simulate_recorded(cfg, adv(), seed=99, mode="sampled")
    b, b_out, b_lv = simulate_recorded(cfg, adv(), seed=99, mode="sampled")
    assert a_out == b_out
    assert a_lv == b_lv
    assert a.dce_tallies == b.dce_tallies


def test_trials_are_independent_streams():
    cfg = ForecastConfig(d=2, L=1, H=4, S=2, m=1)
    adv = IIDAdversary(uniform(2))
    _, a, _ = simulate_recorded(cfg, adv, seed=99, trial=0)
    _, b, _ = simulate_recorded(cfg, adv, seed=99, trial=1)
    assert a != b  # overwhelmingly likely for T=8 draws


def test_role_streams_are_independent():
    # sampled mode consumes level draws; the outcome stream must not notice
    cfg = ForecastConfig(d=3, L=2, H=2, S=2, m=1)
    adv = IIDAdversary(uniform(3))
    _, plain, _ = simulate_recorded(cfg, adv, seed=42, mode="distributional")
    _, sampled, _ = simulate_recorded(cfg, adv, seed=42, mode="sampled")
    assert plain == sampled


def test_adaptive_outcomes_ignore_seed():
    # point-mass outcome days consume no randomness at all
    cfg = ForecastConfig(d=2, L=2, H=2, S=2, m=1)
    adv = AdaptiveArgminAdversary(2)
    a, a_out, _ = simulate_recorded(cfg, adv, seed=1)
    b, b_out, _ = simulate_recorded(cfg, adv, seed=123456)
    assert a_out == b_out
    assert a.leaf_counts == b.leaf_counts


def test_hard_adversary_integration():
    hcfg = HardSeqConfig(R=2, K=2)  # d=8, T=2
    cfg = ForecastConfig(d=8, L=1, H=2, S=1, m=1)
    assert cfg.T == hcfg.T
    tree = sample_tau_tree(hcfg, fixed_stream(44))
    adv = HardSequenceAdversary(hcfg, tree=tree)
    run, outcomes, _ = simulate_recorded(cfg, adv, seed=3)
    tr = expand_to_transcript(run, outcomes)
    assert dce(tr) == dce_value(run)


def test_mode_validation_and_missing_pieces():
    cfg = ForecastConfig(d=2, L=1, H=2, S=1, m=1)
    adv = IIDAdversary(uniform(2))
    with pytest.raises(ConfigInvalid):
        simulate(cfg, adv, seed=1, mode="nonsense")
    run = simulate(cfg, adv, seed=1)
    with pytest.raises(ConfigInvalid):
        ece_value(run)  # not sampled
    for recorded in ([], [1] * (cfg.T - 1), [1] * (cfg.T + 1)):
        with pytest.raises(ConfigInvalid):
            expand_to_transcript(run, recorded)  # needs exactly T outcomes


def test_dimension_mismatch_between_adversary_and_forecaster():
    cfg = ForecastConfig(d=3, L=1, H=2, S=1, m=1)
    with pytest.raises(ConfigInvalid):
        simulate(cfg, IIDAdversary(uniform(2)), seed=1)


def test_big_denominator_falls_back_to_exact_path():
    # a denominator wider than one 64-bit word still draws exactly like Stream.below
    big = 1 << 70
    q = make_rational_dist([big // 2 + 1, big // 2 - 1], big)
    cfg = ForecastConfig(d=2, L=1, H=2, S=2, m=1)
    run, outcomes, _ = simulate_recorded(cfg, IIDAdversary(q), seed=5)
    assert sum(sum(c) for c in run.leaf_counts) == cfg.T
    ostream = Stream(stream_key(5, ROLE_OUTCOME, 0))
    assert outcomes == [sample_outcome(q, ostream) for _ in range(cfg.T)]


def test_tally_division_is_bit_identical_to_fraction():
    # |a| / b on ints is correctly rounded, as Fraction.__float__ is, so the
    # tallies give the float the exact rational gives, bit for bit.
    gen = fixed_stream(77)
    cases = []
    for _ in range(2000):
        cases.append((gen.below(1 << 301) - (1 << 300), 1 + gen.below(1 << 200)))
    for _ in range(500):
        # (2n+1) / 2 * 2^(j-k), n of 53 bits, lies exactly halfway between two
        # adjacent doubles; c makes the pair unreduced.
        n = (1 << 52) | gen.below(1 << 52)
        j, k, c = gen.below(300), gen.below(300), 1 + gen.below(1 << 100)
        a = ((2 * n + 1) * c) << j
        cases.append((a if gen.below(2) else -a, (c << (k + 1))))
    for a, b in cases:
        want = float(abs(Fraction(a, b)))
        assert abs(a) / b == want
        assert _tally_abs_sum([(((a,), 1), [1, 0])], b) == want


@pytest.mark.parametrize("m", [1, 3, (1 << 65) + 1])
def test_tallies_match_metrics_under_a_2_70_denominator_law(m):
    big = 1 << 70
    q = make_rational_dist([big // 3, big - big // 3 - 5, 5], big)
    cfg = ForecastConfig(d=3, L=2, H=2, S=3, m=m)
    run, outcomes, levels = simulate_recorded(cfg, IIDAdversary(q), seed=9, mode="sampled")
    tr = expand_to_transcript(run, outcomes, levels)
    assert dce(tr) == dce_value(run)
    assert ece_trajectory(tr) == ece_value(run)


def _prediction_inputs(run):
    """Each level iteration's (level, h, prefix support), rebuilt from the leaf counts."""
    cfg = run.cfg
    inputs = []
    for l in range(1, cfg.L + 1):
        per_iter = cfg.H ** (cfg.L - l)  # blocks per level-l iteration
        for j in range(cfg.H**l):
            start = j - j % cfg.H  # first iteration of j's interval
            prefix = [0] * cfg.d
            for leaf in run.leaf_counts[start * per_iter : j * per_iter]:
                prefix = [a + b for a, b in zip(prefix, leaf)]
            support = frozenset((i, c) for i, c in enumerate(prefix) if c)
            inputs.append((l, j % cfg.H + 1, support))
    return inputs


@pytest.mark.parametrize("cfg, make_adv", [
    pytest.param(ForecastConfig(d=2, L=6, H=2, S=2, m=2),
                 lambda: AdaptiveArgminAdversary(2), id="adaptive-deep"),
    pytest.param(ForecastConfig(d=3, L=3, H=3, S=2, m=1),
                 lambda: IIDAdversary(make_rational_dist([1, 2, 4], 7)), id="iid"),
])
def test_each_distinct_prediction_input_is_computed_once(monkeypatch, cfg, make_adv):
    calls = []
    predict = engine.smoothed_prediction

    def spy(counts, h, t_level, d, m):
        calls.append((t_level, h, frozenset(counts.items())))
        return predict(counts, h, t_level, d, m)

    monkeypatch.setattr(engine, "smoothed_prediction", spy)
    run = simulate(cfg, make_adv(), seed=8, mode="sampled")
    inputs = _prediction_inputs(run)
    assert len(inputs) == sum(len(ids) for ids in run.level_iter_keys)
    assert len(set(inputs)) < len(inputs)  # the case repeats inputs
    distinct = {(cfg.period(l), h, sup) for l, h, sup in inputs}
    assert len(calls) == len(distinct) and set(calls) == distinct
    # every iteration still gets the key of its own input
    got = iter(inputs)
    for ids in run.level_iter_keys:
        for kid in ids:
            l, h, sup = next(got)
            assert run.keys[kid] == predict(dict(sup), h, cfg.period(l), cfg.d, cfg.m)
