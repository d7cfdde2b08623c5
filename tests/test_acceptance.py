"""Acceptance suite: quantitative exit criteria at their stated tolerances.

Each criterion prints one PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run).
"""

import json
import math
import time
from fractions import Fraction

import pytest

from conftest import fixed_stream, random_dist
from hicalib import backend
from hicalib.adversary import (
    AdaptiveArgminAdversary,
    EpsSchedule,
    HardSeqConfig,
    HardSequenceAdversary,
    IIDAdversary,
    day_distribution,
    day_tuple,
    export_hard_sequence_jsonl,
    sample_tau_tree,
)
from hicalib.certificate import RunView, check_chain, check_pseudo_regret, check_smoothness, check_telescope
from hicalib.engine import run_from_outcomes, simulate
from hicalib.forecaster import ForecastConfig, coupled_parameters
from hicalib.harness import (
    cmd_certify,
    cmd_lowerbound,
    cmd_run,
    concentration_arm,
    random_transcript,
)
from hicalib.metrics import dce, ece_estimate, exhaustive_ece, oracle_dce_direct
from hicalib.simplex import uniform

TOL = 1e-9

D_SET, L_SET, H_SET, S_SET, M_SET = (2, 4, 8), (1, 2, 3), (2, 4, 16), (1, 4, 64), (1, 2, 4)
ADVERSARIES = ("iid", "adaptive_argmin")


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


class Sweep:
    def __init__(self):
        stream = fixed_stream(4242)
        self.runs = []
        self.sim_seconds = 0.0
        for i in range(50):
            cfg = ForecastConfig(
                d=D_SET[stream.below(3)],
                L=L_SET[stream.below(3)],
                H=H_SET[stream.below(3)],
                S=S_SET[stream.below(3)],
                m=M_SET[stream.below(3)],
            )
            kind = ADVERSARIES[stream.below(2)]
            if kind == "iid":
                adv = IIDAdversary(random_dist(stream, cfg.d, full_support=True))
            else:
                adv = AdaptiveArgminAdversary(cfg.d)
            t0 = time.monotonic()
            run = simulate(cfg, adv, seed=31000 + i)
            self.sim_seconds += time.monotonic() - t0
            self.runs.append(run)
        # the randomized sweep must actually span every parameter value
        for name, values in [
            ("d", D_SET), ("L", L_SET), ("H", H_SET), ("S", S_SET), ("m", M_SET)
        ]:
            seen = {getattr(r.cfg, name) for r in self.runs}
            assert seen == set(values), f"sweep does not span {name}: {seen}"
        assert {r.adversary_name for r in self.runs} == set(ADVERSARIES)
        self.views = [RunView(r) for r in self.runs]


@pytest.fixture(scope="module")
def sweep():
    return Sweep()


def test_criterion_1_telescope_identity(sweep):
    t0 = time.monotonic()
    worst = 0.0
    for view in sweep.views:
        worst = max(worst, abs(check_telescope(view).residual))
    elapsed = sweep.sim_seconds + (time.monotonic() - t0)
    ok = worst <= TOL and elapsed < 60.0
    _report(
        "criterion 1 (telescope identity, 50 runs)",
        ok,
        f"max |residual| = {worst:.3e} (tol 1e-9), runtime {elapsed:.1f}s (budget 60s)",
    )
    assert worst <= TOL
    assert elapsed < 60.0


def test_criterion_2_smoothness(sweep):
    violations = 0
    worst_slack = math.inf
    for run, view in zip(sweep.runs, sweep.views):
        rows, max_gap, bad = check_smoothness(view)
        violations += bad
        worst_slack = min(worst_slack, 2.0 / run.cfg.m - max_gap)
    ok = violations == 0 and worst_slack >= -1e-12
    _report(
        "criterion 2 (per-step smoothness, 50 runs)",
        ok,
        f"violations = {violations}, min (2/m - max_gap) = {worst_slack:.3e}",
    )
    assert violations == 0
    assert worst_slack >= -1e-12


def test_criterion_3_pseudo_regret(sweep):
    min_margin = math.inf
    intervals = 0
    for run, view in zip(sweep.runs, sweep.views):
        for level in range(1, run.cfg.L + 1):
            for v in range(run.cfg.H ** (level - 1)):
                res = check_pseudo_regret(view, level, v)
                intervals += 1
                min_margin = min(min_margin, res.tight_bound - res.lhs)
    hand = check_pseudo_regret(
        run_from_outcomes(ForecastConfig(d=2, L=1, H=2, S=1, m=1), [1, 2]), 1, 0
    )
    hand_ok = abs(hand.lhs - 0.98083) <= 1e-4 and abs(hand.tight_bound - 2.2493) <= 1e-4
    ok = min_margin >= -TOL and hand_ok
    _report(
        "criterion 3 (pseudo-regret tight bound)",
        ok,
        f"{intervals} intervals, min margin = {min_margin:.3e}; "
        f"hand case lhs = {hand.lhs:.5f} (0.98083), tight = {hand.tight_bound:.4f} (2.2493)",
    )
    assert min_margin >= -TOL
    assert hand_ok


def test_criterion_4_pathwise_chain(sweep):
    min_margin = math.inf
    for view in sweep.views:
        rep = check_chain(view)
        chain = rep.chain
        margins = (
            chain["A1"] - chain["A0"],
            chain["A2"] - chain["A1"],
            chain["A3"] - chain["A2"],
        )
        min_margin = min(min_margin, *margins)
        assert all(m >= -TOL for m in margins), (view.cfg, chain)

    t0 = time.monotonic()
    cfg = coupled_parameters(2, 0.5)
    assert cfg.T == 2_097_152
    run = simulate(cfg, IIDAdversary(uniform(2)), seed=20240508)
    rep = check_chain(run)
    elapsed = time.monotonic() - t0
    chain = rep.chain
    a3_rate = chain["A3"] / cfg.T
    ok = (
        min_margin >= -TOL
        and rep.passed
        and elapsed < 600.0
        and a3_rate <= 4.0 / cfg.m
    )
    _report(
        "criterion 4 (pathwise chain + full-scale run)",
        ok,
        f"sweep min chain margin = {min_margin:.3e}; full-scale run T = {cfg.T}: "
        f"A3/T = {a3_rate:.4f} (<= {4.0 / cfg.m}), DCE/T = {chain['dce_per_day']:.6f}, "
        f"{elapsed:.1f}s (budget 600s)",
    )
    assert min_margin >= -TOL
    assert rep.passed
    assert elapsed < 600.0
    assert a3_rate <= 4.0 / cfg.m


def test_criterion_5_oracle_equivalence():
    worst = 0.0
    for tag in range(200):
        tr = random_transcript(fixed_stream(52000 + tag), 16, 4)
        worst = max(worst, abs(dce(tr) - oracle_dce_direct(tr)))
    from hicalib.forecaster import sample_prediction
    from hicalib.metrics import DayRecord, Transcript, ece_trajectory

    ece_ok = True
    ece_details = []
    for case in range(3):
        tr = random_transcript(fixed_stream(53000 + case), 10, 2, max_keys_per_day=2)
        exact = exhaustive_ece(tr)

        def factory(trial, _tr=tr, _case=case):
            stream = fixed_stream(54000 + _case * 10000 + trial)
            days = [
                DayRecord(r.t, r.mixture, r.outcome,
                          realized=sample_prediction(r.mixture, stream))
                for r in _tr.days
            ]
            return ece_trajectory(Transcript(_tr.d, days))

        est = ece_estimate(factory, trials=2000)
        gap = abs(est.mean - exact)
        ece_ok = ece_ok and gap <= 3 * max(est.stderr, 1e-12)
        ece_details.append(f"{gap:.4f}<=3*{est.stderr:.4f}")
    ok = worst <= 1e-12 and ece_ok
    _report(
        "criterion 5 (oracle equivalence)",
        ok,
        f"200 transcripts, max |dce - oracle| = {worst:.2e} (tol 1e-12); "
        f"exhaustive vs estimate at 2000 trials: {', '.join(ece_details)}",
    )
    assert worst <= 1e-12
    assert ece_ok


def test_criterion_6_concentration():
    base = dict(d=2, L=2, H=4, m=2)
    q = uniform(2)
    low = concentration_arm(ForecastConfig(S=64, **base), q, seed=61, trials=200)
    high = concentration_arm(ForecastConfig(S=1024, **base), q, seed=61, trials=200)
    sep = (low.stderr**2 + high.stderr**2) ** 0.5
    decreasing = low.mean_gap_per_day - high.mean_gap_per_day >= 3 * sep

    control = concentration_arm(
        ForecastConfig(d=2, L=1, H=4, S=64, m=2), q, seed=61, trials=20
    )
    control_ok = control.mean_gap_per_day == 0.0 and control.stderr == 0.0
    ok = decreasing and control_ok
    _report(
        "criterion 6 (sampling concentration)",
        ok,
        f"gap/day S=64: {low.mean_gap_per_day:.5f}, S=1024: {high.mean_gap_per_day:.5f}, "
        f"diff >= 3 sigma ({3 * sep:.5f}); L=1 control gap = {control.mean_gap_per_day}",
    )
    assert decreasing
    assert control_ok


def test_criterion_7_hard_sequence(tmp_path):
    support_ok = True
    for R in (2, 3):
        for K in (1, 2, 3):
            cfg = HardSeqConfig(R=R, K=K)
            tree = sample_tau_tree(cfg, fixed_stream(71000 + 10 * R + K))
            for t in range(1, cfg.T + 1):
                p = day_distribution(tree, t, cfg)
                support_ok &= sum(p.numerators) == p.denominator
                tup = day_tuple(t, cfg)
                for r in range(1, R):
                    hot = cfg.one_hot_index(r, tup[r - 1], tree[tup[:r]])
                    for i in cfg.block(r):
                        expected = Fraction(1, R) if i == hot else Fraction(0)
                        support_ok &= p.value(i - 1) == expected
                for i in cfg.block(R):
                    support_ok &= p.value(i - 1) == Fraction(1, cfg.d)

    # obliviousness: regeneration after a forecaster consumed the sequence is
    # byte-identical to the pristine export
    cfg = HardSeqConfig(R=2, K=2)
    adv = HardSequenceAdversary(cfg, seed=777)
    before = tmp_path / "before.jsonl"
    export_hard_sequence_jsonl(before, cfg, adv.tree, seed=777)
    fcfg = ForecastConfig(d=8, L=1, H=2, S=1, m=1)
    simulate(fcfg, adv, seed=5)
    regen = HardSequenceAdversary(cfg, seed=777)
    after = tmp_path / "after.jsonl"
    export_hard_sequence_jsonl(after, cfg, regen.tree, seed=777)
    oblivious_ok = before.read_bytes() == after.read_bytes()

    rep = cmd_lowerbound(R=2, K=2, forecaster="truthful", trials=500, seed=72)
    eps1_T = float(EpsSchedule(2)[1]) * 2
    lb_ok = rep.passed and rep.eps1_T == eps1_T
    ok = support_ok and oblivious_ok and lb_ok
    _report(
        "criterion 7 (hard-sequence validity + lower bound)",
        ok,
        f"support/mass exact on (R,K) in {{2,3}}x{{1,2,3}}; oblivious regen byte-identical; "
        f"truthful mean DCE = {rep.mean_dce:.4f} - 3*{rep.stderr:.4f} >= eps1*T = {eps1_T:.6f}",
    )
    assert support_ok
    assert oblivious_ok
    assert lb_ok


def test_criterion_8_reproducibility(tmp_path):
    cfg_text = (
        "d = 2\nL = 2\nH = 2\nS = 2\nm = 1\nmode = sampled\nadversary = iid\niid_q = 1,1\n"
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    cmd_run(str(cfg_path), seed=88, out_dir=out1)
    cmd_run(str(cfg_path), seed=88, out_dir=out2)
    t_same = (
        (tmp_path / "r1" / "transcript.jsonl").read_bytes()
        == (tmp_path / "r2" / "transcript.jsonl").read_bytes()
    )
    m_same = (
        (tmp_path / "r1" / "metrics.csv").read_bytes()
        == (tmp_path / "r2" / "metrics.csv").read_bytes()
    )

    path = tmp_path / "r1" / "transcript.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["outcome"] = 3 - rec["outcome"]
    lines[3] = json.dumps(rec, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    _, code = cmd_certify(out1)
    tamper_ok = code != 0
    ok = t_same and m_same and tamper_ok
    _report(
        "criterion 8 (byte reproducibility + tamper detection)",
        ok,
        f"transcripts identical: {t_same}; metrics identical: {m_same}; "
        f"tampered certify exit = {code}",
    )
    assert t_same
    assert m_same
    assert tamper_ok


def test_backend_note():
    # not a criterion: records which kernel ran the suite
    print(f"[acceptance] kernel backend: {backend.active_name()}")
