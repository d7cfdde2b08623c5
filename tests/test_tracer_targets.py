"""The benchmark tracer patches hicalib functions by module attribute name.

`perfbench/tracer.py` replaces each `(owner, attr)` of its `_targets()` in
`owner.__dict__`; a refactor that moves or renames one of them breaks
`perfbench/run.py --trace 1`, and a call that bypasses the patched name
goes uncounted.  This loads the tracer by path (it is not a package on the
test path) and checks every target, the install/restore round trip, and
the counts that one traced certificate, simulation and `hicalib run`
report.
"""

import importlib.util
from pathlib import Path

import pytest

from hicalib import certificate, engine, harness
from hicalib.adversary import AdaptiveArgminAdversary, IIDAdversary
from hicalib.engine import simulate
from hicalib.forecaster import ForecastConfig
from hicalib.simplex import uniform

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_mod():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_target_is_bound_in_its_owner(tracer_mod):
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, *_ in tracer_mod._targets()
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_install_restore_round_trips(tracer_mod):
    targets = tracer_mod._targets()
    before = [owner.__dict__[attr] for owner, attr, *_ in targets]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for (owner, attr, *_), original in zip(targets, before):
            patched = owner.__dict__[attr]
            assert patched is not original
            assert patched.__wrapped__ is original
    finally:
        tracer.restore()
    assert [owner.__dict__[attr] for owner, attr, *_ in targets] == before


def _distinct_intervals(run):
    """Distinct (level, child counts) intervals, from the dense leaf counts."""
    H = run.cfg.H
    nodes = [tuple(leaf) for leaf in run.leaf_counts]
    distinct = 0
    for _ in range(run.cfg.L):
        intervals = [tuple(nodes[j : j + H]) for j in range(0, len(nodes), H)]
        distinct += len(set(intervals))
        nodes = [tuple(map(sum, zip(*children))) for children in intervals]
    return distinct


def test_certificate_counts(tracer_mod):
    cfg = ForecastConfig(d=2, L=3, H=2, S=1, m=1)
    run = simulate(cfg, IIDAdversary(uniform(2)), seed=0)
    tracer = tracer_mod.Tracer()
    tracer.run_op(0, certificate.certify_run, run)
    # one cell per node of the interval tree, depths 0..L
    assert tracer.op_counts[0]["certificate.cells"] == sum(cfg.H**k for k in range(cfg.L + 1))
    # per level one shared z_1, then z_2..z_{H+1} once per distinct interval
    expected = cfg.L + cfg.H * _distinct_intervals(run)
    assert expected == 15  # of the 17 a per-interval walk makes
    assert tracer.op_layers(0)["forecaster.predictions"] == expected


def test_certificate_predicts_once_per_distinct_interval(tracer_mod):
    # the adaptive adversary at even S splits every block evenly: one
    # distinct interval per level
    cfg = ForecastConfig(d=2, L=8, H=2, S=2, m=1)
    run = simulate(cfg, AdaptiveArgminAdversary(cfg.d), seed=0)
    assert _distinct_intervals(run) == cfg.L
    tracer = tracer_mod.Tracer()
    tracer.run_op(0, certificate.certify_run, run)
    assert tracer.op_layers(0)["forecaster.predictions"] == cfg.L * (1 + cfg.H)


def test_simulation_builds_no_mixture(tracer_mod):
    cfg = ForecastConfig(d=2, L=3, H=2, S=1, m=1)
    tracer = tracer_mod.Tracer()
    tracer.run_op(0, engine.simulate, cfg, AdaptiveArgminAdversary(cfg.d), 0)
    layers = tracer.op_layers(0)
    assert layers.get("forecaster.mixtures", 0) == 0
    assert layers["adversary.next_calls"] == cfg.H**cfg.L  # one per block


def test_transcript_writer_builds_one_mixture_per_block(tracer_mod, tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("d = 2\nL = 2\nH = 3\nS = 2\nm = 1\nmode = sampled\n", encoding="utf-8")
    tracer = tracer_mod.Tracer()
    tracer.run_op(0, harness.cmd_run, str(cfg_path), 1, str(tmp_path / "run"))
    assert tracer.op_layers(0)["forecaster.mixtures"] == 3**2
    # The tracer finds the sinks by their keyword names; under another name
    # writing would be billed to the engine without an error.
    assert {"harness.on_block", "harness.on_day"} <= {tracer.names[i] for i in tracer.name_ids}
    assert tracer.op_layers(0)["harness.write_s"] > 0
