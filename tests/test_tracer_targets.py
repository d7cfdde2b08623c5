"""The benchmark tracer patches hicalib functions by module attribute name.

`perfbench/tracer.py` replaces each `(owner, attr)` of its `_targets()` in
`owner.__dict__`; a refactor that moves or renames one of them breaks
`perfbench/run.py --trace 1`.  This loads the tracer by path (it is not a
package on the test path) and checks every target and the install/restore
round trip.
"""

import importlib.util
from pathlib import Path

import pytest

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
