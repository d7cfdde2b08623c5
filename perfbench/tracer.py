"""Spans around calls into hicalib's layers, recorded from outside the package.

`Tracer.install()` replaces the public functions listed in `_targets` with
wrappers that record one span per call (name, start, end, parent) and
`Tracer.restore()` puts the originals back.  Spans stay in memory as flat
arrays; `write()` saves them when the run ends.  A layer's self time is a
span's duration minus the time its child spans cover.

Where to patch, found by profiling:
- `certificate._view` tests `isinstance(run, RunView)`, so `RunView` is
  wrapped at `__init__`, never replaced by a function.
- Names imported by value are patched in the calling module's namespace
  (`engine.smoothed_prediction`, `harness.certify_run`,
  `certificate.l1_distance_exact`, ...).
- `cmd_run` writes the transcript from the `on_block`/`on_day` callbacks it
  hands to `engine.simulate`; the simulate wrapper wraps those two keyword
  arguments, so writing is billed to the harness, not the engine.
- The engine looks the kernel up through `backend.active()` on every run,
  so the attributes of the active kernel module are patched.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict

from hicalib import adversary, backend, certificate, cli, engine, forecaster, harness

ROOT = "op"

# span name -> per-layer self-time metric
SELF_METRIC = {
    ROOT: "trace.unattributed_s",
    "kernel.sim_days": "kernel.busy_s",
    "kernel.draw_level_counts": "kernel.busy_s",
    "engine.simulate": "engine.simulate_self_s",
    "engine.run_from_outcomes": "engine.replay_s",
    "engine.dce_value": "engine.dce_value_s",
    "engine.ece_value": "engine.ece_value_s",
    "forecaster.smoothed_prediction": "forecaster.smoothed_prediction_s",
    "forecaster.merge_mixture": "forecaster.merge_mixture_s",
    "adversary.next": "adversary.next_s",
    "adversary.sample_tau_tree": "adversary.tau_tree_s",
    "simplex.make_rational_dist": "simplex.make_rational_dist_s",
    "simplex.l1_distance_exact": "simplex.l1_s",
    "simplex.kl_divergence": "simplex.kl_s",
    "simplex.entropy": "simplex.entropy_s",
    "certificate.RunView": "certificate.runview_s",
    "certificate.check_smoothness": "certificate.smoothness_s",
    "certificate.check_pseudo_regret_all": "certificate.pseudo_regret_s",
    "certificate.check_telescope": "certificate.telescope_s",
    "certificate.check_recomputation": "certificate.recompute_s",
    "certificate.certify_run": "certificate.chain_self_s",
    "certificate.check_chain": "certificate.chain_self_s",
    "harness.certify_run": "certificate.chain_self_s",
    "harness.on_block": "harness.write_s",
    "harness.on_day": "harness.write_s",
    "harness.cmd_run": "harness.run_self_s",
    "harness.cmd_certify": "harness.certify_parse_s",
    "cli.main": "cli.self_s",
}

# span name -> per-layer call-count metric
CALL_METRIC = {
    "kernel.sim_days": "kernel.calls",
    "kernel.draw_level_counts": "kernel.calls",
    "forecaster.smoothed_prediction": "forecaster.predictions",
    "forecaster.merge_mixture": "forecaster.mixtures",
    "adversary.next": "adversary.next_calls",
    "simplex.make_rational_dist": "simplex.make_rational_dist_calls",
}

# span names whose inclusive time is the certificate's wall time
CERTIFY_SPANS = ("certificate.certify_run", "harness.certify_run")


# -- counters read from arguments and results ------------------------------------


def _count_sim_days(counts, args, kwargs, res):
    _okey, octr, n_days = args[0], args[1], args[2]
    lctr, sample_levels = args[7], args[9]
    counts["kernel.days"] += n_days
    draws = (res[0] - octr) + (res[1] - lctr)
    counts["kernel.draws"] += draws
    counts["kernel.rejected"] += draws - n_days * (2 if sample_levels else 1)


def _count_level_draws(counts, args, kwargs, res):
    lctr, n_days = args[1], args[2]
    counts["kernel.days"] += n_days
    counts["kernel.draws"] += res[0] - lctr
    counts["kernel.rejected"] += res[0] - lctr - n_days


def _count_run(counts, args, kwargs, res):
    counts["engine.blocks"] += len(res.leaf_counts)
    counts["engine.keys_interned"] += len(res.keys)


def _count_cells(counts, args, kwargs, res):
    view = args[0]
    counts["certificate.cells"] += sum(len(nodes) for nodes in view.dist_by_depth)


def _targets():
    """(owner, attribute, span name, counter, callback kwargs to wrap)."""
    kern = backend.active()
    t = [
        (kern, "sim_days", "kernel.sim_days", _count_sim_days, ()),
        (kern, "draw_level_counts", "kernel.draw_level_counts", _count_level_draws, ()),
        (engine, "simulate", "engine.simulate", _count_run, ("on_block", "on_day")),
        (engine, "run_from_outcomes", "engine.run_from_outcomes", _count_run, ()),
        (engine, "dce_value", "engine.dce_value", None, ()),
        (engine, "ece_value", "engine.ece_value", None, ()),
        (adversary, "sample_tau_tree", "adversary.sample_tau_tree", None, ()),
        (certificate.RunView, "__init__", "certificate.RunView", _count_cells, ()),
        (harness, "cmd_run", "harness.cmd_run", None, ()),
        (harness, "cmd_certify", "harness.cmd_certify", None, ()),
        (cli, "main", "cli.main", None, ()),
    ]
    for cls in (adversary.IIDAdversary, adversary.AdaptiveArgminAdversary,
                adversary.HardSequenceAdversary):
        t.append((cls, "next", "adversary.next", None, ()))
    for mod in (forecaster, engine, certificate):
        t.append((mod, "smoothed_prediction", "forecaster.smoothed_prediction", None, ()))
    for mod in (forecaster, engine):
        t.append((mod, "merge_mixture", "forecaster.merge_mixture", None, ()))
    for mod in (forecaster, certificate, adversary):
        t.append((mod, "make_rational_dist", "simplex.make_rational_dist", None, ()))
    for fn, name in (("l1_distance_exact", "simplex.l1_distance_exact"),
                     ("kl_divergence", "simplex.kl_divergence"),
                     ("entropy", "simplex.entropy"),
                     ("check_smoothness", "certificate.check_smoothness"),
                     ("check_pseudo_regret_all", "certificate.check_pseudo_regret_all"),
                     ("check_telescope", "certificate.check_telescope"),
                     ("check_recomputation", "certificate.check_recomputation"),
                     ("check_chain", "certificate.check_chain"),
                     ("certify_run", "certificate.certify_run")):
        t.append((certificate, fn, name, None, ()))
    t.append((harness, "certify_run", "harness.certify_run", None, ()))
    return t


class Tracer:
    """Records spans of traced ops; counts per op live in `op_counts`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops: list[tuple[int, int, int]] = []  # (op index, first span, end span)
        self.op_counts: dict[int, dict[str, int]] = {}
        self._stack = [-1]
        self._counts: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, count=None, callbacks=()):
        nid = self._id(name)
        stack, name_ids, starts, ends, parents = (
            self._stack, self.name_ids, self.starts, self.ends, self.parents)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            for kw in callbacks:
                if kwargs.get(kw) is not None:
                    kwargs[kw] = tracer.wrap(f"harness.{kw}", kwargs[kw])
            idx = len(starts)
            parents.append(stack[-1])
            name_ids.append(nid)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            starts[idx] = t0
            if count is not None:
                count(tracer._counts, args, kwargs, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, count, callbacks in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count, callbacks))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def run_op(self, op_index: int, fn, *args):
        """Call fn(*args) under a root span, with every layer patched."""
        first = len(self.starts)
        self._counts = defaultdict(int)
        self.install()
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            self.restore()
            self.ops.append((op_index, first, len(self.starts)))
            self.op_counts[op_index] = dict(self._counts)

    def add_counts(self, op_index: int, counts: dict[str, int]) -> None:
        self.op_counts[op_index].update(counts)

    def op_layers(self, op_index: int) -> dict[str, float]:
        """Self time per layer metric, call counts and certificate time of one op."""
        _, first, end = next(o for o in self.ops if o[0] == op_index)
        dur = [self.ends[i] - self.starts[i] for i in range(first, end)]
        child = [0.0] * (end - first)
        for i in range(first, end):
            p = self.parents[i]
            if p >= first:
                child[p - first] += dur[i - first]
        out: dict[str, float] = defaultdict(float)
        for i in range(first, end):
            name = self.names[self.name_ids[i]]
            out[SELF_METRIC[name]] += dur[i - first] - child[i - first]
            if name in CALL_METRIC:
                out[CALL_METRIC[name]] += 1
            if name in CERTIFY_SPANS:
                out["certificate.total_s"] += dur[i - first]
            if name == ROOT:
                out["op_s"] += dur[i - first]
        return out

    def write(self, path: str) -> None:
        """Save every span as JSON lines.

        The first line is {"names": [...]}; then one line per span:
        [name id, op index, start, end, parent span index or -1].
        """
        with open(path, "w") as f:
            f.write(json.dumps({"names": self.names}) + "\n")
            for op_index, first, end in self.ops:
                f.writelines(
                    f"[{self.name_ids[i]}, {op_index}, {self.starts[i]!r}, "
                    f"{self.ends[i]!r}, {self.parents[i]}]\n"
                    for i in range(first, end))
