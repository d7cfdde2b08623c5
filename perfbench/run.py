#!/usr/bin/env python3
"""hicalib benchmark: one workload, one process, a closed loop of ops.

Run from the repository root, without installing or building anything:

    python3 perfbench/run.py --workload coupled --seed 0 --seconds 25 --trace 0

One op at a time, no threads.  After one warm-up op (op 0), ops start
while the next one is expected to end within `--seconds`, and at least
MIN_OPS ops run in all.  Op i uses
a seed derived from (workload, --seed, i).  Every op's output is checked
(see workloads.py); at the default seed it must also match the stored
reference digests.

--trace 0 prints the end-to-end metrics.  --trace 1 patches hicalib's
layers between calls (tracer.py), alternates traced and untraced ops to
measure the tracing overhead, prints the per-layer metrics and saves the
spans under .perfbench/spans/.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

MIN_OPS = 3
SETUP_PROBES = 6  # before the timed window, and as many again after it
REFERENCE_OPS = 32  # ops per workload stored in reference.json

END_TO_END = {
    "days_per_s": "days/s",
    "run_s": "s",
    "certify_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Counts describe op 0 and are fixed for a given seed; every other
# per-layer metric is the median over the timed traced ops.
COUNTS = {
    "kernel.calls": "count",
    "kernel.days": "days",
    "kernel.draws": "count",
    "kernel.rejected": "count",
    "engine.blocks": "count",
    "engine.keys_interned": "count",
    "forecaster.predictions": "count",
    "forecaster.mixtures": "count",
    "adversary.next_calls": "count",
    "simplex.make_rational_dist_calls": "count",
    "certificate.cells": "count",
    "harness.transcript_bytes": "bytes",
    "harness.transcript_lines": "count",
}
TIMED = {
    "kernel.busy_s": "s",
    "kernel.days_per_s": "days/s",
    "kernel.us_per_call": "us",
    "engine.simulate_self_s": "s",
    "engine.replay_s": "s",
    "engine.dce_value_s": "s",
    "engine.ece_value_s": "s",
    "forecaster.smoothed_prediction_s": "s",
    "forecaster.merge_mixture_s": "s",
    "adversary.next_s": "s",
    "adversary.tau_tree_s": "s",
    "simplex.make_rational_dist_s": "s",
    "simplex.l1_s": "s",
    "simplex.kl_s": "s",
    "simplex.entropy_s": "s",
    "certificate.runview_s": "s",
    "certificate.smoothness_s": "s",
    "certificate.pseudo_regret_s": "s",
    "certificate.telescope_s": "s",
    "certificate.recompute_s": "s",
    "certificate.chain_self_s": "s",
    "certificate.cells_per_s": "cells/s",
    "harness.write_s": "s",
    "harness.write_mb_per_s": "MB/s",
    "harness.run_self_s": "s",
    "harness.certify_parse_s": "s",
    "harness.read_mb_per_s": "MB/s",
    "cli.self_s": "s",
    "trace.unattributed_s": "s",
}
PER_LAYER = {**COUNTS, **TIMED, "trace.overhead_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny runs every code path at a small size, for the tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="set the workload up and exit; used to time set-up")
    return p.parse_args(argv)


def _import_hicalib():
    """Import hicalib from this tree's src/, never from anywhere else."""
    if not (SRC / "hicalib" / "__init__.py").is_file():
        raise BenchError(f"no hicalib sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hicalib

    if Path(hicalib.__file__).resolve().parent != SRC / "hicalib":
        raise BenchError(f"hicalib imported from {hicalib.__file__}, not {SRC}")
    if hicalib.backend.active_name() != "pure":
        raise BenchError(
            f"kernel backend is {hicalib.backend.active_name()!r}; "
            "numbers are only published for the pure backend"
        )
    return hicalib


def _git_commit() -> str:
    # The ceiling keeps git from taking a repository above this tree for ours.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment(hicalib, args, n_ops: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": numpy_version,
        "commit": _git_commit(),
        "backend": hicalib.backend.active_name(),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "ops": n_ops,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _references(args) -> list[dict]:
    """Reference entries of ops 0..REFERENCE_OPS-1 at the stored seed and size.

    Ops past REFERENCE_OPS get every check but the comparison with a
    stored reference; the run says how many ops were compared.
    """
    ref = json.loads(REFERENCE.read_text())
    if ref["seed"] != args.seed or ref["size"] != args.size:
        return []
    refs = ref["workloads"].get(args.workload, [])
    if len(refs) != REFERENCE_OPS:
        raise BenchError(f"{REFERENCE.name} holds {len(refs)} ops of {args.workload}, "
                         f"not {REFERENCE_OPS}; rerun make_reference.py")
    return refs


def _time_setup(args) -> list[float]:
    """Times from spawning a fresh process to its being set up, SETUP_PROBES of them.

    The probe prints the system-wide monotonic clock once it is ready, so
    neither its exit nor the parent's wait is timed.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
           "--size", args.size, "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                              timeout=120)
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


class Loop:
    """Runs and checks ops; keeps what the metrics need."""

    def __init__(self, workload, args, tracer, references):
        from workloads import op_seed, rel_close

        self.wl = workload
        self.args = args
        self.tracer = tracer
        self.refs = references
        self.seed_of = lambda i: op_seed(args.workload, args.seed, i)
        self.close = rel_close
        self.attempted = 0
        self.failed = 0
        self.digests: list[str | None] = []
        self.times: list[tuple[int, bool, int, float, float]] = []  # (op, traced, days, run_s, certify_s)

    def op(self, i: int, traced: bool) -> None:
        self.attempted += 1
        gc.collect()
        out = None
        try:
            if traced:
                out = self.tracer.run_op(i, self.wl.run_op, self.seed_of(i))
            else:
                out = self.wl.run_op(self.seed_of(i))
            chk = self.wl.check(out)
        except Exception:
            traceback.print_exc()
            self._fail(i, "raised")
            return
        finally:
            if out is not None:
                self.wl.cleanup(out)
        failures = list(chk.failures)
        if i < len(self.refs):
            ref = self.refs[i]
            if chk.digest != ref["digest"]:
                failures.append(f"digest {chk.digest} != reference {ref['digest']}")
            for key, got in (("A3", chk.a3), ("K_bar", chk.k_bar)):
                if not self.close(got, ref[key]):
                    failures.append(f"{key} {got!r} != reference {ref[key]!r}")
        if traced:
            self.tracer.add_counts(i, chk.counts)
        if failures:
            for f in failures:
                print(f"op {i}: {f}", file=sys.stderr)
            self._fail(i, "check")
            return
        self.digests.append(chk.digest)
        self.times.append((i, traced, out.days, out.run_s, out.certify_s))

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        self.digests.append(None)
        print(f"op {i} failed ({why})", file=sys.stderr)

    def run(self) -> None:
        trace = self.args.trace == 1
        t = time.perf_counter()
        self.op(0, trace)  # warm-up: excluded from every timing
        op_s = time.perf_counter() - t
        deadline = time.perf_counter() + self.args.seconds
        i = 1
        while i < MIN_OPS or time.perf_counter() + op_s <= deadline:
            t = time.perf_counter()
            self.op(i, trace and i % 2 == 0)
            op_s = time.perf_counter() - t
            i += 1

    def combined_digest(self) -> str:
        """One digest over ops 0..MIN_OPS-1, comparable across commits at any seed."""
        head = self.digests[:MIN_OPS]
        if None in head:
            return "none"
        return hashlib.sha256("".join(head).encode()).hexdigest()

    def timed(self, traced: bool):
        return [t for t in self.times if t[0] > 0 and t[1] == traced]


def _end_to_end(loop: Loop, setup_times: list[float]) -> dict[str, float]:
    # Means over the whole timed window, not medians of ops: the host runs
    # slow and fast for 10-30 s at a time, so the median of ~10 ops jumps
    # between the two speeds from run to run.
    ops = loop.timed(False)
    if not ops:
        raise BenchError("no timed op succeeded")
    run_s = sum(r for _, _, _, r, _ in ops)
    certify_s = sum(c for _, _, _, _, c in ops)
    return {
        "days_per_s": sum(d for _, _, d, _, _ in ops) / (run_s + certify_s),
        "run_s": run_s / len(ops),
        "certify_s": certify_s / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Probes before and after the window, so that one fast or slow spell
        # on the host does not set the median.
        "setup_s": statistics.median(setup_times),
    }


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 for a layer the op never called."""
    return num / den if den > 0 else 0.0


def _layer_metrics(tracer, i: int) -> dict[str, float]:
    m = tracer.op_layers(i)
    m.update(tracer.op_counts[i])
    g = lambda k: m.get(k, 0)  # noqa: E731
    m["kernel.days_per_s"] = _ratio(g("kernel.days"), g("kernel.busy_s"))
    m["kernel.us_per_call"] = 1e6 * _ratio(g("kernel.busy_s"), g("kernel.calls"))
    mb = g("harness.transcript_bytes") / 1e6
    m["harness.write_mb_per_s"] = _ratio(mb, g("harness.write_s"))
    m["harness.read_mb_per_s"] = _ratio(mb, g("harness.certify_parse_s"))
    m["certificate.cells_per_s"] = _ratio(g("certificate.cells"), g("certificate.total_s"))
    return m


def _per_layer(loop: Loop, tracer) -> tuple[dict[str, float], list[str]]:
    traced = [t[0] for t in loop.timed(True)]
    untraced = loop.timed(False)
    if not traced or not untraced or 0 not in tracer.op_counts:
        raise BenchError("trace run needs op 0 and one traced and one untraced timed op to succeed")
    per_op = [_layer_metrics(tracer, i) for i in traced]
    first = _layer_metrics(tracer, 0)
    out = {k: float(first.get(k, 0)) for k in COUNTS}
    for k in TIMED:
        out[k] = statistics.median(m.get(k, 0.0) for m in per_op)
    traced_s = statistics.median(m["op_s"] for m in per_op)
    untraced_s = statistics.median(r + c for _, _, _, r, c in untraced)
    out["trace.overhead_ratio"] = untraced_s / traced_s
    layers = statistics.median(m["op_s"] - m["trace.unattributed_s"] for m in per_op)
    notes = [
        f"trace: traced op {traced_s:.4f} s, untraced op {untraced_s:.4f} s, "
        f"overhead {traced_s - untraced_s:.4f} s",
        f"trace: layer self times sum to {layers:.4f} s "
        f"({100 * layers / traced_s:.2f}% of the traced op); "
        f"unattributed {out['trace.unattributed_s']:.4f} s",
    ]
    return out, notes


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        hicalib = _import_hicalib()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.make(args.workload, args.size, str(workdir))
        if args.setup_probe:
            print(f"ready {time.monotonic()!r}")
            return 0
        tracer = Tracer() if args.trace else None
        loop = Loop(wl, args, tracer, _references(args))
        if args.trace:
            loop.run()
            metrics, notes = _per_layer(loop, tracer)
            units = PER_LAYER
        else:
            setup_times = _time_setup(args)
            loop.run()
            setup_times += _time_setup(args)
            metrics, notes = _end_to_end(loop, setup_times), []
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment(hicalib, args, loop.attempted)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write(str(OUT / "spans" / f"{tag}.jsonl"))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(
        {"env": env, "digests": loop.digests, "combined_digest": loop.combined_digest(),
         "ops": [{"op": i, "traced": t, "days": d, "run_s": r, "certify_s": c}
                 for i, t, d, r, c in loop.times],
         **result}, indent=1) + "\n")

    print("env: " + json.dumps(env, sort_keys=True))
    print(f"digest (ops 0-{MIN_OPS - 1}): {loop.combined_digest()}")
    n_ref = min(len(loop.refs), loop.attempted)
    print(f"reference: ops 0-{n_ref - 1} compared with {REFERENCE.name}" if n_ref
          else f"reference: none stored for seed {args.seed}")
    for line in notes:
        print(line)
    for k in units:
        print(f"{k} = {metrics[k]!r} {units[k]}")
    print(f"op_fail_ratio = {loop.failed / loop.attempted!r} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
