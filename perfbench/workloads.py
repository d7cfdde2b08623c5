"""The benchmark's four workloads: set-up, one timed op, and its checks.

Every op runs the pipeline a user runs, in two phases: a *run* phase
(simulate plus the run's calibration metrics) and a *certify* phase (the
proof certificate).  ``persist`` runs them as the two CLI commands over a
run directory on disk; the other three run them in memory.

Ops call hicalib through module attributes (``engine.simulate``, not a
name bound at import), so the tracer's patches are seen.  The checks run
outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field

from hicalib import certificate, cli, engine
from hicalib.adversary import (
    AdaptiveArgminAdversary,
    HardSeqConfig,
    HardSequenceAdversary,
    IIDAdversary,
)
from hicalib.forecaster import ForecastConfig, coupled_parameters
from hicalib.simplex import uniform

# Same tolerance as the certificate's own float checks.
TOL = 1e-9

NAMES = ("coupled", "persist", "deep-tree", "hard-seq")


def op_seed(workload: str, seed: int, op_index: int) -> int:
    """Seed of op `op_index` of a run; a pure function of its arguments."""
    blob = f"{workload}:{seed}:{op_index}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")


@dataclass
class OpOutput:
    """What one op produced, kept until it has been checked."""

    days: int
    run_s: float
    certify_s: float
    value: object


@dataclass
class OpCheck:
    """The checked output of one op."""

    digest: str
    a3: float
    k_bar: float
    failures: list[str]
    counts: dict[str, int] = field(default_factory=dict)


def rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


# -- in-memory workloads -------------------------------------------------------


@dataclass
class _MemoryRun:
    run: engine.RunResult
    dce: float
    report: certificate.CertificateReport


class InMemory:
    """simulate, dce_value (and ece_value when sampled), then certify_run."""

    def __init__(self, name: str, cfg: ForecastConfig, mode: str, adversary=None, hard=None):
        self.name = name
        self.cfg = cfg
        self.mode = mode
        self.adversary = adversary  # fixed across ops, built in set-up
        self.hard = hard  # per-op tau tree, built inside the op

    def run_op(self, seed: int) -> OpOutput:
        t0 = time.perf_counter()
        adversary = self.adversary
        if self.hard is not None:
            adversary = HardSequenceAdversary(self.hard, seed=seed)
        run = engine.simulate(self.cfg, adversary, seed, mode=self.mode)
        dce = engine.dce_value(run)
        if self.mode == "sampled":
            engine.ece_value(run)
        t1 = time.perf_counter()
        report = certificate.certify_run(run)
        t2 = time.perf_counter()
        return OpOutput(self.cfg.T, t1 - t0, t2 - t1, _MemoryRun(run, dce, report))

    def check(self, out: OpOutput) -> OpCheck:
        run, report = out.value.run, out.value.report
        chain = report.chain
        failures = []
        if not report.passed:
            failed = [f"{c.name} [{c.scope}]" for c in report.checks if not c.passed]
            failures.append("certificate failed: " + ", ".join(failed))
        if not rel_close(out.value.dce, chain["A0"]):
            failures.append(f"dce_value {out.value.dce!r} != chain A0 {chain['A0']!r}")
        keys = run.keys

        def resolved(tallies):
            if tallies is None:
                return None
            return sorted((keys[kid], tuple(v)) for kid, v in tallies.items())

        blob = repr(
            (
                run.leaf_counts,
                resolved(run.dce_tallies),
                resolved(run.ece_tallies),
                [[keys[kid] for kid in level] for level in run.level_iter_keys],
                [chain["A0"], chain["A1"], chain["A2"]],
            )
        ).encode()
        return OpCheck(_sha(blob), chain["A3"], chain["K_bar"], failures)

    def cleanup(self, out: OpOutput) -> None:
        pass


# -- persist: the two CLI commands over a run directory ---------------------------


class Persist:
    """`hicalib run` then `hicalib certify`, through cli.main, in a fresh directory."""

    def __init__(self, workdir: str, d: int, L: int, H: int, S: int, m: int):
        self.name = "persist"
        self.workdir = workdir
        self.T = S * H**L
        self.config_path = os.path.join(workdir, "run.conf")
        os.makedirs(workdir, exist_ok=True)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(
                f"d = {d}\nL = {L}\nH = {H}\nS = {S}\nm = {m}\n"
                "mode = sampled\nadversary = iid\niid_q = 1,1\n"
            )
        self._n = 0

    def run_op(self, seed: int) -> OpOutput:
        self._n += 1
        out_dir = os.path.join(self.workdir, f"run-{self._n}")
        run_log, cert_log = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(run_log):
            run_code = cli.main(
                ["run", "--config", self.config_path, "--seed", str(seed), "--out", out_dir]
            )
        t1 = time.perf_counter()
        with contextlib.redirect_stdout(cert_log):
            cert_code = cli.main(["certify", "--run", out_dir])
        t2 = time.perf_counter()
        return OpOutput(self.T, t1 - t0, t2 - t1, (out_dir, run_code, cert_code, cert_log.getvalue()))

    def check(self, out: OpOutput) -> OpCheck:
        out_dir, run_code, cert_code, cert_log = out.value
        failures = []
        if run_code != 0:
            failures.append(f"hicalib run exited {run_code}")
        if cert_code != 0:
            failures.append(f"hicalib certify exited {cert_code}")
        lines = cert_log.strip().splitlines()
        if not lines or not lines[-1].startswith("PASS"):
            failures.append("hicalib certify did not report PASS")
        with open(os.path.join(out_dir, "transcript.jsonl"), "rb") as fh:
            transcript = fh.read()
        with open(os.path.join(out_dir, "metrics.csv"), "rb") as fh:
            metrics_csv = fh.read()
        with open(os.path.join(out_dir, "certificate.json"), encoding="utf-8") as fh:
            cert = json.load(fh)
        if not cert["passed"]:
            failures.append("certificate.json says the certificate failed")
        counts = {
            "harness.transcript_bytes": len(transcript),
            "harness.transcript_lines": transcript.count(b"\n"),
        }
        chain = cert["chain"]
        return OpCheck(_sha(transcript, metrics_csv), chain["A3"], chain["K_bar"], failures, counts)

    def cleanup(self, out: OpOutput) -> None:
        shutil.rmtree(out.value[0], ignore_errors=True)


# -- construction ---------------------------------------------------------------

# "full" is the benchmark; "tiny" runs the same code paths in well under a
# second per op, for the benchmark's own tests.
SIZES = {
    "full": {
        "coupled": {},
        "persist": dict(d=2, L=3, H=16, S=8, m=2),
        "deep-tree": dict(d=2, L=13, H=2, S=8, m=2),
        "hard-seq": dict(R=3, K=32, L=10),
    },
    "tiny": {
        "coupled": dict(d=2, L=3, H=4, S=8, m=2),
        "persist": dict(d=2, L=2, H=4, S=4, m=2),
        "deep-tree": dict(d=2, L=5, H=2, S=8, m=2),
        "hard-seq": dict(R=3, K=4, L=4),
    },
}


def make(name: str, size: str, workdir: str):
    """Set up workload `name`: config files and the adversary, no op yet."""
    p = SIZES[size][name]
    if name == "coupled":
        cfg = ForecastConfig(**p) if p else coupled_parameters(2, 0.5)
        return InMemory(name, cfg, "distributional", adversary=IIDAdversary(uniform(cfg.d)))
    if name == "persist":
        return Persist(workdir, **p)
    if name == "deep-tree":
        cfg = ForecastConfig(**p)
        return InMemory(name, cfg, "sampled", adversary=AdaptiveArgminAdversary(cfg.d))
    if name == "hard-seq":
        hard = HardSeqConfig(R=p["R"], K=p["K"])
        cfg = ForecastConfig(d=hard.d, L=p["L"], H=2, S=1, m=2)
        if cfg.T != hard.T:
            raise ValueError(f"hard-seq size: forecaster T {cfg.T} != sequence T {hard.T}")
        return InMemory(name, cfg, "sampled", hard=hard)
    raise ValueError(f"unknown workload {name!r}")
