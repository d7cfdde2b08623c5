"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

EXACT_COUNTS = (
    "engine.blocks",
    "engine.keys_interned",
    "kernel.draws",
    "kernel.rejected",
    "certificate.cells",
    "harness.transcript_bytes",
    "harness.transcript_lines",
)
SEED = 7
OPS = 3


def _traced_ops(name: str, workdir: Path):
    """Digest and exact counts of ops 0..OPS-1, each traced."""
    wl = workloads.make(name, "tiny", str(workdir))
    tracer = Tracer()
    out = []
    for i in range(OPS):
        res = tracer.run_op(i, wl.run_op, workloads.op_seed(name, SEED, i))
        chk = wl.check(res)
        wl.cleanup(res)
        assert chk.failures == []
        tracer.add_counts(i, chk.counts)
        counts = tracer.op_counts[i]
        out.append((chk.digest, chk.a3, chk.k_bar, {k: counts.get(k, 0) for k in EXACT_COUNTS}))
    return out


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_and_digests_repeat(name, tmp_path):
    first = _traced_ops(name, tmp_path / "a")
    second = _traced_ops(name, tmp_path / "b")
    assert first == second
    digests = [d for d, *_ in first]
    assert len(set(digests)) == OPS, "ops with different seeds gave the same output"
    counts = first[0][3]
    assert counts["engine.blocks"] > 0 and counts["certificate.cells"] > 0
    if name == "persist":
        assert counts["harness.transcript_lines"] == 1 + workloads.make(
            name, "tiny", str(tmp_path / "c")).T


def test_tracer_restores_every_patch(tmp_path):
    from hicalib import certificate, engine

    originals = (engine.simulate, certificate.RunView.__init__, certificate.certify_run)
    wl = workloads.make("deep-tree", "tiny", str(tmp_path))
    Tracer().run_op(0, wl.run_op, 1)
    assert (engine.simulate, certificate.RunView.__init__, certificate.certify_run) == originals


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_prints_every_declared_metric(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    proc = _bench(ROOT, "--workload", name, "--seed", str(SEED), "--seconds", "0.2",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1])
    assert "op_fail_ratio = 0.0 ratio" in lines


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "coupled", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
