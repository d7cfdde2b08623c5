"""Full-scale persisted run (writes a ~300 MB transcript).

Excluded from the default run; execute with `pytest -m slow`.
"""

import time

import pytest

from hicalib.harness import cmd_certify, cmd_run

FULL_CFG = "d = 2\nL = 3\nH = 16\nS = 512\nm = 2\nadversary = iid\niid_q = 1,1\n"


@pytest.mark.slow
def test_full_scale_cmd_run_and_certify(tmp_path):
    cfg = tmp_path / "full.cfg"
    cfg.write_text(FULL_CFG)
    t0 = time.monotonic()
    out = cmd_run(str(cfg), seed=2024, out_dir=str(tmp_path / "run"))
    write_s = time.monotonic() - t0
    t0 = time.monotonic()
    report, code = cmd_certify(str(tmp_path / "run"))
    certify_s = time.monotonic() - t0
    print(f"[slow] cmd_run {write_s:.1f}s, cmd_certify {certify_s:.1f}s")
    assert code == 0 and report.passed
    assert write_s + certify_s < 600.0
    # certify re-runs the config with cmd_run's writer and decodes no day line
    assert certify_s <= 3 * write_s
    assert report.chain["A3"] / 2_097_152 <= 2.0
