"""Golden digests: fixed small configs must reproduce committed sha256 digests.

Each run case goes through `cli.main` as ``run`` then ``certify``.  Its
digests cover the transcript, ``metrics.csv``, both exit codes and the
certificate's exact parts: every row's name, scope and pass flag, the
measured/bound/margin of the rows computed from integers or from correctly
rounded divisions, and the chain's A0..A2.  A3, K_bar, the KL and entropy
rows and the telescope residual go through ``math.log``, whose last bits
depend on the platform's libm, so they are left out.  A tamper case edits
a run case's output between ``run`` and ``certify``, so that certify takes
the mismatch path (strict parse and replay of the recorded outcomes), and
digests both exit codes and the certificate's exact parts.  The report
cases digest the printed ``lowerbound`` and ``concentration`` reports and
the ``oracle`` summary.

Regenerate `golden_digests.json` with ``tests/make_golden.py``, and only
when an output is meant to change.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import pytest

from hicalib import cli, harness

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

_HEAD = "d = {d}\nL = {L}\nH = {H}\nS = {S}\nm = {m}\nmode = {mode}\n"

# name -> (config file text, seed)
RUN_CASES = {
    "iid-distributional": (
        _HEAD.format(d=3, L=2, H=2, S=3, m=1, mode="distributional")
        + "adversary = iid\niid_q = 1,2,3\n", 1),
    "iid-sampled-record": (
        _HEAD.format(d=3, L=2, H=2, S=3, m=2, mode="sampled")
        + "adversary = iid\niid_q = 2,1,1\nrecord_adversary = true\n", 2),
    "iid-sampled-2^63+1": (
        _HEAD.format(d=2, L=2, H=2, S=2, m=1, mode="sampled")
        + f"adversary = iid\niid_q = 1,{2**63}\n", 3),
    "iid-distributional-2^70-record": (
        _HEAD.format(d=3, L=2, H=2, S=2, m=1, mode="distributional")
        + f"adversary = iid\niid_q = 1,3,{2**70 - 4}\nrecord_adversary = true\n", 17),
    "adaptive-distributional": (
        _HEAD.format(d=3, L=2, H=2, S=2, m=1, mode="distributional")
        + "adversary = adaptive_argmin\n", 1),
    "adaptive-sampled": (
        _HEAD.format(d=2, L=3, H=2, S=2, m=1, mode="sampled")
        + "adversary = adaptive_argmin\n", 2),
    # six levels whose intervals mostly repeat: 6 distinct of 63
    "adaptive-sampled-deep": (
        _HEAD.format(d=2, L=6, H=2, S=2, m=1, mode="sampled")
        + "adversary = adaptive_argmin\n", 0),
    "hard-S1-distributional-record": (
        _HEAD.format(d=18, L=2, H=2, S=1, m=1, mode="distributional")
        + "adversary = hard\nhard_R = 3\nhard_K = 2\nrecord_adversary = true\n", 3),
    "hard-S3-sampled-record": (
        _HEAD.format(d=24, L=1, H=2, S=3, m=1, mode="sampled")
        + "adversary = hard\nhard_R = 2\nhard_K = 6\nrecord_adversary = true\n", 17),
}


def _edit_day(run_dir: Path, t: int, edit) -> None:
    """Apply `edit` to day t's record and write it back in the writer's form."""
    path = run_dir / harness.TRANSCRIPT_NAME
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rec = json.loads(lines[t])
    edit(rec)
    lines[t] = json.dumps(rec, sort_keys=True) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _next_outcome(run_dir: Path) -> None:
    """The last day's outcome becomes the next coordinate (cyclically)."""
    lines = (run_dir / harness.TRANSCRIPT_NAME).read_text(encoding="utf-8").splitlines()
    d = json.loads(lines[0])["config"]["d"]
    _edit_day(run_dir, len(lines) - 1, lambda rec: rec.update(outcome=rec["outcome"] % d + 1))


def _first_mixture_on_day_4(run_dir: Path) -> None:
    """Day 4 records day 1's mixture, canonical but not its block's."""
    lines = (run_dir / harness.TRANSCRIPT_NAME).read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[1])["mixture"]
    _edit_day(run_dir, 4, lambda rec: rec.update(mixture=first))


def _move_one_law_unit(run_dir: Path) -> None:
    """Day 1's recorded adv_dist moves one unit from its first nonzero coordinate."""
    def edit(rec):
        nums = rec["adv_dist"][0]
        i = next(i for i, n in enumerate(nums) if n)
        nums[i] -= 1
        nums[(i + 1) % len(nums)] += 1
    _edit_day(run_dir, 1, edit)


def _delete_metrics(run_dir: Path) -> None:
    (run_dir / harness.METRICS_NAME).unlink()


def _compact_header(run_dir: Path) -> None:
    """The header re-serialised without spaces after its separators."""
    path = run_dir / harness.TRANSCRIPT_NAME
    header, rest = path.read_text(encoding="utf-8").split("\n", 1)
    header = json.dumps(json.loads(header), sort_keys=True, separators=(",", ":"))
    path.write_text(header + "\n" + rest, encoding="utf-8")


# name -> (run case, edit of its run directory between run and certify)
TAMPER_CASES = {
    "tamper-last-outcome": ("iid-sampled-record", _next_outcome),
    "tamper-mixture-swap": ("iid-distributional", _first_mixture_on_day_4),
    "tamper-adv-dist-unit": ("hard-S1-distributional-record", _move_one_law_unit),
    "tamper-metrics-deleted": ("adaptive-distributional", _delete_metrics),
    "tamper-header-separators": ("adaptive-sampled", _compact_header),
}

REPORT_CASES = ("lowerbound-truthful", "lowerbound-uniform", "lowerbound-hierarchical",
                "oracle", "concentration")

CASES = (*RUN_CASES, *TAMPER_CASES, *REPORT_CASES)

# Certificate rows whose measured/bound/margin are exact or correctly rounded.
EXACT_ROWS = {
    "transcript-consistency", "metrics-consistency", "transcript-provenance",
    "recomputation-identity",
    "chain-step1-triangle", "chain-step2-successor-swap", "smoothness-step",
}
EXACT_CHAIN = ("A0", "A1", "A2", "dce_per_day", "max_smoothness_gap", "smoothness_violations")


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def certificate_exact_parts(cert: dict) -> dict:
    rows = []
    for row in cert["checks"]:
        keep = ("name", "scope", "pass")
        if row["name"] in EXACT_ROWS:
            keep += ("measured", "bound", "margin")
        rows.append({k: row[k] for k in keep})
    return {
        "chain": {k: cert["chain"][k] for k in EXACT_CHAIN},
        "checks": rows,
        "passed": cert["passed"],
        "run_id": cert["run_id"],
    }


def _run_and_certify(name: str, workdir: Path, tamper=None) -> tuple[dict[str, str], Path]:
    """Run case `name`, apply `tamper` to its output, certify it; digest both."""
    text, seed = RUN_CASES[name]
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = workdir / "run.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    run_dir = workdir / "run"
    run_code, _ = _cli(["run", "--config", str(cfg_path), "--seed", str(seed),
                        "--out", str(run_dir)])
    if tamper is not None:
        tamper(run_dir)
    certify_code, _ = _cli(["certify", "--run", str(run_dir)])
    cert = json.loads((run_dir / harness.CERTIFICATE_JSON).read_text(encoding="utf-8"))
    return {
        "exit_codes": f"{run_code} {certify_code}",
        "certificate_exact": _sha(json.dumps(certificate_exact_parts(cert), sort_keys=True)),
    }, run_dir


def _run_digests(name: str, workdir: Path) -> dict[str, str]:
    digests, run_dir = _run_and_certify(name, workdir)
    digests["transcript"] = _sha((run_dir / harness.TRANSCRIPT_NAME).read_bytes())
    digests["metrics"] = _sha((run_dir / harness.METRICS_NAME).read_bytes())
    return digests


def _report_digests(name: str, workdir: Path) -> dict[str, str]:
    if name.startswith("lowerbound-"):
        code, out = _cli(["lowerbound", "--R", "2", "--K", "3", "--forecaster",
                          name.split("-", 1)[1], "--trials", "3", "--seed", "5"])
    elif name == "oracle":
        # The CLI's oracle runs 2000 ECE trials per case; two cases of 50 keep
        # this fast while still covering the ECE estimate.
        rep = harness.cmd_oracle(20, 8, 4, seed=3, ece_cases=2, ece_trials=50)
        code, out = 0, json.dumps(dataclasses.asdict(rep), sort_keys=True)
    else:
        workdir.mkdir(parents=True, exist_ok=True)
        cfg_path = workdir / "conc.cfg"
        cfg_path.write_text("d = 2\nL = 1\nH = 2\nm = 1\nS_low = 1\nS_high = 4\n"
                            "adversary = iid\niid_q = 1,1\n", encoding="utf-8")
        code, out = _cli(["concentration", "--config", str(cfg_path),
                          "--trials", "3", "--seed", "4"])
    return {"exit_codes": str(code), "report": _sha(out)}


def case_digests(name: str, workdir: Path) -> dict[str, str]:
    """The digests of one golden case, computed in a fresh `workdir`."""
    if name in RUN_CASES:
        return _run_digests(name, workdir)
    if name in TAMPER_CASES:
        case, tamper = TAMPER_CASES[name]
        return _run_and_certify(case, workdir, tamper)[0]
    return _report_digests(name, workdir)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_golden_digests(golden, tmp_path, name):
    assert case_digests(name, tmp_path) == golden[name]
