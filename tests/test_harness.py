import json
import math
import os
import statistics
from fractions import Fraction

import pytest

from hicalib import cli, harness
from hicalib.adversary import HardSeqConfig, day_distribution, sample_outcome, sample_tau_tree
from hicalib.errors import (
    AdaptiveAdversaryUnsupported,
    ConfigInvalid,
    CorruptRecord,
    InvalidForecaster,
    MissingTranscript,
)
from hicalib.forecaster import ForecastConfig, MixtureRecord
from hicalib.harness import (
    build_run_config,
    cmd_certify,
    cmd_concentration,
    cmd_lowerbound,
    cmd_oracle,
    cmd_run,
    parse_config_file,
)
from hicalib.metrics import METRICS_CSV_COLUMNS, DayRecord, Transcript, dce
from hicalib.rng import ROLE_GENERIC, ROLE_OUTCOME, ROLE_TAU, derive_stream
from hicalib.simplex import left_sum, uniform


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BASE_CFG = """\
# small deterministic run
d = 2
L = 2
H = 2
S = 1
m = 1
mode = distributional
adversary = iid
iid_q = 1,1
"""


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        kv = parse_config_file(write_config(tmp_path, BASE_CFG), harness.RUN_KEYS)
        rc = build_run_config(kv, seed_override=7)
        assert rc.cfg == ForecastConfig(d=2, L=2, H=2, S=1, m=1)
        assert rc.seed == 7 and rc.adversary_kind == "iid"
        assert rc.iid_q == uniform(2)
        # --seed wins over a well-formed config seed
        kv = parse_config_file(write_config(tmp_path, BASE_CFG + "seed = 9\n"), harness.RUN_KEYS)
        assert build_run_config(kv, seed_override=7).seed == 7
        assert build_run_config(kv).seed == 9

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            parse_config_file(write_config(tmp_path, "d = 2\nbogus = 1\n"), harness.RUN_KEYS)

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            parse_config_file(write_config(tmp_path, "d = 2\nd = 3\n"), harness.RUN_KEYS)

    def test_not_key_value(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            parse_config_file(write_config(tmp_path, "just words\n"), harness.RUN_KEYS)

    def test_missing_file(self):
        with pytest.raises(ConfigInvalid):
            parse_config_file("/nonexistent/x.cfg", harness.RUN_KEYS)

    def test_missing_d_rejected(self, tmp_path):
        kv = parse_config_file(
            write_config(tmp_path, "L = 1\nH = 2\nS = 1\nm = 1\n"), harness.RUN_KEYS
        )
        with pytest.raises(ConfigInvalid):
            build_run_config(kv, seed_override=1)

    def test_seed_required_somewhere(self, tmp_path):
        kv = parse_config_file(write_config(tmp_path, BASE_CFG), harness.RUN_KEYS)
        with pytest.raises(ConfigInvalid):
            build_run_config(kv, seed_override=None)

    def test_bad_iid_q(self, tmp_path):
        kv = parse_config_file(
            write_config(tmp_path, BASE_CFG.replace("iid_q = 1,1", "iid_q = 1,2,3")),
            harness.RUN_KEYS,
        )
        with pytest.raises(ConfigInvalid):
            build_run_config(kv, seed_override=1)

    def test_hard_adversary_consistency(self, tmp_path):
        good = "d = 8\nL = 1\nH = 2\nS = 1\nm = 1\nadversary = hard\nhard_R = 2\nhard_K = 2\n"
        kv = parse_config_file(write_config(tmp_path, good), harness.RUN_KEYS)
        rc = build_run_config(kv, seed_override=3)
        assert rc.hard == HardSeqConfig(2, 2)
        bad = good.replace("d = 8", "d = 9")
        kv = parse_config_file(write_config(tmp_path, bad, "bad.cfg"), harness.RUN_KEYS)
        with pytest.raises(ConfigInvalid):
            build_run_config(kv, seed_override=3)


class TestCmdRun:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CFG)
        out1 = cmd_run(cfg_path, seed=7, out_dir=str(tmp_path / "r1"))
        out2 = cmd_run(cfg_path, seed=7, out_dir=str(tmp_path / "r2"))
        t1 = (tmp_path / "r1" / "transcript.jsonl").read_bytes()
        t2 = (tmp_path / "r2" / "transcript.jsonl").read_bytes()
        assert t1 == t2
        m1 = (tmp_path / "r1" / "metrics.csv").read_bytes()
        m2 = (tmp_path / "r2" / "metrics.csv").read_bytes()
        assert m1 == m2
        assert out1.run_id == out2.run_id

    def test_transcript_shape(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CFG)
        out = cmd_run(cfg_path, seed=7, out_dir=str(tmp_path / "run"))
        lines = (tmp_path / "run" / "transcript.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == "hicalib-transcript/1"
        assert header["T"] == 4 and len(lines) == 5
        rec = json.loads(lines[1])
        assert rec["t"] == 1 and rec["outcome"] in (1, 2)
        weights = [Fraction(w[0], w[1]) for _, w in rec["mixture"]]
        assert sum(weights) == 1
        csv_lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert csv_lines[0] == ",".join(METRICS_CSV_COLUMNS)

    def test_sampled_mode_records_realized(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CFG.replace("distributional", "sampled"))
        cmd_run(cfg_path, seed=9, out_dir=str(tmp_path / "run"))
        lines = (tmp_path / "run" / "transcript.jsonl").read_text().splitlines()
        rec = json.loads(lines[1])
        assert "realized" in rec
        assert rec["realized"] in [k for k, _ in rec["mixture"]]

    def test_record_adversary(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CFG + "record_adversary = true\n")
        cmd_run(cfg_path, seed=9, out_dir=str(tmp_path / "run"))
        rec = json.loads((tmp_path / "run" / "transcript.jsonl").read_text().splitlines()[1])
        assert rec["adv_dist"] == [[1, 1], 2]

    def test_recorded_adversary_dists_are_per_day_correct(self, tmp_path):
        # hard adversary with T=4 spanning 4 blocks: every day's recorded law
        # must equal the tau-tree distribution for that day (regression for
        # stale serialization-cache entries across blocks)
        text = (
            "d = 16\nL = 2\nH = 2\nS = 1\nm = 1\nadversary = hard\n"
            "hard_R = 2\nhard_K = 4\nrecord_adversary = true\n"
        )
        cfg_path = write_config(tmp_path, text, "hard.cfg")
        cmd_run(cfg_path, seed=13, out_dir=str(tmp_path / "run"))
        from hicalib.rng import ROLE_TAU, derive_stream

        hcfg = HardSeqConfig(2, 4)
        tree = sample_tau_tree(hcfg, derive_stream(13, ROLE_TAU, 0))
        lines = (tmp_path / "run" / "transcript.jsonl").read_text().splitlines()
        for t, line in enumerate(lines[1:], 1):
            rec = json.loads(line)
            assert rec["adv_dist"] == day_distribution(tree, t, hcfg).to_json()

    def test_budget_guard(self, tmp_path):
        big = "d = 2\nL = 3\nH = 64\nS = 512\nm = 2\n"  # T = 2**27
        cfg_path = write_config(tmp_path, big)
        with pytest.raises(ConfigInvalid):
            cmd_run(cfg_path, seed=1, out_dir=str(tmp_path / "run"))


class TestCmdCertify:
    def test_clean_run_passes(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CFG.replace("distributional", "sampled"))
        cmd_run(cfg_path, seed=5, out_dir=str(tmp_path / "run"))
        report, code = cmd_certify(str(tmp_path / "run"))
        assert code == 0 and report.passed
        assert (tmp_path / "run" / "certificate.json").exists()
        assert (tmp_path / "run" / "certificate.csv").exists()

    def test_recertify_identical_report(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CFG)
        cmd_run(cfg_path, seed=5, out_dir=str(tmp_path / "run"))
        cmd_certify(str(tmp_path / "run"))
        first = (tmp_path / "run" / "certificate.json").read_bytes()
        cmd_certify(str(tmp_path / "run"))
        assert (tmp_path / "run" / "certificate.json").read_bytes() == first

    def test_tampered_outcome_fails(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CFG)
        cmd_run(cfg_path, seed=5, out_dir=str(tmp_path / "run"))
        path = tmp_path / "run" / "transcript.jsonl"
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["outcome"] = 3 - rec["outcome"]
        lines[2] = json.dumps(rec, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        report, code = cmd_certify(str(tmp_path / "run"))
        assert code == 1
        bad = next(c for c in report.checks if c.name == "transcript-consistency")
        assert not bad.passed

    def test_missing_transcript(self, tmp_path):
        with pytest.raises(MissingTranscript):
            cmd_certify(str(tmp_path))

    def test_corrupt_record(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CFG)
        cmd_run(cfg_path, seed=5, out_dir=str(tmp_path / "run"))
        path = tmp_path / "run" / "transcript.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = "not json at all"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptRecord):
            cmd_certify(str(tmp_path / "run"))

    def test_out_of_range_outcome_is_corrupt(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CFG)
        cmd_run(cfg_path, seed=5, out_dir=str(tmp_path / "run"))
        path = tmp_path / "run" / "transcript.jsonl"
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["outcome"] = 99
        lines[1] = json.dumps(rec, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptRecord):
            cmd_certify(str(tmp_path / "run"))


SAMPLED_CFG = """\
d = 3
L = 2
H = 2
S = 4
m = 2
mode = sampled
adversary = iid
iid_q = 1,2,3
"""
POINT_MASS = [[1, 0, 0], 1]  # canonical, but never a smoothed prediction


def sampled_run(tmp_path, S=4):
    cfg_path = write_config(tmp_path, SAMPLED_CFG.replace("S = 4", f"S = {S}"))
    cmd_run(cfg_path, seed=3, out_dir=str(tmp_path / "run"))
    return tmp_path / "run" / "transcript.jsonl"


def rewrite(path, edit):
    """Decode every line, let edit(records) change them in place, write them back."""
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    edit(recs)
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs))


def consistency_of(run_dir):
    report, code = cmd_certify(str(run_dir))
    check = next(c for c in report.checks if c.name == "transcript-consistency")
    return check.measured, code


def _set(field, value, t=3):
    def edit(recs):
        recs[t][field] = value
    return edit


def _header(field, value):
    def edit(recs):
        recs[0][field] = value
    return edit


def _float_weight(recs):
    recs[3]["mixture"][0][1][1] = float(recs[3]["mixture"][0][1][1])


def _config_mode(recs):
    recs[0]["config"]["mode"] = "samled"


def _config_unknown_key(recs):
    recs[0]["config"]["sed"] = recs[0]["config"]["seed"]


def _config_no_seed(recs):
    del recs[0]["config"]["seed"]


def _config_adversary(recs):
    recs[0]["config"]["adversary"] = "nonsense"


def _config_iid_q_den(recs):
    assert recs[0]["config"]["iid_q"] == [[1, 2, 3], 6]
    recs[0]["config"]["iid_q"] = [[1, 2, 3], 7]


def _config_seed_string(recs):
    recs[0]["config"]["seed"] = str(recs[0]["config"]["seed"])


def _header_t_down(recs):
    recs[0]["T"] -= 1


def _drop_realized(recs):
    for rec in recs[1:]:
        del rec["realized"]


def _three_element_entry(recs):
    recs[3]["mixture"][0].append([1, 1])


def _dict_weight(recs):
    recs[3]["mixture"][0][1] = {"a": 1}


def _header_not_object(recs):
    recs[0] = [1]


def _known_key_plus_element(recs):
    # day 2's key is canonical and memoised; day 3's longer fragment is not
    recs[3]["realized"] = recs[2]["realized"] + [0]


def _bool_realized_memo_hit(recs):
    # day 1's mixture has already canonicalised this key, and
    # (True, 1, 1) hashes and compares like (1, 1, 1): a memo hit
    assert recs[1]["realized"] == [[1, 1, 1], 3]
    recs[1]["realized"] = [[True, 1, 1], 3]


def _bool_weight_unchanged_mixture(recs):
    # == day 1's mixture, so the unchanged-mixture shortcut skips it
    assert recs[2]["mixture"] == recs[1]["mixture"] == [[[[1, 1, 1], 3], [1, 1]]]
    recs[2]["mixture"] = [[[[1, 1, 1], 3], [True, True]]]


def _unreduced_weight(recs):
    # sums to 1 and merges to the expected mixture, but cmd_run writes [1, 1]
    assert recs[3]["mixture"] == [[[[1, 1, 1], 3], [1, 1]]]
    recs[3]["mixture"][0][1] = [2, 2]


def _split_entry(recs):
    # the same key twice at half weight merges to the expected mixture
    key, _ = recs[3]["mixture"][0]
    recs[3]["mixture"] = [[key, [1, 2]], [key, [1, 2]]]


def _swapped_entries(recs):
    # the first two-entry mixture with its entries out of sorted key order
    rec = next(r for r in recs[1:] if len(r["mixture"]) == 2)
    rec["mixture"].reverse()


CORRUPTIONS = {
    "bool-outcome": _set("outcome", True),
    "float-t": _set("t", 3.0),
    "float-mixture-weight": _float_weight,
    "header-T": _header_t_down,
    "header-rng": _header("rng", "mt19937"),
    "header-mode": _config_mode,
    "header-config-unknown-key": _config_unknown_key,
    "header-config-no-seed": _config_no_seed,
    "header-config-adversary": _config_adversary,
    "header-config-iid-q-den": _config_iid_q_den,
    "header-config-seed-string": _config_seed_string,
    "realized-missing": _drop_realized,
    "header-not-object": _header_not_object,
    "mixture-entry-three-elements": _three_element_entry,
    "mixture-dict-weight": _dict_weight,
    "realized-not-numeric": _set("realized", [["a", 1], 2]),
    "realized-known-key-plus-element": _known_key_plus_element,
    "day-extra-key": _set("tt", 0),
    "realized-bool-memo-hit": _bool_realized_memo_hit,
    "mixture-bool-weight-unchanged-day": _bool_weight_unchanged_mixture,
    "mixture-weight-not-lowest-terms": _unreduced_weight,
    "mixture-entry-split": _split_entry,
    "mixture-entries-swapped": _swapped_entries,
}


def _rename_adv_dist(recs):
    recs[3]["advdist"] = recs[3].pop("adv_dist")


def _drop_adv_dist(recs):
    del recs[3]["adv_dist"]


def _bool_adv_dist(recs):
    assert recs[3]["adv_dist"] == [[1, 2, 3], 6]
    recs[3]["adv_dist"] = [[True, 2, 3], 6]


RECORDED_CORRUPTIONS = {
    "adv-dist-misspelt": _rename_adv_dist,
    "adv-dist-missing": _drop_adv_dist,
    "adv-dist-bool": _bool_adv_dist,
}

RECORDED_RUNS = {
    "hard": (
        "d = 16\nL = 1\nH = 4\nS = 1\nm = 2\nmode = sampled\nadversary = hard\n"
        "hard_R = 2\nhard_K = 4\nrecord_adversary = true\n"
    ),
    "adaptive": SAMPLED_CFG.replace("adversary = iid\niid_q = 1,2,3\n", "adversary = adaptive_argmin\n")
    + "record_adversary = true\n",
}


def _move_unit_of_adv_dist(recs):
    # still a canonical law, but not the one the adversary plays on day 2
    nums, _ = recs[2]["adv_dist"]
    i = next(i for i, n in enumerate(nums) if n)
    nums[i] -= 1
    nums[(i + 1) % len(nums)] += 1


def _unreduced_adv_dist(recs):
    nums, den = recs[2]["adv_dist"]
    recs[2]["adv_dist"] = [[2 * n for n in nums], 2 * den]


RECORDED_LAW_EDITS = {
    "moved-unit": (_move_unit_of_adv_dist, 1),
    "non-canonical": (_unreduced_adv_dist, 2),
}


# stream_key reads a seed mod 2**64; these alias seeds inside the range
OUT_OF_RANGE_SEEDS = [-5, -1, 2**64, 2**64 + 3]


class TestCertifyStrict:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_corruption_exits_2(self, tmp_path, capsys, name):
        rewrite(sampled_run(tmp_path), CORRUPTIONS[name])
        with pytest.raises(CorruptRecord):
            cmd_certify(str(tmp_path / "run"))
        assert cli.main(["certify", "--run", str(tmp_path / "run")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(RECORDED_CORRUPTIONS))
    def test_recorded_adversary_corruption_exits_2(self, tmp_path, capsys, name):
        cfg_path = write_config(tmp_path, SAMPLED_CFG + "record_adversary = true\n")
        cmd_run(cfg_path, seed=3, out_dir=str(tmp_path / "run"))
        rewrite(tmp_path / "run" / "transcript.jsonl", RECORDED_CORRUPTIONS[name])
        with pytest.raises(CorruptRecord):
            cmd_certify(str(tmp_path / "run"))
        assert cli.main(["certify", "--run", str(tmp_path / "run")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("run", sorted(RECORDED_RUNS))
    @pytest.mark.parametrize("edit", sorted(RECORDED_LAW_EDITS))
    def test_recorded_law_must_be_the_adversarys(self, tmp_path, capsys, run, edit):
        cmd_run(write_config(tmp_path, RECORDED_RUNS[run]), seed=3, out_dir=str(tmp_path / "run"))
        assert consistency_of(tmp_path / "run") == (0.0, 0)
        change, code = RECORDED_LAW_EDITS[edit]
        rewrite(tmp_path / "run" / "transcript.jsonl", change)
        if code == 1:
            assert consistency_of(tmp_path / "run") == (1.0, 1)
        else:
            with pytest.raises(CorruptRecord):
                cmd_certify(str(tmp_path / "run"))
        assert cli.main(["certify", "--run", str(tmp_path / "run")]) == code
        capsys.readouterr()

    def test_integer_too_long_to_decode_is_corrupt(self, tmp_path, capsys):
        # json refuses integers over 4,300 digits with a plain ValueError
        path = sampled_run(tmp_path)
        lines = path.read_text().splitlines(True)
        assert '"t": 3}' in lines[3]
        lines[3] = lines[3].replace('"t": 3}', '"t": ' + "9" * 5000 + "}")
        path.write_text("".join(lines))
        assert cli.main(["certify", "--run", str(tmp_path / "run")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_realized_outside_sampled_mode_is_corrupt(self, tmp_path):
        cmd_run(write_config(tmp_path, BASE_CFG), seed=5, out_dir=str(tmp_path / "run"))
        path = tmp_path / "run" / "transcript.jsonl"
        rewrite(path, _set("realized", [[1, 1], 2], t=2))
        with pytest.raises(CorruptRecord):
            cmd_certify(str(tmp_path / "run"))

    def test_clean_sampled_run_is_consistent(self, tmp_path):
        sampled_run(tmp_path)
        assert consistency_of(tmp_path / "run") == (0.0, 0)

    @pytest.mark.parametrize("seed", OUT_OF_RANGE_SEEDS)
    def test_header_seed_outside_64_bits_is_corrupt(self, tmp_path, capsys, seed):
        # seed 3 + 2**64 would rerun to the very same day lines
        rewrite(sampled_run(tmp_path), lambda recs: recs[0]["config"].update(seed=seed))
        with pytest.raises(CorruptRecord, match=r"seed must be in \[0, 2\*\*64\)"):
            cmd_certify(str(tmp_path / "run"))
        assert cli.main(["certify", "--run", str(tmp_path / "run")]) == 2
        assert "error:" in capsys.readouterr().err


class TestCertifyBlockMemo:
    """Within a block a recorded mixture repeats; none of these may be skipped."""

    def test_mid_block_mixture_tamper(self, tmp_path):
        rewrite(sampled_run(tmp_path), _set("mixture", [[POINT_MASS, [1, 1]]], t=6))
        assert consistency_of(tmp_path / "run") == (1.0, 1)

    def test_mid_block_realized_tamper(self, tmp_path):
        rewrite(sampled_run(tmp_path), _set("realized", POINT_MASS, t=7))
        assert consistency_of(tmp_path / "run") == (1.0, 1)

    def test_two_blocks_tampered(self, tmp_path):
        def edit(recs):
            recs[3]["mixture"] = [[POINT_MASS, [1, 1]]]
            recs[10]["realized"] = POINT_MASS
        rewrite(sampled_run(tmp_path), edit)
        assert consistency_of(tmp_path / "run") == (2.0, 1)

    def test_mixture_carried_into_next_block(self, tmp_path):
        # block 2 records block 1's mixture: equal to the previous day's, but
        # the expected mixture changed at the block boundary
        def edit(recs):
            assert recs[9]["mixture"] != recs[8]["mixture"]
            for rec in recs[9:13]:
                rec["mixture"] = recs[8]["mixture"]
        rewrite(sampled_run(tmp_path), edit)
        assert consistency_of(tmp_path / "run") == (4.0, 1)

    def test_canonicalisations_scale_with_blocks(self, tmp_path, monkeypatch):
        S = 8
        sampled_run(tmp_path, S=S)
        calls = []
        real = harness._canonical_key_of

        def counting(obj):
            calls.append(obj)
            return real(obj)

        monkeypatch.setattr(harness, "_canonical_key_of", counting)
        assert harness._parse_transcript(str(tmp_path / "run" / "transcript.jsonl")).mismatches == 0
        cfg = ForecastConfig(d=3, L=2, H=2, S=S, m=2)
        assert 0 < len(calls) <= 2 * cfg.L * cfg.H**cfg.L


def _checks_of(run_dir):
    report, code = cmd_certify(str(run_dir))
    return {c.name: c.passed for c in report.checks}, [c.name for c in report.checks], code


class TestCertifyMetrics:
    RUN_CFGS = {
        "iid-distributional": SAMPLED_CFG.replace("mode = sampled", "mode = distributional"),
        "iid-sampled": SAMPLED_CFG,
        "adaptive-sampled": SAMPLED_CFG.replace(
            "adversary = iid\niid_q = 1,2,3\n", "adversary = adaptive_argmin\n"
        ),
        "hard-recorded-sampled": (
            "d = 16\nL = 1\nH = 4\nS = 1\nm = 2\nmode = sampled\nadversary = hard\n"
            "hard_R = 2\nhard_K = 4\nrecord_adversary = true\n"
        ),
    }

    @pytest.mark.parametrize("name", sorted(RUN_CFGS))
    def test_clean_runs_reproduce_metrics_exactly(self, tmp_path, name):
        for seed in (1, 2, 3):
            run_dir = tmp_path / f"run{seed}"
            cmd_run(write_config(tmp_path, self.RUN_CFGS[name]), seed=seed, out_dir=str(run_dir))
            passed, names, code = _checks_of(run_dir)
            assert code == 0 and passed["metrics-consistency"]
            assert names[:2] == ["transcript-consistency", "metrics-consistency"]

    @staticmethod
    def _append_garbage(path):
        path.write_text(path.read_text() + "garbage,line\n")

    @staticmethod
    def _alter_dce_digit(path):
        header, row = path.read_text().splitlines()
        cells = row.split(",")
        dce_col = header.split(",").index("dce")
        digit = next(i for i, ch in enumerate(cells[dce_col]) if ch in "123456789")
        old = cells[dce_col]
        cells[dce_col] = old[:digit] + str(int(old[digit]) % 9 + 1) + old[digit + 1:]
        path.write_text(header + "\n" + ",".join(cells) + "\n")

    @pytest.mark.parametrize("edit", ["_append_garbage", "_alter_dce_digit", "unlink"])
    def test_tampered_or_missing_metrics_fail(self, tmp_path, capsys, edit):
        sampled_run(tmp_path)
        path = tmp_path / "run" / "metrics.csv"
        if edit == "unlink":
            path.unlink()
        else:
            getattr(self, edit)(path)
        passed, _, code = _checks_of(tmp_path / "run")
        assert code == 1
        assert not passed["metrics-consistency"]
        assert all(ok for name, ok in passed.items() if name != "metrics-consistency")
        assert cli.main(["certify", "--run", str(tmp_path / "run")]) == 1
        assert "FAIL metrics-consistency" in capsys.readouterr().out


class TestCertifyEndOfInput:
    @staticmethod
    def _drop_last_line(text):
        return "".join(text.splitlines(True)[:-1])

    @staticmethod
    def _extra_day(text):
        last = json.loads(text.splitlines()[-1])
        last["t"] += 1
        return text + json.dumps(last, sort_keys=True) + "\n"

    @staticmethod
    def _trailing_blank_line(text):
        return text + "\n"

    @pytest.mark.parametrize("edit", ["_drop_last_line", "_extra_day", "_trailing_blank_line"])
    def test_wrong_end_of_input_exits_2(self, tmp_path, capsys, edit):
        path = sampled_run(tmp_path)
        path.write_text(getattr(self, edit)(path.read_text()))
        with pytest.raises(CorruptRecord):
            cmd_certify(str(tmp_path / "run"))
        assert cli.main(["certify", "--run", str(tmp_path / "run")]) == 2
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def _count_decodes(monkeypatch) -> list:
        decoded = []

        class CountingDecoder(json.JSONDecoder):
            def decode(self, s, *args, **kwargs):
                decoded.append(s)
                return super().decode(s, *args, **kwargs)

        monkeypatch.setattr(json, "JSONDecoder", CountingDecoder)
        return decoded

    def test_each_line_is_decoded_once(self, tmp_path, monkeypatch):
        path = sampled_run(tmp_path)
        decoded = self._count_decodes(monkeypatch)
        assert harness._parse_transcript(str(path)).mismatches == 0
        assert decoded == path.read_text().splitlines(True)

    def test_clean_run_decodes_the_header_only(self, tmp_path, monkeypatch):
        path = sampled_run(tmp_path)
        decoded = self._count_decodes(monkeypatch)
        canonicalised = []
        real = harness._canonical_key_of
        monkeypatch.setattr(
            harness, "_canonical_key_of", lambda obj: canonicalised.append(obj) or real(obj)
        )
        _, code = cmd_certify(str(tmp_path / "run"))
        assert code == 0
        assert decoded == path.read_text().splitlines(True)[:1]
        assert canonicalised == []


class TestNonUtf8Bytes:
    @pytest.mark.parametrize("line", [0, 3])
    def test_bad_byte_in_transcript_is_corrupt(self, tmp_path, capsys, line):
        path = sampled_run(tmp_path)
        lines = path.read_bytes().splitlines(True)
        lines[line] = lines[line][:5] + b"\xff" + lines[line][6:]
        path.write_bytes(b"".join(lines))
        with pytest.raises(CorruptRecord):
            cmd_certify(str(tmp_path / "run"))
        assert cli.main(["certify", "--run", str(tmp_path / "run")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_byte_in_config_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"# caf\xe9\n" + BASE_CFG.encode())
        with pytest.raises(ConfigInvalid):
            parse_config_file(str(path), harness.RUN_KEYS)
        run_args = ["run", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "o")]
        assert cli.main(run_args) == 2
        assert "error:" in capsys.readouterr().err


def _mutants(clean: bytes, seed: int, n: int):
    """n seeded mutants of `clean`: 1-3 byte replacements, insertions or deletions."""
    gen = derive_stream(seed, ROLE_GENERIC)
    for _ in range(n):
        data = bytearray(clean)
        for _ in range(1 + gen.below(3)):
            pos, byte, op = gen.below(len(data)), gen.below(256), gen.below(3)
            if op == 0:
                data[pos] = byte
            elif op == 1:
                data.insert(pos, byte)
            else:
                del data[pos]
        yield bytes(data)


def test_certify_survives_random_byte_mutations(tmp_path, capsys):
    # Seeded offline fuzzer of any byte value.  Every mutant must end in a
    # verdict, never a traceback, and a mutant that passes must be the clean
    # file itself.
    path = sampled_run(tmp_path)
    clean = path.read_bytes()
    run_dir = str(tmp_path / "run")
    codes = []
    for data in _mutants(clean, 2025, 250):
        path.write_bytes(data)
        codes.append(cli.main(["certify", "--run", run_dir]))
        capsys.readouterr()
        if codes[-1] == 0:
            assert data == clean
    assert set(codes) <= {0, 1, 2}
    assert codes.count(2) > 0


FUZZ_RUNS = {
    "d3-sampled": (SAMPLED_CFG, 3),
    "d2-distributional": (BASE_CFG.replace("S = 1", "S = 2"), 5),
    "d16-hard-recorded": (RECORDED_RUNS["hard"], 3),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(FUZZ_RUNS))
def test_certify_verdicts_match_the_strict_parse(tmp_path, capsys, name):
    # The strict parse is the oracle: a corrupt mutant exits 2, one with
    # inconsistent days exits 1, and any other exits 0 iff it is the clean file.
    text, seed = FUZZ_RUNS[name]
    cmd_run(write_config(tmp_path, text), seed=seed, out_dir=str(tmp_path / "run"))
    path = tmp_path / "run" / "transcript.jsonl"
    clean = path.read_bytes()
    run_dir = str(tmp_path / "run")
    seen = []
    for data in _mutants(clean, 7000 + seed, 1500):
        path.write_bytes(data)
        try:
            expected = 1 if harness._parse_transcript(str(path)).mismatches else int(data != clean)
        except CorruptRecord:
            expected = 2
        assert cli.main(["certify", "--run", run_dir]) == expected
        capsys.readouterr()
        seen.append(expected)
    assert {1, 2} <= set(seen)


class TestCertifyProvenance:
    @pytest.mark.parametrize("name", sorted(TestCertifyMetrics.RUN_CFGS))
    def test_writer_bytes_are_json_dumps(self, tmp_path, name):
        # rewrite() re-encodes every record with json.dumps(sort_keys=True)
        cmd_run(write_config(tmp_path, TestCertifyMetrics.RUN_CFGS[name]), seed=2,
                out_dir=str(tmp_path / "run"))
        path = tmp_path / "run" / "transcript.jsonl"
        clean = path.read_bytes()
        rewrite(path, lambda recs: None)
        assert path.read_bytes() == clean

    def test_clean_run_row(self, tmp_path):
        sampled_run(tmp_path)
        report, code = cmd_certify(str(tmp_path / "run"))
        row = report.checks[2]
        assert code == 0
        assert (row.name, row.measured, row.bound, row.margin, row.passed) == (
            "transcript-provenance", 0.0, 0.0, 0.0, True)

    def test_reformatted_header_fails_provenance_only(self, tmp_path):
        path = sampled_run(tmp_path)
        lines = path.read_text().splitlines(True)
        lines[0] = json.dumps(json.loads(lines[0]), sort_keys=True, separators=(",", ":")) + "\n"
        path.write_text("".join(lines))
        report, code = cmd_certify(str(tmp_path / "run"))
        assert code == 1
        assert [(c.name, c.measured) for c in report.checks if not c.passed] == [
            ("transcript-provenance", 1.0)]

    @pytest.mark.parametrize("cut, line", [("none", 0), ("last-line", 13), ("mid-line", 13),
                                           ("extra-line", 14), ("header", 1), ("day-5", 6)])
    def test_first_differing_line(self, tmp_path, cut, line):
        path = sampled_run(tmp_path, S=3)  # T = 12, lines 1..13
        data = path.read_bytes()
        lines = data.splitlines(True)
        data = {
            "none": data,
            "last-line": b"".join(lines[:-1]),
            "mid-line": data[:-5],
            "extra-line": data + lines[-1],
            "header": data.replace(b'"T": 12', b'"T":12', 1),
            "day-5": data.replace(b'"t": 5}', b'"t": 5 }', 1),
        }[cut]
        path.write_bytes(data)
        with open(path, "rb") as fh:
            assert harness._regenerate(fh)[2] == line

    def test_header_too_long_for_the_file_is_not_rerun(self, tmp_path):
        # a canonical header for T = 2**18 over a file of 16 day lines
        path = sampled_run(tmp_path)
        data = path.read_bytes().replace(b'"S": 4', b'"S": 65536', 1)
        path.write_bytes(data.replace(b'"T": 16', b'"T": 262144', 1))
        with open(path, "rb") as fh:
            rc, run, line = harness._regenerate(fh)
        assert (rc.cfg.T, run, line) == (2**18, None, 2)
        with pytest.raises(CorruptRecord):
            cmd_certify(str(tmp_path / "run"))

    def test_outcome_moving_no_metric_fails(self, tmp_path, capsys):
        # d=16 hard, T=4: an outcome changed on the last day feeds no later
        # prediction, and 13 of the 15 replacements keep DCE and ECE.
        cmd_run(write_config(tmp_path, RECORDED_RUNS["hard"]), seed=3, out_dir=str(tmp_path / "run"))
        path = tmp_path / "run" / "transcript.jsonl"
        clean = path.read_text()
        records = [json.loads(line) for line in clean.splitlines()]
        only_provenance = 0
        for t in range(1, 5):
            for x in range(1, 17):
                if x == records[t]["outcome"]:
                    continue
                path.write_text(clean)
                rewrite(path, _set("outcome", x, t=t))
                code = cli.main(["certify", "--run", str(tmp_path / "run")])
                capsys.readouterr()
                assert code != 0
                if t == 4:
                    cert = json.loads((tmp_path / "run" / "certificate.json").read_text())
                    failing = [(c["name"], c["measured"]) for c in cert["checks"] if not c["pass"]]
                    assert code == 1 and ("transcript-provenance", 5.0) in failing
                    only_provenance += failing == [("transcript-provenance", 5.0)]
        assert only_provenance == 13


class TestCmdLowerbound:
    def test_truthful_beats_eps1(self):
        rep = cmd_lowerbound(R=2, K=2, forecaster="truthful", trials=100, seed=17)
        assert rep.eps1_T == float(Fraction(1, 2**12)) * 2
        assert rep.mean_dce > 0
        assert rep.passed

    def test_uniform_matches_closed_form(self):
        # single-key grouping collapses the DCE to || sum_t (u - X_t) ||_1
        R, K, seed = 2, 2, 23
        rep = cmd_lowerbound(R=R, K=K, forecaster="uniform", trials=5, seed=seed)
        hcfg = HardSeqConfig(R, K)
        values = []
        for trial in range(5):
            tree = sample_tau_tree(hcfg, derive_stream(seed, ROLE_TAU, trial))
            ostream = derive_stream(seed, ROLE_OUTCOME, trial)
            counts = [0] * hcfg.d
            for t in range(1, hcfg.T + 1):
                x = sample_outcome(day_distribution(tree, t, hcfg), ostream)
                counts[x - 1] += 1
            values.append(
                float(sum(abs(Fraction(hcfg.T, hcfg.d) - c) for c in counts))
            )
        assert rep.mean_dce == pytest.approx(sum(values) / 5, abs=1e-12)

    @pytest.mark.parametrize(
        "forecaster,R,K",
        [
            pytest.param("truthful", 2, 3, id="truthful"),
            pytest.param("uniform", 2, 3, id="uniform"),
            # several one-hots per law: the truthful tallies' handles must sort as the keys
            pytest.param("truthful", 3, 3, id="truthful-R3-K3"),
            pytest.param("truthful", 4, 2, id="truthful-R4-K2"),
            pytest.param("uniform", 3, 3, id="uniform-R3-K3"),
        ],
    )
    def test_builds_no_day_records(self, monkeypatch, forecaster, R, K):
        # Per-key outcome tallies give metrics.dce of the day records bit for bit.
        seed, trials = 29, 4
        hcfg = HardSeqConfig(R, K)
        values = []
        for trial in range(trials):
            tree = sample_tau_tree(hcfg, derive_stream(seed, ROLE_TAU, trial))
            ostream = derive_stream(seed, ROLE_OUTCOME, trial)
            days = []
            for t in range(1, hcfg.T + 1):
                p_t = day_distribution(tree, t, hcfg)
                key = p_t if forecaster == "truthful" else uniform(hcfg.d)
                mix = MixtureRecord(t, ((key, Fraction(1)),))
                days.append(DayRecord(t=t, mixture=mix, outcome=sample_outcome(p_t, ostream)))
            values.append(dce(Transcript(hcfg.d, days)))

        def refuse(*args, **kwargs):
            raise AssertionError("lowerbound built a per-day record")

        monkeypatch.setattr(harness, "Transcript", refuse)
        monkeypatch.setattr(harness, "DayRecord", refuse)
        rep = cmd_lowerbound(R=R, K=K, forecaster=forecaster, trials=trials, seed=seed)
        assert rep.mean_dce == left_sum(values) / trials
        assert rep.stderr == statistics.stdev(values) / math.sqrt(trials)

    def test_hierarchical_runs(self):
        rep = cmd_lowerbound(R=2, K=2, forecaster="hierarchical", trials=20, seed=3)
        assert rep.trials == 20 and rep.mean_dce >= 0

    def test_validation(self):
        with pytest.raises(InvalidForecaster):
            cmd_lowerbound(R=2, K=2, forecaster="psychic", trials=10, seed=1)
        with pytest.raises(ConfigInvalid):
            cmd_lowerbound(R=2, K=2, forecaster="truthful", trials=1, seed=1)


class TestCmdOracle:
    def test_default_settings_pass(self):
        rep = cmd_oracle(trials=40, max_T=12, max_d=4, seed=5, ece_cases=2, ece_trials=400)
        assert rep.passed
        assert rep.max_dce_diff <= 1e-12

    def test_seeded_rerun_identical(self):
        a = cmd_oracle(trials=15, max_T=8, max_d=3, seed=9, ece_cases=1, ece_trials=300)
        b = cmd_oracle(trials=15, max_T=8, max_d=3, seed=9, ece_cases=1, ece_trials=300)
        assert a == b

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigInvalid):
            cmd_oracle(trials=10, max_T=8, max_d=1, seed=1)
        with pytest.raises(ConfigInvalid):
            cmd_oracle(trials=10, max_T=100, max_d=4, seed=1)


CONC_CFG = """\
d = 2
L = 2
H = 4
m = 2
adversary = iid
iid_q = 1,1
S_low = 4
S_high = 16
"""


class TestCmdConcentration:
    def test_small_run_shapes(self, tmp_path):
        path = write_config(tmp_path, CONC_CFG, "conc.cfg")
        rep = cmd_concentration(path, trials=40, seed=11)
        assert rep.low.S == 4 and rep.high.S == 16
        assert rep.bound == 2.5
        assert rep.bound_pass

    def test_single_level_gap_exactly_zero(self, tmp_path):
        path = write_config(tmp_path, CONC_CFG.replace("L = 2", "L = 1"), "conc.cfg")
        rep = cmd_concentration(path, trials=10, seed=11)
        assert rep.low.mean_gap_per_day == 0.0
        assert rep.high.mean_gap_per_day == 0.0
        assert rep.passed

    def test_adaptive_rejected(self, tmp_path):
        text = CONC_CFG.replace("adversary = iid\niid_q = 1,1\n", "adversary = adaptive_argmin\n")
        path = write_config(tmp_path, text, "conc.cfg")
        with pytest.raises(AdaptiveAdversaryUnsupported):
            cmd_concentration(path, trials=10, seed=1)

    def test_s_ordering_required(self, tmp_path):
        path = write_config(tmp_path, CONC_CFG.replace("S_high = 16", "S_high = 4"), "c.cfg")
        with pytest.raises(ConfigInvalid):
            cmd_concentration(path, trials=10, seed=1)


class TestCli:
    def test_run_certify_happy_path(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BASE_CFG)
        out_dir = str(tmp_path / "run")
        assert cli.main(["run", "--config", cfg_path, "--seed", "4", "--out", out_dir]) == 0
        assert cli.main(["certify", "--run", out_dir]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_run_prints_its_horizon(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BASE_CFG.replace("S = 1", "S = 2"))
        out_dir = str(tmp_path / "run")
        assert cli.main(["run", "--config", cfg_path, "--seed", "4", "--out", out_dir]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        run_id = build_run_config(parse_config_file(cfg_path, harness.RUN_KEYS), 4).run_id
        assert first == f"run {run_id}: 8 days written to {os.path.join(out_dir, 'transcript.jsonl')}"

    @pytest.mark.parametrize("seed", OUT_OF_RANGE_SEEDS)
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed, where):
        text, flag = BASE_CFG, str(seed)
        if where == "config":
            # checked like a malformed key, even where --seed overrides it
            text, flag = BASE_CFG + f"seed = {seed}\n", "1"
        with pytest.raises(ConfigInvalid, match=r"seed must be in \[0, 2\*\*64\)"):
            build_run_config(parse_config_file(write_config(tmp_path, text), harness.RUN_KEYS),
                             int(flag))
        out_dir = tmp_path / "run"
        argv = ["run", "--config", write_config(tmp_path, text), "--seed", flag, "--out", str(out_dir)]
        assert cli.main(argv) == 2
        assert "error: seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_seed_range_ends_are_accepted(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BASE_CFG)
        for seed in (0, 2**64 - 1):
            out_dir = str(tmp_path / f"run-{seed}")
            assert cli.main(["run", "--config", cfg_path, "--seed", str(seed), "--out", out_dir]) == 0
            assert cli.main(["certify", "--run", out_dir]) == 0
        capsys.readouterr()

    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "d = 2\n")
        code = cli.main(["run", "--config", cfg_path, "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_certify_tampered_exits_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BASE_CFG)
        out_dir = str(tmp_path / "run")
        cli.main(["run", "--config", cfg_path, "--seed", "4", "--out", out_dir])
        path = tmp_path / "run" / "transcript.jsonl"
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["outcome"] = 3 - rec["outcome"]
        lines[1] = json.dumps(rec, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["certify", "--run", out_dir]) == 1

    def test_lowerbound_cli(self, capsys):
        code = cli.main(
            ["lowerbound", "--R", "2", "--K", "2", "--forecaster", "truthful",
             "--trials", "50", "--seed", "2"]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("forecaster", ["truthful", "uniform", "hierarchical"])
    def test_lowerbound_beyond_day_budget_exits_2(self, monkeypatch, capsys, forecaster):
        # T = 2^69: refused before the tau tree (K^r prefixes) is sampled
        def no_tree(*args):
            raise AssertionError("sample_tau_tree reached")

        monkeypatch.setattr(harness, "sample_tau_tree", no_tree)
        code = cli.main(["lowerbound", "--R", "70", "--K", "2", "--forecaster", forecaster,
                         "--trials", "2", "--seed", "1"])
        assert code == 2
        assert "day budget" in capsys.readouterr().err

    def test_concentration_beyond_day_budget_exits_2(self, tmp_path, monkeypatch, capsys):
        # T = 4^60 * 16: refused before the first simulate
        def no_simulate(*args, **kwargs):
            raise AssertionError("engine.simulate reached")

        monkeypatch.setattr(harness.engine, "simulate", no_simulate)
        path = write_config(tmp_path, CONC_CFG.replace("L = 2", "L = 60"), "conc.cfg")
        code = cli.main(["concentration", "--config", path, "--trials", "2", "--seed", "1"])
        assert code == 2
        assert "day budget" in capsys.readouterr().err

    @pytest.mark.parametrize("stray, text", [
        ("iid_q", "d = 8\nL = 1\nH = 2\nS = 1\nm = 1\nadversary = hard\n"
                  "hard_R = 2\nhard_K = 2\niid_q = 5,1,1,1,1,1,1,1\n"),
        ("hard_R", BASE_CFG.replace("adversary = iid\niid_q = 1,1\n",
                                    "adversary = adaptive_argmin\nhard_R = 9\n")),
        ("hard_K", BASE_CFG + "hard_K = 2\n"),
    ], ids=["hard-iid_q", "adaptive_argmin-hard_R", "iid-hard_K"])
    def test_key_of_another_adversary_exits_2(self, tmp_path, capsys, stray, text):
        cfg_path = write_config(tmp_path, text)
        out_dir = tmp_path / "run"
        code = cli.main(["run", "--config", cfg_path, "--seed", "1", "--out", str(out_dir)])
        assert code == 2
        assert f"error: key {stray!r} does not apply" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, text", [
        ("run", BASE_CFG + "seed = x\n"),
        ("run", BASE_CFG + "seed = 1.5\n"),
        ("concentration", CONC_CFG + "seed = x\n"),
    ], ids=["run-x", "run-1.5", "concentration-x"])
    def test_malformed_config_seed_exits_2_under_seed_flag(self, tmp_path, capsys, command, text):
        # --seed wins over the config's seed, but a malformed one is still an error
        cfg_path = write_config(tmp_path, text)
        out_dir = tmp_path / "run"
        argv = {
            "run": ["run", "--config", cfg_path, "--seed", "1", "--out", str(out_dir)],
            "concentration": ["concentration", "--config", cfg_path, "--trials", "2",
                              "--seed", "1"],
        }[command]
        assert cli.main(argv) == 2
        assert "error: key 'seed'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_oracle_cli(self, capsys):
        assert cli.main(["oracle", "--trials", "10", "--max-T", "8", "--max-d", "3", "--seed", "3"]) == 0

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--seed", "1"])  # missing --config/--out
        assert exc.value.code == 2

    @pytest.mark.parametrize("case", ["certify-dir-transcript", "run-dir-config",
                                      "concentration-dir-config", "run-out-is-file",
                                      "run-out-dir-transcript", "run-out-dir-metrics",
                                      "certify-dir-certificate-json",
                                      "certify-dir-certificate-csv",
                                      "run-transcript-disk-full"])
    def test_path_shaped_input_exits_2(self, tmp_path, capsys, case):
        # A directory where a file should be, or a file where the run
        # directory should be, ends in a HicalibError, not a traceback; so
        # does a transcript that cannot be written because the disk is full.
        if case == "run-transcript-disk-full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this platform")
            (tmp_path / "full").mkdir()
            (tmp_path / "full" / "transcript.jsonl").symlink_to("/dev/full")
        cfg_path = write_config(tmp_path, BASE_CFG)
        a_dir = tmp_path / "a_dir"
        a_dir.mkdir()
        (tmp_path / "run" / "transcript.jsonl").mkdir(parents=True)
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        (tmp_path / "m" / "metrics.csv").mkdir(parents=True)
        for name in ("certificate.json", "certificate.csv"):
            cmd_run(cfg_path, seed=1, out_dir=str(tmp_path / f"done-{name}"))
            (tmp_path / f"done-{name}" / name).mkdir()
        argv = {
            "certify-dir-transcript": ["certify", "--run", str(tmp_path / "run")],
            "run-dir-config": ["run", "--config", str(a_dir), "--seed", "1",
                               "--out", str(tmp_path / "o")],
            "concentration-dir-config": ["concentration", "--config", str(a_dir),
                                         "--trials", "2", "--seed", "1"],
            "run-out-is-file": ["run", "--config", cfg_path, "--seed", "1",
                                "--out", str(a_file)],
            "run-out-dir-transcript": ["run", "--config", cfg_path, "--seed", "1",
                                       "--out", str(tmp_path / "run")],
            "run-out-dir-metrics": ["run", "--config", cfg_path, "--seed", "1",
                                    "--out", str(tmp_path / "m")],
            "certify-dir-certificate-json": ["certify", "--run",
                                             str(tmp_path / "done-certificate.json")],
            "certify-dir-certificate-csv": ["certify", "--run",
                                            str(tmp_path / "done-certificate.csv")],
            "run-transcript-disk-full": ["run", "--config", cfg_path, "--seed", "1",
                                         "--out", str(tmp_path / "full")],
        }[case]
        assert cli.main(argv) == 2
        assert "error:" in capsys.readouterr().err
