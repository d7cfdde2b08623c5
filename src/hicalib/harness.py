"""Experiment driver: seeded runs, persistence, oracles, and statistical checks.

Configuration files are flat ``key = value`` lines (unknown keys are
errors).  Transcripts are JSONL: a header record with the full
configuration, then one record per day whose values are all exact integers
or integer pairs, so identical (config, seed) reruns are byte-identical.
Certification first checks provenance: a run is a pure function of its
(config, seed), so certify validates the header (format, ``rng``,
``T == S*H**L``, and a config that reads back through the run-config schema
to exactly the recorded object), re-runs that config and seed in memory
with the writer ``cmd_run`` uses, and compares the bytes it would write
with the file, segment by segment, without holding either.  On a byte match
nothing past the header is decoded: the re-simulated run recomputes
``metrics.csv``, which must match byte for byte, and feeds the full proof
certificate.  Otherwise the ``transcript-provenance`` row fails with the
number of the first line that differs, and the file gets the strict parse,
which rebuilds the run from what it records: each line is decoded once, its
outcome feeds the engine's replay, its mixture and realized key are checked
against the block's mixture rebuilt from the replay's level keys, and a
recorded ``adv_dist`` must be the law that the header's adversary (rebuilt
from the recorded config and seed) plays that day; ``metrics.csv`` is then
recomputed from the replay (DCE) and the realized keys (ECE).  The strict
parse decodes records strictly: bytes that are not UTF-8, any float, NaN,
Infinity or boolean, a non-integer ``t`` or ``outcome``, a day record
whose keys are not exactly the ones ``cmd_run`` writes (``t``,
``outcome``, ``mixture``, plus ``realized`` iff the run is sampled and
``adv_dist`` iff it records the adversary), a mixture not in the form
``cmd_run`` writes (keys strictly increasing, each weight ``[n, den]`` in
lowest terms with 0 < n <= den), or other than T day records is a
``CorruptRecord``.  The recorded mixture is constant over each S-day block,
so it canonicalises a mixture only when it differs from the previous day's,
and each distinct key once.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import statistics
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, NamedTuple

from . import _kernel_py, engine, forecaster, metrics
from .adversary import (
    AdaptiveArgminAdversary,
    EpsSchedule,
    HardSeqConfig,
    HardSequenceAdversary,
    IIDAdversary,
    day_hot_coordinates,
    hard_law,
    sample_tau_tree,
)
from .certificate import CheckRow, CertificateReport, certify_run
from .errors import (
    AdaptiveAdversaryUnsupported,
    ConfigInvalid,
    CorruptRecord,
    HicalibError,
    InvalidForecaster,
    MissingTranscript,
)
from .forecaster import (
    DEFAULT_DAY_BUDGET,
    ForecastConfig,
    MixtureRecord,
    sample_prediction,
)
from .metrics import (
    METRICS_CSV_COLUMNS,
    DayRecord,
    Transcript,
    dce,
    ece_estimate,
    exhaustive_ece,
    metrics_csv_row,
    oracle_dce_direct,
)
from .rng import (
    RNG_ID, ROLE_GENERIC, ROLE_LEVEL, ROLE_OUTCOME, ROLE_TAU, Stream, derive_stream, seed_in_range,
    stream_key,
)
from .simplex import (
    RationalDist,
    dist_from_json,
    left_sum,
    make_rational_dist,
    uniform,
)

TRANSCRIPT_FORMAT = "hicalib-transcript/1"
TRANSCRIPT_NAME = "transcript.jsonl"
METRICS_NAME = "metrics.csv"
CERTIFICATE_JSON = "certificate.json"
CERTIFICATE_CSV = "certificate.csv"

RUN_KEYS = {
    "d", "L", "H", "S", "m", "mode", "seed", "adversary",
    "iid_q", "hard_R", "hard_K", "record_adversary",
}
RUN_REQUIRED = ("d", "L", "H", "S", "m")
CONCENTRATION_KEYS = {"d", "L", "H", "m", "adversary", "iid_q", "S_low", "S_high", "seed"}


# -- flat config files ---------------------------------------------------------

def parse_config_file(path: str, allowed: set[str]) -> dict[str, str]:
    """Flat key = value lines; '#' comment lines allowed; unknown keys rejected."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigInvalid(f"config file not readable: {path} ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"{path}: not valid UTF-8 ({exc.reason})") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigInvalid(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in allowed:
            raise ConfigInvalid(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigInvalid(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _int_of(kv: dict[str, str], key: str) -> int:
    try:
        return int(kv[key])
    except (KeyError, ValueError):
        raise ConfigInvalid(f"key {key!r} missing or not an integer") from None


def _parse_iid_q(text: str, d: int) -> RationalDist:
    """Comma-separated nonnegative integer weights; denominator is their sum."""
    try:
        units = [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigInvalid(f"iid_q must be comma-separated integers, got {text!r}") from None
    if len(units) != d:
        raise ConfigInvalid(f"iid_q has {len(units)} entries, d={d}")
    total = sum(units)
    if total <= 0 or any(u < 0 for u in units):
        raise ConfigInvalid("iid_q weights must be nonnegative with positive sum")
    return make_rational_dist(units, total)


def _check_day_budget(T: int, hint: str = "") -> None:
    if T > DEFAULT_DAY_BUDGET:
        raise ConfigInvalid(f"T = {T} exceeds the default day budget {DEFAULT_DAY_BUDGET}{hint}")


@dataclass(frozen=True)
class RunConfig:
    cfg: ForecastConfig
    mode: str
    seed: int
    adversary_kind: str
    iid_q: RationalDist | None
    hard: HardSeqConfig | None
    record_adversary: bool

    def config_dict(self) -> dict:
        out = {
            "adversary": self.adversary_kind,
            "d": self.cfg.d,
            "H": self.cfg.H,
            "L": self.cfg.L,
            "S": self.cfg.S,
            "m": self.cfg.m,
            "mode": self.mode,
            "record_adversary": self.record_adversary,
            "seed": self.seed,
        }
        if self.iid_q is not None:
            out["iid_q"] = self.iid_q.to_json()
        if self.hard is not None:
            out["hard_R"] = self.hard.R
            out["hard_K"] = self.hard.K
        return out

    @property
    def run_id(self) -> str:
        blob = json.dumps(self.config_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def build_run_config(kv: dict[str, str], seed_override: int | None = None) -> RunConfig:
    for key in RUN_REQUIRED:
        if key not in kv:
            raise ConfigInvalid(f"required key {key!r} missing")
    cfg = ForecastConfig(
        d=_int_of(kv, "d"), L=_int_of(kv, "L"), H=_int_of(kv, "H"),
        S=_int_of(kv, "S"), m=_int_of(kv, "m"),
    )
    mode = kv.get("mode", "distributional")
    if mode not in ("distributional", "sampled"):
        raise ConfigInvalid(f"mode must be distributional or sampled, got {mode!r}")
    # a malformed key is an error even where --seed overrides it
    seed = seed_in_range(_int_of(kv, "seed")) if "seed" in kv else None
    if seed_override is not None:
        seed = seed_in_range(seed_override)
    if seed is None:
        raise ConfigInvalid("seed required (config key or --seed)")
    kind = kv.get("adversary", "iid")
    iid_q = None
    hard = None
    if kind == "iid":
        iid_q = _parse_iid_q(kv["iid_q"], cfg.d) if "iid_q" in kv else uniform(cfg.d)
    elif kind == "adaptive_argmin":
        pass
    elif kind == "hard":
        if "hard_R" not in kv or "hard_K" not in kv:
            raise ConfigInvalid("hard adversary needs hard_R and hard_K")
        hard = HardSeqConfig(R=_int_of(kv, "hard_R"), K=_int_of(kv, "hard_K"))
        if hard.d != cfg.d:
            raise ConfigInvalid(f"hard adversary d = {hard.d} != forecaster d = {cfg.d}")
        if hard.T != cfg.T:
            raise ConfigInvalid(f"hard adversary T = {hard.T} != forecaster T = {cfg.T}")
    else:
        raise ConfigInvalid(f"unknown adversary {kind!r}")
    own = {"iid": {"iid_q"}, "hard": {"hard_R", "hard_K"}}.get(kind, set())
    stray = sorted({"iid_q", "hard_R", "hard_K"}.difference(own).intersection(kv))
    if stray:
        raise ConfigInvalid(f"key {stray[0]!r} does not apply to adversary {kind!r}")
    record = kv.get("record_adversary", "false").lower()
    if record not in ("true", "false"):
        raise ConfigInvalid("record_adversary must be true or false")
    return RunConfig(
        cfg=cfg, mode=mode, seed=seed, adversary_kind=kind,
        iid_q=iid_q, hard=hard, record_adversary=record == "true",
    )


def make_adversary(rc: RunConfig, trial: int = 0):
    if rc.adversary_kind == "iid":
        return IIDAdversary(rc.iid_q)
    if rc.adversary_kind == "adaptive_argmin":
        return AdaptiveArgminAdversary(rc.cfg.d)
    return HardSequenceAdversary(rc.hard, seed=rc.seed, trial=trial)


# -- cmd_run -------------------------------------------------------------------

@dataclass(frozen=True)
class RunOutput:
    run_id: str
    T: int
    transcript_path: str
    metrics_path: str
    dce: float
    ece: float | None


def cmd_run(config_path: str, seed: int, out_dir: str, allow_large: bool = False) -> RunOutput:
    """Simulate one run and persist transcript JSONL plus a metrics CSV row."""
    kv = parse_config_file(config_path, RUN_KEYS)
    rc = build_run_config(kv, seed_override=seed)
    if not allow_large:
        _check_day_budget(rc.cfg.T, "; pass --allow-large to opt in")
    transcript_path = os.path.join(out_dir, TRANSCRIPT_NAME)
    metrics_path = os.path.join(out_dir, METRICS_NAME)
    adversary = make_adversary(rc)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(transcript_path, "w", encoding="utf-8") as fh:
            header_line, on_block, on_day = _transcript_writer(rc, fh.write)
            fh.write(header_line)
            run = engine.simulate(
                rc.cfg, adversary, rc.seed, mode=rc.mode, on_block=on_block, on_day=on_day,
            )
    except OSError as exc:
        raise ConfigInvalid(f"cannot write {transcript_path} ({exc.strerror})") from None

    dce_val = engine.dce_value(run)
    ece_val = engine.ece_value(run) if rc.mode == "sampled" else None
    _write_text(metrics_path, _csv_text(_metrics_rows(rc, dce_val, ece_val)))
    return RunOutput(rc.run_id, rc.cfg.T, transcript_path, metrics_path, dce_val, ece_val)


def _transcript_writer(rc: RunConfig, emit: Callable[[str], object]):
    """The transcript of `rc` as a header line and two `engine.simulate` sinks.

    Returns (header_line, on_block, on_day).  A simulation of `rc` with these
    sinks passes each segment's day lines, in order, to `emit`: `cmd_run`
    writes them and `cmd_certify` compares them with the file.  Each distinct
    key is serialised once per run, byte-equal to ``json.dumps(key.to_json())``,
    and so is each distinct mixture weight.
    """
    header = {
        "T": rc.cfg.T,
        "config": rc.config_dict(),
        "format": TRANSCRIPT_FORMAT,
        "rng": RNG_ID,
    }
    L, record = rc.cfg.L, rc.record_adversary
    frags: dict[RationalDist, str] = {}
    weight_frags: dict[tuple[int, int], str] = {}  # a Fraction hashes slower than this formats
    mix_frag, realized_frags = "", []

    def frag(key: RationalDist) -> str:
        text = frags.get(key)
        if text is None:
            nums, den = key
            text = frags[key] = f"[[{', '.join(map(str, nums))}], {den}]"
        return text

    def weight_frag(w: Fraction) -> str:
        nd = w.numerator, w.denominator
        text = weight_frags.get(nd)
        if text is None:
            text = weight_frags[nd] = f"[{nd[0]}, {nd[1]}]"
        return text

    def on_block(t, level_keys):
        nonlocal mix_frag, realized_frags
        entries = forecaster.merge_mixture(t, level_keys, L).entries
        mix_frag = "[" + ", ".join(
            [f"[{frag(key)}, {weight_frag(w)}]" for key, w in entries]
        ) + "]"
        realized_frags = [frag(key) for key in level_keys]

    def on_day(t_first, outcomes, levels, law):
        law_frag = frag(law) if record else None
        emit(_day_lines(t_first, outcomes, levels, mix_frag, realized_frags, law_frag))

    return json.dumps(header, sort_keys=True) + "\n", on_block, on_day


def _day_lines(t_first, outcomes, levels, mix_frag, realized_frags, law_frag) -> str:
    """The transcript lines of one segment, days t_first, t_first + 1, ...

    `mix_frag` is the block's serialised mixture and `realized_frags` its
    serialised level keys, level 1 first; `levels` holds each day's realized
    level index (None in distributional mode) and `law_frag` the serialised
    outcome law (None unless the run records the adversary).
    """
    head = "{" if law_frag is None else f'{{"adv_dist": {law_frag}, '
    head += f'"mixture": {mix_frag}, "outcome": '
    days = range(t_first, t_first + len(outcomes))
    if levels is None:
        return "".join(f'{head}{x}, "t": {t}}}\n' for t, x in zip(days, outcomes))
    tails = [f', "realized": {r}, "t": ' for r in realized_frags]
    return "".join(f"{head}{x}{tails[v]}{t}}}\n" for t, x, v in zip(days, outcomes, levels))


def _metrics_rows(rc: RunConfig, dce_val: float, ece_val: float | None) -> list[list[str]]:
    """The rows of a run's metrics.csv: the column names, then the one run."""
    row = metrics_csv_row(rc.run_id, rc.seed, rc.cfg, rc.adversary_kind, dce_val, ece_val)
    return [METRICS_CSV_COLUMNS, [row[c] for c in METRICS_CSV_COLUMNS]]


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigInvalid(f"cannot write {path} ({exc.strerror})") from None


# -- cmd_certify ---------------------------------------------------------------

def _reject_number(text: str):
    raise CorruptRecord(f"non-integer number {text} in transcript")


def _header_run_config(conf) -> RunConfig:
    """The run config a header records; it must be one `cmd_run` writes.

    The config is read back through `build_run_config`, the schema of run
    config files, and must serialize to exactly the recorded object: unknown
    keys, missing keys that have no default (such as `seed`), unknown
    adversaries and values of the wrong type are corrupt.
    """
    if not isinstance(conf, dict):
        raise CorruptRecord(f"header config is not an object: {conf!r}")
    unknown = sorted(set(conf) - RUN_KEYS)
    if unknown:
        raise CorruptRecord(f"unknown keys in header config: {unknown}")
    kv = {}
    for key, value in conf.items():
        if key == "iid_q" and isinstance(value, list) and value and isinstance(value[0], list):
            value = ",".join(map(str, value[0]))
        elif key == "record_adversary" and type(value) is bool:
            value = "true" if value else "false"
        kv[key] = str(value)
    try:
        rc = build_run_config(kv)
    except HicalibError as exc:
        raise CorruptRecord(f"bad config in header: {exc}") from None
    if rc.config_dict() != conf:
        raise CorruptRecord(f"header config {conf!r} is not one hicalib run writes")
    return rc


def _parse_header(line: str, decode) -> RunConfig:
    """Decode and validate the header; returns the run config it records."""
    try:
        header = decode(line)
    except CorruptRecord as exc:
        raise CorruptRecord(f"header: {exc}") from None
    except ValueError as exc:
        raise CorruptRecord(f"header is not JSON: {exc}") from None
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt != TRANSCRIPT_FORMAT:
        raise CorruptRecord(f"unexpected transcript format {fmt!r}")
    if header.get("rng") != RNG_ID:
        raise CorruptRecord(f"header rng {header.get('rng')!r}, expected {RNG_ID!r}")
    rc = _header_run_config(header.get("config"))
    if header.get("T") != rc.cfg.T:
        raise CorruptRecord(f"header T {header.get('T')!r} != S*H**L = {rc.cfg.T}")
    return rc


def _canonical_key_of(obj) -> RationalDist:
    try:
        dist = dist_from_json(obj)
    except (HicalibError, TypeError, ValueError) as exc:
        raise CorruptRecord(f"bad distribution in transcript: {exc}") from None
    if dist.to_json() != [list(obj[0]), obj[1]]:
        raise CorruptRecord(f"non-canonical distribution in transcript: {obj!r}")
    return dist


def _memo_key(obj, memo: dict) -> RationalDist:
    """Canonical key of a serialized distribution, canonicalising each distinct one once."""
    try:
        nums, den = obj
        return memo[(tuple(nums), den)]
    except (KeyError, TypeError, ValueError):
        key = _canonical_key_of(obj)
        # A canonical fragment's hashable form equals its key.
        memo[key] = key
        return key


def _mixture_of(mix, memo: dict) -> dict:
    """Recorded mixture as {canonical key: weight}, in the form `cmd_run` writes it.

    Keys must strictly increase, every weight must be [n, den] in lowest
    terms with 0 < n <= den, and the weights must sum to 1.
    """
    try:
        seen = {}
        prev = None
        for key_obj, (n, den) in mix:
            key = _memo_key(key_obj, memo)
            if prev is not None and key <= prev:
                raise CorruptRecord("mixture keys not strictly increasing")
            if type(n) is not int or type(den) is not int or not 0 < n <= den or math.gcd(n, den) != 1:
                raise CorruptRecord(f"mixture weight {[n, den]!r} not [n, den] in lowest terms in (0, 1]")
            seen[key] = Fraction(n, den)
            prev = key
    except (TypeError, ValueError, KeyError) as exc:
        raise CorruptRecord(f"bad mixture: {exc}") from None
    lcm = math.lcm(*[w.denominator for w in seen.values()])
    if sum([w.numerator * (lcm // w.denominator) for w in seen.values()]) != lcm:
        raise CorruptRecord("mixture weights do not sum to 1")
    return seen


def _strict_decoder():
    # Transcripts hold only integers.  Rejecting floats, NaN and Infinity also
    # makes ``==`` on decoded records match what canonicalising them would
    # conclude (``[1.0, 3] == [1, 3]`` would not be corrupt otherwise), which
    # the consistency check relies on to skip unchanged mixtures.
    return json.JSONDecoder(parse_float=_reject_number, parse_constant=_reject_number).decode


# Fewer bytes than the shortest day record `_parse_transcript` accepts:
# {"mixture":[[[1,1],2],[1,1]]],"outcome":1,"t":1} is 48.
_MIN_DAY_BYTES = 32


class _Differs(Exception):
    """The regenerated transcript and the file differ first on line ``args[0]``."""


def _first_difference(got: bytes, want: bytes) -> int:
    """Index of the first byte where `got` and `want` differ (one may be a prefix)."""
    return next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))


def _regenerate(fh) -> tuple[RunConfig | None, engine.RunResult | None, int]:
    """Re-run the header's config and seed and compare the transcript it writes with `fh`.

    `fh` is the transcript opened in binary mode.  Returns (rc, run, line):
    on a byte match, line is 0 and run is the re-simulated `RunResult`;
    otherwise line is the 1-based number of the first line that differs
    (T + 2 for a file that goes on past its last day) and run is None.  A
    header that does not decode and validate is line 1 with rc None, and
    the strict parse says why.  Only the header is decoded.

    Every day record the strict parse accepts is longer than
    `_MIN_DAY_BYTES`, so a file too short for T of them is reported at line
    2 without re-running its header's config, whose first segment alone
    could be any size.
    """
    try:
        rc = _parse_header(fh.readline().decode("utf-8"), _strict_decoder())
    except (UnicodeDecodeError, CorruptRecord):
        return None, None, 1
    if rc.cfg.T * _MIN_DAY_BYTES > os.fstat(fh.fileno()).st_size - fh.tell():
        return rc, None, 2
    fh.seek(0)
    lines = 0

    def compare(text: str) -> None:
        nonlocal lines
        want = text.encode()
        got = fh.read(len(want))
        if got != want:
            raise _Differs(lines + want.count(b"\n", 0, _first_difference(got, want)) + 1)
        lines += text.count("\n")

    header_line, on_block, on_day = _transcript_writer(rc, compare)
    try:
        compare(header_line)
        run = engine.simulate(
            rc.cfg, make_adversary(rc), rc.seed, mode=rc.mode, on_block=on_block, on_day=on_day,
        )
    except _Differs as exc:
        return rc, None, exc.args[0]
    if fh.read(1):
        return rc, None, lines + 1
    return rc, run, 0


class ParsedTranscript(NamedTuple):
    """What the strict parse of a transcript rebuilt from its lines."""

    rc: RunConfig
    run: engine.RunResult  # the distributional replay of the recorded outcomes
    mismatches: int  # days whose mixture, realized key or law is not the replay's
    realized_tallies: dict  # realized key -> outcome counts (sampled runs)


def _parse_transcript(transcript_path: str) -> ParsedTranscript:
    """Decode every line strictly, replay the outcomes and count inconsistent days.

    Raises `CorruptRecord` on anything `cmd_run` never writes; see the
    module docstring.  Each line is decoded once.
    """
    try:
        fh = open(transcript_path, encoding="utf-8")
    except OSError as exc:
        raise MissingTranscript(f"cannot read {transcript_path} ({exc.strerror})") from None
    decode = _strict_decoder()
    try:
        with fh:
            rc = _parse_header(fh.readline(), decode)
            cfg, sampled = rc.cfg, rc.mode == "sampled"
            d, T = cfg.d, cfg.T
            day_keys = {"t", "outcome", "mixture"}
            if sampled:
                day_keys.add("realized")
            if rc.record_adversary:
                day_keys.add("adv_dist")
            # The replay hands each block's level keys to on_block before it
            # pulls the block's days from `days()`, which checks every
            # recorded mixture and realized key against the block's mixture,
            # and every recorded law against the one the header's adversary
            # plays given those keys, as it decodes the line.  A mixture is
            # canonicalised only when it differs from the previous day's and
            # compared with the expected one only when either side changes;
            # each distinct key fragment, in a mixture, a realized field or a
            # law, is canonicalised once.  Strict decoding makes these
            # shortcuts reach the same verdict as checking every day afresh.
            adversary = make_adversary(rc) if rc.record_adversary else None
            expected: dict = {}
            block_keys: tuple = ()
            mismatches = 0
            realized_tallies: dict = {}  # realized key -> outcome counts

            def on_block(t, level_keys):
                nonlocal expected, block_keys
                expected = dict(forecaster.merge_mixture(t, level_keys, cfg.L).entries)
                block_keys = level_keys

            def days():
                nonlocal mismatches
                prev_mix = object()  # equal to no decoded value
                seen: dict = {}
                checked = None  # the expected mixture mix_ok was computed against
                mix_ok = False
                canonical: dict = {}  # hashable form of a canonical fragment -> its key
                t = 0
                for t, line in enumerate(fh, 1):
                    lineno = t + 1
                    try:
                        rec = decode(line)
                    except (CorruptRecord, ValueError) as exc:
                        raise CorruptRecord(f"line {lineno}: {exc}") from None
                    if type(rec) is not dict or rec.keys() != day_keys:
                        raise CorruptRecord(
                            f"line {lineno}: day record keys must be exactly {sorted(day_keys)}"
                        )
                    # With the keys fixed, any other string on the line is
                    # corrupt anyway, so these words mark a JSON boolean or a
                    # corrupt record.  A bool equals and hashes like 0 or 1,
                    # which the shortcuts below would otherwise let through.
                    if "true" in line or "false" in line:
                        raise CorruptRecord(f"line {lineno}: boolean in day record")
                    day, outcome = rec["t"], rec["outcome"]
                    if type(day) is not int or day != t:
                        raise CorruptRecord(f"line {lineno}: day {day!r} out of order")
                    if t > T:
                        raise CorruptRecord(f"line {lineno}: more than T = {T} day records")
                    if type(outcome) is not int or not 1 <= outcome <= d:
                        raise CorruptRecord(
                            f"line {lineno}: outcome {outcome!r} not an integer in [1, {d}]"
                        )
                    try:
                        mix = rec["mixture"]
                        if mix != prev_mix:
                            seen = _mixture_of(mix, canonical)
                            prev_mix = mix
                            checked = None
                        if checked is not expected:
                            mix_ok = seen == expected
                            checked = expected
                        if sampled:
                            realized = _memo_key(rec["realized"], canonical)
                            counts = realized_tallies.get(realized)
                            if counts is None:
                                counts = realized_tallies[realized] = [0] * d
                            counts[outcome - 1] += 1
                        if adversary is not None:
                            law = _memo_key(rec["adv_dist"], canonical)
                    except CorruptRecord as exc:
                        raise CorruptRecord(f"line {lineno}: {exc}") from None
                    if (
                        not mix_ok
                        or (sampled and realized not in expected)
                        or (adversary is not None and law != adversary.next(t, block_keys))
                    ):
                        mismatches += 1
                    yield outcome
                if t != T:
                    raise CorruptRecord(f"expected {T} day records, found {t}")

            rebuilt = engine.run_from_outcomes(cfg, days(), on_block=on_block)
    except UnicodeDecodeError as exc:
        raise CorruptRecord(f"transcript is not valid UTF-8 ({exc.reason})") from None

    return ParsedTranscript(rc, rebuilt, mismatches, realized_tallies)


def cmd_certify(run_dir: str) -> tuple[CertificateReport, int]:
    """Regenerate, cross-check, and certify a persisted run; exit 0 iff all checks pass."""
    transcript_path = os.path.join(run_dir, TRANSCRIPT_NAME)
    try:
        fh = open(transcript_path, "rb")
    except OSError as exc:
        raise MissingTranscript(f"no readable {TRANSCRIPT_NAME} in {run_dir} ({exc.strerror})") from None
    with fh:
        rc, run, differs_at = _regenerate(fh)
    if differs_at:
        rc, run, mismatches, realized_tallies = _parse_transcript(transcript_path)
        ece_val = engine.ece_of_tallies(realized_tallies) if rc.mode == "sampled" else None
    else:
        mismatches = 0
        ece_val = engine.ece_value(run) if rc.mode == "sampled" else None

    consistency = CheckRow.zero(
        "transcript-consistency", "recorded mixtures vs replayed predictions", mismatches
    )
    recomputed = _metrics_rows(rc, engine.dce_value(run), ece_val)
    try:
        with open(os.path.join(run_dir, METRICS_NAME), "rb") as fh:
            recorded = fh.read()
    except OSError:
        recorded = None
    metrics_check = CheckRow.zero(
        "metrics-consistency",
        f"{METRICS_NAME} vs metrics recomputed from the transcript",
        int(recorded != _csv_text(recomputed).encode()),
    )
    provenance = CheckRow.zero(
        "transcript-provenance",
        "first transcript line that differs from a rerun of its header's config and seed",
        differs_at,
    )
    base = certify_run(run, run_id=rc.run_id)
    report = CertificateReport(
        base.run_id, [consistency, metrics_check, provenance, *base.checks], base.chain
    )
    _write_text(os.path.join(run_dir, CERTIFICATE_JSON), report.to_json())
    _write_text(os.path.join(run_dir, CERTIFICATE_CSV), _csv_text(report.csv_rows()))
    return report, 0 if report.passed else 1


# -- cmd_lowerbound ------------------------------------------------------------

@dataclass(frozen=True)
class LowerBoundReport:
    R: int
    K: int
    forecaster: str
    trials: int
    mean_dce: float
    stderr: float
    eps1_T: float
    passed: bool


def _factor_horizon(T: int) -> tuple[int, int, int]:
    """Smallest H >= 2 with H**L | T; returns (L, H, S)."""
    for H in range(2, T + 1):
        L = 0
        x = T
        while x % H == 0:
            x //= H
            L += 1
        if L >= 1:
            return L, H, T // H**L
    raise ConfigInvalid(f"cannot factor T = {T} as S * H**L with H >= 2")


def cmd_lowerbound(
    R: int, K: int, forecaster: str, trials: int, seed: int, m: int = 1
) -> LowerBoundReport:
    """Monte Carlo DCE of a forecaster against the hard sequence, vs eps_1 * T."""
    seed_in_range(seed)
    if forecaster not in ("truthful", "uniform", "hierarchical"):
        raise InvalidForecaster(f"unknown forecaster {forecaster!r}")
    if trials < 2:
        raise ConfigInvalid(f"need trials >= 2, got {trials}")
    hcfg = HardSeqConfig(R=R, K=K)
    _check_day_budget(hcfg.T)
    fcfg = None
    if forecaster == "hierarchical":
        L, H, S = _factor_horizon(hcfg.T)
        fcfg = ForecastConfig(d=hcfg.d, L=L, H=H, S=S, m=m)
    values = []
    for trial in range(trials):
        tree = sample_tau_tree(hcfg, derive_stream(seed, ROLE_TAU, trial))
        if forecaster == "hierarchical":
            adv = HardSequenceAdversary(hcfg, tree=tree)
            run = engine.simulate(fcfg, adv, seed, trial=trial)
            values.append(engine.dce_value(run))
            continue
        # Each day predicts one key with weight 1, so DCE is the calibration
        # error of the per-key outcome counts.  The truthful key p_t is held
        # as its negated one-hot coordinates: all p_t share D_R and put w on
        # their one-hots, so at the first r where two laws' one-hots differ
        # the smaller coordinate carries the larger first differing
        # numerator, and the handles sort as the keys do.
        # Each day's outcome is one day of the engine's kernel on the
        # trial's outcome stream.
        okey, octr = stream_key(seed, ROLE_OUTCOME, trial), 0
        truthful = forecaster == "truthful"
        tallies: dict[tuple[int, ...], dict[int, int]] = {}
        for t in range(1, hcfg.T + 1):
            hot = day_hot_coordinates(tree, t, hcfg)
            law = hard_law(hcfg, hot)
            octr, _, _, (x,), _ = _kernel_py.sim_days(
                okey, octr, 1, list(accumulate(law.numerators)), law.denominator, hcfg.d,
                0, 0, 1, False, True,
            )
            x -= 1
            counts = tallies.setdefault(tuple([-i for i in hot]) if truthful else (), {})
            counts[x] = counts.get(x, 0) + 1
        if truthful:
            values.append(engine.ece_of_tallies(tallies, lambda h: hard_law(hcfg, [-i for i in h])))
        else:
            uniform_key = uniform(hcfg.d)
            values.append(engine.ece_of_tallies(tallies, lambda h: uniform_key))
    mean = left_sum(values) / trials
    stderr = statistics.stdev(values) / math.sqrt(trials)
    eps1_T = float(EpsSchedule(R)[1]) * hcfg.T
    return LowerBoundReport(
        R=R, K=K, forecaster=forecaster, trials=trials,
        mean_dce=mean, stderr=stderr, eps1_T=eps1_T,
        passed=mean - 3 * stderr >= eps1_T,
    )


# -- cmd_oracle ----------------------------------------------------------------

@dataclass(frozen=True)
class OracleSummary:
    dce_cases: int
    dce_failures: int
    max_dce_diff: float
    ece_cases: int
    ece_failures: int
    passed: bool


def random_transcript(stream: Stream, max_T: int, max_d: int, max_keys_per_day: int = 3) -> Transcript:
    """Random desk-scale transcript with exact rational mixtures."""
    T = 1 + stream.below(max_T)
    d = 2 + stream.below(max_d - 1)
    n_keys = 1 + stream.below(4)
    pool = []
    for _ in range(n_keys):
        units = [stream.below(9) for _ in range(d)]
        if not any(units):
            units[stream.below(d)] = 1
        key = make_rational_dist(units, sum(units))
        if key not in pool:
            pool.append(key)
    days = []
    for t in range(1, T + 1):
        k = 1 + stream.below(min(max_keys_per_day, len(pool)))
        chosen = []
        remaining = list(pool)
        for _ in range(k):
            chosen.append(remaining.pop(stream.below(len(remaining))))
        weights = [1 + stream.below(9) for _ in chosen]
        total = sum(weights)
        entries = tuple(
            (key, Fraction(w, total)) for key, w in sorted(zip(chosen, weights))
        )
        days.append(
            DayRecord(
                t=t,
                mixture=MixtureRecord(t, entries),
                outcome=1 + stream.below(d),
            )
        )
    return Transcript(d, days)


def cmd_oracle(trials: int, max_T: int, max_d: int, seed: int, ece_cases: int = 5,
               ece_trials: int = 2000) -> OracleSummary:
    """Randomized equivalence checks: dce vs its brute-force oracle, ECE vs enumeration."""
    seed_in_range(seed)
    if trials < 1:
        raise ConfigInvalid(f"need trials >= 1, got {trials}")
    if not 2 <= max_d <= 6:
        raise ConfigInvalid(f"max_d must be in [2, 6], got {max_d}")
    if not 1 <= max_T <= 64:
        raise ConfigInvalid(f"max_T must be in [1, 64], got {max_T}")
    gen = derive_stream(seed, ROLE_GENERIC)
    dce_failures = 0
    max_diff = 0.0
    for _ in range(trials):
        tr = random_transcript(gen, max_T, max_d)
        diff = abs(dce(tr) - oracle_dce_direct(tr))
        max_diff = max(max_diff, diff)
        if diff > 1e-12:
            dce_failures += 1
    ece_failures = 0
    for case in range(ece_cases):
        tr = random_transcript(gen, min(10, max_T), 2, max_keys_per_day=2)
        exact = exhaustive_ece(tr)

        def factory(trial, _tr=tr, _case=case):
            stream = Stream(stream_key(seed + 1 + _case, ROLE_LEVEL, trial))
            days = []
            for rec in _tr.days:
                key = sample_prediction(rec.mixture, stream)
                days.append(
                    DayRecord(rec.t, rec.mixture, rec.outcome, realized=key)
                )
            return metrics.ece_trajectory(Transcript(_tr.d, days))

        est = ece_estimate(factory, ece_trials)
        tol = 3 * est.stderr if est.stderr > 0 else 1e-12
        if abs(est.mean - exact) > tol:
            ece_failures += 1
    return OracleSummary(
        dce_cases=trials,
        dce_failures=dce_failures,
        max_dce_diff=max_diff,
        ece_cases=ece_cases,
        ece_failures=ece_failures,
        passed=dce_failures == 0 and ece_failures == 0,
    )


# -- cmd_concentration ---------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationArm:
    S: int
    T: int
    mean_gap_per_day: float
    stderr: float


@dataclass(frozen=True)
class ConcentrationReport:
    low: ConcentrationArm
    high: ConcentrationArm
    separation_sigma: float
    decreasing_pass: bool
    bound: float
    bound_pass: bool
    trials: int

    @property
    def passed(self) -> bool:
        return self.decreasing_pass and self.bound_pass


def concentration_arm(cfg: ForecastConfig, q: RationalDist, seed: int, trials: int) -> ConcentrationArm:
    """Mean per-day |ECE - DCE| over seeded sampled runs sharing outcomes per trial."""
    gaps = []
    adv = IIDAdversary(q)
    for trial in range(trials):
        run = engine.simulate(cfg, adv, seed, mode="sampled", trial=trial)
        gap = abs(engine.ece_value(run) - engine.dce_value(run)) / cfg.T
        gaps.append(gap)
    mean = left_sum(gaps) / trials
    stderr = statistics.stdev(gaps) / math.sqrt(trials)
    return ConcentrationArm(S=cfg.S, T=cfg.T, mean_gap_per_day=mean, stderr=stderr)


def cmd_concentration(config_path: str, trials: int, seed: int) -> ConcentrationReport:
    """Sampling-vs-mixture gap shrinks with S; the mean gap obeys the 5*eps budget."""
    kv = parse_config_file(config_path, CONCENTRATION_KEYS)
    if "seed" in kv:
        # --seed wins, but a malformed key is still an error
        seed_in_range(_int_of(kv, "seed"))
    seed_in_range(seed)
    if trials < 2:
        raise ConfigInvalid(f"need trials >= 2, got {trials}")
    kind = kv.get("adversary", "iid")
    if kind == "adaptive_argmin":
        raise AdaptiveAdversaryUnsupported(
            "concentration compares ECE and DCE on a shared outcome law; "
            "adaptive adversaries couple outcomes to the sampled predictions"
        )
    if kind != "iid":
        raise ConfigInvalid("concentration supports the iid adversary only")
    d = _int_of(kv, "d")
    base = dict(d=d, L=_int_of(kv, "L"), H=_int_of(kv, "H"), m=_int_of(kv, "m"))
    s_low, s_high = _int_of(kv, "S_low"), _int_of(kv, "S_high")
    if s_low >= s_high:
        raise ConfigInvalid(f"S_low must be < S_high, got {s_low} >= {s_high}")
    q = _parse_iid_q(kv["iid_q"], d) if "iid_q" in kv else uniform(d)
    low_cfg, high_cfg = ForecastConfig(S=s_low, **base), ForecastConfig(S=s_high, **base)
    _check_day_budget(high_cfg.T)  # the longer arm, as S_low < S_high
    low = concentration_arm(low_cfg, q, seed, trials)
    high = concentration_arm(high_cfg, q, seed, trials)
    sep = math.sqrt(low.stderr**2 + high.stderr**2)
    decreasing = low.mean_gap_per_day - high.mean_gap_per_day >= 3 * sep
    bound = 5.0 / base["m"]
    bound_ok = low.mean_gap_per_day <= bound and high.mean_gap_per_day <= bound
    return ConcentrationReport(
        low=low, high=high,
        separation_sigma=sep, decreasing_pass=decreasing,
        bound=bound, bound_pass=bound_ok, trials=trials,
    )
