"""Block-structured simulation of complete forecaster runs.

Every level's prediction is frozen within leaf blocks of S consecutive days
(the finest iteration), so a run advances block by block: exact-rational
bookkeeping (predictions, canonical keys, calibration tallies) happens only
at iteration boundaries, while the per-day work (outcome draws and, in
sampled mode, the uniform sub-forecaster draw) is delegated to the
`_kernel_py` day-simulation kernel, which handles any denominator.

A block's forecast is its tuple of level keys (each level's prediction,
level 1 first); a simulation or replay builds no mixture.  Adversaries see
those keys through `next(t, level_keys)`.  An adversary that declares
`keys_only` (its law reads the level keys alone) is asked once per
distinct forecast: for one `simulate` call only, the engine maps the
block's tuple of level key ids to the law and its kernel input (the point
mass's index or the cumulative numerators).  Each distinct law is checked
against d and prepared once, and forecasts with equal laws share it.  The
maps start empty on every run, so an adversary object reused across runs
is asked afresh in each.  Any other adversary is asked every day.  The
tuple of level keys is built only for `on_block`, a memo miss or such an
adversary.

A block's days form segments of one outcome law each, simulated by one
kernel call: one S-day segment for a keys-only adversary, otherwise S
one-day segments; a replay's block is one segment of its S recorded
outcomes, with no law.  Each segment's day counts go into the block's leaf
counts.  In sampled mode a segment's n days take the next n levels of the
run's level stream, and the engine adds each day to the ECE tally of that
level's key, at the day's outcome (returned by the kernel, or a point
mass's one outcome).  A key's ECE vector appears on the first day the key
is realized; the order of `ece_tallies` is unspecified, and every reader
sorts it.

Predictions are built from count supports, {coordinate: count} maps of the
nonzero counts, so the bookkeeping costs what the days touched, not d.
Each level keeps two: `prefix`, the completed iterations of its current
interval, and `delta`, its current iteration.  A block's nonzero leaf
counts become the deepest level's delta.  The levels that roll over at
block b are a suffix, those whose iteration length in blocks divides b;
they are flushed deepest first.  A flush adds the level's delta to its
key's DCE tally and to its parent's delta, whose iteration holds these
days, then to its own prefix, or empties the prefix when a new interval
starts.  Each rolled level's new key is `smoothed_prediction` of its
prefix, a dense `PredictionKey`.  That key is a pure function of (level,
h, prefix support), and in a deep tree most rolled levels see an input
they have seen before, so the engine maps each distinct input straight to
its key id: `smoothed_prediction`, and the hash of the dense key that
interns it, run once per distinct input.

Randomness contract: streams are derived per (seed, role, trial), and
`simulate` refuses a seed or trial outside [0, 2**64), which `stream_key`
would read mod 2**64; outcome draws and level draws use disjoint streams; a day whose outcome law is a
point mass (denominator 1, e.g. the adaptive argmin adversary) consumes no
outcome draw.  A sampled run's realized levels are one stream per run:
day t's level is the t-th `below(L)` of the stream
`stream_key(seed, ROLE_LEVEL, trial)`, whatever law the day follows.  The
engine draws them ahead through `draw_level_counts` in batches of up to
`CHUNK` days, never past day T, so a run draws exactly T levels and its
buffer holds fewer than S + CHUNK.
Together with the counter-based generator this makes every run a pure
function of (config, adversary, seed, trial, mode).

The aggregate RunResult carries everything the metrics and certificate
modules need: per-leaf outcome counts, the key of every level iteration,
and exact integer tallies for DCE/ECE.  It holds nothing per day: per-day
outcomes and levels leave the engine only through the `on_day` sink.  A
distributional run without one asks the kernel for counts only; a sampled
run asks `sim_days` for each drawn segment's outcomes, folds them with the
segment's levels and keeps nothing else per day.

Sinks: at the start of every block, `on_block(t_first, level_keys)`
receives the block's first day and its level keys, fixed for the S days
(a sink that writes or checks the day's mixture builds it with
`forecaster.merge_mixture`); `on_day(t_first, outcomes, levels, law)` then
sees each of the block's segments once: its first day, its outcomes, the
realized level index of each day (None in distributional mode) and the
outcome law the segment was drawn from.
`run_from_outcomes` replays a recorded outcome history from any iterable,
pulling S outcomes per block only after `on_block` has seen that block's
keys, so a caller can check a transcript line by line as the replay
consumes it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate, compress, islice
from operator import add
from typing import Callable, Iterable

from . import _kernel_py
from ._kernel_py import CHUNK
from .errors import ConfigInvalid
from .forecaster import ForecastConfig, smoothed_prediction
from .rng import MASK64, ROLE_LEVEL, ROLE_OUTCOME, seed_in_range, stream_key
from .simplex import PredictionKey

# The engine builds no mixture; merge_mixture stays bound here so that
# perfbench/tracer.py can patch it by name.
from .forecaster import merge_mixture  # noqa: F401


@dataclass
class RunResult:
    """Aggregate view of one completed run."""

    cfg: ForecastConfig
    seed: int
    trial: int
    mode: str
    adversary_name: str
    keys: list[PredictionKey]
    level_iter_keys: list[list[int]]
    leaf_counts: list[list[int]]
    dce_tallies: dict[int, list[int]]
    ece_tallies: dict[int, list[int]] | None

    @property
    def T(self) -> int:
        return self.cfg.T


def _drive(
    cfg: ForecastConfig,
    seed: int,
    trial: int,
    mode: str,
    adversary=None,
    replay_outcomes: Iterable[int] | None = None,
    on_block: Callable | None = None,
    on_day: Callable | None = None,
) -> RunResult:
    if mode not in ("distributional", "sampled"):
        raise ConfigInvalid(f"mode must be distributional or sampled, got {mode!r}")
    sampled = mode == "sampled"
    d, L, H, S, m = cfg.d, cfg.L, cfg.H, cfg.S, cfg.m
    T = cfg.T
    n_blocks = H**L
    replaying = replay_outcomes is not None
    if replaying:
        replay_outcomes = iter(replay_outcomes)
    need_outcomes = on_day is not None
    record_outcomes = sampled or need_outcomes

    if not 0 <= trial <= MASK64:
        raise ConfigInvalid(f"trial must be in [0, 2**64), got {trial}")
    okey, octr = stream_key(seed_in_range(seed), ROLE_OUTCOME, trial), 0
    lkey, lctr = stream_key(seed, ROLE_LEVEL, trial), 0
    # The run's level stream, drawn ahead in batches: levels[lpos:] are
    # drawn and not yet taken, ldrawn is how many days have a level.
    levels: list[int] = []
    lpos = ldrawn = 0

    per_iter = [H ** (L - l) for l in range(1, L + 1)]  # blocks per level-l iteration
    per_interval = [H ** (L - l + 1) for l in range(1, L + 1)]
    t_level = [cfg.period(l) for l in range(1, L + 1)]

    # Count supports, {0-based coordinate: count}: per level, the completed
    # iterations of the current interval and the current iteration.
    prefix: list[dict[int, int]] = [{} for _ in range(L)]
    delta: list[dict[int, int]] = [{} for _ in range(L)]
    h = [1] * L
    cur_kid = [-1] * L

    keys: list[PredictionKey] = []
    key_index: dict[PredictionKey, int] = {}
    # A level's prediction is a pure function of (level, h, prefix support).
    kid_of: dict[tuple[int, int, frozenset], int] = {}
    level_iter_keys: list[list[int]] = [[] for _ in range(L)]
    dce_tallies: dict[int, list[int]] = {}
    ece_tallies: dict[int, list[int]] = defaultdict(lambda: [0] * d)
    leaf_counts: list[list[int]] = []

    # An adversary whose law reads the level keys alone is asked once per
    # distinct forecast (tuple of level key ids) of this run, and its law
    # plays for the whole block; forecasts that get equal laws share one
    # prepared segment.  Any other adversary is asked every day.  Replays
    # read S recorded outcomes per block.
    keys_only = not replaying and getattr(adversary, "keys_only", False)
    n = S if replaying or keys_only else 1
    seg_of: dict[tuple[int, ...], tuple] = {}
    seg_of_law: dict[PredictionKey, tuple] = {}

    def prepare(law):
        """(law, point-mass index or None, cumulative numerators or None)."""
        if law.d != d:
            raise ConfigInvalid(f"adversary dimension {law.d} != forecaster d {d}")
        if law.denominator == 1:
            return law, law.numerators.index(1), None
        return law, None, list(accumulate(law.numerators))

    def intern(key: PredictionKey) -> int:
        kid = key_index.get(key)
        if kid is None:
            kid = key_index[key] = len(keys)
            keys.append(key)
        return kid

    def flush_iteration(li: int, interval_ends: bool) -> None:
        """Close level li's iteration; its parent's iteration holds its days."""
        rec = dce_tallies.get(cur_kid[li])
        if rec is None:
            rec = dce_tallies[cur_kid[li]] = [0] * (d + 1)
        rec[0] += t_level[li]
        done = delta[li]
        delta[li] = {}
        for i, c in done.items():
            rec[1 + i] += c
        if li:
            up = delta[li - 1]
            for i, c in done.items():
                up[i] = up.get(i, 0) + c
        if interval_ends:
            prefix[li] = {}
            h[li] = 1
        else:
            into = prefix[li]
            if into:
                for i, c in done.items():
                    into[i] = into.get(i, 0) + c
            else:
                prefix[li] = done  # no one else holds it now
            h[li] += 1

    for b in range(n_blocks):
        # Levels li with b % per_iter[li] == 0 roll over: a suffix of the
        # levels, as per_iter[li - 1] is a multiple of per_iter[li].
        first = L - 1
        while first and b % per_iter[first - 1] == 0:
            first -= 1
        if b > 0:
            for li in range(L - 1, first - 1, -1):
                flush_iteration(li, b % per_interval[li] == 0)
        for li in range(first, L):
            given = (li, h[li], frozenset(prefix[li].items()))
            kid = kid_of.get(given)
            if kid is None:
                kid = kid_of[given] = intern(
                    smoothed_prediction(prefix[li], h[li], t_level[li], d, m)
                )
            cur_kid[li] = kid
            level_iter_keys[li].append(kid)

        t_first = b * S + 1
        level_keys = None
        if on_block is not None:
            level_keys = tuple(keys[k] for k in cur_kid)
            on_block(t_first, level_keys)

        # --- the block's days, in segments of one outcome law each ----------
        if replaying:
            segs = ((None, None, None),)
        elif keys_only:
            forecast = tuple(cur_kid)
            seg = seg_of.get(forecast)
            if seg is None:
                if level_keys is None:
                    level_keys = tuple(keys[k] for k in cur_kid)
                law = adversary.next(t_first, level_keys)
                seg = seg_of_law.get(law)
                if seg is None:
                    seg = seg_of_law[law] = prepare(law)
                seg_of[forecast] = seg
            segs = (seg,)
        else:
            if level_keys is None:
                level_keys = tuple(keys[k] for k in cur_kid)
            laws = [adversary.next(t, level_keys) for t in range(t_first, t_first + S)]
            segs = map(prepare, laws)  # each law checked as its segment starts
        leaf = None
        t = t_first
        for law, mass_at, cum in segs:
            lv_seg = None
            if law is None:
                # Pulled only now, after on_block has seen the block's keys.
                out_seg = list(islice(replay_outcomes, S))
                if len(out_seg) != S:
                    raise ConfigInvalid(f"replay needs {T} outcomes, got {b * S + len(out_seg)}")
                counts = [0] * d
                for x in out_seg:
                    if type(x) is not int or not 1 <= x <= d:
                        raise ConfigInvalid(f"replay outcome {x!r} is not an integer in [1, {d}]")
                    counts[x - 1] += 1
            else:
                if sampled:
                    if len(levels) - lpos < n:
                        # Refill: at most CHUNK days ahead, never past day T.
                        levels = levels[lpos:]
                        k = max(n - len(levels), min(CHUNK, T - ldrawn))
                        lctr, more = _kernel_py.draw_level_counts(lkey, lctr, k, L)
                        levels += more
                        lpos, ldrawn = 0, ldrawn + k
                    lv_seg = levels[lpos : lpos + n]
                    lpos += n
                if cum is None:
                    # a point mass draws no outcome
                    counts = [0] * d
                    counts[mass_at] = n
                    out_seg = [mass_at + 1] * n if need_outcomes else None
                    if sampled:
                        for v in lv_seg:
                            ece_tallies[cur_kid[v]][mass_at] += 1
                else:
                    octr, _, counts, out_seg, _ = _kernel_py.sim_days(
                        okey, octr, n, cum, law.denominator, d,
                        lkey, lctr, L, False, record_outcomes,
                    )
                    if sampled:
                        for v, x in zip(lv_seg, out_seg):
                            ece_tallies[cur_kid[v]][x - 1] += 1
            leaf = counts if leaf is None else list(map(add, leaf, counts))
            if on_day is not None:
                on_day(t, out_seg, lv_seg, law)
            t += n
        leaf_counts.append(leaf)
        delta[L - 1] = dict(zip(compress(range(d), leaf), filter(None, leaf)))

    if replaying and next(replay_outcomes, None) is not None:
        raise ConfigInvalid(f"replay needs {T} outcomes, got more")
    for li in range(L - 1, -1, -1):
        flush_iteration(li, True)

    return RunResult(
        cfg=cfg,
        seed=seed,
        trial=trial,
        mode=mode,
        adversary_name=adversary.name if adversary is not None else "replay",
        keys=keys,
        level_iter_keys=level_iter_keys,
        leaf_counts=leaf_counts,
        dce_tallies=dce_tallies,
        ece_tallies=dict(ece_tallies) if sampled else None,
    )


def simulate(
    cfg: ForecastConfig,
    adversary,
    seed: int,
    mode: str = "distributional",
    trial: int = 0,
    on_block: Callable | None = None,
    on_day: Callable | None = None,
) -> RunResult:
    """Run the hierarchical forecaster against an adversary for T days."""
    return _drive(
        cfg,
        seed,
        trial,
        mode,
        adversary=adversary,
        on_block=on_block,
        on_day=on_day,
    )


def run_from_outcomes(
    cfg: ForecastConfig,
    outcomes: Iterable[int],
    on_block: Callable | None = None,
) -> RunResult:
    """Rebuild the distributional run implied by a raw outcome history (no randomness).

    `outcomes` may be any iterable, such as a generator decoding a transcript;
    it is consumed S days at a time, block b's days only after `on_block` has
    seen block b's level keys.  Fewer or more than T outcomes raise
    ConfigInvalid.
    """
    return _drive(
        cfg,
        seed=0,
        trial=0,
        mode="distributional",
        replay_outcomes=outcomes,
        on_block=on_block,
    )


def _tally_abs_sum(rows: Iterable[tuple[PredictionKey, list[int]]], weight_den: int) -> float:
    """Sum of |key * n_days - outcome counts| / weight_den over rows (key, [n_days, *counts]).

    The rows are taken in the order given; each adds its d terms in
    coordinate order, left to right.
    """
    total = 0.0
    for (nums, den), rec in rows:
        n_days = rec[0]
        dw = den * weight_den
        for nu, c in zip(nums, islice(rec, 1, None)):
            total += abs(nu * n_days - den * c) / dw
    return total


def dce_value(run: RunResult) -> float:
    """Exact distributional calibration error; equals metrics.dce on the expansion."""
    return _tally_abs_sum(
        sorted((run.keys[kid], rec) for kid, rec in run.dce_tallies.items()), run.cfg.L
    )


def ece_of_tallies(tallies: dict, key_of: Callable | None = None) -> float:
    """Trajectory calibration error from per-key outcome counts of the realized keys.

    `tallies` maps each realized key to its d outcome counts.  With
    `key_of`, it maps a handle to a {0-based coordinate: count} map
    instead: handles must sort as their keys `key_of(handle)` do, and each
    key and its d counts are built only when the ordered sum reaches them.
    """
    if key_of is None:
        rows = sorted((key, [sum(vec), *vec]) for key, vec in tallies.items())
    else:
        rows = (_dense_row(key_of(handle), tallies[handle]) for handle in sorted(tallies))
    return _tally_abs_sum(rows, 1)


def _dense_row(key: PredictionKey, counts: dict[int, int]) -> tuple[PredictionKey, list[int]]:
    rec = [sum(counts.values())] + [0] * key.d
    for i, c in counts.items():
        rec[1 + i] = c
    return key, rec


def ece_value(run: RunResult) -> float:
    """Trajectory calibration error of the sampled predictions."""
    if run.ece_tallies is None:
        raise ConfigInvalid("run was not simulated in sampled mode")
    return ece_of_tallies({run.keys[kid]: vec for kid, vec in run.ece_tallies.items()})
