"""Block-structured simulation of complete forecaster runs.

Every level's prediction is frozen within leaf blocks of S consecutive days
(the finest iteration), so a run advances block by block: exact-rational
bookkeeping (predictions, canonical keys, calibration tallies) happens only
at iteration boundaries, while the per-day work (outcome draws and, in
sampled mode, the uniform sub-forecaster draw) is delegated to the
`_kernel_py` day-simulation kernel, which handles any denominator.

A block's forecast is its tuple of level keys (each level's prediction,
level 1 first); a simulation or replay builds no mixture.  Adversaries see
those keys through `next(t, level_keys)`.  A block's days form segments of
one outcome law each, simulated by one kernel call: one S-day segment when
the adversary is constant within a block, otherwise S one-day segments; a
replay's block is one segment of its S recorded outcomes, with no law.  Each
segment's day counts go into the leaf counts and totals.  In sampled mode
the kernel also returns what it drew, each day's outcome and level, and the
engine adds each drawn day to the ECE tally of that level's key; a
point-mass segment adds its per-level day counts at its one outcome.  A
key's ECE vector appears on the first day the key is realized.

Randomness contract: streams are derived per (seed, role, trial); outcome
draws and level draws use disjoint streams; a day whose outcome law is a
point mass (denominator 1, e.g. the adaptive argmin adversary) consumes no
outcome draw.  Together with the counter-based generator this makes every
run a pure function of (config, adversary, seed, trial, mode).

The aggregate RunResult carries everything the metrics and certificate
modules need: per-leaf outcome counts, the key of every level iteration,
and exact integer tallies for DCE/ECE.  It holds nothing per day: per-day
outcomes and levels leave the engine only through the `on_day` sink.  A
distributional run without one asks the kernel for counts only; a sampled
run folds each segment's draws and keeps nothing per day.

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
from itertools import accumulate, islice
from typing import Callable, Iterable

from . import _kernel_py
from .errors import ConfigInvalid
from .forecaster import (
    ForecastConfig,
    MixtureRecord,
    merge_mixture,
    smoothed_prediction,
)
from .metrics import DayRecord, Transcript
from .rng import ROLE_LEVEL, ROLE_OUTCOME, stream_key
from .simplex import PredictionKey

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

    def block_key_ids(self, b: int) -> tuple[int, ...]:
        """Key id of each level's prediction during leaf block b (0-based)."""
        cfg = self.cfg
        return tuple(
            self.level_iter_keys[l][b // cfg.H ** (cfg.L - 1 - l)]
            for l in range(cfg.L)
        )


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

    okey, octr = stream_key(seed, ROLE_OUTCOME, trial), 0
    lkey, lctr = stream_key(seed, ROLE_LEVEL, trial), 0

    per_iter = [H ** (L - l) for l in range(1, L + 1)]  # blocks per level-l iteration
    per_interval = [H ** (L - l + 1) for l in range(1, L + 1)]
    t_level = [cfg.period(l) for l in range(1, L + 1)]

    totals = [0] * d
    snap_interval = [[0] * d for _ in range(L)]
    snap_iter = [[0] * d for _ in range(L)]
    h = [1] * L
    cur_kid = [-1] * L

    keys: list[PredictionKey] = []
    key_index: dict[PredictionKey, int] = {}
    level_iter_keys: list[list[int]] = [[] for _ in range(L)]
    dce_tallies: dict[int, list[int]] = {}
    ece_tallies: dict[int, list[int]] = defaultdict(lambda: [0] * d)
    leaf_counts: list[list[int]] = []

    def intern(key: PredictionKey) -> int:
        kid = key_index.get(key)
        if kid is None:
            kid = key_index[key] = len(keys)
            keys.append(key)
        return kid

    def flush_iteration(li: int) -> None:
        rec = dce_tallies.get(cur_kid[li])
        if rec is None:
            rec = dce_tallies[cur_kid[li]] = [0] * (d + 1)
        rec[0] += t_level[li]
        snap = snap_iter[li]
        for i in range(d):
            rec[1 + i] += totals[i] - snap[i]

    for b in range(n_blocks):
        for li in range(L):
            if b % per_iter[li] == 0:
                if b > 0:
                    flush_iteration(li)
                if b % per_interval[li] == 0:
                    snap_interval[li] = totals.copy()
                    h[li] = 1
                else:
                    h[li] += 1
                snap = snap_interval[li]
                pred = smoothed_prediction(
                    [totals[i] - snap[i] for i in range(d)], h[li], t_level[li], d, m
                )
                kid = intern(pred)
                cur_kid[li] = kid
                level_iter_keys[li].append(kid)
                snap_iter[li] = totals.copy()

        t_first = b * S + 1
        level_keys = tuple(keys[k] for k in cur_kid)
        if on_block is not None:
            on_block(t_first, level_keys)

        # --- the block's days, in segments of one outcome law each ----------
        if replaying:
            laws, n = (None,), S
        elif adversary.constant_within_block:
            laws, n = (adversary.next(t_first, level_keys),), S
        else:
            laws = [adversary.next(t, level_keys) for t in range(t_first, t_first + S)]
            n = 1
        leaf = [0] * d
        t = t_first
        for law in laws:
            lv_seg = None
            if law is None:
                # Pulled only now, after on_block has seen the block's keys.
                out_seg = list(islice(replay_outcomes, S))
                if len(out_seg) != S:
                    raise ConfigInvalid(f"replay needs {T} outcomes, got {b * S + len(out_seg)}")
                counts = [0] * d
                for x in out_seg:
                    counts[x - 1] += 1
            elif law.d != d:
                raise ConfigInvalid(f"adversary dimension {law.d} != forecaster d {d}")
            elif law.denominator == 1:
                # a point mass draws no outcome, only the levels
                x = law.numerators.index(1)
                counts = [0] * d
                counts[x] = n
                out_seg = [x + 1] * n if need_outcomes else None
                if sampled:
                    lctr, lv_counts, lv_seg = _kernel_py.draw_level_counts(
                        lkey, lctr, n, L, need_outcomes
                    )
                    for v, c in enumerate(lv_counts):
                        if c:
                            ece_tallies[cur_kid[v]][x] += c
            else:
                octr, lctr, counts, out_seg, lv_seg = _kernel_py.sim_days(
                    okey, octr, n, list(accumulate(law.numerators)), law.denominator, d,
                    lkey, lctr, L, sampled, need_outcomes,
                )
                if sampled:
                    for v, x in zip(lv_seg, out_seg):
                        ece_tallies[cur_kid[v]][x - 1] += 1
            for i in range(d):
                leaf[i] += counts[i]
            if on_day is not None:
                on_day(t, out_seg, lv_seg, law)
            t += n
        leaf_counts.append(leaf)
        for i in range(d):
            totals[i] += leaf[i]

    if replaying and next(replay_outcomes, None) is not None:
        raise ConfigInvalid(f"replay needs {T} outcomes, got more")
    for li in range(L):
        flush_iteration(li)

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


def _tally_abs_sum(tallies: Iterable[tuple[PredictionKey, list[int]]], weight_den: int) -> float:
    """Sum over keys, in key order, of |key * n_days - outcome counts| / weight_den."""
    total = 0.0
    for (nums, den), rec in sorted(tallies):
        n_days, vec = rec[0], rec[1:]
        for i, nu in enumerate(nums):
            total += abs(nu * n_days - den * vec[i]) / (den * weight_den)
    return total


def dce_value(run: RunResult) -> float:
    """Exact distributional calibration error; equals metrics.dce on the expansion."""
    return _tally_abs_sum(
        ((run.keys[kid], rec) for kid, rec in run.dce_tallies.items()), run.cfg.L
    )


def ece_of_tallies(tallies: dict[PredictionKey, list[int]]) -> float:
    """Trajectory calibration error from per-key outcome counts of the realized keys."""
    return _tally_abs_sum(((key, [sum(vec), *vec]) for key, vec in tallies.items()), 1)


def ece_value(run: RunResult) -> float:
    """Trajectory calibration error of the sampled predictions."""
    if run.ece_tallies is None:
        raise ConfigInvalid("run was not simulated in sampled mode")
    return ece_of_tallies({run.keys[kid]: vec for kid, vec in run.ece_tallies.items()})


def expand_to_transcript(
    run: RunResult, outcomes: list[int], levels: list[int] | None = None
) -> Transcript:
    """Materialize per-day records from the lists an `on_day` sink recorded.

    `outcomes` holds the run's T outcomes and `levels`, in sampled mode, each
    day's realized level index.  For tests and desk-scale inspection only.
    """
    cfg = run.cfg
    if len(outcomes) != cfg.T:
        raise ConfigInvalid(f"expansion needs {cfg.T} outcomes, got {len(outcomes)}")
    S = cfg.S
    days: list[DayRecord] = []
    cached_b = -1
    mix = None
    kid_by_level: tuple[int, ...] = ()
    for t in range(1, cfg.T + 1):
        b = (t - 1) // S
        if b != cached_b:
            cached_b = b
            kid_by_level = run.block_key_ids(b)
            mix = merge_mixture(t, (run.keys[kid] for kid in kid_by_level), cfg.L).entries
        realized = None
        if levels is not None:
            realized = run.keys[kid_by_level[levels[t - 1]]]
        days.append(
            DayRecord(
                t=t,
                mixture=MixtureRecord(t, mix),
                outcome=outcomes[t - 1],
                realized=realized,
            )
        )
    return Transcript(cfg.d, days)
