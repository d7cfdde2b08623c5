"""Day-by-day reference implementations the tests check the library against.

None of this runs in `hicalib` itself: the engine simulates block by block
and the kernel draws every outcome.  These are the straightforward
versions, one day or one record at a time, kept so that tests can compare
the optimised code with an independent computation:

- `HierarchicalForecaster` recomputes each level's prediction after every
  day from dense counts (`LevelState`, `predict_level`); the engine's
  mixtures must equal its own, day by day;
- `interval_of` gives a day's mixed-radix iteration coordinates;
- `expand_to_transcript` turns the lists an `on_day` sink recorded into
  per-day `DayRecord`s, for `metrics.dce` and its brute-force oracle;
  `block_key_ids` gives the level keys of one leaf block of a `RunResult`;
- `dce_restricted` is DCE over a subset of days, keys and coordinates;
- `sample_outcome` draws one outcome by `Stream.below` and a linear scan,
  the draw the day kernel must reproduce;
- `tuple_to_day` inverts `adversary.day_tuple`, and the two `export_*`
  functions write a hard sequence and its tau tree as JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from hicalib.adversary import HardSeqConfig, TauTree, day_distribution, day_tuple
from hicalib.engine import RunResult
from hicalib.errors import ConfigInvalid, MissingMixture, OutOfOrderDay, OutOfRange
from hicalib.forecaster import ForecastConfig, MixtureRecord, merge_mixture, smoothed_prediction
from hicalib.metrics import DayRecord, Transcript
from hicalib.rng import Stream
from hicalib.simplex import PredictionKey, RationalDist, l1_distance_exact


# -- forecaster ----------------------------------------------------------------

def interval_of(t: int, level: int, cfg: ForecastConfig) -> tuple[int, ...]:
    """Mixed-radix coordinates (h_1, ..., h_level) of day t, each in [1, H].

    h_r = floor((t-1) / T_r) mod H + 1; the prefix of length l locates the
    level-l iteration (equivalently the level-(l+1) interval) containing t.
    """
    if not 1 <= level <= cfg.L:
        raise OutOfRange(f"level {level} outside [1, {cfg.L}]")
    if not 1 <= t <= cfg.T:
        raise OutOfRange(f"day {t} outside [1, {cfg.T}]")
    return tuple(
        ((t - 1) // cfg.period(r)) % cfg.H + 1 for r in range(1, level + 1)
    )


@dataclass
class LevelState:
    """One sub-forecaster's mutable bookkeeping within its current interval."""

    level: int
    counts: list[int]
    pending: list[int]
    h: int
    prediction: RationalDist


def predict_level(state: LevelState, cfg: ForecastConfig) -> RationalDist:
    """Recompute the level's current prediction from its completed-iteration counts."""
    return smoothed_prediction(
        state.counts, state.h, cfg.period(state.level), cfg.d, cfg.m
    )


class HierarchicalForecaster:
    """Day-by-day reference implementation (the engine must agree with it exactly)."""

    def __init__(self, cfg: ForecastConfig):
        self.cfg = cfg
        u = smoothed_prediction([0] * cfg.d, 1, cfg.period(1), cfg.d, cfg.m)
        # Eq. at h=1 is the pure smoothing term: uniform at every level.
        self.states = [
            LevelState(l, [0] * cfg.d, [0] * cfg.d, 1, u) for l in range(1, cfg.L + 1)
        ]
        self._day = 1

    def level_state(self, level: int) -> LevelState:
        return self.states[level - 1]

    def mixture(self) -> MixtureRecord:
        """The prediction distribution q_t for the upcoming day."""
        return merge_mixture(
            self._day, (st.prediction for st in self.states), self.cfg.L
        )

    def observe(self, outcome: int, t: int | None = None) -> None:
        """Consume day t's outcome; rolls iteration/interval boundaries after t."""
        cfg = self.cfg
        if self._day > cfg.T:
            raise OutOfRange(f"horizon T = {cfg.T} already consumed")
        if t is not None and t != self._day:
            raise OutOfOrderDay(f"expected day {self._day}, got {t}")
        if not 1 <= outcome <= cfg.d:
            raise OutOfRange(f"outcome {outcome} outside [1, {cfg.d}]")
        day = self._day
        self._day += 1
        for st in self.states:
            st.pending[outcome - 1] += 1
            t_level = cfg.period(st.level)
            if day % t_level == 0:  # level's iteration ends after this day
                if day % cfg.period(st.level - 1) == 0:  # enclosing interval ends
                    st.counts = [0] * cfg.d
                    st.h = 1
                else:
                    st.counts = [c + p for c, p in zip(st.counts, st.pending)]
                    st.h += 1
                st.pending = [0] * cfg.d
                st.prediction = predict_level(st, cfg)


# -- engine --------------------------------------------------------------------

def block_key_ids(run: RunResult, b: int) -> tuple[int, ...]:
    """Key id of each level's prediction during leaf block b (0-based)."""
    cfg = run.cfg
    return tuple(
        run.level_iter_keys[l][b // cfg.H ** (cfg.L - 1 - l)]
        for l in range(cfg.L)
    )


def expand_to_transcript(
    run: RunResult, outcomes: list[int], levels: list[int] | None = None
) -> Transcript:
    """Materialize per-day records from the lists an `on_day` sink recorded.

    `outcomes` holds the run's T outcomes and `levels`, in sampled mode, each
    day's realized level index.
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
            kid_by_level = block_key_ids(run, b)
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


# -- metrics -------------------------------------------------------------------

@dataclass(frozen=True)
class RestrictionSpec:
    """Restrict DCE to a day set I, prediction set P, and coordinate set D (1-based)."""

    days: frozenset[int]
    keys: frozenset[PredictionKey]
    coords: frozenset[int]


def dce_restricted(tr: Transcript, spec: RestrictionSpec) -> float:
    """DCE limited to spec.days x spec.keys x spec.coords; 0 on empty sets."""
    if not spec.days or not spec.keys or not spec.coords:
        return 0.0
    acc: dict[PredictionKey, dict[int, Fraction]] = {
        k: {i: Fraction(0) for i in spec.coords} for k in spec.keys
    }
    for rec in tr.days:
        if rec.t not in spec.days:
            continue
        if rec.mixture is None:
            raise MissingMixture(f"day {rec.t} has no mixture")
        x = rec.outcome
        for key, w in rec.mixture.entries:
            if key not in acc:
                continue
            den = key.denominator
            for i, f in acc[key].items():
                p_i = Fraction(key.numerators[i - 1], den)
                acc[key][i] = f + w * (p_i - (1 if i == x else 0))
    total = 0.0
    for key in sorted(acc):
        for i in sorted(acc[key]):
            total += float(abs(acc[key][i]))
    return total


# -- simplex -------------------------------------------------------------------

def l1_distance(a: RationalDist, b: RationalDist) -> float:
    return float(l1_distance_exact(a, b))


# -- adversary -----------------------------------------------------------------

def sample_outcome(p: RationalDist, stream: Stream) -> int:
    """1-based index i with probability p_i; exact via one uniform draw below the denominator."""
    u = stream.below(p.denominator)
    acc = 0
    for i, n in enumerate(p.numerators):
        acc += n
        if u < acc:
            return i + 1
    raise AssertionError("distribution does not sum to its denominator")


def tuple_to_day(tup: tuple[int, ...], cfg: HardSeqConfig) -> int:
    if len(tup) != cfg.R - 1 or any(not 1 <= k <= cfg.K for k in tup):
        raise OutOfRange(f"tuple {tup} outside [K]^(R-1)")
    t = 0
    for k in tup:
        t = t * cfg.K + (k - 1)
    return t + 1


def export_hard_sequence_jsonl(path, cfg: HardSeqConfig, tree: TauTree, seed: int | None) -> None:
    """Header {R, K, d, T, seed} then one {t, tuple, dist} record per day."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {"R": cfg.R, "K": cfg.K, "T": cfg.T, "d": cfg.d, "seed": seed}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for t in range(1, cfg.T + 1):
            rec = {
                "dist": day_distribution(tree, t, cfg).to_json(),
                "t": t,
                "tuple": list(day_tuple(t, cfg)),
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def export_tau_tree_json(path, tree: TauTree) -> None:
    entries = [[list(prefix), tau] for prefix, tau in sorted(tree.items())]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"entries": entries}, fh, sort_keys=True)
        fh.write("\n")
