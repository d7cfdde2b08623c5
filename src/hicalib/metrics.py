"""Calibration error functionals on transcripts.

DCE sums, over distinct prediction values p, the l1 norm of the
mixture-weighted residual sum_t (p - X_t) mu_t(p); ECE does the same with
the realized (sampled) predictions in place of the mixture.  Grouping is by
the exact simplex point (a point is its own key), never by float proximity,
and the inner residual sums accumulate as exact rationals; each |.| term is
converted to float exactly once.  A day's outcome is a 1-based int.  A deliberately naive oracle recomputation of DCE is provided
for randomized cross-checks, together with exhaustive ECE enumeration for
hand-sized mixtures.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import MissingMixture, MissingRealizedPrediction
from .forecaster import ForecastConfig, MixtureRecord
from .simplex import PredictionKey


@dataclass(frozen=True)
class DayRecord:
    """One transcript day; the realized prediction is optional."""

    t: int
    mixture: MixtureRecord | None
    outcome: int
    realized: PredictionKey | None = None


@dataclass
class Transcript:
    """Ordered day records over outcome space [d]."""

    d: int
    days: list[DayRecord]

    @property
    def T(self) -> int:
        return len(self.days)

    def validate(self) -> None:
        for i, rec in enumerate(self.days):
            if rec.t != i + 1:
                raise ValueError(f"days not contiguous at position {i}: t={rec.t}")
            if not 1 <= rec.outcome <= self.d:
                raise ValueError(f"outcome {rec.outcome} outside [1, {self.d}]")
            if rec.mixture is not None:
                total = sum(w for _, w in rec.mixture.entries)
                if total != 1:
                    raise ValueError(f"day {rec.t} mixture weights sum to {total}")


@dataclass(frozen=True)
class RestrictionSpec:
    """Restrict DCE to a day set I, prediction set P, and coordinate set D (1-based)."""

    days: frozenset[int]
    keys: frozenset[PredictionKey]
    coords: frozenset[int]


def _abs_sum(acc: dict[PredictionKey, list[Fraction]]) -> float:
    """Sum of |.| over (key, coordinate) in sorted key order; one float per term."""
    total = 0.0
    for key in sorted(acc):
        for f in acc[key]:
            total += float(abs(f))
    return total


def dce(tr: Transcript) -> float:
    """Distributional calibration error of the transcript's mixtures."""
    acc: dict[PredictionKey, list[Fraction]] = {}
    for rec in tr.days:
        if rec.mixture is None or not rec.mixture.entries:
            raise MissingMixture(f"day {rec.t} has no mixture")
        x = rec.outcome - 1
        for key, w in rec.mixture.entries:
            vec = acc.get(key)
            if vec is None:
                vec = acc[key] = [Fraction(0)] * tr.d
            den = key.denominator
            for i, n in enumerate(key.numerators):
                vec[i] += w * Fraction(n, den)
            vec[x] -= w
    return _abs_sum(acc)


def ece_trajectory(tr: Transcript) -> float:
    """Calibration error of the realized predictions (one trajectory, no expectation)."""
    acc: dict[PredictionKey, list[Fraction]] = {}
    for rec in tr.days:
        if rec.realized is None:
            raise MissingRealizedPrediction(f"day {rec.t} has no realized prediction")
        x = rec.outcome - 1
        key = rec.realized
        vec = acc.get(key)
        if vec is None:
            vec = acc[key] = [Fraction(0)] * tr.d
        den = key.denominator
        for i, n in enumerate(key.numerators):
            vec[i] += Fraction(n, den)
        vec[x] -= 1
    return _abs_sum(acc)


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


def oracle_dce_direct(tr: Transcript) -> float:
    """Brute-force DCE: outer loop over distinct values, inner loop over days.

    Kept deliberately naive and structurally different from dce() so the two
    can cross-check each other; exact rational accumulation throughout.
    """
    seen: list[PredictionKey] = []
    for rec in tr.days:
        if rec.mixture is None:
            raise MissingMixture(f"day {rec.t} has no mixture")
        for key, _ in rec.mixture.entries:
            if key not in seen:
                seen.append(key)
    total = 0.0
    for key in seen:
        vec = [Fraction(0)] * tr.d
        for rec in tr.days:
            w = Fraction(0)
            for k2, w2 in rec.mixture.entries:
                if k2 == key:
                    w += w2
            if w == 0:
                continue
            x = rec.outcome - 1
            for i in range(tr.d):
                p_i = Fraction(key.numerators[i], key.denominator)
                vec[i] += w * (p_i - (1 if i == x else 0))
        for f in vec:
            total += float(abs(f))
    return total


@dataclass(frozen=True)
class EceEstimate:
    mean: float
    stderr: float
    trials: int


def ece_estimate(run_factory: Callable[[int], "Transcript | float"], trials: int) -> EceEstimate:
    """Sample mean and standard error of the trajectory ECE over seeded trials.

    run_factory(trial) returns either a Transcript with realized predictions
    or the trajectory's ECE value directly; trial indices 0..trials-1 should
    derive independent streams internally.
    """
    if trials < 2:
        raise ValueError(f"need trials >= 2 for a standard error, got {trials}")
    values = []
    for trial in range(trials):
        out = run_factory(trial)
        values.append(out if isinstance(out, float) else ece_trajectory(out))
    mean = sum(values) / trials
    stderr = statistics.stdev(values) / math.sqrt(trials)
    return EceEstimate(mean=mean, stderr=stderr, trials=trials)


def exhaustive_ece(tr: Transcript, max_assignments: int = 1 << 20) -> float:
    """Exact E[ECE] for an oblivious transcript by enumerating all realizations.

    Walks the product of each day's mixture support, weighting each realized
    assignment by its probability.  Only feasible for hand-sized cases.
    """
    options: list[tuple[tuple[PredictionKey, Fraction], ...]] = []
    count = 1
    for rec in tr.days:
        if rec.mixture is None or not rec.mixture.entries:
            raise MissingMixture(f"day {rec.t} has no mixture")
        options.append(rec.mixture.entries)
        count *= len(rec.mixture.entries)
        if count > max_assignments:
            raise ValueError(f"more than {max_assignments} assignments to enumerate")
    total = 0.0
    assignment: list[PredictionKey] = [opts[0][0] for opts in options]

    def walk(day: int, weight: Fraction):
        nonlocal total
        if weight == 0:
            return
        if day == len(options):
            realized_days = [
                DayRecord(r.t, r.mixture, r.outcome, realized=assignment[i])
                for i, r in enumerate(tr.days)
            ]
            total += float(weight) * ece_trajectory(Transcript(tr.d, realized_days))
            return
        for key, w in options[day]:
            assignment[day] = key
            walk(day + 1, weight * w)

    walk(0, Fraction(1))
    return total


METRICS_CSV_COLUMNS = [
    "run_id",
    "seed",
    "T",
    "d",
    "L",
    "H",
    "S",
    "m",
    "adversary",
    "dce",
    "dce_per_day",
    "ece_mean",
    "ece_stderr",
    "trials",
]


def metrics_csv_row(
    run_id: str,
    seed: int,
    cfg: ForecastConfig,
    adversary: str,
    dce_value: float,
    ece_mean: float | None = None,
) -> dict[str, str]:
    """The metrics.csv row of one run; `ece_stderr` is empty and `trials` 1."""
    return {
        "run_id": run_id,
        "seed": str(seed),
        "T": str(cfg.T),
        "d": str(cfg.d),
        "L": str(cfg.L),
        "H": str(cfg.H),
        "S": str(cfg.S),
        "m": str(cfg.m),
        "adversary": adversary,
        "dce": repr(dce_value),
        "dce_per_day": repr(dce_value / cfg.T),
        "ece_mean": "" if ece_mean is None else repr(ece_mean),
        "ece_stderr": "",
        "trials": "1",
    }
