"""Pathwise numerical verification of the calibration upper-bound analysis.

Every inequality used to bound the forecaster's distributional calibration
error holds for each individual outcome sequence, so a completed run can be
audited end to end:

  A0  the DCE itself,
  A1  after attributing error to (level, iteration) cells (triangle step),
  A2  after swapping each cell's prediction for its successor (smoothness),
  A3  after Cauchy-Schwarz + Pinsker turn l1 residuals into an average KL,

with A0 <= A1 <= A2 <= A3 required (A0..A2 compared in exact rationals, the
irrational A3 in floats at 1e-9).  The average KL K-bar is in turn bounded
through a per-interval cross-entropy ("pseudo-regret") integral bound and an
exact entropy-telescoping identity across levels, both checked here too.

Successor predictions at h = H+1 are evaluated from the same smoothing
formula even though they are never played: the analysis sums over them.

The exact sums A0..A2 are kept as integer numerators grouped by
denominator: a cell with outcome counts c over T_l days and a prediction z
over den(z) adds sum_i |z_i*T_l - c_i*den(z)| to den(z)'s numerator, which
is T_l*l1(z, c/T_l)*den(z).  Each distinct denominator becomes one
`Fraction` at the end.  Floats of exact ratios are int/int true divisions,
correctly rounded like `Fraction.__float__`.

Every check walks count supports, not all d coordinates.  Each node of the
interval tree is its (coordinate, count) pairs with nonzero count, in
coordinate order; a parent's pairs are its children's, added up.  The
coordinates with zero count enter each sum as one exact background term:

  A0..A2      sum_i |z_i*T_l - c_i*den| = T_l*den + sum over the support of
              (|z_i*T_l - c_i*den| - z_i*T_l), since the z_i sum to den;
  smoothness  a coordinate no child so far has touched holds the background
              numerator b_h = m*den(z_h) / (d*(h-1+m)) in z_h, an exact
              integer, so l1(z_h, z_{h+1}) sums over the touched coordinates
              plus (d - touched) * |b_h*den(z_{h+1}) - b_{h+1}*den(z_h)|;
  pseudo-regret  a coordinate with W_i = 0 adds exactly 0.0 to the tight
              bound and nothing to the lhs;
  KL, entropy  terms with zero count are dropped, as in `simplex`.

KL and entropy reduce the counts by their gcd with the period as they walk
them, in coordinate order, so their floats are bit for bit those of
`kl_divergence`/`entropy` on `make_rational_dist(counts, T_l)`.

Predictions are built from supports too: each interval's prefix is a
{coordinate: count} map, accumulated from the child pairs the walk already
has, and `smoothed_prediction` turns it into a dense `RationalDist` at a
cost that follows the support.  The keys are dense, so the recomputation
check compares recorded keys with them as they are.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .engine import RunResult
from .forecaster import smoothed_prediction
from .simplex import left_sum

# The dense functionals the support walks below reproduce; bound here so
# that perfbench/tracer.py can patch them by name.
from .simplex import (  # noqa: F401
    RationalDist,
    entropy,
    kl_divergence,
    l1_distance_exact,
    make_rational_dist,
)

TOL = 1e-9


@dataclass(frozen=True)
class CheckRow:
    """One audited inequality or identity; pass means margin >= -1e-9."""

    name: str
    scope: str
    measured: float
    bound: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class PseudoRegretResult:
    level: int
    interval_index: int
    lhs: float
    tight_bound: float
    coarse_bound: float
    passed: bool
    coarse_applies: bool


@dataclass(frozen=True)
class TelescopeResult:
    lhs: float
    rhs: float
    residual: float


@dataclass
class CertificateReport:
    run_id: str
    passed: bool
    checks: list[CheckRow]
    chain: dict[str, float]

    def to_json_dict(self) -> dict:
        return {
            "chain": self.chain,
            "checks": [
                {
                    "bound": c.bound,
                    "margin": c.margin,
                    "measured": c.measured,
                    "name": c.name,
                    "pass": c.passed,
                    "scope": c.scope,
                }
                for c in self.checks
            ],
            "passed": self.passed,
            "run_id": self.run_id,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1) + "\n"

    def csv_rows(self) -> list[list[str]]:
        rows = [["name", "scope", "measured", "bound", "margin", "pass"]]
        for c in self.checks:
            rows.append(
                [c.name, c.scope, repr(c.measured), repr(c.bound), repr(c.margin), str(c.passed)]
            )
        return rows


class RunView:
    """Interval-tree statistics of a completed run, built from its leaf counts.

    `dist_by_depth[k][j]` is node j at depth k (0 = root, L = leaves): the
    outcome counts of its period(k) days as (coordinate, count) pairs in
    coordinate order, zero counts left out.  `ent_by_depth` holds each
    node's empirical entropy and `preds[l-1][v]` the dense predictions
    z_1..z_{H+1} of interval v at level l.
    """

    def __init__(self, run: RunResult):
        self.run = run
        cfg = run.cfg
        self.cfg = cfg
        d, H, L, m = cfg.d, cfg.H, cfg.L, cfg.m
        nodes = [tuple(_support(leaf)) for leaf in run.leaf_counts]
        by_depth = [nodes]
        # Predictions z_1..z_{H+1} per (level, interval); z_{H+1} is the
        # never-played successor of the last iteration.  z_1 is the same
        # smoothed uniform point for every interval of a level.  The prefix
        # after all H children is the parent's counts.
        preds: list[list[list[RationalDist]]] = []
        for level in range(L, 0, -1):
            t_level = cfg.period(level)
            z_first = smoothed_prediction({}, 1, t_level, d, m)
            parents = []
            per_level = []
            for j in range(0, len(nodes), H):
                prefix: dict[int, int] = {}
                zs = [z_first]
                for h, child in enumerate(nodes[j : j + H], 2):
                    for i, c in child:
                        prefix[i] = prefix.get(i, 0) + c
                    zs.append(smoothed_prediction(prefix, h, t_level, d, m))
                parents.append(tuple(sorted(prefix.items())))
                per_level.append(zs)
            nodes = parents
            by_depth.append(nodes)
            preds.append(per_level)
        by_depth.reverse()
        preds.reverse()
        self.dist_by_depth = by_depth  # index = depth 0..L
        self.ent_by_depth = [
            [_entropy(pairs, cfg.period(depth)) for pairs in nodes]
            for depth, nodes in enumerate(by_depth)
        ]
        self.preds = preds


def _support(row):
    """(coordinate, count) pairs of a dense count row's nonzero entries."""
    return zip(compress(range(len(row)), row), filter(None, row))


def _entropy(pairs, total: int) -> float:
    """entropy(make_rational_dist(counts, total)), walking the support only."""
    g = math.gcd(total, *[c for _, c in pairs])
    den = total // g
    s = 0.0
    for _, c in pairs:
        n = c // g
        s += n * math.log(n)
    return max(math.log(den) - s / den, 0.0)


def _kl(pairs, total: int, p: RationalDist) -> float:
    """kl_divergence(make_rational_dist(counts, total), p), walking the support only."""
    g = math.gcd(total, *[c for _, c in pairs])
    dx = total // g
    nums, dp = p
    s = 0.0
    for i, c in pairs:
        nx = c // g
        s += nx * math.log(nx * dp / (dx * nums[i]))
    return max(s / dx, 0.0)


def _view(run) -> RunView:
    return run if isinstance(run, RunView) else RunView(run)


def check_smoothness(run) -> tuple[list[CheckRow], float, int]:
    """Per-step bound l1(z_h, z_{h+1}) <= 2/(h+m), checked in exact rationals.

    Returns (one row per level, max gap observed, number of violations).
    """
    view = _view(run)
    cfg = view.cfg
    d, H, m = cfg.d, cfg.H, cfg.m
    rows = []
    max_gap = 0.0
    violations = 0
    for level in range(1, cfg.L + 1):
        nodes = view.dist_by_depth[level]
        level_max = 0.0
        min_margin = math.inf
        bad = 0
        for v, zs in enumerate(view.preds[level - 1]):
            seen: set[int] = set()
            for h in range(1, H + 1):
                seen.update([i for i, _ in nodes[v * H + h - 1]])
                (na, da), (nb, db) = zs[h - 1], zs[h]
                # outside the seen coordinates both prefix counts are zero
                ba = m * da // (d * (h - 1 + m))
                bb = m * db // (d * (h + m))
                # gap = n/D against the bound 2/k, compared as integers
                n = (d - len(seen)) * abs(ba * db - bb * da) + sum(
                    [abs(na[i] * db - nb[i] * da) for i in seen]
                )
                D, k = da * db, h + m
                if n * k > 2 * D:
                    bad += 1
                level_max = max(level_max, n / D)
                min_margin = min(min_margin, (2 * D - n * k) / (k * D))
        violations += bad
        rows.append(
            CheckRow(
                name="smoothness-step",
                scope=f"level={level}",
                measured=level_max,
                bound=2.0 / m,
                margin=min_margin,
                passed=bad == 0 and level_max <= 2.0 / m,
            )
        )
        max_gap = max(max_gap, level_max)
    return rows, max_gap, violations


def check_pseudo_regret(run, level: int, interval_index: int) -> PseudoRegretResult:
    """Cross-entropy cost of one interval vs. its integral bounds.

    lhs  = sum_h <w_h, ln(1/z_{h+1})>
    tight = [(H+1+m)ln(H+1+m) - (1+m)ln(1+m) - H]
            + sum_i [-(W_i+m/d)ln(W_i+m/d) + (m/d)ln(m/d) + W_i]
    coarse = H*Ent(interval average) + H/m**2, the fixed-slack form
            (asserted only when the tight bound implies it; the m**-2 slack
            needs large m to dominate the (1+m)(1+ln(H+1)) boundary terms).
    """
    view = _view(run)
    cfg = view.cfg
    H, d, m = cfg.H, cfg.d, cfg.m
    t_level = cfg.period(level)
    children = view.dist_by_depth[level]
    zs = view.preds[level - 1][interval_index]
    lhs = 0.0
    for h in range(1, H + 1):
        nums, den = zs[h]
        for i, c in children[interval_index * H + h - 1]:
            lhs += (c / t_level) * math.log(den / nums[i])
    c_smooth = m / d
    tight = (H + 1 + m) * math.log(H + 1 + m) - (1 + m) * math.log(1 + m) - H
    # W_i = 0 adds -c ln(c) + c ln(c) + 0, exactly 0.0: walk the interval's support
    for _, w_count in view.dist_by_depth[level - 1][interval_index]:
        w = w_count / t_level
        tight += -(w + c_smooth) * math.log(w + c_smooth) + c_smooth * math.log(c_smooth) + w
    ent_parent = view.ent_by_depth[level - 1][interval_index]
    coarse = H * ent_parent + H / (m * m)
    coarse_applies = tight <= coarse + TOL
    passed = lhs <= tight + TOL and (not coarse_applies or lhs <= coarse + TOL)
    return PseudoRegretResult(
        level=level,
        interval_index=interval_index,
        lhs=lhs,
        tight_bound=tight,
        coarse_bound=coarse,
        passed=passed,
        coarse_applies=coarse_applies,
    )


def check_pseudo_regret_all(run) -> tuple[list[CheckRow], list[PseudoRegretResult]]:
    view = _view(run)
    cfg = view.cfg
    rows = []
    results = []
    for level in range(1, cfg.L + 1):
        min_margin = math.inf
        worst = None
        ok = True
        for v in range(cfg.H ** (level - 1)):
            res = check_pseudo_regret(view, level, v)
            results.append(res)
            margin = res.tight_bound - res.lhs
            if margin < min_margin:
                min_margin = margin
                worst = res
            ok = ok and res.passed
        rows.append(
            CheckRow(
                name="pseudo-regret-tight",
                scope=f"level={level}",
                measured=worst.lhs,
                bound=worst.tight_bound,
                margin=min_margin,
                passed=ok,
            )
        )
    return rows, results


def check_telescope(run) -> TelescopeResult:
    """Exact identity: the weighted entropy-drop sum collapses across levels.

    (1/L) sum_l H^{-l} sum_{h<l} [H Ent(parent) - sum_h Ent(child)]
        = (1/L) [Ent(global average) - H^{-L} sum_leaves Ent(leaf)].
    """
    view = _view(run)
    cfg = view.cfg
    H, L = cfg.H, cfg.L
    lhs = 0.0
    for level in range(1, L + 1):
        inner = 0.0
        parents = view.ent_by_depth[level - 1]
        children = view.ent_by_depth[level]
        for v in range(H ** (level - 1)):
            inner += H * parents[v] - left_sum(children[v * H : v * H + H])
        lhs += inner / H**level
    lhs /= L
    rhs = (
        view.ent_by_depth[0][0] - left_sum(view.ent_by_depth[L]) / H**L
    ) / L
    return TelescopeResult(lhs=lhs, rhs=rhs, residual=lhs - rhs)


def _exact_sum(nums_by_den: dict[int, int]) -> Fraction:
    """Sum of num/den over a {den: num} map, one Fraction per denominator."""
    return sum((Fraction(n, den) for den, n in nums_by_den.items()), Fraction(0))


def _add_scaled_l1(nums_by_den: dict[int, int], z: RationalDist, pairs, t: int) -> None:
    """Add t*l1(z, counts/t) to nums_by_den as an integer over den(z).

    Off the support each term |z_i*t - 0| is z_i*t, and all d of them sum
    to t*den(z), so the sum walks the (coordinate, count) pairs only.
    """
    nums, den = z
    total = t * den
    for i, c in pairs:
        nt = nums[i] * t
        total += abs(nt - c * den) - nt
    nums_by_den[den] = nums_by_den.get(den, 0) + total


def _dce_exact(run: RunResult) -> Fraction:
    nums_by_den: dict[int, int] = {}
    for kid, rec in run.dce_tallies.items():
        _add_scaled_l1(nums_by_den, run.keys[kid], _support(rec[1:]), rec[0])
    return _exact_sum(nums_by_den) / run.cfg.L


def check_recomputation(run: RunResult, view: RunView | None = None) -> CheckRow:
    """Recorded iteration keys must equal predictions recomputed from raw counts."""
    view = view or RunView(run)
    cfg = view.cfg
    mismatches = 0
    cells = 0
    for level in range(1, cfg.L + 1):
        recorded = run.level_iter_keys[level - 1]
        for v in range(cfg.H ** (level - 1)):
            zs = view.preds[level - 1][v]
            for h in range(1, cfg.H + 1):
                cells += 1
                if run.keys[recorded[v * cfg.H + h - 1]] != zs[h - 1]:
                    mismatches += 1
    return CheckRow(
        name="recomputation-identity",
        scope="all levels",
        measured=float(mismatches),
        bound=0.0,
        margin=-float(mismatches),
        passed=mismatches == 0,
    )


def check_chain(run, run_id: str = "") -> CertificateReport:
    """Full certificate: chain A0<=A1<=A2<=A3 plus all supporting checks."""
    view = _view(run)
    run = view.run
    cfg = view.cfg
    T, L, m, d = cfg.T, cfg.L, cfg.m, cfg.d

    a0 = _dce_exact(run)
    # sum over cells of T_l*l1(z_h, x) (A1) and T_l*l1(z_{h+1}, x) (A2)
    a1_nums: dict[int, int] = {}
    a2_nums: dict[int, int] = {}
    k_bar = 0.0
    H = cfg.H
    for level in range(1, L + 1):
        t_level = cfg.period(level)
        weight = H**level
        nodes = view.dist_by_depth[level]
        for v, zs in enumerate(view.preds[level - 1]):
            for h in range(1, H + 1):
                pairs = nodes[v * H + h - 1]
                _add_scaled_l1(a1_nums, zs[h - 1], pairs, t_level)
                _add_scaled_l1(a2_nums, zs[h], pairs, t_level)
                k_bar += _kl(pairs, t_level, zs[h]) / weight
    a1 = _exact_sum(a1_nums) / L
    a2 = _exact_sum(a2_nums) / L + Fraction(2 * T, m)
    k_bar /= L
    a3 = T * math.sqrt(2.0 * k_bar) + 2.0 * T / m

    smooth_rows, max_gap, violations = check_smoothness(view)
    pr_rows, pr_results = check_pseudo_regret_all(view)
    tele = check_telescope(view)

    c_bar = 0.0
    coarse_regime = True
    for res in pr_results:
        correction = res.tight_bound - cfg.H * view.ent_by_depth[res.level - 1][res.interval_index]
        c_bar += correction / cfg.H**res.level
        coarse_regime = coarse_regime and res.coarse_applies
    c_bar /= L
    kl_budget = math.log(d) / L + c_bar

    checks = [
        CheckRow(
            name="chain-step1-triangle",
            scope="A0 <= A1",
            measured=float(a0),
            bound=float(a1),
            margin=float(a1 - a0),
            passed=a0 <= a1,
        ),
        CheckRow(
            name="chain-step2-successor-swap",
            scope="A1 <= A2",
            measured=float(a1),
            bound=float(a2),
            margin=float(a2 - a1),
            passed=a1 <= a2,
        ),
        CheckRow(
            name="chain-step3-cs-pinsker",
            scope="A2 <= A3",
            measured=float(a2),
            bound=a3,
            margin=a3 - float(a2),
            passed=a3 - float(a2) >= -TOL,
        ),
        CheckRow(
            name="chain-step4-kl-budget",
            scope="K_bar <= ln(d)/L + C_bar",
            measured=k_bar,
            bound=kl_budget,
            margin=kl_budget - k_bar,
            passed=kl_budget - k_bar >= -TOL,
        ),
        CheckRow(
            name="telescope-identity",
            scope="levels 1..L",
            measured=tele.lhs,
            bound=tele.rhs,
            margin=TOL - abs(tele.residual),
            passed=abs(tele.residual) <= TOL,
        ),
    ]
    if coarse_regime:
        coarse_budget = math.log(d) / L + 1.0 / (m * m)
        checks.append(
            CheckRow(
                name="chain-step4-fixed-slack",
                scope="K_bar <= ln(d)/L + 1/m^2",
                measured=k_bar,
                bound=coarse_budget,
                margin=coarse_budget - k_bar,
                passed=coarse_budget - k_bar >= -TOL,
            )
        )
    checks.extend(smooth_rows)
    checks.extend(pr_rows)
    checks.append(check_recomputation(run, view))

    chain = {
        "A0": float(a0),
        "A1": float(a1),
        "A2": float(a2),
        "A3": a3,
        "K_bar": k_bar,
        "C_bar": c_bar,
        "telescope_residual": tele.residual,
        "dce_per_day": float(a0) / T,
        "max_smoothness_gap": max_gap,
        "smoothness_violations": float(violations),
    }
    return CertificateReport(
        run_id=run_id,
        passed=all(c.passed for c in checks),
        checks=checks,
        chain=chain,
    )


def certify_run(run, run_id: str = "") -> CertificateReport:
    return check_chain(run, run_id=run_id)
