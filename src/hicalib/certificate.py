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

Every per-interval term is a function of the interval's child counts, so
each is computed once per distinct interval.  `RunView` interns the tree's
nodes from the leaf counts alone (never from the engine's key ids): equal
(coordinate, count) pairs at one depth share a node id, and an interval is
the tuple of its H child ids.  Per distinct interval the checks compute:

  smoothness     the largest gap, the smallest margin and the violations;
                 max and min do not depend on order, and violations add up
                 over the intervals that share them;
  pseudo-regret  one `PseudoRegretResult`, at the interval's first
                 appearance: lhs, the tight and coarse bounds and their
                 verdicts; its C-bar term is (tight - H*Ent(parent))/H**l;
  chain          the A1/A2 numerators, added times the interval's count
                 (exact integers), and the H KL terms of K-bar;
  telescope      the entropy drop H*Ent(parent) - sum_h Ent(child).

The float sums K-bar and C-bar (across levels) and each level's telescope
sum still add one term per cell or interval: `left_sum` walks the distinct
terms looked up in (level, interval, h) order, so their bits are those of
a walk over every cell.  The recomputation check compares every recorded
key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress

from .engine import RunResult
from .errors import OutOfRange
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
    """One audited inequality or identity.

    Most rows pass by one of three rules, each built by its constructor:

    - `zero`: a count of defects n (measured n, bound 0, margin -n), which
      passes iff n == 0;
    - `upper`: a float inequality measured <= bound, which passes iff the
      margin bound - measured is >= -TOL;
    - `exact`: an inequality lo <= hi between `Fraction`s, which passes iff
      it holds exactly; its floats only report it.

    Three rows keep their own rule, written where it is computed:
    `smoothness-step` compares each step's gap with its bound in exact
    integers, `pseudo-regret-tight` checks each interval's tight bound and,
    where it applies, the coarse one, and `telescope-identity` checks
    |residual| <= TOL.
    """

    name: str
    scope: str
    measured: float
    bound: float
    margin: float
    passed: bool

    @classmethod
    def zero(cls, name: str, scope: str, n: int) -> CheckRow:
        return cls(name, scope, float(n), 0.0, -float(n), n == 0)

    @classmethod
    def upper(cls, name: str, scope: str, measured: float, bound: float) -> CheckRow:
        margin = bound - measured
        return cls(name, scope, measured, bound, margin, margin >= -TOL)

    @classmethod
    def exact(cls, name: str, scope: str, lo: Fraction, hi: Fraction) -> CheckRow:
        return cls(name, scope, float(lo), float(hi), float(hi - lo), lo <= hi)


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
    checks: list[CheckRow]
    chain: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

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

    Nodes are interned as the tree is built.  Equal pairs at one depth get
    one node id: a leaf's pairs are hashed once, and a parent is looked up
    by the tuple of its H child ids, so its pairs are hashed only when that
    tuple is new.  An interval is such a tuple; `interval_ids[l-1][v]` is
    the id of interval v at level l and `interval_firsts[l-1][k]` the first
    v with id k.  Each distinct interval's prefix, predictions and parent
    pairs are built once, and each distinct node's entropy is computed
    once; equal nodes and intervals share those objects in the per-depth
    lists above.
    """

    def __init__(self, run: RunResult):
        self.run = run
        cfg = run.cfg
        self.cfg = cfg
        d, H, L, m = cfg.d, cfg.H, cfg.L, cfg.m
        index: dict[tuple, int] = {}
        ids = [index.setdefault(tuple(_support(leaf)), len(index)) for leaf in run.leaf_counts]
        pairs = list(index)  # node id -> pairs
        by_depth = [[pairs[i] for i in ids]]
        ent_by_depth = [_entropies(pairs, ids, cfg.period(L))]
        # Predictions z_1..z_{H+1} per (level, interval); z_{H+1} is the
        # never-played successor of the last iteration.  z_1 is the same
        # smoothed uniform point for every interval of a level.  The prefix
        # after all H children is the parent's counts.
        preds: list[list[list[RationalDist]]] = []
        interval_ids: list[list[int]] = []
        interval_firsts: list[list[int]] = []
        for level in range(L, 0, -1):
            t_level = cfg.period(level)
            z_first = smoothed_prediction({}, 1, t_level, d, m)
            by_children: dict[tuple[int, ...], int] = {}
            index = {}
            firsts: list[int] = []
            intervals: list[int] = []
            parent_of: list[int] = []
            zs_of: list[list[RationalDist]] = []
            for v, children in enumerate(zip(*[iter(ids)] * H)):
                k = by_children.setdefault(children, len(firsts))
                intervals.append(k)
                if k < len(firsts):
                    continue
                firsts.append(v)
                prefix: dict[int, int] = {}
                zs = [z_first]
                for h, child in enumerate(children, 2):
                    for i, c in pairs[child]:
                        prefix[i] = prefix.get(i, 0) + c
                    zs.append(smoothed_prediction(prefix, h, t_level, d, m))
                zs_of.append(zs)
                parent_of.append(index.setdefault(tuple(sorted(prefix.items())), len(index)))
            ids = [parent_of[k] for k in intervals]
            pairs = list(index)
            by_depth.append([pairs[i] for i in ids])
            ent_by_depth.append(_entropies(pairs, ids, cfg.period(level - 1)))
            preds.append([zs_of[k] for k in intervals])
            interval_ids.append(intervals)
            interval_firsts.append(firsts)
        for per_level in (by_depth, ent_by_depth, preds, interval_ids, interval_firsts):
            per_level.reverse()
        self.dist_by_depth = by_depth  # index = depth 0..L
        self.ent_by_depth = ent_by_depth
        self.preds = preds
        self.interval_ids = interval_ids
        self.interval_firsts = interval_firsts


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


def _entropies(pairs: list[tuple], ids: list[int], total: int) -> list[float]:
    """The entropy of each node, computed once per distinct node id."""
    ents = [_entropy(p, total) for p in pairs]
    return [ents[i] for i in ids]


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
    Each distinct interval's steps are checked once: a level's max and min
    do not depend on order, and its violations add up per interval.
    """
    view = _view(run)
    cfg = view.cfg
    d, H, m = cfg.d, cfg.H, cfg.m
    rows = []
    max_gap = 0.0
    violations = 0
    for level in range(1, cfg.L + 1):
        nodes = view.dist_by_depth[level]
        preds = view.preds[level - 1]
        steps = [_steps(nodes, preds[v], v, d, H, m) for v in view.interval_firsts[level - 1]]
        level_max = max([gap for gap, _, _ in steps])
        min_margin = min([margin for _, margin, _ in steps])
        bad = sum([steps[k][2] for k in view.interval_ids[level - 1]])
        violations += bad
        rows.append(CheckRow(
            name="smoothness-step", scope=f"level={level}", measured=level_max,
            bound=2.0 / m, margin=min_margin, passed=bad == 0 and level_max <= 2.0 / m,
        ))
        max_gap = max(max_gap, level_max)
    return rows, max_gap, violations


def _steps(nodes, zs, v: int, d: int, H: int, m: int) -> tuple[float, float, int]:
    """(largest gap, smallest margin, violations) over interval v's H steps."""
    seen: set[int] = set()
    gap_max = 0.0
    min_margin = math.inf
    bad = 0
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
        gap_max = max(gap_max, n / D)
        min_margin = min(min_margin, (2 * D - n * k) / (k * D))
    return gap_max, min_margin, bad


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
    if not (1 <= level <= cfg.L and 0 <= interval_index < len(view.preds[level - 1])):
        raise OutOfRange(f"no interval {interval_index} at level {level} (L = {cfg.L})")
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


def check_pseudo_regret_all(run) -> tuple[list[CheckRow], list[list[PseudoRegretResult]]]:
    """One row per level and one result per distinct interval.

    `results[level-1][k]` is distinct interval k of that level, numbered in
    order of first appearance and checked at its first interval
    `interval_firsts[level-1][k]`; interval v shares the result of id
    `interval_ids[level-1][v]`.  A level's worst interval is the first one
    of smallest margin, so it is the first distinct one of smallest margin.
    """
    view = _view(run)
    rows = []
    results = []
    for level in range(1, view.cfg.L + 1):
        distinct = [check_pseudo_regret(view, level, v) for v in view.interval_firsts[level - 1]]
        worst = min(distinct, key=lambda res: res.tight_bound - res.lhs)
        rows.append(CheckRow(
            name="pseudo-regret-tight", scope=f"level={level}", measured=worst.lhs,
            bound=worst.tight_bound, margin=worst.tight_bound - worst.lhs,
            passed=all(res.passed for res in distinct),
        ))
        results.append(distinct)
    return rows, results


def check_telescope(run) -> TelescopeResult:
    """Exact identity: the weighted entropy-drop sum collapses across levels.

    (1/L) sum_l H^{-l} sum_{h<l} [H Ent(parent) - sum_h Ent(child)]
        = (1/L) [Ent(global average) - H^{-L} sum_leaves Ent(leaf)].

    Each distinct interval's entropy drop is computed once and added to its
    level's sum at every interval that has it, in interval order.
    """
    view = _view(run)
    cfg = view.cfg
    H, L = cfg.H, cfg.L
    lhs = 0.0
    for level in range(1, L + 1):
        parents = view.ent_by_depth[level - 1]
        children = view.ent_by_depth[level]
        drops = [
            H * parents[v] - left_sum(children[v * H : v * H + H])
            for v in view.interval_firsts[level - 1]
        ]
        lhs += left_sum(map(drops.__getitem__, view.interval_ids[level - 1])) / H**level
    lhs /= L
    rhs = (
        view.ent_by_depth[0][0] - left_sum(view.ent_by_depth[L]) / H**L
    ) / L
    return TelescopeResult(lhs=lhs, rhs=rhs, residual=lhs - rhs)


def _exact_sum(nums_by_den: dict[int, int]) -> Fraction:
    """Sum of num/den over a {den: num} map, one Fraction per denominator."""
    return sum((Fraction(n, den) for den, n in nums_by_den.items()), Fraction(0))


def _add_scaled_l1(
    nums_by_den: dict[int, int], z: RationalDist, pairs, t: int, times: int = 1
) -> None:
    """Add `times` copies of t*l1(z, counts/t) to nums_by_den, over den(z).

    Off the support each term |z_i*t - 0| is z_i*t, and all d of them sum
    to t*den(z), so the sum walks the (coordinate, count) pairs only.
    """
    nums, den = z
    total = t * den
    for i, c in pairs:
        nt = nums[i] * t
        total += abs(nt - c * den) - nt
    nums_by_den[den] = nums_by_den.get(den, 0) + total * times


def _dce_exact(run: RunResult) -> Fraction:
    nums_by_den: dict[int, int] = {}
    for kid, rec in run.dce_tallies.items():
        _add_scaled_l1(nums_by_den, run.keys[kid], _support(rec[1:]), rec[0])
    return _exact_sum(nums_by_den) / run.cfg.L


def check_recomputation(run) -> CheckRow:
    """Recorded iteration keys must equal predictions recomputed from raw counts.

    Takes a run or its `RunView`; every recorded key is compared.
    """
    view = _view(run)
    run = view.run
    cfg = view.cfg
    mismatches = 0
    for level in range(1, cfg.L + 1):
        recorded = run.level_iter_keys[level - 1]
        for v in range(cfg.H ** (level - 1)):
            zs = view.preds[level - 1][v]
            for h in range(1, cfg.H + 1):
                if run.keys[recorded[v * cfg.H + h - 1]] != zs[h - 1]:
                    mismatches += 1
    return CheckRow.zero("recomputation-identity", "all levels", mismatches)


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
    kl_by_level = []
    H = cfg.H
    for level in range(1, L + 1):
        t_level = cfg.period(level)
        weight = H**level
        nodes = view.dist_by_depth[level]
        preds = view.preds[level - 1]
        ids = view.interval_ids[level - 1]
        firsts = view.interval_firsts[level - 1]
        times = [0] * len(firsts)
        for k in ids:
            times[k] += 1
        # each distinct interval's integer numerators once, times its count;
        # its H KL terms enter K_bar at every interval that has them
        kl_terms = []
        for v, n in zip(firsts, times):
            zs = preds[v]
            terms = []
            for h in range(1, H + 1):
                pairs = nodes[v * H + h - 1]
                _add_scaled_l1(a1_nums, zs[h - 1], pairs, t_level, n)
                _add_scaled_l1(a2_nums, zs[h], pairs, t_level, n)
                terms.append(_kl(pairs, t_level, zs[h]) / weight)
            kl_terms.append(terms)
        kl_by_level.append(chain.from_iterable(map(kl_terms.__getitem__, ids)))
    a1 = _exact_sum(a1_nums) / L
    a2 = _exact_sum(a2_nums) / L + Fraction(2 * T, m)
    k_bar = left_sum(chain.from_iterable(kl_by_level)) / L
    a3 = T * math.sqrt(2.0 * k_bar) + 2.0 * T / m

    smooth_rows, max_gap, violations = check_smoothness(view)
    pr_rows, pr_results = check_pseudo_regret_all(view)
    tele = check_telescope(view)

    # each distinct interval's correction tight - H*Ent(parent), weighted,
    # enters C_bar at every interval that has it
    corrections = []
    for level, distinct in enumerate(pr_results, 1):
        ents = view.ent_by_depth[level - 1]
        weighted = [(res.tight_bound - H * ents[res.interval_index]) / H**level for res in distinct]
        corrections.append(map(weighted.__getitem__, view.interval_ids[level - 1]))
    c_bar = left_sum(chain.from_iterable(corrections)) / L
    coarse_regime = all(res.coarse_applies for distinct in pr_results for res in distinct)
    kl_budget = math.log(d) / L + c_bar

    checks = [
        CheckRow.exact("chain-step1-triangle", "A0 <= A1", a0, a1),
        CheckRow.exact("chain-step2-successor-swap", "A1 <= A2", a1, a2),
        CheckRow.upper("chain-step3-cs-pinsker", "A2 <= A3", float(a2), a3),
        CheckRow.upper("chain-step4-kl-budget", "K_bar <= ln(d)/L + C_bar", k_bar, kl_budget),
        CheckRow(
            name="telescope-identity", scope="levels 1..L", measured=tele.lhs, bound=tele.rhs,
            margin=TOL - abs(tele.residual), passed=abs(tele.residual) <= TOL,
        ),
    ]
    if coarse_regime:
        checks.append(CheckRow.upper(
            "chain-step4-fixed-slack", "K_bar <= ln(d)/L + 1/m^2",
            k_bar, math.log(d) / L + 1.0 / (m * m),
        ))
    checks.extend(smooth_rows)
    checks.extend(pr_rows)
    checks.append(check_recomputation(view))

    return CertificateReport(run_id, checks, chain={
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
    })


def certify_run(run, run_id: str = "") -> CertificateReport:
    return check_chain(run, run_id=run_id)
