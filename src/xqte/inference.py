"""Subsampling inference for tail-extrapolated QTEs.

The point estimator converges slower than root-n and its limit law
depends on nuisance quantities, so confidence intervals come from
subsampling: draw size-b subsets without replacement, recompute the
counterfactual CDFs on each subset, re-extract the tail pieces, and
rebuild the QTE around the full-sample anchors. Designs whose
thresholds are frozen at the full-sample location vary only the index
and the threshold survival across draws; the discontinuity design,
whose thresholds are local order statistics, re-selects them on each
subset so the draws carry the threshold noise as well.

Draw streams come from a caller-supplied rng_for_draw(t) so results do
not depend on worker count or draw order.

Discontinuity draws are computed in chunks rather than one at a time.
The full sample is sorted by outcome once (stably, so tied outcomes
keep their row order); each chunk gathers its draws as a (draws x b)
matrix in that order, cut down to each draw's bandwidth window, plus
one in index order for the order-sensitive kernel sums, and re-derives
every draw's bandwidth, jump-ratio CDFs, arm thresholds, proper-CDF
views and tail indices with row-wise array operations. A chunk holds at
most CHUNK_ELEMENTS entries per matrix, so memory stays bounded
whatever b and the draw count are. The results equal those of the
per-draw recipe bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cdf_rdd import (
    DENOM_EPS,
    arm_threshold_rows,
    epanechnikov,
    jump_ratio_rows,
    rot_bandwidths,
    side_masses,
)
from .core import EstimationError, StepCdf, pack_rows, tail_view, tail_view_rows
from .pipeline import FittedPipeline, subset_cdfs
from .tail import (
    EmptyTail,
    NonPositiveSurvival,
    TailFit,
    extrapolated_quantiles,
    pareto_index,
    qte_point,
    view_index_rows,
)

# entries per (draws x b) matrix in one chunk of discontinuity draws
CHUNK_ELEMENTS = 2**13

# Convergence-rate exponent per design: the scaled dispersion
# (b/n)^exponent (draw - point) mimics the sampling error of the full
# sample. RDD estimates converge at the nonparametric n^(2/5) rate, IV
# and direct designs at root-n.
RATE_EXPONENT = {"iv": 0.5, "rdd": 0.4, "direct": 0.5}


class UnstableSubsampling(EstimationError):
    """Too many subsample draws failed to produce a usable tail fit."""


@dataclass(frozen=True)
class SubsampleConfig:
    """b is the subsample size (None picks ceil(n^0.7)), draws the number
    of subsets, ci_level the two-sided coverage target.

    allow_degenerate is a test hook letting b == n through, which turns
    every draw into the full sample.
    """

    b: int | None = None
    draws: int = 500
    ci_level: float = 0.95
    max_failure_share: float = 0.10
    allow_degenerate: bool = False

    def resolve_b(self, n: int) -> int:
        return int(math.ceil(n**0.7)) if self.b is None else int(self.b)

    def validate(self, n: int) -> int:
        b = self.resolve_b(n)
        upper_ok = b <= n if self.allow_degenerate else b < n
        if not (1 < b and upper_ok):
            raise ValueError(f"subsample size b={b} not in (1, n) for n={n}")
        if self.draws < 100:
            raise ValueError("need at least 100 subsample draws")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must lie in (0, 1)")
        if not 0.0 <= self.max_failure_share < 1.0:
            raise ValueError("max_failure_share must lie in [0, 1)")
        return b


def _tail_at_frozen_threshold(cdf: StepCdf, full_fit: TailFit) -> tuple[float, float]:
    """Index and threshold survival from a subset CDF at the frozen
    full-sample threshold.

    The subset CDF goes through the same proper-CDF view the full fit
    used, then the full fit's shift (if any) is applied so both live on
    the same positive scale. Only the threshold location is frozen; the
    returned survival is the subset's own mass beyond it and the index
    measures the subset's tail slope against its own baseline.

    On the monotone view the only degenerate geometry is a tail that is
    flat from the threshold onward (the subset puts no resolvable mass
    beyond it). That is the boundary case of an infinitely fast decay,
    so it maps to an infinite index with zero survival, which
    extrapolates to the threshold itself. Returning it as a value
    instead of discarding keeps the draw distribution free of selection
    on how clean the subset tail looks.
    """
    cdf = tail_view(cdf)
    if full_fit.shift != 0.0:
        cdf = cdf.shifted(full_fit.shift)
    try:
        fit = pareto_index(cdf, full_fit.y_min, full_fit.omega)
    except (NonPositiveSurvival, EmptyTail):
        return math.inf, 0.0
    if fit.alpha_hat == 0.0:
        return math.inf, fit.s_min
    return fit.alpha_hat, fit.s_min


@dataclass(frozen=True)
class TailDraws:
    """Retained subsample tail re-estimates.

    alphas, survivals and thresholds all have shape (n_kept, 2), column
    0 for the treated arm and column 1 for the control arm. Designs
    with frozen thresholds repeat the full-sample threshold in every
    row; the discontinuity design re-selects thresholds per draw.
    """

    alphas: np.ndarray
    survivals: np.ndarray
    thresholds: np.ndarray
    failed: int


def subsample_tail_pairs(
    pipeline: FittedPipeline,
    cfg: SubsampleConfig,
    rng_for_draw: Callable[[int], np.random.Generator],
) -> TailDraws:
    """Per-draw tail re-estimates: (index, survival) pairs at the frozen
    thresholds, or (index, threshold) pairs for the discontinuity design.

    A draw fails when re-estimation raises an EstimationError or either
    index comes out negative; more than max_failure_share failures
    raises UnstableSubsampling. Indices are sorted so a draw is a set,
    not a permutation.
    """
    b = cfg.validate(pipeline.data.n)
    if pipeline.data.design == "rdd":
        alphas, thresholds, failed_draws = _rdd_draws(pipeline, cfg, b, rng_for_draw)
        alphas, thresholds = alphas[~failed_draws], thresholds[~failed_draws]
        survivals = np.tile([pipeline.fit1.s_min, pipeline.fit0.s_min], (len(alphas), 1))
        failed = int(failed_draws.sum())
    else:
        alphas, survivals, thresholds, failed = _frozen_draws(pipeline, cfg, b, rng_for_draw)
    if failed > cfg.max_failure_share * cfg.draws:
        raise UnstableSubsampling(
            f"{failed} of {cfg.draws} subsample draws failed; "
            "the tail fit is too fragile at this sample size"
        )
    return TailDraws(alphas=alphas, survivals=survivals, thresholds=thresholds, failed=failed)


def _frozen_draws(pipeline, cfg, b, rng_for_draw):
    """Draws at the frozen full-sample thresholds, refitted one by one."""
    n = pipeline.data.n
    alphas: list[tuple[float, float]] = []
    survivals: list[tuple[float, float]] = []
    failed = 0
    for t in range(cfg.draws):
        idx = np.sort(rng_for_draw(t).choice(n, size=b, replace=False))
        try:
            cdf1, cdf0 = subset_cdfs(pipeline, idx)
            a1, s1 = _tail_at_frozen_threshold(cdf1, pipeline.fit1)
            a0, s0 = _tail_at_frozen_threshold(cdf0, pipeline.fit0)
        except EstimationError:
            failed += 1
            continue
        if a1 <= 0.0 or a0 <= 0.0:
            failed += 1
            continue
        alphas.append((a1, a0))
        survivals.append((s1, s0))
    alphas = np.asarray(alphas, dtype=float).reshape(-1, 2)
    thresholds = np.tile([pipeline.fit1.y_min, pipeline.fit0.y_min], (len(alphas), 1))
    return alphas, np.asarray(survivals, dtype=float).reshape(-1, 2), thresholds, failed


def _rdd_draws(pipeline, cfg, b, rng_for_draw):
    """Discontinuity draws, a chunk of draws at a time.

    Each draw repeats the full-sample recipe on its subset: its own
    rule-of-thumb bandwidth, jump-ratio CDFs and kernel-weighted arm
    thresholds; then each arm's index on the proper-CDF view at the
    re-selected threshold, on the full fit's shifted scale. A threshold
    at or below 0 there, or a degenerate tail, gives the flat-tail
    index inf, as in the full-sample fallback; the draw's threshold
    survival stays pinned at the nominal level.

    Returns (alphas, thresholds, failed) for every draw: (draws, 2)
    arrays with arm 1 in column 0, and a mask of the draws whose refit
    would raise an EstimationError.
    """
    data, settings = pipeline.data, pipeline.settings
    n = data.n
    order = np.argsort(data.y, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    # sorted copies end in a sentinel unit that packed rows are padded with
    y_sorted = np.append(data.y[order], np.inf)
    r_sorted = np.append(data.r[order], np.inf)
    d = data.d.astype(float)
    d_sorted = np.append(d[order], 0.0)
    alphas = np.empty((cfg.draws, 2))
    thresholds = np.empty((cfg.draws, 2))
    failed = np.empty(cfg.draws, dtype=bool)
    step = max(1, CHUNK_ELEMENTS // b)
    for start in range(0, cfg.draws, step):
        chunk = slice(start, min(start + step, cfg.draws))
        draws = range(start, chunk.stop)
        idx = np.sort([rng_for_draw(t).choice(n, size=b, replace=False) for t in draws], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            h = rot_bandwidths(data.r[idx])
            s_above, s_below, jump = side_masses(data.r[idx], d[idx], h)
            by_outcome = np.sort(rank[idx], axis=1)
            # only the window carries kernel weight, places knots and holds
            # the arm takers, so each row keeps its window entries alone
            window = np.abs(r_sorted[by_outcome]) <= h[:, None]
            (units,) = pack_rows(window, (by_outcome, n))
            ys, r, dd = y_sorted[units], r_sorted[units], d_sorted[units]
            w = epanechnikov(r / h[:, None])
            inside = units < n
            at_knot, beta1, beta0 = jump_ratio_rows(ys, r, dd, w, inside, s_above, s_below, jump)
            bad = ~((h > 0.0) & (s_above > 0.0) & (s_below > 0.0) & (np.abs(jump) >= DENOM_EPS))
            arms = ((1, beta1, pipeline.fit1), (0, beta0, pipeline.fit0))
            for col, (arm, beta, fit) in enumerate(arms):
                thr, empty = arm_threshold_rows(ys, r, dd, w, h, arm, settings.ymin_level)
                view, degenerate = tail_view_rows(beta, at_knot)
                th = thr + fit.shift
                alphas[chunk, col] = view_index_rows(ys + fit.shift, view, at_knot, th, fit.omega)
                thresholds[chunk, col] = th
                bad |= empty | degenerate
        failed[chunk] = bad
    return alphas, thresholds, failed


def qte_draws_from_tails(
    fit1: TailFit, fit0: TailFit, tails: TailDraws, level: float
) -> np.ndarray:
    """Upper-tail QTE draws at the given level, one per retained pair.

    Shifts are held at their full-sample values; each draw contributes
    its own tail slope, threshold survival and threshold location (the
    last two frozen per design, see TailDraws).
    """
    q1 = extrapolated_quantiles(
        fit1, level, tails.alphas[:, 0], survivals=tails.survivals[:, 0],
        thresholds=tails.thresholds[:, 0],
    )
    q0 = extrapolated_quantiles(
        fit0, level, tails.alphas[:, 1], survivals=tails.survivals[:, 1],
        thresholds=tails.thresholds[:, 1],
    )
    return q1 - q0


@dataclass(frozen=True)
class CiResult:
    lo: float
    hi: float
    level: float
    b: int
    rate_ratio: float
    n_draws: int
    n_failed: int


def subsampling_ci(
    draws: np.ndarray,
    point: float,
    cfg: SubsampleConfig,
    design: str,
    n: int,
    n_failed: int = 0,
) -> CiResult:
    """Equal-tailed interval from rate-scaled draw dispersion.

    With rho_b = (b/n)^RATE_EXPONENT[design] and s_g the g-quantile of
    rho_b (draw - point), the interval is [point - s_{1-a/2}, point - s_{a/2}].
    """
    b = cfg.resolve_b(n)
    rho = (b / n) ** RATE_EXPONENT[design]
    scaled = rho * (np.asarray(draws, dtype=float) - point)
    a = 1.0 - cfg.ci_level
    s_lo, s_hi = np.quantile(scaled, [a / 2.0, 1.0 - a / 2.0])
    return CiResult(
        lo=point - s_hi,
        hi=point - s_lo,
        level=cfg.ci_level,
        b=b,
        rate_ratio=rho,
        n_draws=int(np.asarray(draws).size),
        n_failed=n_failed,
    )


@dataclass(frozen=True)
class QteResult:
    q: float
    estimate: float
    ci: CiResult | None


def estimate_qte_batch(
    pipeline: FittedPipeline,
    q_list: Sequence[float],
    cfg: SubsampleConfig | None = None,
    rng_for_draw: Callable[[int], np.random.Generator] | None = None,
) -> list[QteResult]:
    """Point estimates, and intervals when cfg is given, for several
    quantile levels on the original outcome scale.

    The alpha draws do not depend on q, so one set of subsample refits
    serves every level. Omitting cfg skips inference entirely.

    A lower-tail pipeline was fitted on negated outcomes, so level q is
    estimated at 1 - q there, and the point and every draw are negated
    before the interval is formed: 0.0 - (Q1 - Q0) equals Q0 - Q1 bit
    for bit, zero included.
    """
    lower = pipeline.tail_side == "lower"
    levels = [1.0 - q if lower else q for q in q_list]
    points = [qte_point(pipeline.fit1, pipeline.fit0, level) for level in levels]
    if lower:
        points = [0.0 - p for p in points]
    if cfg is None:
        return [QteResult(q=q, estimate=p, ci=None) for q, p in zip(q_list, points)]
    if rng_for_draw is None:
        raise ValueError("rng_for_draw is required when cfg is given")
    tails = subsample_tail_pairs(pipeline, cfg, rng_for_draw)
    out = []
    for q, level, point in zip(q_list, levels, points):
        draws = qte_draws_from_tails(pipeline.fit1, pipeline.fit0, tails, level)
        if lower:
            draws = 0.0 - draws
        ci = subsampling_ci(
            draws, point, cfg, pipeline.data.design, pipeline.data.n, tails.failed
        )
        out.append(QteResult(q=q, estimate=point, ci=ci))
    return out
