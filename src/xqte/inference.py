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

Every draw's tail indices come from tail.tail_index_rows, the one
implementation of the closed-form index, with each arm of a draw as a
row. The frozen-threshold designs refit their CDFs one draw at a time
(the kappa weights or empirical CDFs of the subset), keep only the
tail of each proper-CDF view and fit the tails of a batch of draws
together.

Discontinuity draws are computed in chunks rather than one at a time.
The full sample is ranked by outcome once (stably, so tied outcomes
keep their row order). Each chunk gathers its draws as a (draws x b)
matrix in index order, for the bandwidths and the order-sensitive
kernel sums, then sorts each draw's outcome ranks with those outside
its bandwidth window moved to the back, which leaves a much narrower
matrix of window units in outcome order. From that one matrix the
jump-ratio CDFs, and for both arms at once the thresholds, proper-CDF
views and tail indices, come from row-wise array operations; the two
arms are one stack of rows, so each of those steps runs once per chunk.
A chunk holds at most CHUNK_ELEMENTS entries per (draws x b) matrix, so
memory stays bounded whatever b and the draw count are. Both designs'
results equal those of their per-draw recipes bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cdf_rdd import (
    DENOM_EPS,
    arm_threshold_rows,
    jump_ratio_rows,
    kernel_weights,
    rot_bandwidths,
    side_masses,
)
from .core import EstimationError, tail_view, tail_view_rows
from .pipeline import FittedPipeline, subset_cdfs
from .tail import TailFit, extrapolated_quantiles, qte_point, tail_index_rows

# entries per (draws x b) matrix in one chunk of discontinuity draws. A
# chunk keeps about three such matrices of 8-byte entries alive at once
# (ranks, masks and window matrices are smaller); larger chunks spend
# less time in per-call overhead but raise the process's peak memory.
# The frozen-threshold draws fit their kept tails whenever these hold a
# quarter of it.
CHUNK_ELEMENTS = 2**14

# Convergence-rate exponent per design: the scaled dispersion
# (b/n)^exponent (draw - point) mimics the sampling error of the full
# sample. RDD estimates converge at the nonparametric n^(2/5) rate, IV
# and direct designs at root-n.
RATE_EXPONENT = {"iv": 0.5, "rdd": 0.4, "direct": 0.5}


class UnstableSubsampling(EstimationError):
    """Too many subsample draws failed to produce a usable tail fit."""


class UndefinedEstimate(EstimationError):
    """A point estimate or an interval endpoint came out NaN or infinite,
    as when an arm's extrapolated quantile overflows to inf (inf - inf
    is NaN when both arms' do)."""


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
    """Draws at the frozen full-sample thresholds.

    Each draw refits its two CDFs on its subset and takes their
    proper-CDF views, one draw at a time; only the tail of each view,
    from its last knot below the frozen threshold on, is kept, copied so
    the draw's full arrays can go. Whenever the kept tails hold
    CHUNK_ELEMENTS // 4 entries, they are fitted together by
    _frozen_tails, two rows per draw. A draw fails when its refit raises
    an EstimationError or either index comes out negative.
    """
    n = pipeline.data.n
    fits = (pipeline.fit1, pipeline.fit0)
    y_min = np.array([fit.y_min for fit in fits])
    alphas, survivals, tails = [], [], []
    failed = pending = 0

    def flush():
        if tails:
            rows_y_min = np.tile(y_min, len(tails) // 2)
            alpha, survival = _frozen_tails(tails, rows_y_min, pipeline.settings.omega)
            alphas.append(alpha.reshape(-1, 2))
            survivals.append(survival.reshape(-1, 2))
            tails.clear()

    for t in range(cfg.draws):
        idx = np.sort(rng_for_draw(t).choice(n, size=b, replace=False))
        try:
            views = [tail_view(cdf) for cdf in subset_cdfs(pipeline, idx)]
        except EstimationError:
            failed += 1
            continue
        for view, fit in zip(views, fits):
            # the full fit's shift puts the view on its positive scale
            knots = view.knots + fit.shift if fit.shift != 0.0 else view.knots
            start = max(int(np.searchsorted(knots, fit.y_min)) - 1, 0)
            tails.append((knots[start:].copy(), view.values[start:].copy()))
            pending += knots.size - start
        if pending >= CHUNK_ELEMENTS // 4:
            flush()
            pending = 0
    flush()
    alphas = np.concatenate(alphas) if alphas else np.empty((0, 2))
    survivals = np.concatenate(survivals) if survivals else np.empty((0, 2))
    negative = (alphas < 0.0).any(axis=1)
    alphas, survivals = alphas[~negative], survivals[~negative]
    thresholds = np.tile(y_min, (len(alphas), 1))
    return alphas, survivals, thresholds, failed + int(negative.sum())


def _frozen_tails(tails, y_min, omega):
    """(index, threshold survival) of each CDF tail at its threshold.

    tails holds (knots, values) pairs and y_min one threshold for each;
    they go through tail_index_rows as the rows of one matrix, padded
    with inf knots. A tail with nothing to fit (no resolvable mass
    beyond the threshold) is the boundary case of an infinitely fast
    decay: an infinite index with zero survival, which extrapolates to
    the threshold itself. An index of exactly 0 (survival constant
    beyond the threshold) is infinite too, but keeps its survival. A
    negative index is returned as it is.
    """
    lengths = np.array([k.size for k, _ in tails])
    at_knot = np.arange(lengths.max()) < lengths[:, None]
    knots = np.full(at_knot.shape, np.inf)
    knots[at_knot] = np.concatenate([k for k, _ in tails])
    values = np.ones(at_knot.shape)
    values[at_knot] = np.concatenate([v for _, v in tails])
    alpha, s_min = tail_index_rows(knots, values, at_knot, y_min, omega)
    empty = np.isnan(alpha)
    return np.where(empty | (alpha == 0.0), np.inf, alpha), np.where(empty, 0.0, s_min)


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
    # outcome ranks in the smallest type that also holds the sentinel rank n
    rank = np.empty(n, dtype=np.min_scalar_type(n))
    rank[order] = np.arange(n)
    # sorted copies end in a sentinel unit that packed rows are padded with
    y_sorted = np.append(data.y[order], np.inf)
    r_sorted = np.append(data.r[order], np.inf)
    treated = data.d.astype(bool)
    treated_sorted = np.append(treated[order], False)
    del order
    # both arms run as one stack of rows, arm 1 first as in TailDraws
    arms = (1, 0)
    shifts = np.array([[pipeline.fit1.shift], [pipeline.fit0.shift]])

    def refit(draws: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(alphas, thresholds, failed) of a chunk of draws.

        Each matrix is dropped as soon as the next stage no longer needs
        it, and the rest die on return, before the next chunk's: the
        chunk's peak memory is what CHUNK_ELEMENTS is sized against.
        """
        idx = np.empty((len(draws), b), dtype=np.intp)
        for row, t in enumerate(draws):
            idx[row] = rng_for_draw(t).choice(n, size=b, replace=False)
        idx.sort(axis=1)
        r, units = data.r[idx], rank[idx]
        above, below, taken = r > 0, r < 0, treated[idx]
        del idx
        h = rot_bandwidths(r)
        # only the window carries kernel weight, places knots and holds the
        # arm takers; entries outside it take the sentinel rank n, which
        # sorts behind every unit and leaves each row's window entries at
        # its front in outcome order
        window = np.abs(r) <= h[:, None]
        w = kernel_weights(r, h)
        del r
        s_above, s_below, jump = side_masses(w, above, below, taken)
        del w, above, below, taken
        ok = (h > 0.0) & (s_above > 0.0) & (s_below > 0.0) & (np.abs(jump) >= DENOM_EPS)
        units[~window] = n
        units.sort(axis=1)
        units = units[:, : max(int(np.count_nonzero(window, axis=1).max()), 1)].copy()
        del window
        ys, r, taken = y_sorted[units], r_sorted[units], treated_sorted[units]
        inside = units < n
        del units
        w = kernel_weights(r, h)
        # a draw that passes ok has kernel mass from both arms' takers and
        # ratio CDFs that end near 1, so the rows' own failure flags
        # (no arm-taker mass, a view never above 0) are never set on it
        thr, _ = arm_threshold_rows(ys, r, taken, w, inside, arms, settings.ymin_level)
        at_knot, betas = jump_ratio_rows(ys, r, taken, w, inside, s_above, s_below, jump)
        del r, taken, w, inside
        view, _ = tail_view_rows(betas, at_knot)
        del betas
        th = thr + shifts
        width = ys.shape[1]
        alpha, _ = tail_index_rows(
            (ys + shifts[:, :, None]).reshape(-1, width),
            view.reshape(-1, width),
            np.broadcast_to(at_knot, view.shape).reshape(-1, width),
            th.ravel(),
            settings.omega,
        )
        # nothing to fit, or an index at or below 0: the flat tail
        alpha = np.where(alpha > 0.0, alpha, np.inf)
        return alpha.reshape(2, -1).T, th.T, ~ok

    alphas = np.empty((cfg.draws, 2))
    thresholds = np.empty((cfg.draws, 2))
    failed = np.empty(cfg.draws, dtype=bool)
    step = max(1, CHUNK_ELEMENTS // b)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, cfg.draws, step):
            chunk = slice(start, min(start + step, cfg.draws))
            alphas[chunk], thresholds[chunk], failed[chunk] = refit(range(start, chunk.stop))
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
    with np.errstate(invalid="ignore"):  # inf - inf; estimate_qte_batch raises on the NaN
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
    # next to an infinite draw the quantile's interpolation can meet
    # inf - inf; estimate_qte_batch raises on the endpoint that gives
    with np.errstate(invalid="ignore"):
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
    serves every level. Omitting cfg skips inference entirely. A NaN or
    infinite point estimate or interval endpoint raises
    UndefinedEstimate.

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
    for q, point in zip(q_list, points):
        if not math.isfinite(point):
            raise UndefinedEstimate(
                f"the point estimate at q = {q:g} is {point}: an arm's quantile overflows"
            )
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
        if not (math.isfinite(ci.lo) and math.isfinite(ci.hi)):
            raise UndefinedEstimate(
                f"the interval at q = {q:g} has a non-finite endpoint: "
                f"{int(np.isnan(draws).sum())} of {draws.size} draws are NaN "
                f"and {int(np.isinf(draws).sum())} infinite"
            )
        out.append(QteResult(q=q, estimate=point, ci=ci))
    return out
