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
not depend on draw order. The draws run in the calling process at any
sample size and never fork: a Monte Carlo run forks whole replications
instead (simulate.run_mc), and a replication's draws run in its worker.
Every row is fitted independently of the rows computed with it, so the
draws are the same bit for bit at any chunk size.

One engine (_draws) refits a chunk of draws at a time (as many as fit
CHUNK_ELEMENTS entries per (draws x b) matrix, and at least
MIN_CHUNK_DRAWS while they fit MAX_CHUNK_ENTRIES) from the full sample
ranked by outcome once, stably: a chunk gathers its draws as a
(draws x b) matrix in index order, for the sums whose order matters,
then sorts each draw's ranks (tied outcomes stay in input row order).
A row stage per design turns them into both arms' CDF rows, stacked:
the frozen-threshold designs read the fit's ranked sample through its
own CDF routine (core.arm_cdf_rows); the discontinuity design
re-selects each draw's bandwidth, window, jump-ratio CDFs and arm
thresholds. One tail stage then fits every row on its proper-CDF view
(tail.tail_index_rows), from the last knot below the thresholds on,
with one flat-tail rule whose only design input is the threshold
survival: pinned, or realized by the draw. The draws equal their
per-draw recipes bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cdf_rdd import (
    arm_threshold_rows, jump_ratio_rows, kernel_weights, rot_bandwidths, side_masses,
)
from .core import DENOM_EPS, EstimationError, arm_cdf_rows, tail_view_rows
from .pipeline import FittedPipeline
from .tail import TailFit, extrapolated_quantiles, qte_point, tail_index_rows

# entries per (draws x b) matrix in one chunk of subsample draws, the
# fewest draws a chunk holds, and the most entries those draws may take.
# A chunk keeps about seven such matrices of 8-byte entries alive at
# once (each stack of both arms' knots, values or views counts two;
# ranks and masks are smaller); larger chunks spend less time in
# per-call overhead but raise the process's peak memory. Up to
# b = CHUNK_ELEMENTS // MIN_CHUNK_DRAWS (819) CHUNK_ELEMENTS bounds a
# chunk; above it a chunk holds MIN_CHUNK_DRAWS draws while they fit
# MAX_CHUNK_ENTRIES (up to b = 6553), and as many as fit it above that,
# at least one: the peak stays within about 7 MB until one draw's b
# alone passes MAX_CHUNK_ENTRIES. At b = 3163 (n = 10^5) 5-draw chunks
# made the in-process draw loop take 0.20 s against 0.14 s with 20
# (B = 500, 2 CPUs).
CHUNK_ELEMENTS = 2**14
MIN_CHUNK_DRAWS = 20
MAX_CHUNK_ENTRIES = 2**17

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
    of subsets, ci_level the two-sided coverage target."""

    b: int | None = None
    draws: int = 500
    ci_level: float = 0.95
    max_failure_share: float = 0.10

    def resolve_b(self, n: int) -> int:
        return int(math.ceil(n**0.7)) if self.b is None else int(self.b)

    def validate(self, n: int | None = None) -> int | None:
        """Check every setting; given a sample size n, also check b
        against it and return the resolved b."""
        if self.b is not None and self.b < 2:
            raise ValueError("subsample size b must be at least 2")
        if self.draws < 100:
            raise ValueError("need at least 100 subsample draws")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must lie in (0, 1)")
        if not 0.0 <= self.max_failure_share < 1.0:
            raise ValueError("max_failure_share must lie in [0, 1)")
        if n is None:
            return None
        b = self.resolve_b(n)
        if not 1 < b < n:
            raise ValueError(f"subsample size b={b} not in (1, n) for n={n}")
        return b


@dataclass(frozen=True)
class TailDraws:
    """Retained subsample tail re-estimates.

    alphas, survivals and thresholds all have shape (n_kept, 2), column
    0 for the treated arm and column 1 for the control arm. Designs
    with frozen thresholds repeat the full-sample threshold in every
    row; the discontinuity design re-selects thresholds per draw and
    repeats its pinned threshold survival.
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
    """Per-draw tail re-estimates of both arms: index, threshold survival
    and threshold, from the draw engine (_draws).

    A draw fails when its refit would raise an EstimationError or either
    index comes out negative; more than max_failure_share failures
    raises UnstableSubsampling. Indices are sorted so a draw is a set,
    not a permutation.
    """
    b = cfg.validate(pipeline.data.n)
    *columns, failed_draws = _draws(pipeline, cfg, b, rng_for_draw)
    failed = int(failed_draws.sum())
    if failed > cfg.max_failure_share * cfg.draws:
        raise UnstableSubsampling(
            f"{failed} of {cfg.draws} subsample draws failed; "
            "the tail fit is too fragile at this sample size"
        )
    return TailDraws(*(column[~failed_draws] for column in columns), failed=failed)


def _draws(pipeline, cfg, b, rng_for_draw):
    """All cfg.draws subsample draws, a chunk of draws at a time.

    The design's row stage (_frozen_rows, or _rdd_rows for the
    discontinuity design) turns a chunk's sorted unit indices into both
    arms' CDF rows and thresholds on the full fit's shifted scale, and
    _fit_rows fits every row's tail. The discontinuity design pins each
    draw's threshold survival at the full fit's nominal level; the
    others read it off the draw.

    Returns (alphas, survivals, thresholds, failed) for each draw:
    (draws, 2) arrays with arm 1 in column 0, and a mask of the draws
    that fail: a refit that would raise an EstimationError (the row
    stage's ok), a view never above 0, or a negative index.
    """
    n, omega, fits = pipeline.data.n, pipeline.settings.omega, (pipeline.fit1, pipeline.fit0)
    if pipeline.data.design == "rdd":
        rows, s_min = _rdd_rows(pipeline), np.array([[fit.s_min] for fit in fits])
    else:
        rows, s_min = _frozen_rows(pipeline), None

    def refit(chunk: range) -> tuple[np.ndarray, ...]:
        idx = np.empty((len(chunk), b), dtype=np.intp)
        for row, t in enumerate(chunk):
            idx[row] = rng_for_draw(t).choice(n, size=b, replace=False)
        idx.sort(axis=1)
        knots, at_knot, values, thresholds, ok = rows(idx)
        del idx
        alpha, survival, degenerate = _fit_rows(knots, at_knot, values, thresholds, omega, s_min)
        failed = ~ok | degenerate.any(axis=0) | (alpha < 0.0).any(axis=0)
        return alpha.T, survival.T, thresholds.T, failed

    draws = range(cfg.draws)
    step = max(1, CHUNK_ELEMENTS // b, min(MIN_CHUNK_DRAWS, MAX_CHUNK_ENTRIES // b))
    with np.errstate(divide="ignore", invalid="ignore"):
        parts = [refit(draws[lo:lo + step]) for lo in range(0, len(draws), step)]
    return tuple(map(np.concatenate, zip(*parts)))


def _frozen_rows(pipeline):
    """Row stage of the instrument and direct designs: each draw runs its
    units' ranks through the fit's CDF routine (core.arm_cdf_rows) with
    the full-sample weights (refitting the root-n propensity per draw
    would only add noise that the rate correction misattributes to the
    tail statistic), at the frozen full-sample thresholds. A draw fails
    when it has no CDF."""
    sample, fits = pipeline.sample, (pipeline.fit1, pipeline.fit0)
    y_min, shifts = np.array([[f.y_min] for f in fits]), np.array([f.shift for f in fits])

    def rows(idx: np.ndarray) -> tuple[np.ndarray, ...]:
        # np.take gathers with the small rank type much faster than indexing
        ys, at_knot, sums, ok = arm_cdf_rows(sample, np.take(sample.rank, idx))
        return ys + shifts[:, None, None], at_knot, sums, np.broadcast_to(y_min, (2, ok.size)), ok

    return rows


def _rdd_rows(pipeline):
    """Row stage of the discontinuity design: each draw repeats the
    full-sample recipe on its subset, with its own rule-of-thumb
    bandwidth, jump-ratio CDFs and kernel-weighted arm thresholds, and
    keeps only its bandwidth window. A draw fails when its refit would
    raise an EstimationError."""
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

    def rows(idx: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each matrix is dropped as soon as the next stage no longer needs
        it, and the rest die when the chunk is fitted, before the next
        chunk's: the chunk's peak memory is what CHUNK_ELEMENTS is sized
        against."""
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
        return ys + shifts[:, :, None], at_knot, betas, thr + shifts, ok

    return rows


def _fit_rows(knots, at_knot, values, thresholds, omega, s_min=None):
    """(alpha, survival, degenerate) of the tail of each row of raw CDF
    values, shaped like thresholds (one per row): knots and values have
    a last axis of entries, and at_knot broadcasts against them.

    Each row is fitted (tail_index_rows) on its proper-CDF view
    (tail_view_rows) from the last knot below the lowest threshold on;
    column 0 of the view carries its running maximum up to there.
    degenerate flags the views never above 0.

    s_min, when given, pins the threshold survival; else it is the one
    each row realizes. Nothing to fit is the flat tail of an infinitely
    fast decay: index inf, which extrapolates to the threshold itself,
    and a realized survival of 0. An index of exactly 0 (constant
    survival beyond the threshold) is inf too but keeps its survival; a
    negative index is returned as it is.
    """
    start = max(int(np.count_nonzero(knots < thresholds[..., None], axis=-1).min()) - 1, 0)
    width = knots.shape[-1] - start
    window = np.empty(values.shape[:-1] + (width + 1,))
    window[..., 0] = np.where(at_knot[..., :start], values[..., :start], -np.inf).max(
        axis=-1, initial=-np.inf)
    window[..., 1:] = values[..., start:]
    marks = np.ones(window.shape, dtype=bool)
    marks[..., 1:] = at_knot[..., start:]
    view, degenerate = tail_view_rows(window, marks)
    alpha, realized = (out.reshape(thresholds.shape) for out in tail_index_rows(
        knots[..., start:].reshape(-1, width), view[..., 1:].reshape(-1, width),
        marks[..., 1:].reshape(-1, width), thresholds.ravel(), omega,
    ))
    empty = np.isnan(alpha)
    survival = np.where(empty, 0.0, realized) if s_min is None else np.broadcast_to(
        s_min, alpha.shape)
    return np.where(empty | (alpha == 0.0), np.inf, alpha), survival, degenerate


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
