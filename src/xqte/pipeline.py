"""End-to-end estimation pipelines: design-specific CDF estimation plus
tail fits, and the per-draw CDF refit that subsampling calls on row
subsets.

A pipeline is fitted on the analysis scale, where the targets sit in
the upper tail. For lower-tail targets (tail_side="lower") fit_pipeline
negates the outcomes on the way in; estimate_qte_batch reflects the
levels and negates the estimates on the way out, and nothing in between
knows about it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cdf_iv import LogitModel, fit_logit, kappa_cdf
from .cdf_rdd import arm_threshold, rdd_cdf, rot_bandwidth
from .core import (
    DegenerateDenominator,
    ObservationSet,
    StepCdf,
    flip_outcomes,
    step_sums,
    tail_view,
)
from .tail import TailFit, _scale_from, fit_tail, tail_index_rows


@dataclass(frozen=True)
class EstimatorSettings:
    """Tuning shared by every design.

    omega weights the tail integrand, ymin_level picks the threshold on
    the rearranged CDF, trim clips fitted propensities away from 0 and 1
    (IV only).
    """

    omega: float = 1.0
    ymin_level: float = 0.975
    trim: float = 0.01

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if not 0.0 < self.ymin_level < 1.0:
            raise ValueError("ymin_level must lie in (0, 1)")
        if not 0.0 <= self.trim < 0.5:
            raise ValueError("trim must lie in [0, 0.5)")


@dataclass(frozen=True)
class FittedPipeline:
    """Fitted CDFs and tails on the analysis scale. data holds the
    outcomes as fitted (negated when tail_side is "lower"); logit is the
    full-sample propensity model of the IV design, None otherwise."""

    data: ObservationSet
    settings: EstimatorSettings
    tail_side: str
    cdf1: StepCdf
    cdf0: StepCdf
    fit1: TailFit
    fit0: TailFit
    logit: LogitModel | None = None
    meta: dict = field(default_factory=dict)


def ecdf(y: np.ndarray) -> StepCdf:
    """Empirical CDF of a sample as a step function."""
    ys = np.sort(np.asarray(y, dtype=float))
    if ys.size == 0:
        raise DegenerateDenominator("empty arm: no observations to build a CDF from")
    at_knot, counts = step_sums(ys, np.ones(ys.size))
    return StepCdf(ys[at_knot], counts[at_knot] / ys.size)


def _frozen_cdfs(
    data: ObservationSet, settings: EstimatorSettings, logit: LogitModel | None
) -> tuple[StepCdf, StepCdf]:
    """Treated and control CDFs of the designs whose thresholds stay at
    their full-sample location: kappa weights under the propensity model
    logit (IV), or the two arms' empirical CDFs (direct)."""
    if data.design == "iv":
        pair = kappa_cdf(data, logit, p_trim=settings.trim)
        return pair.beta1, pair.beta0
    if data.design == "direct":
        return ecdf(data.y[data.d == 1]), ecdf(data.y[data.d == 0])
    raise ValueError(f"the {data.design!r} design re-selects its thresholds per draw")


def subset_cdfs(pipeline: FittedPipeline, idx: np.ndarray) -> tuple[StepCdf, StepCdf]:
    """Treated and control CDFs refitted on the rows idx of the fitted
    data, for the IV and direct designs.

    The IV weights on the subset rows come from the full-sample
    propensity fit: the nuisance converges at the root-n rate, so
    re-estimating it per draw would only add noise that the rate
    correction then misattributes to the tail statistic. The
    discontinuity design refits its draws in inference instead.
    """
    return _frozen_cdfs(pipeline.data.subset(idx), pipeline.settings, pipeline.logit)


def _rdd_arm_tail(cdf: StepCdf, threshold: float, settings: EstimatorSettings) -> TailFit:
    """Tail fit for one discontinuity arm at an externally chosen threshold.

    The threshold survival is pinned at its nominal value 1 - ymin_level
    instead of being read off the estimated CDF. The kernel-ratio CDF
    carries first-stage noise of the same order as the tail
    probabilities themselves, so its realized level at any fixed point
    is the least reliable number on the curve, while the nominal level
    is what the weighted-quantile threshold targets by construction.
    The index still comes from the CDF's shape beyond the threshold.
    When that shape is degenerate (no resolvable mass past the
    threshold, or a nonpositive slope estimate) the arm falls back to
    the flat-tail boundary, an infinite index, whose extrapolated
    quantiles collapse to the threshold itself.
    """
    view = tail_view(cdf)
    shift = 0.0
    y_min = float(threshold)
    if y_min <= 0.0:
        shift = 1.0 - y_min
        y_min = 1.0
    s_min = 1.0 - settings.ymin_level
    (alpha,), _ = tail_index_rows(
        view.knots[None] + shift, view.values[None], True, np.array([y_min]), settings.omega
    )
    if not alpha > 0.0:
        alpha = np.inf
    return TailFit(
        y_min=y_min,
        omega=settings.omega,
        alpha_hat=float(alpha),
        c_hat=_scale_from(s_min, y_min, alpha),
        s_min=s_min,
        shift=shift,
    )


def fit_pipeline(
    data: ObservationSet,
    settings: EstimatorSettings | None = None,
    tail_side: str = "upper",
) -> FittedPipeline:
    """Fit both counterfactual CDFs and their Pareto tails.

    tail_side "lower" negates outcomes first; everything is then fitted
    on the negated scale, and estimate_qte_batch maps the results back.

    cdf1 and cdf0 keep the raw estimated values; the tail fits run on
    their proper-CDF view (tail_view), so threshold selection stays well
    defined even when a weighted CDF wanders around its terminal level.

    The discontinuity design does not select thresholds from the
    estimated CDF at all: each arm's threshold is the kernel-weighted
    quantile of that arm's outcomes near the cutoff (arm_threshold).
    Subsampling re-selects them per draw the same way, in its own
    batched engine (inference.subsample_tail_pairs).
    """
    settings = settings or EstimatorSettings()
    if tail_side not in ("upper", "lower"):
        raise ValueError("tail_side must be 'upper' or 'lower'")
    if tail_side == "lower":
        data = flip_outcomes(data)

    logit = None
    if data.design == "rdd":
        h = rot_bandwidth(data.r)
        pair = rdd_cdf(data, h=h)
        cdf1, cdf0 = pair.beta1, pair.beta0
        meta = {"bandwidth": h, "first_stage_jump": pair.denom1}
        fit1 = _rdd_arm_tail(cdf1, arm_threshold(data, 1, h, settings.ymin_level), settings)
        fit0 = _rdd_arm_tail(cdf0, arm_threshold(data, 0, h, settings.ymin_level), settings)
    else:
        meta = {}
        if data.design == "iv":
            logit = fit_logit(data.x, data.z)
            meta = {"gamma": logit.gamma, "logit_iterations": logit.iterations}
        cdf1, cdf0 = _frozen_cdfs(data, settings, logit)
        fit1 = fit_tail(tail_view(cdf1), level=settings.ymin_level, omega=settings.omega)
        fit0 = fit_tail(tail_view(cdf0), level=settings.ymin_level, omega=settings.omega)
    return FittedPipeline(
        data=data,
        settings=settings,
        tail_side=tail_side,
        cdf1=cdf1,
        cdf0=cdf0,
        fit1=fit1,
        fit0=fit0,
        logit=logit,
        meta=meta,
    )
