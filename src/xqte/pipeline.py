"""End-to-end estimation pipelines: design-specific CDF estimation plus
tail fits. Subsampling refits the draws in inference, from the fitted
pipeline.

A pipeline is fitted on the analysis scale, where the targets sit in
the upper tail. For lower-tail targets (tail_side="lower") fit_pipeline
negates the outcomes on the way in; estimate_qte_batch reflects the
levels and negates the estimates on the way out, and nothing in between
knows about it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cdf_iv import LogitModel, fit_logit, kappa_cdf
from .cdf_rdd import arm_threshold, rdd_cdf, rot_bandwidth
from .core import (
    ObservationSet, RankedSample, StepCdf, flip_outcomes, rank_sample, ranked_cdfs, tail_view
)
from .tail import TailFit, fit_arm, fit_tail


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
        if not np.isfinite(self.omega):
            raise ValueError("omega must be finite")
        if not 0.0 < self.ymin_level < 1.0:
            raise ValueError("ymin_level must lie in (0, 1)")
        if not 0.0 <= self.trim < 0.5:
            raise ValueError("trim must lie in [0, 0.5)")


@dataclass(frozen=True)
class FittedPipeline:
    """Fitted CDFs and tails on the analysis scale. data holds the
    outcomes as fitted (negated when tail_side is "lower"); in the IV
    design its covariate matrix has no columns (shape (n, 0)): the
    propensity is fitted, and nothing after the fit reads x. logit is
    the full-sample propensity model of the IV design, sample the ranked
    sample that IV and direct CDFs and draws are built from (else None)."""

    data: ObservationSet
    settings: EstimatorSettings
    tail_side: str
    cdf1: StepCdf
    cdf0: StepCdf
    fit1: TailFit
    fit0: TailFit
    logit: LogitModel | None = None
    sample: RankedSample | None = None
    meta: dict = field(default_factory=dict)


def fit_pipeline(
    data: ObservationSet,
    settings: EstimatorSettings | None = None,
    tail_side: str = "upper",
) -> FittedPipeline:
    """Fit both counterfactual CDFs and their Pareto tails.

    tail_side "lower" negates outcomes first; everything is then fitted
    on the negated scale, and estimate_qte_batch maps the results back.

    The instrument design fits the propensity, weights and ranks the
    sample, and then keeps data with an (n, 0) covariate matrix: nothing
    after the fit reads x, and the draws would otherwise hold it alive.

    cdf1 and cdf0 keep the raw estimated values; the tail fits run on
    their proper-CDF view (tail_view), so threshold selection stays well
    defined even when a weighted CDF wanders around its terminal level.

    The discontinuity design does not select thresholds from the
    estimated CDF at all: each arm's threshold is the kernel-weighted
    quantile of that arm's outcomes near the cutoff (arm_threshold).
    Subsampling re-selects them per draw the same way, in the draw
    engine's own row stage (inference.subsample_tail_pairs). Its threshold
    survival is pinned at the nominal 1 - ymin_level, which the
    weighted-quantile threshold targets by construction, rather than
    read off the kernel-ratio CDF, whose first-stage noise is as large
    as the tail probabilities themselves.
    """
    settings = settings or EstimatorSettings()
    if tail_side not in ("upper", "lower"):
        raise ValueError("tail_side must be 'upper' or 'lower'")
    if tail_side == "lower":
        data = flip_outcomes(data)

    logit = sample = None
    if data.design == "rdd":
        h = rot_bandwidth(data.r)
        pair = rdd_cdf(data, h=h)
        cdf1, cdf0 = pair.beta1, pair.beta0
        meta = {"bandwidth": h, "first_stage_jump": pair.denom1}
        s_min = 1.0 - settings.ymin_level
        thr1, view1 = arm_threshold(data, 1, h, settings.ymin_level), tail_view(cdf1)
        fit1 = fit_arm(view1, thr1, settings.omega, s_min)
        thr0, view0 = arm_threshold(data, 0, h, settings.ymin_level), tail_view(cdf0)
        fit0 = fit_arm(view0, thr0, settings.omega, s_min)
    else:
        meta = {}
        if data.design == "iv":
            logit = fit_logit(data.x, data.z)
            meta = {"gamma": logit.gamma, "logit_iterations": logit.iterations}
            pair = kappa_cdf(data, logit, p_trim=settings.trim)
            cdf1, cdf0, sample = pair.beta1, pair.beta0, pair.sample
            # the draws read the ranked sample's weights: holding x on
            # would keep n x k floats alive for nothing
            data = replace(data, x=np.empty((data.n, 0)))
        else:
            sample = rank_sample(data.y, np.stack([data.d, 1 - data.d]).astype(float))
            cdf1, cdf0 = ranked_cdfs(sample)
        fit1 = fit_tail(tail_view(cdf1), level=settings.ymin_level, omega=settings.omega)
        fit0 = fit_tail(tail_view(cdf0), level=settings.ymin_level, omega=settings.omega)
    return FittedPipeline(data=data, settings=settings, tail_side=tail_side, cdf1=cdf1,
                          cdf0=cdf0, fit1=fit1, fit0=fit0, logit=logit, sample=sample,
                          meta=meta)
