"""End-to-end estimation pipelines: design-specific CDF estimation plus
tail fits, packaged with a refit hook that subsampling can call on row
subsets.

A pipeline is fitted on the analysis scale. For lower-tail targets the
outcomes are flipped on the way in (tail_side="lower") and every fitted
object carries flipped=True so quantile lookups map back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cdf_iv import fit_logit, kappa_cdf
from .cdf_rdd import arm_threshold, rdd_cdf, rot_bandwidth
from .core import (
    DegenerateDenominator,
    ObservationSet,
    StepCdf,
    flip_outcomes,
    step_sums,
    tail_view,
)
from .inference import RateSpec
from .tail import (
    EmptyTail,
    NonPositiveSurvival,
    TailFit,
    _scale_from,
    fit_tail,
    pareto_index,
)


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
    data: ObservationSet
    settings: EstimatorSettings
    cdf1: StepCdf
    cdf0: StepCdf
    fit1: TailFit
    fit0: TailFit
    rate: RateSpec
    refit_cdfs: Callable[[np.ndarray], tuple[StepCdf, StepCdf]]
    meta: dict = field(default_factory=dict)

    @property
    def flipped(self) -> bool:
        return self.fit1.flipped


def ecdf(y: np.ndarray, flipped: bool = False) -> StepCdf:
    """Empirical CDF of a sample as a step function."""
    ys = np.sort(np.asarray(y, dtype=float))
    if ys.size == 0:
        raise DegenerateDenominator("empty arm: no observations to build a CDF from")
    at_knot, counts = step_sums(ys, np.ones(ys.size))
    return StepCdf(ys[at_knot], counts[at_knot] / ys.size, flipped)


def _rdd_cdfs(data: ObservationSet, settings: EstimatorSettings, flipped: bool):
    h = rot_bandwidth(data.r)
    pair = rdd_cdf(data, h=h, flipped=flipped)
    return pair.beta1, pair.beta0, {"bandwidth": h, "first_stage_jump": pair.denom1}


def _direct_cdfs(data: ObservationSet, flipped: bool):
    treated = data.y[data.d == 1]
    control = data.y[data.d == 0]
    return ecdf(treated, flipped), ecdf(control, flipped), {}


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
        view = view.shifted(shift)
        y_min = 1.0
    s_min = 1.0 - settings.ymin_level
    alpha = np.inf
    t_max = np.inf
    try:
        raw = pareto_index(view, y_min, settings.omega)
        if raw.alpha_hat > 0.0:
            alpha = raw.alpha_hat
            t_max = raw.t_max
    except (NonPositiveSurvival, EmptyTail):
        pass
    return TailFit(
        y_min=y_min,
        omega=settings.omega,
        alpha_hat=float(alpha),
        c_hat=_scale_from(s_min, y_min, alpha),
        s_min=s_min,
        t_max=float(t_max),
        flipped=cdf.flipped,
        shift=shift,
    )


def fit_pipeline(
    data: ObservationSet,
    settings: EstimatorSettings | None = None,
    tail_side: str = "upper",
) -> FittedPipeline:
    """Fit both counterfactual CDFs and their Pareto tails.

    tail_side "lower" negates outcomes first; estimates then live on the
    flipped scale and results are mapped back at quantile time. The
    returned refit hook recomputes the CDF pair on an index subset with
    the same recipe (IV refits the propensity, RDD re-derives the
    bandwidth from the subset).

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
    flipped = tail_side == "lower"
    if flipped:
        data = flip_outcomes(data)

    if data.design == "iv":
        model = fit_logit(data.x, data.z)
        pair = kappa_cdf(data, model, p_trim=settings.trim, flipped=flipped)
        cdf1, cdf0 = pair.beta1, pair.beta0
        meta = {"gamma": model.gamma, "logit_iterations": model.iterations}

        def refit(idx: np.ndarray) -> tuple[StepCdf, StepCdf]:
            # weights on the subset rows come from the full-sample
            # propensity fit: the nuisance converges at the root-n rate,
            # so re-estimating it per draw would only add noise that the
            # rate correction then misattributes to the tail statistic
            sub = data.subset(idx)
            sub_pair = kappa_cdf(sub, model, p_trim=settings.trim, flipped=flipped)
            return sub_pair.beta1, sub_pair.beta0

        rate = RateSpec("iv")
    elif data.design == "rdd":
        cdf1, cdf0, meta = _rdd_cdfs(data, settings, flipped)
        h = meta["bandwidth"]
        fit1 = _rdd_arm_tail(cdf1, arm_threshold(data, 1, h, settings.ymin_level), settings)
        fit0 = _rdd_arm_tail(cdf0, arm_threshold(data, 0, h, settings.ymin_level), settings)

        def refit(idx: np.ndarray) -> tuple[StepCdf, StepCdf]:
            sub = data.subset(idx)
            c1, c0, _ = _rdd_cdfs(sub, settings, flipped)
            return c1, c0

        rate = RateSpec("rdd")
    elif data.design == "direct":
        cdf1, cdf0, meta = _direct_cdfs(data, flipped)

        def refit(idx: np.ndarray) -> tuple[StepCdf, StepCdf]:
            sub = data.subset(idx)
            c1, c0, _ = _direct_cdfs(sub, flipped)
            return c1, c0

        rate = RateSpec("direct")
    else:
        raise ValueError(f"unknown design {data.design!r}")

    if data.design != "rdd":
        fit1 = fit_tail(tail_view(cdf1), level=settings.ymin_level, omega=settings.omega)
        fit0 = fit_tail(tail_view(cdf0), level=settings.ymin_level, omega=settings.omega)
    meta = dict(meta, design=data.design, tail_side=tail_side)
    return FittedPipeline(
        data=data,
        settings=settings,
        cdf1=cdf1,
        cdf0=cdf0,
        fit1=fit1,
        fit0=fit0,
        rate=rate,
        refit_cdfs=refit,
        meta=meta,
    )
