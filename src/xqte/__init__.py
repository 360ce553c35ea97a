"""Extreme quantile treatment effects under endogeneity.

Counterfactual outcome CDFs for compliers (binary-instrument, fuzzy
discontinuity, or direct two-arm designs), a closed-form Pareto
tail-index fit, quantile extrapolation beyond the data, and subsampling
confidence intervals, plus the Monte Carlo harness behind the bundled
simulation tables.

Typical use goes through fit_pipeline and estimate_qte_batch:

    data = ObservationSet(design="iv", y=y, d=d, z=z, x=x)
    pipe = fit_pipeline(data, tail_side="lower")
    results = estimate_qte_batch(pipe, [0.02, 0.025], SubsampleConfig(),
                                 lambda t: substream(7, t))
"""

from .core import (
    DegenerateDenominator,
    EstimationError,
    MonotoneCdf,
    ObservationSet,
    QuantileUnreachable,
    StepCdf,
    evaluate,
    flip_outcomes,
    left_inverse,
    monotone_rearrange,
    substream,
    tail_view,
)
from .cdf_iv import KappaCdfPair, LogitModel, fit_logit, kappa_cdf
from .cdf_rdd import (
    EmptyWindow,
    RddCdfPair,
    ZeroVariance,
    arm_threshold,
    epanechnikov,
    one_sided_nw,
    rdd_cdf,
    rot_bandwidth,
)
from .tail import (
    EmptyTail,
    InvalidAlpha,
    NonPositiveSurvival,
    NotBeyondThreshold,
    SecondOrderSpec,
    TailFit,
    extrapolated_quantiles,
    extreme_quantile,
    fit_tail,
    pareto_index,
    pareto_index_analytic,
    qte_point,
    select_ymin,
)
from .pipeline import EstimatorSettings, FittedPipeline, ecdf, fit_pipeline
from .inference import (
    CiResult,
    QteResult,
    RateSpec,
    SubsampleConfig,
    TailDraws,
    UnstableSubsampling,
    estimate_qte_batch,
    qte_draws_from_tails,
    subsample_tail_pairs,
    subsampling_ci,
)
from .simulate import (
    McCell,
    McConfig,
    McReport,
    SimDraw,
    format_report,
    gen_iv,
    gen_rdd,
    run_mc,
    true_qte,
)

__version__ = "0.1.0"

__all__ = [
    "CiResult",
    "DegenerateDenominator",
    "EmptyTail",
    "EmptyWindow",
    "EstimationError",
    "EstimatorSettings",
    "FittedPipeline",
    "InvalidAlpha",
    "KappaCdfPair",
    "LogitModel",
    "McCell",
    "McConfig",
    "McReport",
    "MonotoneCdf",
    "NonPositiveSurvival",
    "NotBeyondThreshold",
    "ObservationSet",
    "QteResult",
    "QuantileUnreachable",
    "RateSpec",
    "RddCdfPair",
    "SecondOrderSpec",
    "SimDraw",
    "StepCdf",
    "SubsampleConfig",
    "TailDraws",
    "TailFit",
    "UnstableSubsampling",
    "ZeroVariance",
    "arm_threshold",
    "ecdf",
    "epanechnikov",
    "estimate_qte_batch",
    "evaluate",
    "extrapolated_quantiles",
    "extreme_quantile",
    "fit_logit",
    "fit_pipeline",
    "fit_tail",
    "flip_outcomes",
    "format_report",
    "gen_iv",
    "gen_rdd",
    "kappa_cdf",
    "left_inverse",
    "monotone_rearrange",
    "one_sided_nw",
    "pareto_index",
    "pareto_index_analytic",
    "qte_draws_from_tails",
    "qte_point",
    "rdd_cdf",
    "rot_bandwidth",
    "run_mc",
    "select_ymin",
    "subsample_tail_pairs",
    "subsampling_ci",
    "substream",
    "tail_view",
    "true_qte",
]
