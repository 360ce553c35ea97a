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

The stages behind them are importable from their own modules: xqte.core,
xqte.cdf_iv, xqte.cdf_rdd, xqte.tail, xqte.pipeline, xqte.inference and
xqte.simulate.
"""

from .core import EstimationError, ObservationSet, flip_outcomes, substream
from .pipeline import EstimatorSettings, fit_pipeline
from .inference import CiResult, QteResult, SubsampleConfig, estimate_qte_batch

__version__ = "0.1.0"

__all__ = [
    "CiResult",
    "EstimationError",
    "EstimatorSettings",
    "ObservationSet",
    "QteResult",
    "SubsampleConfig",
    "estimate_qte_batch",
    "fit_pipeline",
    "flip_outcomes",
    "substream",
]
