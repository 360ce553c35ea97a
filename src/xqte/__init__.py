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

Each name in __all__ loads its home module, and numpy with it, on first
use: importing the package alone imports no numpy and leaves the
environment as it was, so a program that uses xqte keeps its own BLAS
settings.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    "CiResult": "inference",
    "EstimationError": "core",
    "EstimatorSettings": "pipeline",
    "ObservationSet": "core",
    "QteResult": "inference",
    "SubsampleConfig": "inference",
    "estimate_qte_batch": "inference",
    "fit_pipeline": "pipeline",
    "flip_outcomes": "core",
    "substream": "core",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
