"""Shared data model: observation sets, step-function CDFs, their
proper-CDF views, outcome flipping, and reproducible RNG substreams.

Counterfactual CDF estimators in this package return raw step functions
that need not be monotone or stay inside [0, 1]. Tail fits read them
through a proper-CDF view (tail_view), which is monotone and ends at
exactly 1, so threshold lookups on it are always well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

Design = Literal["iv", "rdd", "direct"]


class EstimationError(Exception):
    """Base class for failures of the estimation pipeline."""


class DegenerateDenominator(EstimationError):
    """Estimated complier mass is numerically zero; the design carries no
    identifying variation for the counterfactual CDFs."""


def _check_finite(arr: np.ndarray, name: str) -> np.ndarray:
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_binary(arr: np.ndarray, name: str) -> np.ndarray:
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError(f"{name} must be 0/1 valued")
    return arr


@dataclass(frozen=True)
class ObservationSet:
    """Unit-level records for one research design.

    design "iv":     outcome y, treatment d, binary instrument z,
                     covariate matrix x of shape (n, k).
    design "rdd":    outcome y, treatment d, running variable r with the
                     cutoff normalized to 0.
    design "direct": outcome y and treatment d only; each arm's CDF is
                     read straight off the corresponding subsample.
    """

    design: Design
    y: np.ndarray
    d: np.ndarray
    z: np.ndarray | None = None
    x: np.ndarray | None = None
    r: np.ndarray | None = None

    def __post_init__(self):
        y = _check_finite(np.asarray(self.y, dtype=float), "y")
        if y.ndim != 1 or y.size == 0:
            raise ValueError("y must be a non-empty 1-d array")
        n = y.size
        d = np.asarray(self.d)
        if d.shape != (n,):
            raise ValueError("d must match y in length")
        d = _check_binary(d, "d").astype(np.int8)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "d", d)
        if self.design == "iv":
            if self.z is None or self.x is None:
                raise ValueError("iv design needs z and x")
            z = np.asarray(self.z)
            if z.shape != (n,):
                raise ValueError("z must match y in length")
            z = _check_binary(z, "z").astype(np.int8)
            x = _check_finite(np.asarray(self.x, dtype=float), "x")
            if x.ndim != 2 or x.shape[0] != n:
                raise ValueError("x must be a 2-d array with one row per unit")
            object.__setattr__(self, "z", z)
            object.__setattr__(self, "x", x)
        elif self.design == "rdd":
            if self.r is None:
                raise ValueError("rdd design needs the running variable r")
            r = _check_finite(np.asarray(self.r, dtype=float), "r")
            if r.shape != (n,):
                raise ValueError("r must match y in length")
            object.__setattr__(self, "r", r)
        elif self.design != "direct":
            raise ValueError(f"unknown design {self.design!r}")

    @property
    def n(self) -> int:
        return self.y.size

    def subset(self, idx: np.ndarray) -> "ObservationSet":
        """Row subset (used by subsampling); validation re-runs, it is cheap."""
        return ObservationSet(
            design=self.design,
            y=self.y[idx],
            d=self.d[idx],
            z=None if self.z is None else self.z[idx],
            x=None if self.x is None else self.x[idx],
            r=None if self.r is None else self.r[idx],
        )


def flip_outcomes(data: ObservationSet) -> ObservationSet:
    """Negate outcomes so a lower-tail analysis becomes an upper-tail one.

    An involution: flipping twice restores the input. A lower-tail
    quantile level q on the original data corresponds to the upper-tail
    level 1 - q on flipped data, and quantile estimates map back with a
    sign change.
    """
    return replace(data, y=-data.y)


@dataclass(frozen=True)
class StepCdf:
    """Piecewise-constant CDF estimate on a strictly increasing knot grid.

    values[i] is the estimate just above knots[i]. Evaluation is
    left-continuous: 0 below the first knot, values[i-1] on
    (knots[i-1], knots[i]], and values[-1] above the last knot. Values
    are stored raw; they may leave [0, 1] or be non-monotone, and no
    clipping happens here.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = _check_finite(np.asarray(self.knots, dtype=float), "knots")
        values = _check_finite(np.asarray(self.values, dtype=float), "values")
        if knots.ndim != 1 or knots.size == 0:
            raise ValueError("knots must be a non-empty 1-d array")
        if values.shape != knots.shape:
            raise ValueError("values must match knots in shape")
        if knots.size > 1 and not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be strictly increasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def shifted(self, delta: float) -> "StepCdf":
        return StepCdf(self.knots + delta, self.values)


def step_sums(ys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted step-CDF kernel: running weight totals read at the knots.

    ys holds outcomes sorted ascending along its last axis, one row per
    sample; a 1-d array is the one-row case. weights holds per-unit
    weights in the same order, shape ys.shape or (k, *ys.shape) for k
    weight arrays at once.

    Returns (at_knot, sums). sums holds the running totals along the
    last axis, written over weights (a float array the caller builds for
    the call), and at_knot marks the last entry of each run of tied
    outcomes, so a knot's total counts every tied unit.
    """
    at_knot = np.ones(ys.shape, dtype=bool)
    at_knot[..., :-1] = ys[..., 1:] != ys[..., :-1]
    return at_knot, np.cumsum(weights, axis=-1, out=weights)


def evaluate(cdf: StepCdf, y) -> np.ndarray | float:
    """Left-continuous evaluation of a step CDF at scalar or array y."""
    y_arr = np.asarray(y, dtype=float)
    # number of knots strictly below y gives the active segment
    idx = np.searchsorted(cdf.knots, y_arr, side="left")
    padded = np.concatenate(([0.0], cdf.values))
    out = padded[idx]
    return float(out) if np.isscalar(y) or y_arr.ndim == 0 else out


def tail_view(cdf: StepCdf) -> StepCdf:
    """Proper-CDF view of a raw step CDF for tail estimation.

    Weighted CDF estimates wander around their terminal level instead of
    landing on 1, and the wobble is of the same order as the tail
    probabilities we want to measure. Feeding the raw values into a tail
    fit therefore mostly measures sampling noise in the normalisation.
    The view takes the running maximum of the raw values and rescales by
    the global maximum, so the last knot sits at exactly 1 and threshold
    selection is always well defined. Clipping happens only after the
    rescaling: an early noise peak above 1 deflates the whole curve
    slightly instead of freezing it at 1 and erasing the tail. Ratios of
    survival levels, which is all the tail fit consumes, are unchanged
    by the rescaling.
    """
    view, degenerate = tail_view_rows(cdf.values[None])
    if degenerate[0]:
        raise DegenerateDenominator("CDF estimate has no positive mass")
    return StepCdf(cdf.knots, view[0])


def tail_view_rows(
    values: np.ndarray, at_knot: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """tail_view of each row of a (..., samples x m) array of CDF values.

    Only the entries marked at_knot (all, when omitted; it broadcasts
    against values) are values; the others take the value of the
    preceding knot, or 0 before the first. Returns (view, degenerate);
    degenerate flags the rows whose values never rise above 0, where
    tail_view raises.
    """
    if at_knot is None:
        view = np.array(values, dtype=float)
    else:
        view = np.where(at_knot, values, -np.inf)
    np.maximum.accumulate(view, axis=-1, out=view)
    top = view[..., -1:].copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        view /= top
    np.clip(view, 0.0, 1.0, out=view)
    return view, ~(top[..., 0] > 0.0)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for a (seed, key) pair, independent across keys.

    Replication k of a run with master seed s always sees the stream
    substream(s, ..., k) no matter how work is scheduled, which makes
    simulation output independent of worker count.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
