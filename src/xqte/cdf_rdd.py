"""Counterfactual outcome CDFs for compliers at a discontinuity cutoff.

Local Nadaraya-Watson means are taken separately on each side of the
cutoff (normalized to r = 0) with an Epanechnikov kernel, and the
counterfactual CDFs are ratios of side-to-side jumps:

    beta1(y) = [NW+(1{Y<=y} D) - NW-(1{Y<=y} D)] / [NW+(D) - NW-(D)]
    beta0(y) = [NW+(1{Y<=y}(1-D)) - NW-(1{Y<=y}(1-D))] / [NW+(1-D) - NW-(1-D)]

The two denominators are exact negatives of each other. The default
bandwidth is the rule of thumb sigma_hat * n^(-1/5).

The row functions (rot_bandwidths, kernel_weights, side_masses,
jump_ratio_rows, arm_threshold_rows) treat each row of a (samples x m)
matrix as a sample of its own and flag failures per row instead of
raising; subsampling runs them on whole chunks of draws, with both arms
in one call of arm_threshold_rows. rot_bandwidth, rdd_cdf and
arm_threshold are their one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DENOM_EPS, DegenerateDenominator, EstimationError, ObservationSet, StepCdf, row_totals,
    step_sums,
)


class ZeroVariance(EstimationError):
    """Running variable has no spread; the rule-of-thumb bandwidth is zero."""


class EmptyWindow(EstimationError):
    """No kernel weight on one side of the cutoff within the bandwidth."""


def epanechnikov(u: np.ndarray) -> np.ndarray:
    return _epanechnikov_over(np.array(u, dtype=float))


def kernel_weights(r: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Epanechnikov weights of each row of r at its own bandwidth in h."""
    return _epanechnikov_over(r / h[:, None])


def _epanechnikov_over(u: np.ndarray) -> np.ndarray:
    """Kernel weights written over u, 0.75 (1 - u^2) inside [-1, 1] and 0
    elsewhere; every weight is finite and at least +0, so a product with
    a 0/1 mask equals the masked weights bit for bit."""
    inside = (u >= -1.0) & (u <= 1.0)
    np.multiply(u, u, out=u)
    np.subtract(1.0, u, out=u)
    u *= 0.75
    u[~inside] = 0.0
    return u


def rot_bandwidths(r: np.ndarray) -> np.ndarray:
    """Rule-of-thumb bandwidth of each row of r; a constant row gets 0."""
    return np.std(r, axis=-1, ddof=1) * r.shape[-1] ** (-1.0 / 5.0)


def rot_bandwidth(r: np.ndarray) -> float:
    """Rule-of-thumb bandwidth: sample standard deviation times n^(-1/5)."""
    r = np.asarray(r, dtype=float)
    if r.size < 2:
        raise ValueError("need at least two observations for a bandwidth")
    h = float(rot_bandwidths(r))
    if h == 0.0:
        raise ZeroVariance("running variable is constant")
    return h


def side_masses(
    w: np.ndarray, above: np.ndarray, below: np.ndarray, treated: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel mass above and below the cutoff and the first-stage jump,
    per row.

    w holds the kernel weights and the boolean masks above, below and
    treated mark the units above and below the cutoff and the treated
    ones. Each row is summed one entry at a time in its own order (the
    bandwidth window's units by outcome), so entries of weight 0 after
    them, such as a packed row's padding, leave the sums unchanged bit
    for bit. A row without mass on a side gets a non-finite jump.
    """
    side = np.multiply(w, above)
    s_above = row_totals(side)
    side *= treated
    taken_above = row_totals(side)
    np.multiply(w, below, out=side)
    s_below = row_totals(side)
    side *= treated
    taken_below = row_totals(side)
    with np.errstate(divide="ignore", invalid="ignore"):
        jump = taken_above / s_above - taken_below / s_below
    return s_above, s_below, jump


def jump_ratio_rows(
    ys: np.ndarray,
    r: np.ndarray,
    treated: np.ndarray,
    w: np.ndarray,
    window: np.ndarray,
    s_above: np.ndarray,
    s_below: np.ndarray,
    jump: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Complier CDF values of each row at its knots.

    ys sorts each row by outcome, and r, the boolean treated and the
    kernel weights w follow that order. window marks the entries within
    the bandwidth, the only ones that carry weight or place a knot; any
    others must follow them in the row and not tie with them (packed
    rows padded with r = y = inf). s_above, s_below and jump come from
    side_masses. Returns (at_knot, betas): betas[0] holds beta1 and
    betas[1] beta0, each shaped like ys; the values mean something only
    where at_knot is set.
    """

    def side_means(on_side: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # running kernel mass of the arm-1 and the arm-0 takers on one side
        # of the cutoff, over that side's total mass
        sums = np.empty((2,) + ys.shape)
        np.multiply(w, on_side, out=sums[0])
        np.multiply(sums[0], ~treated, out=sums[1])
        sums[0] *= treated
        at_knot, sums = step_sums(ys, sums)
        sums /= mass[:, None]
        return at_knot, sums

    with np.errstate(divide="ignore", invalid="ignore"):
        at_knot, betas = side_means(r > 0, s_above)
        betas -= side_means(r < 0, s_below)[1]
        betas[0] /= jump[:, None]
        betas[1] /= -jump[:, None]
    return at_knot & window, betas


@dataclass(frozen=True)
class RddCdfPair:
    """Complier CDF pair at the cutoff, with the first-stage jump used as
    the arm-1 denominator (arm 0 uses its negative)."""

    beta0: StepCdf
    beta1: StepCdf
    denom1: float


def rdd_cdf(data: ObservationSet, h: float | None = None) -> RddCdfPair:
    """Counterfactual CDF pair on the grid of distinct windowed outcomes.

    Outcomes with |r| > h carry no kernel weight and do not contribute
    knots; the side masses are summed over the window by outcome, as a
    subsample draw sums its packed window. values[i] uses the indicator
    1{Y <= knots[i]}, the value just above the knot under left-continuous
    evaluation.
    """
    if data.design != "rdd":
        raise ValueError("rdd_cdf needs an rdd-design ObservationSet")
    if h is None:
        h = rot_bandwidth(data.r)
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    ys, r, treated = _window_by_outcome(data, h)
    w = epanechnikov(r / h)
    s_above, s_below, jump = side_masses(w, r > 0, r < 0, treated)
    if not s_above[0] > 0.0:
        raise EmptyWindow(f"no kernel mass above the cutoff within h = {h:g}")
    if not s_below[0] > 0.0:
        raise EmptyWindow(f"no kernel mass below the cutoff within h = {h:g}")
    denom1 = float(jump[0])
    if abs(denom1) < DENOM_EPS:
        raise DegenerateDenominator(
            f"first-stage jump {denom1:.3e} below {DENOM_EPS}"
        )

    at_knot, (beta1, beta0) = jump_ratio_rows(
        ys, r, treated, w, np.abs(r) <= h, s_above, s_below, jump
    )
    knots = ys[at_knot]
    return RddCdfPair(
        beta0=StepCdf(knots, beta0[at_knot]),
        beta1=StepCdf(knots, beta1[at_knot]),
        denom1=denom1,
    )


def _window_by_outcome(data: ObservationSet, h: float):
    """(y, r, treated) of the units within h of the cutoff as one row,
    sorted by outcome; the only units the kernel estimators weigh."""
    near = np.abs(data.r) <= h
    order = np.argsort(data.y[near], kind="stable")
    treated = data.d[near][order].astype(bool)
    return data.y[near][order][None], data.r[near][order][None], treated[None]


def arm_threshold_rows(
    ys: np.ndarray,
    r: np.ndarray,
    treated: np.ndarray,
    w: np.ndarray,
    window: np.ndarray,
    arms: tuple[int, ...],
    level: float,
) -> tuple[np.ndarray, np.ndarray]:
    """arm_threshold of each row for each arm in arms; ys sorts each row
    by outcome, r, the boolean treated and the kernel weights w follow
    that order, and window marks the entries within the bandwidth.

    Returns (thresholds, empty), shaped (len(arms), rows); empty flags
    the rows without arm-taker kernel mass in the window. The
    interpolation is np.interp over each row's arm takers, done for all
    rows and arms at once.
    """
    keep = (treated == np.reshape(arms, (-1, 1, 1))) & (window & (r != 0.0))
    ws = np.where(keep, w, 0.0)
    pos = np.cumsum(ws, axis=-1)
    total = pos[..., -1:].copy()
    ws *= 0.5
    pos -= ws
    del ws
    with np.errstate(divide="ignore", invalid="ignore"):
        pos /= total
    # midpoint ranks do not fall along the arm takers, so those with rank
    # at or below level come first; find a row's k-th taker by counting
    seen = np.cumsum(keep, axis=-1)
    below = np.count_nonzero(keep & (pos <= level), axis=-1)
    rows = np.arange(ys.shape[0])

    def taker(k: np.ndarray) -> np.ndarray:
        return np.minimum(np.count_nonzero(seen < k[..., None], axis=-1), ys.shape[1] - 1)

    lo, hi = taker(np.maximum(below, 1)), taker(below + 1)
    x0 = np.take_along_axis(pos, lo[..., None], axis=-1)[..., 0]
    x1 = np.take_along_axis(pos, hi[..., None], axis=-1)[..., 0]
    y0, y1 = ys[rows, lo], ys[rows, hi]
    inside = (below > 0) & (below < seen[..., -1]) & (x0 != level)
    with np.errstate(divide="ignore", invalid="ignore"):
        between = (y1 - y0) / (x1 - x0) * (level - x0) + y0
    return np.where(inside, between, y0), ~(total[..., 0] > 0.0)


def arm_threshold(
    data: ObservationSet, arm: int, h: float | None = None, level: float = 0.975
) -> float:
    """Kernel-weighted outcome quantile among arm takers near the cutoff.

    Tail thresholds for the discontinuity design come from the outcome
    distribution of units with D = arm inside the bandwidth window, both
    sides pooled and cutoff rows excluded, each weighted by the kernel.
    The quantile uses weighted midpoint ranks with linear interpolation
    between adjacent outcomes, the continuous analog of a weighted order
    statistic. Continuity matters beyond aesthetics: subsample windows
    hold only a handful of exceedances, and a step quantile would
    collapse their draws onto a few order statistics, understating the
    dispersion the interval construction feeds on.

    Reading a high quantile off the estimated complier CDF instead would
    transmit the first-stage ratio noise into the threshold location;
    the weighted arm quantile carries plain local order-statistic noise.

    Tied outcomes take their midpoint ranks in input row order (a stable
    sort), so the threshold does not depend on the sort algorithm.
    """
    if data.design != "rdd":
        raise ValueError("arm_threshold needs an rdd-design ObservationSet")
    if arm not in (0, 1):
        raise ValueError("arm must be 0 or 1")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if h is None:
        h = rot_bandwidth(data.r)
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    ys, r, treated = _window_by_outcome(data, h)
    empty = True
    if ys.size:
        thr, ((empty,),) = arm_threshold_rows(
            ys, r, treated, epanechnikov(r / h), np.abs(r) <= h, (arm,), level
        )
    if empty:
        raise EmptyWindow(f"no arm-{arm} kernel mass within h = {h:g} of the cutoff")
    return float(thr[0, 0])
