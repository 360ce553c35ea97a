"""Pareto tail fitting on step-function CDF estimates and quantile
extrapolation beyond the data.

The tail index alpha is estimated from the weighted log survival ratio

    alpha_hat = - int_{y_min}^{T} log( s(y) / s(y_min) ) w(y) dy
                / int_{y_min}^{T} log( y / y_min ) w(y) dy,

with s = 1 - beta_hat, weight w(y) = y^(-omega-1) / y_min^(-omega), and
T the upper end of the positive-survival region. Over the full ray
[y_min, inf) the denominator integrates to exactly 1/omega^2. For step
CDFs both integrals have closed forms segment by segment, so the fit
needs no numerical integration. tail_index_rows is the one
implementation of them: it fits many CDFs at once, one per row;
pareto_index (a single CDF) and the subsample draws call it. fit_arm
fits one arm of any design at its threshold, shifting the outcomes
first when the threshold is not positive.

Quantiles at level close to 1 extrapolate along the fitted tail:
y_min * (s(y_min) / (1 - level))^(1 / alpha_hat).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import EstimationError, StepCdf


class NonPositiveSurvival(EstimationError):
    """Survival at the threshold is not positive; nothing to fit."""


class EmptyTail(EstimationError):
    """No usable knots beyond the threshold."""


class NotBeyondThreshold(EstimationError):
    """Requested tail probability sits well inside the fitted region, so
    the query is an interior quantile, not a tail extrapolation."""


class InvalidAlpha(EstimationError):
    """Non-positive tail index cannot be inverted into a quantile."""


class ShiftMergesKnots(EstimationError):
    """The positivity shift rounds distinct knots onto the same value, so
    the shifted CDF is no longer a step function of its knots, or rounds
    the threshold onto 0 (outcomes beyond 2^53 in magnitude)."""


@dataclass(frozen=True)
class TailFit:
    """Fitted Pareto tail. s_min is survival at the threshold.

    shift records the constant added to the outcome scale before fitting
    (positivity protocol); quantiles subtract it again.
    """

    y_min: float
    omega: float
    alpha_hat: float
    c_hat: float
    s_min: float
    shift: float = 0.0


def _w_mass(u_lo: np.ndarray, u_hi: np.ndarray, omega: float) -> np.ndarray:
    # integral of u^(-omega-1) over [u_lo, u_hi] in threshold units;
    # u_hi = inf contributes zero
    return (np.power(u_lo, -omega) - np.power(u_hi, -omega)) / omega


def _log_antideriv(u: np.ndarray, omega: float) -> np.ndarray:
    # H(u) with H' = -log(u) u^(-omega-1); H(inf) = 0
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.zeros_like(u)
    finite = np.isfinite(u)
    uf = u[finite]
    out[finite] = np.power(uf, -omega) * (omega * np.log(uf) + 1.0) / omega**2
    return out


def tail_index_rows(
    knots: np.ndarray,
    values: np.ndarray,
    at_knot: np.ndarray | bool,
    y_min: np.ndarray,
    omega: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form tail index of many step CDFs at once, one per row.

    knots is sorted along each row and values holds the CDF just above
    each knot; only the entries marked at_knot (True: all of them) are
    knots. Entries off at_knot at or below a row's threshold must carry
    the preceding knot's value, or 0 before the first; those above it
    are ignored. y_min holds one threshold per row. Returns (alpha,
    s_min): the fitted index of each row, a nonpositive one as it comes
    out, and the survival at its threshold. alpha is NaN where there is
    nothing to fit: a threshold or threshold survival at or below 0, or
    no segment beyond the threshold with positive survival and
    resolvable width.

    Integration runs from y_min to the end of the last segment with
    positive survival. Interior segments where a raw estimate already
    puts survival at or below zero carry no usable log ratio and are
    left out of both integrals. A row's segments are the threshold's,
    up to the first knot beyond it, then each knot's, up to the next
    knot or inf; the leading column of the segment matrices holds the
    threshold's. Each row's integrals are summed in segment order with
    np.sum's rounding (_row_sums).
    """
    rows = np.arange(knots.shape[0])
    th = y_min[:, None]
    # CDF just below the threshold and at it (left-continuous evaluation)
    n_below = np.count_nonzero(knots < th, axis=1)
    n_upto = np.count_nonzero(knots <= th, axis=1)
    s_min = 1.0 - np.where(n_below > 0, values[rows, n_below - 1], 0.0)
    prev = np.where(n_upto > 0, values[rows, n_upto - 1], 0.0)

    beyond = at_knot & (knots > th)
    # each entry's next knot beyond the threshold, inf past the last one
    nxt = np.minimum.accumulate(np.where(beyond, knots, np.inf)[:, ::-1], axis=1)[:, ::-1]
    lefts = np.column_stack([y_min, knots])
    rights = np.column_stack([nxt, np.full(y_min.shape, np.inf)])
    surv = 1.0 - np.column_stack([prev, values])
    fit = beyond.any(axis=1) & (s_min > 0.0) & (y_min > 0.0)
    seg = np.column_stack([fit, beyond & fit[:, None]]) & (surv > 0.0)
    count = np.count_nonzero(seg, axis=1)
    th_seg = np.repeat(y_min, count)
    u_lo, u_hi = lefts[seg] / th_seg, rights[seg] / th_seg
    log_ratio = np.log(surv[seg] / np.repeat(s_min, count))
    num = _row_sums(seg, log_ratio * _w_mass(u_lo, u_hi, omega))
    den = _row_sums(seg, _log_antideriv(u_lo, omega) - _log_antideriv(u_hi, omega))
    # den is 0 without segments, and also when the positive-survival
    # tail is narrower than float resolution at the threshold (say, a
    # threshold an ulp below its only knot)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, -num / den, np.nan), s_min


def _row_sums(seg: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """np.sum of each row's terms, bit for bit; seg marks where the terms
    sit in their rows.

    np.sum adds fewer than 8 entries one by one from 0, as a running sum
    along the zero-padded row does (adding 0.0 turns its -0.0 into 0.0
    as well); longer rows go through np.sum.
    """
    padded = np.zeros(seg.shape)
    padded[seg] = terms
    out = np.cumsum(padded, axis=1)[:, -1] + 0.0
    for i in np.nonzero(np.count_nonzero(seg, axis=1) >= 8)[0]:
        out[i] = np.sum(padded[i, seg[i]])
    return out


def pareto_index(
    cdf: StepCdf, y_min: float, omega: float = 1.0, s_min: float | None = None
) -> TailFit:
    """Closed-form tail-index fit on a step CDF above a threshold: the
    one-row case of tail_index_rows, from the last knot below the
    threshold on.

    Without s_min the threshold must be positive, no survival at it or
    nothing to fit beyond it raises, and a nonpositive alpha_hat is
    returned as it is (quantile extrapolation rejects it). Given s_min,
    the threshold survival is pinned at it, and nothing to fit or an
    index at or below 0 gives the flat tail alpha_hat = inf, which
    extrapolates to the threshold itself.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    if s_min is None and y_min <= 0.0:
        raise ValueError("threshold must be positive; shift outcomes first")
    start = max(int(np.searchsorted(cdf.knots, y_min)) - 1, 0)
    (alpha,), (realized,) = tail_index_rows(
        cdf.knots[None, start:], cdf.values[None, start:], True, np.array([y_min]), omega
    )
    if s_min is not None:
        alpha = alpha if alpha > 0.0 else np.inf
    elif realized <= 0.0:
        raise NonPositiveSurvival(f"survival at threshold {y_min:g} is {realized:.3e}")
    elif np.isnan(alpha):
        raise EmptyTail(f"no resolvable positive survival beyond threshold {y_min:g}")
    s_min = float(realized if s_min is None else s_min)
    return TailFit(y_min=float(y_min), omega=float(omega), alpha_hat=float(alpha),
                   c_hat=_scale_from(s_min, y_min, alpha), s_min=s_min)


def _scale_from(s_min: float, y_min: float, alpha: float) -> float:
    """c = s_min y_min^alpha; runaway index estimates overflow to inf
    instead of raising, matching float64 semantics. A flat tail (alpha =
    inf) has no scale: c is inf whatever the threshold."""
    with np.errstate(over="ignore"):
        return float(s_min * np.float64(y_min) ** np.float64(alpha)) if alpha < np.inf else np.inf


def fit_arm(
    view: StepCdf, y_min: float, omega: float = 1.0, s_min: float | None = None
) -> TailFit:
    """Fit one arm's tail on its proper-CDF view (core.tail_view) above
    the threshold y_min; s_min pins the threshold survival as in
    pareto_index.

    Positivity protocol: the fit needs y_min > 0, so when the threshold
    is at or below zero all knots and the threshold are shifted up by
    1 - y_min, the fit runs there, and the shift is recorded on the
    TailFit so quantiles map back. Treatment-effect differences are
    unaffected by the shift. A shift so large that it rounds two knots
    onto one value, or the threshold onto 0, raises ShiftMergesKnots.
    """
    if y_min > 0.0:
        return pareto_index(view, y_min, omega, s_min)
    shift = 1.0 - y_min
    knots = view.knots + shift
    if not (y_min + shift > 0.0 and np.all(np.diff(knots) > 0.0)):
        raise ShiftMergesKnots(
            f"shifting the outcomes by {shift:.6g} to make the threshold positive "
            "rounds the threshold onto 0 or merges adjacent knots"
        )
    fit = pareto_index(StepCdf(knots, view.values), y_min + shift, omega, s_min)
    return replace(fit, shift=shift)


def fit_tail(view: StepCdf, level: float = 0.975, omega: float = 1.0) -> TailFit:
    """Fit the tail of a proper-CDF view (core.tail_view) above its first
    knot where the view reaches level, with fit_arm."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    # a view is nondecreasing and ends at exactly 1, so level is reached
    return fit_arm(view, float(view.knots[np.searchsorted(view.values, level)]), omega)


def extrapolated_quantiles(
    fit: TailFit,
    level: float,
    alphas: np.ndarray,
    survivals: np.ndarray | None = None,
    thresholds: np.ndarray | None = None,
) -> np.ndarray:
    """Tail-extrapolated quantiles at the given level, one per index value
    in alphas, on the scale the fit was estimated on.

    The fit's own quantile takes alphas = [fit.alpha_hat]; subsampling
    passes one index per draw. A nonpositive index raises InvalidAlpha.
    When survivals is given it replaces the threshold survival
    elementwise, so each draw re-estimates both the tail slope and the mass
    beyond the threshold; a draw whose survival falls below the target
    probability then lands below the threshold, which is what makes the
    batch dispersion honest when the target sits near the threshold.
    thresholds likewise replaces y_min elementwise for designs whose
    threshold is itself re-selected per draw.

    The target is meant to sit at or beyond the threshold. A threshold
    selected on a discrete CDF overshoots its nominal level, leaving the
    realized survival a shade below the nominal tail probability, so
    targets are allowed up to twice the threshold survival; anything
    beyond that is an interior quantile and is refused.

    An infinite index is the flat-tail boundary case. Paired with zero
    survival (no resolvable mass beyond the threshold) the draw gives
    back the threshold itself; at a target equal to the threshold
    survival the ratio is one and every index gives the threshold back.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    p = 1.0 - level
    if p >= 2.0 * fit.s_min:
        raise NotBeyondThreshold(
            f"tail probability {p:.4g} is interior to the fit "
            f"(threshold survival {fit.s_min:.4g})"
        )
    alphas = np.asarray(alphas, dtype=float)
    if np.any(alphas <= 0.0):
        raise InvalidAlpha("nonpositive tail index cannot be inverted into a quantile")
    if survivals is None:
        ratio = fit.s_min / p
    else:
        survivals = np.asarray(survivals, dtype=float)
        if np.any((survivals <= 0.0) & np.isfinite(alphas)):
            raise NonPositiveSurvival(
                "zero draw survival is only meaningful with an infinite index"
            )
        ratio = survivals / p
    base = fit.y_min if thresholds is None else np.asarray(thresholds, dtype=float)
    with np.errstate(over="ignore"):
        return base * ratio ** (1.0 / alphas) - fit.shift


def qte_point(fit1: TailFit, fit0: TailFit, level: float) -> float:
    """Upper-tail quantile treatment effect at the given level from two
    fitted arms: treated minus control extrapolated quantile.

    Lower-tail targets are mapped onto this in estimate_qte_batch.
    """
    q1, q0 = (extrapolated_quantiles(fit, level, [fit.alpha_hat])[0] for fit in (fit1, fit0))
    with np.errstate(invalid="ignore"):  # inf - inf; estimate_qte_batch raises on the NaN
        return float(q1 - q0)
