"""Pareto tail fitting on step-function CDF estimates and quantile
extrapolation beyond the data.

The tail index alpha is estimated from the weighted log survival ratio

    alpha_hat = - int_{y_min}^{T} log( s(y) / s(y_min) ) w(y) dy
                / int_{y_min}^{T} log( y / y_min ) w(y) dy,

with s = 1 - beta_hat, weight w(y) = y^(-omega-1) / y_min^(-omega), and
T the upper end of the positive-survival region. Over the full ray
[y_min, inf) the denominator integrates to exactly 1/omega^2. For step
CDFs both integrals have closed forms segment by segment, so the fit
needs no numerical integration.

Quantiles at level close to 1 extrapolate along the fitted tail:
y_min * (s(y_min) / (1 - level))^(1 / alpha_hat).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    EstimationError,
    StepCdf,
    evaluate,
    left_inverse,
    monotone_rearrange,
    pack_rows,
)


class NonPositiveSurvival(EstimationError):
    """Survival at the threshold is not positive; nothing to fit."""


class EmptyTail(EstimationError):
    """No usable knots beyond the threshold."""


class NotBeyondThreshold(EstimationError):
    """Requested tail probability sits well inside the fitted region, so
    the query is an interior quantile, not a tail extrapolation."""


class InvalidAlpha(EstimationError):
    """Non-positive tail index cannot be inverted into a quantile."""


@dataclass(frozen=True)
class TailFit:
    """Fitted Pareto tail. s_min is survival at the threshold, t_max the
    truncation point of the fit (inf when survival never hits zero).

    shift records the constant added to the outcome scale before fitting
    (positivity protocol); quantiles subtract it again.
    """

    y_min: float
    omega: float
    alpha_hat: float
    c_hat: float
    s_min: float
    t_max: float
    shift: float = 0.0


def select_ymin(cdf: StepCdf, level: float = 0.975) -> float:
    """Threshold: smallest knot where the rearranged CDF reaches level."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    return left_inverse(monotone_rearrange(cdf), level)


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


def _tail_segments(cdf: StepCdf, y_min: float):
    """Constancy segments of the CDF on (y_min, inf): lefts, rights, survival."""
    k, v = cdf.knots, cdf.values
    j0 = int(np.searchsorted(k, y_min, side="right"))
    if j0 >= k.size:
        raise EmptyTail(f"no knots beyond threshold {y_min:g}")
    prev = v[j0 - 1] if j0 > 0 else 0.0
    lefts = np.concatenate([[y_min], k[j0:]])
    rights = np.concatenate([k[j0:], [np.inf]])
    seg_values = np.concatenate([[prev], v[j0:]])
    return lefts, rights, 1.0 - seg_values


def pareto_index(cdf: StepCdf, y_min: float, omega: float = 1.0) -> TailFit:
    """Closed-form tail-index fit on a step CDF above a positive threshold.

    Integration runs from y_min to T, the end of the last segment with
    positive survival. Interior segments where the raw estimate already
    puts survival at or below zero carry no usable log ratio and are
    excluded from both integrals. A non-positive alpha_hat is returned
    rather than raised; quantile extrapolation rejects it.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    if y_min <= 0.0:
        raise ValueError("threshold must be positive; shift outcomes first")
    s_min = 1.0 - evaluate(cdf, y_min)
    if s_min <= 0.0:
        raise NonPositiveSurvival(
            f"survival at threshold {y_min:g} is {s_min:.3e}"
        )
    lefts, rights, surv = _tail_segments(cdf, y_min)
    pos = surv > 0.0
    if not pos.any():
        raise EmptyTail(f"no positive survival beyond threshold {y_min:g}")
    t_max = float(rights[np.nonzero(pos)[0][-1]])

    u_lo = lefts[pos] / y_min
    u_hi = rights[pos] / y_min
    log_ratio = np.log(surv[pos] / s_min)
    num = float(np.sum(log_ratio * _w_mass(u_lo, u_hi, omega)))
    den = float(np.sum(_log_antideriv(u_lo, omega) - _log_antideriv(u_hi, omega)))
    if den <= 0.0:
        # the positive-survival tail is narrower than float resolution at
        # the threshold (say, a threshold an ulp below its only knot)
        raise EmptyTail(f"tail beyond threshold {y_min:g} has no resolvable width")
    alpha = -num / den
    return TailFit(
        y_min=float(y_min),
        omega=float(omega),
        alpha_hat=alpha,
        c_hat=_scale_from(s_min, y_min, alpha),
        s_min=float(s_min),
        t_max=t_max,
    )


def view_index_rows(
    knots: np.ndarray,
    view: np.ndarray,
    at_knot: np.ndarray,
    y_min: np.ndarray,
    omega: float = 1.0,
) -> np.ndarray:
    """pareto_index of many proper-CDF views at once, one per row.

    knots (sorted along each row) and view come from tail_view_rows:
    entries off at_knot carry the preceding knot's view value, or 0
    before the first. y_min holds one threshold per row. Returns the
    fitted index of each row, or inf where pareto_index would raise
    NonPositiveSurvival or EmptyTail or fit an index at or below 0, and
    where the threshold is not positive: the flat-tail boundary.

    On a view, survival never rises, so the segments with positive
    survival come first and the last knot (view 1) ends them. Each
    row's integrals are summed in pareto_index's order with np.sum's
    rounding, so the indices match it bit for bit.
    """
    rows = np.arange(knots.shape[0])
    th = y_min[:, None]
    # view just below the threshold and at it (evaluate and _tail_segments)
    n_below = np.count_nonzero(knots < th, axis=1)
    n_upto = np.count_nonzero(knots <= th, axis=1)
    s_min = 1.0 - np.where(n_below > 0, view[rows, n_below - 1], 0.0)
    prev = np.where(n_upto > 0, view[rows, n_upto - 1], 0.0)

    # segment j of a row runs from lefts[:, j] to k[:, j], the row's
    # j-th knot beyond the threshold, with survival surv[:, j]
    beyond = at_knot & (knots > th)
    k, v = pack_rows(beyond, (knots, np.inf), (view, 1.0))
    lefts = np.column_stack([y_min, k[:, :-1]])
    surv = 1.0 - np.column_stack([prev, v[:, :-1]])
    fit = (beyond.any(axis=1) & (s_min > 0.0) & (y_min > 0.0))[:, None]
    seg = fit & (surv > 0.0)
    count = np.count_nonzero(seg, axis=1)
    th_seg = np.repeat(y_min, count)
    u_lo, u_hi = lefts[seg] / th_seg, k[seg] / th_seg
    log_ratio = np.log(surv[seg] / np.repeat(s_min, count))
    num = _row_sums(seg, log_ratio * _w_mass(u_lo, u_hi, omega))
    den = _row_sums(seg, _log_antideriv(u_lo, omega) - _log_antideriv(u_hi, omega))
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = -num / den
        return np.where((den > 0.0) & (alpha > 0.0), alpha, np.inf)


def _row_sums(seg: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """np.sum of each row's terms, bit for bit; seg marks where the terms
    sit in their rows, a prefix of each row.

    np.sum adds fewer than 8 entries one by one from 0, as a running sum
    along the zero-padded row does; longer rows go through np.sum.
    """
    padded = np.zeros(seg.shape)
    padded[seg] = terms
    out = np.cumsum(padded, axis=1)[:, -1]
    for i in np.nonzero(np.count_nonzero(seg, axis=1) >= 8)[0]:
        out[i] = np.sum(padded[i, seg[i]])
    return out


def _scale_from(s_min: float, y_min: float, alpha: float) -> float:
    """c = s_min y_min^alpha; runaway index estimates overflow to inf
    instead of raising, matching float64 semantics."""
    with np.errstate(over="ignore"):
        return float(s_min * np.float64(y_min) ** np.float64(alpha))


def fit_tail(cdf: StepCdf, level: float = 0.975, omega: float = 1.0) -> TailFit:
    """Select the threshold at the given CDF level and fit the tail.

    Positivity protocol: the fit needs y_min > 0, so when the selected
    threshold is at or below zero all knots are shifted up until the
    threshold sits at 1.0, the fit runs there, and the shift is recorded
    on the TailFit so quantiles map back. Treatment-effect differences
    are unaffected by the shift.
    """
    y_min = select_ymin(cdf, level)
    if y_min <= 0.0:
        delta = 1.0 - y_min
        fit = pareto_index(cdf.shifted(delta), y_min + delta, omega)
        return replace(fit, shift=delta)
    return pareto_index(cdf, y_min, omega)


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
