"""Independent reference implementations that the tests check xqte against.

Most use numerical quadrature and plain per-side kernel means, so none
of them shares code paths with the closed-form estimators they check.
The scalar tail-index fit (pareto_index, with _tail_segments), the
direct design's empirical CDF (ecdf) and the per-draw frozen-threshold
recipe (frozen_draws, with subset_cdfs and _tail_at_frozen_threshold)
are the library's former implementations; the row engines
(tail.tail_index_rows, core.arm_cdf_rows and the frozen-threshold
draws) must match them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Literal

import numpy as np
from scipy.integrate import quad

from xqte.cdf_iv import DENOM_EPS, kappa_weights
from xqte.cdf_rdd import EmptyWindow, epanechnikov
from xqte.core import (
    DegenerateDenominator, EstimationError, ObservationSet, StepCdf, evaluate, step_sums,
    tail_view,
)
from xqte.tail import EmptyTail, NonPositiveSurvival, TailFit, _scale_from


def pareto_index_analytic(
    survival: Callable[[float], float],
    y_min: float,
    omega: float = 1.0,
) -> TailFit:
    """Tail-index functional of an exact survival function, by quadrature.

    Substituting v = (y / y_min)^(-omega) flattens the weight, so both
    integrals run over (0, 1] with only a log endpoint singularity. The
    fit integrates to infinity; truncation never binds for a survival
    function that stays positive.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    if y_min <= 0.0:
        raise ValueError("threshold must be positive")
    s_min = float(survival(y_min))
    if s_min <= 0.0:
        raise NonPositiveSurvival(f"survival at threshold {y_min:g} is {s_min:.3e}")

    def integrand(v: float) -> float:
        y = y_min * v ** (-1.0 / omega)
        return np.log(survival(y) / s_min)

    num = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=300)[0] / omega
    den = quad(lambda v: -np.log(v), 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=300)[0] / omega**2
    alpha = -num / den
    return TailFit(
        y_min=float(y_min),
        omega=float(omega),
        alpha_hat=alpha,
        c_hat=_scale_from(s_min, y_min, alpha),
        s_min=s_min,
    )


@dataclass(frozen=True)
class SecondOrderSpec:
    """Two-term Pareto tail 1 - F(y) = c y^(-alpha) (1 + d y^(-rho)).

    Test oracle for the deterministic part of the index bias: fitting at
    threshold y_min shifts the population index by -index_bias(), up to
    terms vanishing faster than y_min^(-rho).
    """

    alpha: float
    c: float = 1.0
    d: float = 0.0
    rho: float = 1.0

    def survival(self, y):
        y = np.asarray(y, dtype=float)
        out = self.c * y**-self.alpha * (1.0 + self.d * y**-self.rho)
        return float(out) if out.ndim == 0 else out

    def index_bias(self, y_min: float, omega: float) -> float:
        return (
            self.d
            * omega**2
            * y_min**-self.rho
            * (1.0 / (self.rho + omega) - 1.0 / omega)
        )


def one_sided_nw(
    data: ObservationSet,
    side: Literal["above", "below"],
    g: Callable[[ObservationSet], np.ndarray] | np.ndarray,
    h: float,
) -> float:
    """Kernel-weighted mean of g over records strictly on one side of 0."""
    if data.design != "rdd":
        raise ValueError("one_sided_nw needs an rdd-design ObservationSet")
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    r = data.r
    mask = r > 0 if side == "above" else r < 0
    gv = g(data) if callable(g) else np.asarray(g, dtype=float)
    w = epanechnikov(r[mask] / h)
    total = w.sum()
    if total <= 0.0:
        raise EmptyWindow(f"no kernel mass {side} the cutoff within h = {h:g}")
    return float((w * gv[mask]).sum() / total)


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


def _in_order_sum(terms: np.ndarray) -> float:
    """The terms added one by one from 0.0 as Python floats, the order in
    which the library adds up every row (core.row_totals)."""
    total = 0.0
    for term in terms.tolist():
        total += term
    return total


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

    u_lo = lefts[pos] / y_min
    u_hi = rights[pos] / y_min
    log_ratio = np.log(surv[pos] / s_min)
    num = _in_order_sum(log_ratio * _w_mass(u_lo, u_hi, omega))
    den = _in_order_sum(_log_antideriv(u_lo, omega) - _log_antideriv(u_hi, omega))
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
    )


def _tail_at_frozen_threshold(cdf: StepCdf, full_fit: TailFit) -> tuple[float, float]:
    """Index and threshold survival from a subset CDF at the frozen
    full-sample threshold.

    The subset CDF goes through the same proper-CDF view the full fit
    used, then the full fit's shift (if any) is applied so both live on
    the same positive scale. A tail that is flat from the threshold
    onward maps to an infinite index with zero survival.
    """
    cdf = tail_view(cdf)
    if full_fit.shift != 0.0:
        cdf = cdf.shifted(full_fit.shift)
    try:
        fit = pareto_index(cdf, full_fit.y_min, full_fit.omega)
    except (NonPositiveSurvival, EmptyTail):
        return np.inf, 0.0
    if fit.alpha_hat == 0.0:
        return np.inf, fit.s_min
    return fit.alpha_hat, fit.s_min


def ecdf(y: np.ndarray) -> StepCdf:
    """Empirical CDF of a sample as a step function."""
    ys = np.sort(np.asarray(y, dtype=float))
    if ys.size == 0:
        raise DegenerateDenominator("empty arm: no observations to build a CDF from")
    at_knot, counts = step_sums(ys, np.ones(ys.size))
    return StepCdf(ys[at_knot], counts[at_knot] / ys.size)


def subset_cdfs(pipeline, idx: np.ndarray, x: np.ndarray | None = None) -> tuple[StepCdf, StepCdf]:
    """Treated and control CDFs refitted on the rows idx of the fitted
    data, for the IV and direct designs.

    The IV weights on the subset rows are the full-sample kappa weights
    (under the full-sample propensity fit) gathered at idx: the nuisance
    converges at the root-n rate, so re-estimating it per draw would only
    add noise that the rate correction then misattributes to the tail
    statistic. The CDFs then follow kappa_cdf's recipe on the subset.
    A fitted pipeline keeps no covariates, so an IV caller passes x, the
    covariate matrix of the data the pipeline was fitted on.
    """
    data = pipeline.data
    if data.design == "direct":
        sub = data.subset(idx)
        return ecdf(sub.y[sub.d == 1]), ecdf(sub.y[sub.d == 0])
    if data.design != "iv":
        raise ValueError(f"the {data.design!r} design re-selects its thresholds per draw")
    data = replace(data, x=x)
    w1, w0, wd = (w[idx] for w in kappa_weights(data, pipeline.logit, pipeline.settings.trim))
    denom = float(wd.mean())
    if abs(denom) < DENOM_EPS:
        raise DegenerateDenominator(f"complier mass estimate {denom:.3e} below {DENOM_EPS}")
    y = data.y[idx]
    order = np.argsort(y, kind="stable")
    ys = y[order]
    at_knot, sums = step_sums(ys, np.stack([w1[order], w0[order]]))
    vals1, vals0 = sums[:, at_knot] / (y.size * denom)
    return StepCdf(ys[at_knot], vals1), StepCdf(ys[at_knot], vals0)


def frozen_draws(pipeline, cfg, b, rng_for_draw, x=None):
    """Draws at the frozen full-sample thresholds, refitted one by one;
    x as in subset_cdfs."""
    n = pipeline.data.n
    alphas: list[tuple[float, float]] = []
    survivals: list[tuple[float, float]] = []
    failed = 0
    for t in range(cfg.draws):
        idx = np.sort(rng_for_draw(t).choice(n, size=b, replace=False))
        try:
            cdf1, cdf0 = subset_cdfs(pipeline, idx, x)
            a1, s1 = _tail_at_frozen_threshold(cdf1, pipeline.fit1)
            a0, s0 = _tail_at_frozen_threshold(cdf0, pipeline.fit0)
        except EstimationError:
            failed += 1
            continue
        if a1 <= 0.0 or a0 <= 0.0:
            failed += 1
            continue
        alphas.append((a1, a0))
        survivals.append((s1, s0))
    alphas = np.asarray(alphas, dtype=float).reshape(-1, 2)
    thresholds = np.tile([pipeline.fit1.y_min, pipeline.fit0.y_min], (len(alphas), 1))
    return alphas, np.asarray(survivals, dtype=float).reshape(-1, 2), thresholds, failed
