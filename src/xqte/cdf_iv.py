"""Counterfactual outcome CDFs for compliers under a binary instrument.

Uses kappa weighting: with propensity p(x) = P(Z=1 | X=x), the weighted
means

    b1(y) = 1{Y < y} * D (Z - p(X)) / ((1 - p(X)) p(X))
    b0(y) = 1{Y < y} * (1 - D)(p(X) - Z) / ((1 - p(X)) p(X))
    bd    = 1 - D (1 - Z)/(1 - p(X)) - (1 - D) Z / p(X)

identify the complier potential-outcome CDFs via
beta_j(y) = E[bj(y)] / E[bd]. The propensity is a logit fit by maximum
likelihood. Estimates are raw step functions; weights can push values
outside [0, 1], which downstream code handles explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import DegenerateDenominator, EstimationError, ObservationSet, StepCdf, step_sums

DENOM_EPS = 1e-10
SEPARATION_BOUND = 30.0


class NoConvergence(EstimationError):
    """Logit Newton iterations exhausted without meeting the gradient tolerance."""


class SeparationDetected(EstimationError):
    """Fitted index diverged: |x'gamma| beyond the separation bound at every
    informative observation, so the MLE does not exist."""


@dataclass(frozen=True)
class LogitModel:
    gamma: np.ndarray
    converged: bool
    iterations: int

    def propensity(self, x: np.ndarray) -> np.ndarray:
        return expit(np.asarray(x, dtype=float) @ self.gamma)


def _mean_loglik(eta: np.ndarray, z: np.ndarray) -> float:
    # log L(eta) = z*eta - log(1 + exp(eta)), stable via logaddexp
    return float(np.mean(z * eta - np.logaddexp(0.0, eta)))


def fit_logit(
    x: np.ndarray,
    z: np.ndarray,
    *,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> LogitModel:
    """Logit MLE of z on x by Newton steps with step halving.

    Starts at gamma = 0. Convergence is declared when the sup norm of the
    mean gradient x'(z - p)/n drops to tol. Raises SeparationDetected if
    the index passes the separation bound at every informative row, and
    NoConvergence when max_iter is exhausted.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.ndim != 2 or x.shape[0] != z.shape[0]:
        raise ValueError("x must be (n, k) aligned with z")
    if not np.all((z == 0) | (z == 1)):
        raise ValueError("z must be 0/1 valued")
    if z.min() == z.max():
        raise ValueError("z is constant; logit is not identified")
    n, k = x.shape
    informative = np.any(x != 0.0, axis=1)

    gamma = np.zeros(k)
    eta = x @ gamma
    ll = _mean_loglik(eta, z)
    for it in range(1, max_iter + 1):
        p = expit(eta)
        grad = x.T @ (z - p) / n
        if np.max(np.abs(grad)) <= tol:
            return LogitModel(gamma, True, it - 1)
        w = p * (1.0 - p)
        hess = (x * w[:, None]).T @ x / n
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        scale = 1.0
        for _ in range(40):
            cand = gamma + scale * step
            eta_cand = x @ cand
            ll_cand = _mean_loglik(eta_cand, z)
            if ll_cand >= ll:
                break
            scale *= 0.5
        gamma, eta, ll = cand, eta_cand, ll_cand
        if informative.any() and np.all(np.abs(eta[informative]) > SEPARATION_BOUND):
            raise SeparationDetected(
                f"|x'gamma| > {SEPARATION_BOUND} at all informative rows"
            )
    p = expit(eta)
    grad = x.T @ (z - p) / n
    if np.max(np.abs(grad)) <= tol:
        return LogitModel(gamma, True, max_iter)
    raise NoConvergence(f"gradient {np.max(np.abs(grad)):.3e} > tol after {max_iter} iterations")


@dataclass(frozen=True)
class KappaCdfPair:
    """Both complier CDF estimates on a shared knot grid, plus the
    estimated complier mass (common denominator)."""

    beta0: StepCdf
    beta1: StepCdf
    denom: float
    p_trim: float


def kappa_weights(
    data: ObservationSet, p_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-unit kappa terms (w1, w0, wd), before the outcome indicator."""
    d = data.d.astype(float)
    z = data.z.astype(float)
    pq = (1.0 - p_hat) * p_hat
    w1 = d * (z - p_hat) / pq
    w0 = (1.0 - d) * (p_hat - z) / pq
    wd = 1.0 - d * (1.0 - z) / (1.0 - p_hat) - (1.0 - d) * z / p_hat
    return w1, w0, wd


def kappa_cdf(
    data: ObservationSet,
    model: LogitModel,
    p_trim: float = 0.01,
) -> KappaCdfPair:
    """Kappa-weighted counterfactual CDF pair on the grid of distinct outcomes.

    Fitted propensities are clipped into [p_trim, 1 - p_trim] before
    weighting. The knot value convention is "just above": values[i] uses
    the strict indicator 1{Y <= knots[i]}, which equals 1{Y < y} for any
    y immediately above the knot.
    """
    if data.design != "iv":
        raise ValueError("kappa_cdf needs an iv-design ObservationSet")
    if not 0.0 <= p_trim < 0.5:
        raise ValueError("p_trim must lie in [0, 0.5)")
    p_hat = model.propensity(data.x)
    if p_trim > 0.0:
        p_hat = np.clip(p_hat, p_trim, 1.0 - p_trim)
    w1, w0, wd = kappa_weights(data, p_hat)
    denom = float(wd.mean())
    if abs(denom) < DENOM_EPS:
        raise DegenerateDenominator(
            f"complier mass estimate {denom:.3e} below {DENOM_EPS}"
        )

    n = data.n
    order = np.argsort(data.y)
    ys = data.y[order]
    at_knot, sums = step_sums(ys, np.stack([w1[order], w0[order]]))
    vals1, vals0 = sums[:, at_knot] / (n * denom)
    knots = ys[at_knot]
    return KappaCdfPair(
        beta0=StepCdf(knots, vals0),
        beta1=StepCdf(knots, vals1),
        denom=denom,
        p_trim=p_trim,
    )
