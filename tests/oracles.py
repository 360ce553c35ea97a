"""Independent reference implementations that the tests check xqte against.

They use numerical quadrature and plain per-side kernel means, so none
of them shares code paths with the closed-form estimators they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np
from scipy.integrate import quad

from xqte.cdf_rdd import EmptyWindow, epanechnikov
from xqte.core import ObservationSet
from xqte.tail import NonPositiveSurvival, TailFit, _scale_from


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
        t_max=np.inf,
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
