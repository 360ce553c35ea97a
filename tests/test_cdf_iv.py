"""Kappa-weighted complier CDFs and the logit propensity fit."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from xqte.cdf_iv import (
    KappaCdfPair,
    LogitModel,
    NoConvergence,
    SeparationDetected,
    fit_logit,
    kappa_cdf,
    logistic,
)
from xqte.core import DegenerateDenominator, ObservationSet, evaluate, substream
from xqte.pipeline import EstimatorSettings, fit_pipeline
from xqte.simulate import gen_iv


# ------------------------------------------------------------- oracles

def logit_by_gradient_ascent(x, z, tol=1e-11, max_iter=500_000):
    """Slow fixed-step gradient ascent on the mean log likelihood.

    Step size 1/lambda_max(x'x/n) is safely below 2/L for the logistic
    loss (L <= lambda_max/4), so this converges on any dataset where the
    MLE exists.
    """
    x = np.asarray(x, float)
    z = np.asarray(z, float)
    n = x.shape[0]
    lr = 1.0 / np.linalg.eigvalsh(x.T @ x / n).max()
    gamma = np.zeros(x.shape[1])
    for _ in range(max_iter):
        grad = x.T @ (z - expit(x @ gamma)) / n
        if np.max(np.abs(grad)) < tol:
            return gamma
        gamma = gamma + lr * grad
    raise AssertionError("gradient-ascent oracle did not converge")


def kappa_oracle(y, d, z, p, query):
    """Direct per-unit sums of the kappa terms with the strict indicator."""
    y, d, z, p = (np.asarray(a, float) for a in (y, d, z, p))
    lt = (y < query).astype(float)
    num1 = np.mean(lt * d * (z - p) / ((1 - p) * p))
    num0 = np.mean(lt * (1 - d) * (p - z) / ((1 - p) * p))
    den = np.mean(1 - d * (1 - z) / (1 - p) - (1 - d) * z / p)
    return num0 / den, num1 / den


def _iv_data(y, d, z, x):
    return ObservationSet(
        design="iv",
        y=np.asarray(y, float),
        d=np.asarray(d),
        z=np.asarray(z),
        x=np.asarray(x, float),
    )


def _fixed_p_model(k: int) -> LogitModel:
    # gamma = 0 puts the propensity at exactly 1/2 for any covariates
    return LogitModel(gamma=np.zeros(k), iterations=0)


# ---------------------------------------------------------------- logit

def test_fit_logit_matches_gradient_ascent_oracle():
    rng = substream(501, 0)
    n, k = 200, 3
    x = rng.normal(size=(n, k))
    z = (rng.random(n) < expit(x @ np.array([0.8, -0.5, 0.2]))).astype(int)
    oracle = logit_by_gradient_ascent(x, z)
    model = fit_logit(x, z)
    assert np.max(np.abs(model.gamma - oracle)) < 1e-6


def test_fit_logit_intercept_only_closed_form():
    x = np.ones((8, 1))
    z = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    assert fit_logit(x, z).gamma[0] == pytest.approx(0.0, abs=1e-9)
    z = np.array([0, 0, 1, 1, 1, 1, 1, 1])  # mean 3/4 -> log 3
    assert fit_logit(x, z).gamma[0] == pytest.approx(np.log(3.0), abs=1e-8)


def test_fit_logit_probabilities_interior():
    rng = substream(501, 1)
    x = rng.normal(size=(80, 2))
    z = (rng.random(80) < 0.5).astype(int)
    model = fit_logit(x, z)
    p = model.propensity(x)
    assert np.all((p > 0) & (p < 1))


def test_fit_logit_separation_detected():
    # complete separation on an un-standardized covariate: the index passes
    # the guard bound while the mean gradient is still above tolerance
    x = np.repeat([[-2e5], [2e5]], 5, axis=0)
    z = (x[:, 0] > 0).astype(int)
    with pytest.raises(SeparationDetected):
        fit_logit(x, z, max_iter=100)


def test_fit_logit_no_convergence():
    rng = substream(501, 2)
    x = rng.normal(size=(100, 2))
    z = (rng.random(100) < expit(x @ np.array([1.0, -1.0]))).astype(int)
    with pytest.raises(NoConvergence):
        fit_logit(x, z, max_iter=1)


def test_fit_logit_converging_at_max_iter():
    # the last permitted Newton step is the one that converges: the fit
    # succeeds with the same iterate; one step fewer does not converge
    rng = substream(501, 3)
    x = np.column_stack([np.ones(200), rng.normal(size=200)])
    z = (rng.random(200) < expit(x @ np.array([0.3, -1.0]))).astype(int)
    free = fit_logit(x, z)
    assert free.iterations > 1
    capped = fit_logit(x, z, max_iter=free.iterations)
    assert capped.iterations == free.iterations
    np.testing.assert_array_equal(capped.gamma, free.gamma)
    with pytest.raises(NoConvergence):
        fit_logit(x, z, max_iter=free.iterations - 1)


def test_fit_logit_rejects_constant_z():
    with pytest.raises(DegenerateDenominator, match="z is constant"):
        fit_logit(np.ones((4, 1)), np.zeros(4))


def test_fit_logit_is_the_same_at_any_blas_thread_count():
    # the benchmark's seed-1 sample of 10^5 rows: BLAS products sum in an
    # order that follows their thread count, which moved gamma's last
    # bits between one and two OpenBLAS threads
    code = ("import hashlib, sys, numpy as np; from xqte.cdf_iv import fit_logit; "
            "from xqte.simulate import gen_iv; "
            "data = gen_iv(np.random.default_rng(1), 100_000).data; "
            "model = fit_logit(data.x, data.z); "
            "sys.stdout.write(model.gamma.tobytes().hex() + ' ' + "
            "hashlib.sha256(model.propensity(data.x).tobytes()).hexdigest())")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    fits = [
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                       env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)).stdout
        for threads in ("1", "2")
    ]
    assert fits[0] and fits[0] == fits[1]


def test_propensity_rejects_covariates_of_another_width():
    model = LogitModel(np.full(3, 0.1), 0)
    with pytest.raises(ValueError, match=r"shape \(4, 2\) does not match the logit's 3"):
        model.propensity(np.ones((4, 2)))
    # a fitted instrument pipeline keeps its data without covariates
    data = gen_iv(substream(2, 7), 400).data
    pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9))
    with pytest.raises(ValueError, match="a fitted pipeline keeps no covariates"):
        kappa_cdf(pipe.data, pipe.logit)


# ------------------------------------------------------------ kappa cdf

def test_kappa_six_point_hand_example():
    # three treated instrument-on units at y = 1, 2, 3 and three untreated
    # instrument-off units at y = 4, 5, 6 with p fixed at 1/2
    y = [1, 2, 3, 4, 5, 6]
    z = [1, 1, 1, 0, 0, 0]
    d = [1, 1, 1, 0, 0, 0]
    data = _iv_data(y, d, z, np.ones((6, 1)))
    pair = kappa_cdf(data, _fixed_p_model(1), p_trim=0.0)
    assert pair.denom == pytest.approx(1.0)
    assert evaluate(pair.beta1, 3.5) == pytest.approx(1.0)
    assert evaluate(pair.beta0, 4.5) == pytest.approx(1.0 / 3.0)


def test_kappa_matches_brute_force_oracle():
    rng = substream(502, 0)
    n = 60
    x = rng.normal(size=(n, 2))
    z = (rng.random(n) < expit(x @ np.array([0.7, -0.3]))).astype(int)
    u = rng.random(n)
    d = np.where(z == 1, u < 0.8, u < 0.2).astype(int)
    y = np.round(rng.normal(size=n), 1)  # ties on purpose
    data = _iv_data(y, d, z, x)
    model = fit_logit(x, z)
    p_trim = 0.01
    pair = kappa_cdf(data, model, p_trim=p_trim)
    p_clipped = np.clip(model.propensity(x), p_trim, 1 - p_trim)

    knots = pair.beta1.knots
    queries = np.concatenate([knots, knots + 0.05, [knots[0] - 1.0, knots[-1] + 1.0]])
    for q in queries:
        b0, b1 = kappa_oracle(y, d, z, p_clipped, q)
        assert evaluate(pair.beta0, float(q)) == pytest.approx(b0, abs=1e-12)
        assert evaluate(pair.beta1, float(q)) == pytest.approx(b1, abs=1e-12)


def test_kappa_all_complier_known_p_identity():
    # with d = z and p = 1/2, beta1 collapses to (2/n) sum z 1{y < t}
    rng = substream(502, 1)
    n = 40
    z = (rng.random(n) < 0.5).astype(int)
    y = rng.normal(size=n)
    data = _iv_data(y, z, z, np.ones((n, 1)))
    pair = kappa_cdf(data, _fixed_p_model(1), p_trim=0.0)
    for t in np.sort(y)[[0, 10, 25, 39]] + 1e-9:
        direct = 2.0 / n * np.sum(z * (y < t))
        assert evaluate(pair.beta1, float(t)) == pytest.approx(direct, abs=1e-12)


def test_kappa_all_complier_close_to_treated_ecdf():
    # randomized fair-coin instrument, perfect compliance, known p: the
    # weighted CDF tracks the raw empirical CDF of the treated arm
    rng = substream(502, 2)
    n = 100_000
    z = (rng.random(n) < 0.5).astype(int)
    y = rng.standard_normal(n)
    data = _iv_data(y, z, z, np.ones((n, 1)))
    pair = kappa_cdf(data, _fixed_p_model(1), p_trim=0.0)
    treated = np.sort(y[z == 1])
    ecdf_at_knots = np.searchsorted(treated, pair.beta1.knots, side="right") / treated.size
    sup = np.max(np.abs(pair.beta1.values - ecdf_at_knots))
    assert sup <= 3.0 / np.sqrt(n)
    # both arms end near total mass one
    assert pair.beta1.values[-1] == pytest.approx(1.0, abs=0.02)
    assert pair.beta0.values[-1] == pytest.approx(1.0, abs=0.02)


def test_kappa_denominator_ignores_outcomes():
    rng = substream(502, 3)
    n = 30
    x = rng.normal(size=(n, 2))
    z = (rng.random(n) < 0.5).astype(int)
    d = np.where(z == 1, rng.random(n) < 0.9, rng.random(n) < 0.1).astype(int)
    y = rng.normal(size=n)
    model = fit_logit(x, z)
    denom_a = kappa_cdf(_iv_data(y, d, z, x), model).denom
    denom_b = kappa_cdf(_iv_data(np.roll(y, 7), d, z, x), model).denom
    assert denom_a == denom_b


def test_kappa_degenerate_denominator():
    # d independent of z with matched margins makes the complier mass zero
    y = [1.0, 2.0, 3.0, 4.0]
    d = [1, 1, 0, 0]
    z = [1, 0, 1, 0]
    data = _iv_data(y, d, z, np.ones((4, 1)))
    with pytest.raises(DegenerateDenominator):
        kappa_cdf(data, _fixed_p_model(1), p_trim=0.0)


def test_kappa_trim_no_op_when_propensities_interior():
    rng = substream(502, 4)
    n = 300
    x = rng.uniform(-0.5, 0.5, size=(n, 2))
    z = (rng.random(n) < expit(x @ np.array([0.5, 0.5]))).astype(int)
    d = np.where(z == 1, rng.random(n) < 0.85, rng.random(n) < 0.15).astype(int)
    y = rng.normal(size=n)
    data = _iv_data(y, d, z, x)
    model = fit_logit(x, z)
    p = model.propensity(x)
    assert p.min() > 0.2 and p.max() < 0.8  # trim cannot bind
    a = kappa_cdf(data, model, p_trim=0.0)
    b = kappa_cdf(data, model, p_trim=0.01)
    assert np.max(np.abs(a.beta1.values - b.beta1.values)) < 1e-12
    assert np.max(np.abs(a.beta0.values - b.beta0.values)) < 1e-12


def test_kappa_requires_iv_design():
    data = ObservationSet(design="direct", y=np.array([1.0]), d=np.array([1]))
    with pytest.raises(ValueError):
        kappa_cdf(data, _fixed_p_model(1))


def test_logistic_matches_scipy_expit():
    eta = np.concatenate([np.linspace(-700.0, 700.0, 1_400_001),
                          substream(503, 0).uniform(-40.0, 40.0, 100_000)])
    np.testing.assert_array_max_ulp(logistic(eta), expit(eta), maxulp=8)


def test_logistic_saturates_and_passes_nan():
    # exp(-eta) overflows below eta = -709.78; that must not warn
    eta = np.array([-np.inf, -1000.0, 1000.0, np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = logistic(eta)
    assert p[:4].tolist() == [0.0, 0.0, 1.0, 1.0]
    assert np.isnan(p[4])
