"""One-sided kernel means and complier CDFs at a discontinuity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from xqte.cdf_rdd import (
    EmptyWindow,
    ZeroVariance,
    arm_threshold,
    epanechnikov,
    rdd_cdf,
    rot_bandwidth,
)
from xqte.core import DegenerateDenominator, ObservationSet, substream

from oracles import one_sided_nw


def _rdd_data(y, d, r):
    return ObservationSet(
        design="rdd", y=np.asarray(y, float), d=np.asarray(d), r=np.asarray(r, float)
    )


def nw_oracle(r, g, h, side):
    """One-sided Nadaraya-Watson by direct python sums."""
    num = den = 0.0
    for ri, gi in zip(r, g):
        on_side = ri > 0 if side == "above" else ri < 0
        if not on_side:
            continue
        u = abs(ri) / h
        if u <= 1.0:
            w = 0.75 * (1.0 - u * u)
            num += w * gi
            den += w
    assert den > 0
    return num / den


# ---------------------------------------------------------------- kernel

def test_epanechnikov_values():
    assert epanechnikov(0.0) == 0.75
    assert epanechnikov(0.5) == pytest.approx(0.5625)
    assert epanechnikov(1.0) == 0.0
    assert epanechnikov(-1.0) == 0.0
    assert epanechnikov(1.2) == 0.0
    u = np.linspace(-1, 1, 41)
    assert np.all(epanechnikov(u) >= 0)


def test_rot_bandwidth_exact_cases():
    # 32 points with sample sd exactly 2: 32^(1/5) = 2, so h = 1
    a = 2.0 * np.sqrt(31.0 / 32.0)
    r = np.concatenate([np.full(16, a), np.full(16, -a)])
    assert rot_bandwidth(r) == pytest.approx(1.0, abs=1e-12)
    # sd 1 at n = 10000 gives 10^(-0.8)
    a = np.sqrt(9999.0 / 10000.0)
    r = np.concatenate([np.full(5000, a), np.full(5000, -a)])
    assert rot_bandwidth(r) == pytest.approx(10.0 ** -0.8, abs=1e-10)


def test_rot_bandwidth_zero_variance():
    with pytest.raises(ZeroVariance):
        rot_bandwidth(np.ones(10))


# ------------------------------------------------------------------- nw

def test_one_sided_nw_constant_is_exact():
    rng = substream(601, 0)
    r = rng.uniform(-1, 1, size=50)
    data = _rdd_data(np.zeros(50), np.zeros(50, int), r)
    ones = np.ones(50)
    assert one_sided_nw(data, "above", ones, h=0.7) == 1.0
    assert one_sided_nw(data, "below", ones, h=0.7) == 1.0


def test_one_sided_nw_hand_example():
    h = 0.4
    r = np.array([0.5 * h, h])
    g = np.array([2.0, 4.0])
    data = _rdd_data(np.zeros(2), np.zeros(2, int), r)
    # the record exactly at h gets kernel weight zero
    assert one_sided_nw(data, "above", g, h=h) == pytest.approx(2.0)


def test_one_sided_nw_empty_window():
    data = _rdd_data([0.0, 0.0], [0, 0], [0.5, 0.9])
    with pytest.raises(EmptyWindow):
        one_sided_nw(data, "below", np.ones(2), h=0.4)
    # a single record exactly at the bandwidth edge has zero weight
    data = _rdd_data([0.0], [0], [0.4])
    with pytest.raises(EmptyWindow):
        one_sided_nw(data, "above", np.ones(1), h=0.4)


def test_one_sided_nw_matches_oracle():
    rng = substream(601, 1)
    r = rng.uniform(-2, 2, size=80)
    g = rng.normal(size=80)
    data = _rdd_data(np.zeros(80), np.zeros(80, int), r)
    for side in ("above", "below"):
        got = one_sided_nw(data, side, g, h=0.9)
        assert got == pytest.approx(nw_oracle(r, g, 0.9, side), abs=1e-12)


# -------------------------------------------------------------- rdd cdf

def test_rdd_cdf_sharp_design_matches_nw_oracle():
    rng = substream(602, 0)
    n = 120
    r = rng.uniform(-1.5, 1.5, size=n)
    d = (r > 0).astype(int)
    y = np.round(rng.normal(size=n), 1)
    data = _rdd_data(y, d, r)
    h = 0.8
    pair = rdd_cdf(data, h=h)
    assert pair.denom1 == pytest.approx(1.0)
    for i, knot in enumerate(pair.beta1.knots):
        le = (y <= knot).astype(float)
        assert pair.beta1.values[i] == pytest.approx(
            nw_oracle(r, le, h, "above"), abs=1e-12
        )
        assert pair.beta0.values[i] == pytest.approx(
            nw_oracle(r, le, h, "below"), abs=1e-12
        )


def test_rdd_cdf_reaches_one_at_top():
    rng = substream(602, 1)
    n = 400
    r = rng.normal(size=n)
    dtilde = (rng.random(n) < 0.2 + 0.6 * (r > 0)).astype(int)
    y = rng.normal(size=n) + 0.5 * dtilde
    data = _rdd_data(y, dtilde, r)
    pair = rdd_cdf(data)
    assert pair.beta1.values[-1] == pytest.approx(1.0, abs=1e-12)
    assert pair.beta0.values[-1] == pytest.approx(1.0, abs=1e-12)


def test_rdd_cdf_ignores_points_outside_window():
    rng = substream(602, 2)
    n = 150
    r = rng.uniform(-1, 1, size=n)
    d = (rng.random(n) < 0.25 + 0.5 * (r > 0)).astype(int)
    y = rng.normal(size=n)
    h = 0.5
    base = rdd_cdf(_rdd_data(y, d, r), h=h)
    # graft on far-away points with wild outcomes
    y2 = np.concatenate([y, [999.0, -999.0, 555.0]])
    d2 = np.concatenate([d, [1, 0, 1]])
    r2 = np.concatenate([r, [5.0, -5.0, 2.0]])
    spiked = rdd_cdf(_rdd_data(y2, d2, r2), h=h)
    assert np.array_equal(base.beta1.knots, spiked.beta1.knots)
    assert np.array_equal(base.beta1.values, spiked.beta1.values)
    assert np.array_equal(base.beta0.values, spiked.beta0.values)


def test_rdd_cdf_degenerate_when_no_first_stage():
    rng = substream(602, 3)
    n = 60
    r = rng.uniform(-1, 1, size=n)
    d = np.ones(n, dtype=int)  # treated everywhere: the jump is exactly zero
    y = rng.normal(size=n)
    with pytest.raises(DegenerateDenominator):
        rdd_cdf(_rdd_data(y, d, r), h=10.0)


def test_rdd_cdf_empty_side():
    rng = substream(602, 4)
    r = rng.uniform(0.1, 1, size=30)  # nothing below the cutoff
    y = rng.normal(size=30)
    d = (r > 0.5).astype(int)
    with pytest.raises(EmptyWindow):
        rdd_cdf(_rdd_data(y, d, r), h=0.9)


def test_rdd_cdf_large_n_recovers_truth():
    # randomized treatment probability jumping 0.1 -> 0.9 at the cutoff;
    # potential outcomes independent of r, so the target CDFs are
    # Phi(y - 1) for arm 1 and Phi(y) for arm 0
    rng = substream(602, 5)
    n = 100_000
    r = rng.standard_normal(n)
    d = (rng.random(n) < 0.1 + 0.8 * (r > 0)).astype(int)
    y = np.where(d == 1, rng.standard_normal(n) + 1.0, rng.standard_normal(n))
    pair = rdd_cdf(_rdd_data(y, d, r))
    lo, hi = np.quantile(pair.beta1.knots, [0.025, 0.975])
    inner = (pair.beta1.knots >= lo) & (pair.beta1.knots <= hi)
    k = pair.beta1.knots[inner]
    sup1 = np.max(np.abs(pair.beta1.values[inner] - norm.cdf(k - 1.0)))
    sup0 = np.max(np.abs(pair.beta0.values[inner] - norm.cdf(k)))
    assert sup1 <= 0.03
    assert sup0 <= 0.03


# --------------------------------------------------------- arm threshold

@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
    arm=st.sampled_from([0, 1]),
    level=st.floats(0.01, 0.99),
)
def test_arm_threshold_matches_interp_oracle(n, seed, ties, arm, level):
    rng = np.random.default_rng(seed)
    r = rng.uniform(-1.0, 1.0, n)
    d = rng.integers(0, 2, n)
    y = rng.standard_normal(n)
    if ties:
        y = np.round(y)
    data = _rdd_data(y, d, r)
    h = 0.7
    keep = (np.abs(r) <= h) & (r != 0.0) & (d == arm)
    w = np.array([0.75 * (1.0 - (ri / h) ** 2) for ri in r[keep]])
    if not keep.any():
        with pytest.raises(EmptyWindow):
            arm_threshold(data, arm, h, level)
        return
    # tied outcomes take their ranks in input order
    order = np.argsort(y[keep], kind="stable")
    ys, ws = y[keep][order], w[order]
    cum = np.cumsum(ws)
    want = np.interp(level, (cum - 0.5 * ws) / cum[-1], ys)
    assert arm_threshold(data, arm, h, level) == pytest.approx(want, rel=1e-12, abs=1e-12)
