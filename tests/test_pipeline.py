from dataclasses import replace

import numpy as np
import pytest

from xqte.cdf_rdd import arm_threshold, rdd_cdf, rot_bandwidth
from xqte.core import DegenerateDenominator, ObservationSet, arm_cdf_rows, evaluate, substream
from xqte.inference import estimate_qte_batch
from xqte.pipeline import EstimatorSettings, fit_pipeline
from xqte.simulate import gen_iv, gen_rdd
from xqte.tail import ShiftMergesKnots, extrapolated_quantiles

from oracles import ecdf, subset_cdfs


def direct_set(y0, y1):
    return ObservationSet(
        design="direct",
        y=np.concatenate([y0, y1]),
        d=np.concatenate([np.zeros(len(y0)), np.ones(len(y1))]),
    )


def pareto(key, n, alpha, scale=1.0):
    u = substream(31, key).random(n)
    return scale * (1.0 - u) ** (-1.0 / alpha)


class TestSettings:
    def test_defaults(self):
        s = EstimatorSettings()
        assert s.omega == 1.0
        assert s.ymin_level == 0.975
        assert s.trim == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"omega": 0.0},
            {"omega": -1.0},
            {"omega": float("inf")},
            {"omega": float("nan")},
            {"ymin_level": 0.0},
            {"ymin_level": 1.0},
            {"trim": -0.01},
            {"trim": 0.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorSettings(**kwargs)


class TestEcdf:
    def test_matches_counting_definition(self):
        y = np.array([3.0, 1.0, 3.0, 2.0, 5.0, 2.0, 2.0])
        cdf = ecdf(y)
        assert np.array_equal(cdf.knots, [1.0, 2.0, 3.0, 5.0])
        # stored values are P(Y <= knot)
        assert np.allclose(cdf.values, [1 / 7, 4 / 7, 6 / 7, 1.0])
        # left-continuous evaluation returns P(Y < t)
        for t in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 9.0]:
            assert evaluate(cdf, t) == pytest.approx(np.mean(y < t), abs=1e-15)

    def test_empty_arm_raises(self):
        with pytest.raises(DegenerateDenominator):
            ecdf(np.array([]))


class TestDirectPipeline:
    def test_arm_cdfs_are_arm_ecdfs(self):
        y0 = pareto(0, 300, 2.0)
        y1 = pareto(1, 200, 2.0, scale=1.5)
        pipe = fit_pipeline(direct_set(y0, y1), EstimatorSettings(ymin_level=0.9))
        ref1, ref0 = ecdf(y1), ecdf(y0)
        assert np.array_equal(pipe.cdf1.knots, ref1.knots)
        assert np.array_equal(pipe.cdf1.values, ref1.values)
        assert np.array_equal(pipe.cdf0.knots, ref0.knots)
        assert np.array_equal(pipe.cdf0.values, ref0.values)
        assert pipe.tail_side == "upper"
        assert pipe.logit is None

    def test_refit_on_full_index_reproduces_cdfs(self):
        # the draws' per-draw recipe (oracles.subset_cdfs) on every row is
        # the full-sample fit
        data = direct_set(pareto(2, 250, 2.0), pareto(3, 250, 2.0, scale=2.0))
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9))
        c1, c0 = subset_cdfs(pipe, np.arange(data.n))
        assert np.array_equal(c1.knots, pipe.cdf1.knots)
        assert np.array_equal(c1.values, pipe.cdf1.values)
        assert np.array_equal(c0.knots, pipe.cdf0.knots)
        assert np.array_equal(c0.values, pipe.cdf0.values)

    def test_refit_subset_matches_subset_ecdfs(self):
        data = direct_set(pareto(4, 250, 2.0), pareto(5, 250, 2.0))
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9))
        idx = substream(31, 6).choice(data.n, size=180, replace=False)
        sub = data.subset(idx)
        c1, c0 = subset_cdfs(pipe, idx)
        ref1 = ecdf(sub.y[sub.d == 1])
        ref0 = ecdf(sub.y[sub.d == 0])
        assert np.array_equal(c1.knots, ref1.knots)
        assert np.array_equal(c1.values, ref1.values)
        assert np.array_equal(c0.knots, ref0.knots)
        assert np.array_equal(c0.values, ref0.values)


def heavy_lower_tail_arm(key, n):
    """Integer-valued outcomes, bounded above, Pareto-like lower tail."""
    p = (1.0 - substream(31, key).random(n)) ** (-1.0 / 1.5)
    return 100.0 - np.ceil(10.0 * p)


class TestLowerTail:
    def test_outcomes_flipped_inside(self):
        y0 = heavy_lower_tail_arm(7, 400)
        y1 = heavy_lower_tail_arm(8, 400)
        data = direct_set(y0, y1)
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9), tail_side="lower")
        assert pipe.tail_side == "lower"
        assert np.array_equal(pipe.data.y, -data.y)

    def test_constant_arm_gap_recovered_exactly(self):
        # treated outcomes are control + 5 unit for unit, so every
        # quantile difference is 5; the flipped thresholds are negative,
        # both arms shift onto the identical positive scale, and the QTE
        # comes out exact up to final-subtraction rounding.
        base = heavy_lower_tail_arm(9, 800)
        data = direct_set(base, base + 5.0)
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9), tail_side="lower")
        assert pipe.fit1.shift > 0 and pipe.fit0.shift > 0
        assert pipe.fit1.alpha_hat == pipe.fit0.alpha_hat
        for res in estimate_qte_batch(pipe, [0.02, 0.05, 0.08]):
            assert res.estimate == pytest.approx(5.0, rel=1e-12)

    def test_lower_tail_quantile_maps_back(self):
        # original-scale lower-tail quantile = -(flipped upper quantile)
        base = heavy_lower_tail_arm(10, 800)
        data = direct_set(base, base)
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9), tail_side="lower")
        q = 0.05
        flipped_q = extrapolated_quantiles(pipe.fit1, 1.0 - q, [pipe.fit1.alpha_hat])[0]
        original_q = -flipped_q
        # must sit at or below every knot mass point above the 10% line
        assert original_q <= np.quantile(base, 0.10)

    def test_invalid_tail_side(self):
        data = direct_set(pareto(11, 50, 2.0), pareto(12, 50, 2.0))
        with pytest.raises(ValueError):
            fit_pipeline(data, tail_side="both")


class TestIvPipeline:
    def make_data(self, n=4000, key=13):
        rng = substream(31, key)
        x1 = rng.standard_normal(n)
        x = np.column_stack([np.ones(n), x1])
        from scipy.special import expit

        z = (rng.random(n) < expit(0.3 + 0.5 * x1)).astype(int)
        d = z.copy()  # every unit a complier
        y = np.where(d == 1, pareto(key + 100, n, 2.0, scale=2.0), pareto(key + 200, n, 2.0))
        return ObservationSet(design="iv", y=y, d=d, z=z, x=x)

    def test_structure_and_meta(self):
        data = self.make_data()
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9))
        assert pipe.data.design == "iv"
        assert pipe.meta["gamma"].shape == (2,)
        assert np.array_equal(pipe.logit.gamma, pipe.meta["gamma"])
        assert pipe.fit1.alpha_hat > 0 and pipe.fit0.alpha_hat > 0

    def test_refit_full_index_reproduces(self):
        data = self.make_data(n=1500, key=14)
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9))
        c1, c0 = subset_cdfs(pipe, np.arange(data.n), data.x)
        assert np.array_equal(c1.knots, pipe.cdf1.knots)
        assert np.array_equal(c1.values, pipe.cdf1.values)
        assert np.array_equal(c0.values, pipe.cdf0.values)


def copied_cdfs(sample):
    """Each arm's (knots, values) copied out of the one-row case of
    arm_cdf_rows, tied outcomes or not."""
    ys, at_knot, values, _ = arm_cdf_rows(sample, sample.rank[None])
    return [(ys[0, at[0]], v[0, at[0]]) for at, v in zip(at_knot, values)]


def assert_cdfs_equal_copies(pipe):
    for cdf, (knots, values) in zip((pipe.cdf1, pipe.cdf0), copied_cdfs(pipe.sample)):
        assert cdf.knots.tobytes() == knots.tobytes()
        assert cdf.values.tobytes() == values.tobytes()


class TestSharedFitArrays:
    """Untied instrument outcomes make every outcome a knot of both arms:
    the fitted CDFs are then views of the ranked sample's outcomes and of
    one running-sum matrix, all read-only, instead of copies."""

    def test_untied_instrument_fit_shares_the_ranked_sample(self):
        data = gen_iv(substream(32, 0), 2000).data
        assert np.unique(data.y).size == data.n
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9))
        c1, c0 = pipe.cdf1, pipe.cdf0
        assert c1.knots is c0.knots
        assert np.shares_memory(c1.knots, pipe.sample.y)
        assert c1.values.base is not None and c1.values.base is c0.values.base
        assert_cdfs_equal_copies(pipe)
        for arr in (c1.knots, c1.values, c0.values, c1.values.base, *pipe.sample):
            with pytest.raises(ValueError, match="read-only"):
                arr[..., 0] = 0

    @pytest.mark.parametrize("design", ["tied iv", "direct"])
    def test_other_fits_copy_each_arms_knots(self, design):
        data = gen_iv(substream(32, 1), 2000).data
        if design == "direct":
            data = ObservationSet(design="direct", y=data.y, d=data.d)
        else:
            data = replace(data, y=np.round(data.y, 1))
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9))
        c1, c0 = pipe.cdf1, pipe.cdf0
        assert not np.shares_memory(c1.knots, c0.knots)
        assert not np.shares_memory(c1.knots, pipe.sample.y)
        assert not np.shares_memory(c1.values, c0.values)
        assert_cdfs_equal_copies(pipe)
        for arr in pipe.sample:
            if arr is not None:
                with pytest.raises(ValueError, match="read-only"):
                    arr[..., 0] = 0


class TestRddPipeline:
    def make_data(self, n=3000, key=15):
        rng = substream(31, key)
        r = rng.uniform(-1.0, 1.0, size=n)
        d = (r > 0).astype(int)
        y = pareto(key + 100, n, 2.0) + 0.5 * d
        return ObservationSet(design="rdd", y=y, d=d, r=r)

    def test_bandwidth_recorded_and_used(self):
        data = self.make_data()
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9))
        h = rot_bandwidth(data.r)
        assert pipe.meta["bandwidth"] == h
        ref = rdd_cdf(data, h=h)
        assert np.array_equal(pipe.cdf1.knots, ref.beta1.knots)
        assert np.array_equal(pipe.cdf1.values, ref.beta1.values)
        assert pipe.meta["first_stage_jump"] == ref.denom1

    @pytest.mark.parametrize("seed", range(12))
    def test_shifted_threshold_is_the_arm_threshold_plus_the_shift(self, seed):
        # the draws put each arm's threshold at thr + shift
        # (inference._rdd_rows); the full-sample fit must sit on the same
        # point, not at exactly 1.0
        base = gen_rdd(substream(seed, 0), 10**4).data
        data = ObservationSet(design="rdd", y=base.y - 7.0, d=base.d, r=base.r)
        pipe = fit_pipeline(data)
        level = pipe.settings.ymin_level
        for arm, fit in ((1, pipe.fit1), (0, pipe.fit0)):
            thr = arm_threshold(pipe.data, arm, pipe.meta["bandwidth"], level)
            assert thr <= 0.0 and fit.shift == 1.0 - thr
            assert fit.y_min == thr + fit.shift
            assert fit.s_min == 1.0 - level

    def test_shift_that_merges_knots_is_an_estimation_error(self):
        # 98.8% of the outcomes sit near -1e20, and so do both arm
        # thresholds; shifting by about 1e20 rounds every outcome in
        # (0, 1) onto the same value
        rng = substream(0, 0)
        base = gen_rdd(rng, 4000).data
        far = rng.random(4000) < 0.988
        y = np.where(far, -1e20 - rng.uniform(0.0, 1e5, 4000), rng.random(4000))
        data = ObservationSet(design="rdd", y=y, d=base.d, r=base.r)
        with pytest.raises(ShiftMergesKnots):
            fit_pipeline(data)
