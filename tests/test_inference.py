import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from xqte.core import ObservationSet, StepCdf, flip_outcomes, substream, tail_view
from xqte import inference
from xqte.inference import (
    RATE_EXPONENT,
    SubsampleConfig,
    TailDraws,
    UndefinedEstimate,
    UnstableSubsampling,
    estimate_qte_batch,
    qte_draws_from_tails,
    subsample_tail_pairs,
    subsampling_ci,
)
from xqte.pipeline import EstimatorSettings, fit_pipeline
from xqte.simulate import gen_iv, gen_rdd
from xqte.tail import extrapolated_quantiles, qte_point


def direct_set(y0, y1):
    return ObservationSet(
        design="direct",
        y=np.concatenate([y0, y1]),
        d=np.concatenate([np.zeros(len(y0)), np.ones(len(y1))]),
    )


def pareto(key, n, alpha, scale=1.0):
    u = substream(47, key).random(n)
    return scale * (1.0 - u) ** (-1.0 / alpha)


def draw_stream(*prefix):
    return lambda t: substream(47, *prefix, t)


def bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


def design_sample(design, seed, n=5000):
    """gen_iv data for the instrument and direct designs (the direct one
    keeps y and d), gen_rdd data for the discontinuity design."""
    if design == "rdd":
        return gen_rdd(substream(53, seed), n).data
    data = gen_iv(substream(53, seed), n).data
    return data if design == "iv" else ObservationSet(design="direct", y=data.y, d=data.d)


DESIGNS = ["iv", "rdd", "direct"]
TAIL_LEVELS = {"lower": [0.01, 0.02, 0.025], "upper": [0.975, 0.98, 0.99]}


def rate_ratio(design, b, n):
    draws = np.array([0.0, 1.0])
    return subsampling_ci(draws, 0.5, SubsampleConfig(b=b), design, n).rate_ratio


class TestRateSpec:
    """The design -> rate exponent lookup behind subsampling_ci."""

    def test_worked_values(self):
        assert rate_ratio("iv", 1000, 10000) == pytest.approx(0.31622776601683794, rel=1e-13)
        assert rate_ratio("rdd", 1000, 10000) == pytest.approx(0.3981071705534972, rel=1e-13)
        assert rate_ratio("direct", 1000, 10000) == rate_ratio("iv", 1000, 10000)

    def test_exponents(self):
        assert RATE_EXPONENT == {"iv": 0.5, "rdd": 0.4, "direct": 0.5}

    def test_rejects_unknown_design(self):
        with pytest.raises(KeyError):
            rate_ratio("matching", 1000, 10000)


class TestSubsampleConfig:
    def test_default_subsample_size(self):
        assert SubsampleConfig().resolve_b(10000) == 631
        assert SubsampleConfig().resolve_b(1000) == 126
        assert SubsampleConfig(b=200).resolve_b(1000) == 200

    @pytest.mark.parametrize(
        "cfg,n",
        [
            (SubsampleConfig(b=1), 100),
            (SubsampleConfig(b=100), 100),
            (SubsampleConfig(b=150), 100),
            (SubsampleConfig(b=50, draws=99), 100),
            (SubsampleConfig(b=50, ci_level=0.0), 100),
            (SubsampleConfig(b=50, ci_level=1.0), 100),
            (SubsampleConfig(b=50, max_failure_share=1.0), 100),
        ],
    )
    def test_validate_rejects(self, cfg, n):
        with pytest.raises(ValueError):
            cfg.validate(n)

    def test_validate_without_sample_size(self):
        # every rule but b < n holds without data
        assert SubsampleConfig(b=150).validate() is None
        assert SubsampleConfig(b=150).validate(200) == 150
        for cfg in (SubsampleConfig(b=1), SubsampleConfig(draws=99),
                    SubsampleConfig(ci_level=1.0), SubsampleConfig(max_failure_share=1.0)):
            with pytest.raises(ValueError):
                cfg.validate()


class TestSubsamplingCi:
    def test_worked_example(self):
        # rho = (25/100)^0.5 = 0.5, scaled = [-0.5, 0, 0.5, 1.0];
        # at 50% coverage the 0.25/0.75 quantiles are -0.125 and 0.625,
        # giving [2 - 0.625, 2 + 0.125].
        draws = np.array([1.0, 2.0, 3.0, 4.0])
        cfg = SubsampleConfig(b=25, ci_level=0.5)
        ci = subsampling_ci(draws, 2.0, cfg, "iv", n=100)
        assert ci.rate_ratio == pytest.approx(0.5, rel=1e-15)
        assert ci.lo == pytest.approx(1.375, rel=1e-12)
        assert ci.hi == pytest.approx(2.125, rel=1e-12)
        assert ci.b == 25
        assert ci.n_draws == 4

    def test_nesting_across_levels(self):
        draws = substream(47, 0).standard_normal(400) + 3.0
        cis = {}
        for level in (0.90, 0.95, 0.99):
            cfg = SubsampleConfig(b=200, ci_level=level)
            cis[level] = subsampling_ci(draws, 3.1, cfg, "iv", n=1000)
        assert cis[0.99].lo <= cis[0.95].lo <= cis[0.90].lo
        assert cis[0.90].hi <= cis[0.95].hi <= cis[0.99].hi

    def test_constant_draws_collapse_to_point(self):
        draws = np.full(200, 7.25)
        ci = subsampling_ci(draws, 7.25, SubsampleConfig(b=50), "rdd", n=500)
        assert ci.lo == 7.25 == ci.hi


class TestFullSampleDegenerate:
    """With b = n every draw is the full sample, so the draws must
    reproduce each arm's fit (alpha_hat, s_min, y_min) and the point
    estimate bit for bit, in every design."""

    @staticmethod
    def check_draws_equal_fit(pipe):
        n = pipe.data.n
        cfg = SubsampleConfig(b=n, draws=100)
        # validate rejects b = n, so the draws are run directly
        alphas, survivals, thresholds, failed = inference._draws(pipe, cfg, n, draw_stream(3))
        assert not failed.any()
        for arm, fit in enumerate((pipe.fit1, pipe.fit0)):
            assert bits(alphas[:, arm]) == bits(np.full(cfg.draws, fit.alpha_hat))
            assert bits(survivals[:, arm]) == bits(np.full(cfg.draws, fit.s_min))
            assert bits(thresholds[:, arm]) == bits(np.full(cfg.draws, fit.y_min))
        tails = TailDraws(alphas, survivals, thresholds, 0)
        level = 0.95
        draws = qte_draws_from_tails(pipe.fit1, pipe.fit0, tails, level)
        point = qte_point(pipe.fit1, pipe.fit0, level)
        assert np.all(draws == point)
        ci = subsampling_ci(draws, point, cfg, pipe.data.design, n)
        assert ci.lo == point == ci.hi

    def test_draws_equal_point(self):
        data = direct_set(pareto(1, 200, 2.0), pareto(2, 200, 2.0, scale=2.0))
        self.check_draws_equal_fit(fit_pipeline(data, EstimatorSettings(ymin_level=0.9)))

    @pytest.mark.parametrize("sample", ["plain", "tied", "offset"])
    @pytest.mark.parametrize("tail_side", ["lower", "upper"])
    @pytest.mark.parametrize("design", DESIGNS)
    def test_every_design_draws_equal_its_fit(self, design, tail_side, sample):
        # tied rounds the outcomes to 0.1; offset moves them by 20 away
        # from the tail, so that both thresholds sit below 0 on the
        # analysis scale and the positivity shift applies
        data = design_sample(design, 0, n=2000)
        if sample == "tied":
            data = replace(data, y=np.round(data.y, 1))
        elif sample == "offset":
            data = replace(data, y=data.y + (20.0 if tail_side == "lower" else -20.0))
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9), tail_side)
        assert (pipe.fit1.shift > 0.0 and pipe.fit0.shift > 0.0) == (sample == "offset")
        self.check_draws_equal_fit(pipe)


class TestIvReducesToDirect:
    """With perfect compliance (z = d) and an intercept-only x, kappa
    weighting is inverse-propensity weighting at the fitted share of
    treated units, so the instrument design must reproduce the direct
    design: the same thresholds, and indices, survivals, draws, points
    and intervals within IDENTITY_RTOL. The two differ only through the
    logit's Newton iterate and the order of the weighted sums; at n =
    2 x 10^4 the relative gaps measure about 1e-13 at most."""

    IDENTITY_RTOL = 1e-12

    def make_pipes(self):
        n = 20_000
        rng = substream(48, n)
        d = (rng.random(n) < 0.4).astype(np.int8)
        # exact Pareto arms with index 3 and scales 2 (treated) and 1
        y = np.where(d == 1, 2.0, 1.0) * (1.0 - rng.random(n)) ** (-1.0 / 3.0)
        direct = ObservationSet(design="direct", y=y, d=d)
        iv = ObservationSet(design="iv", y=y, d=d, z=d, x=np.ones((n, 1)))
        return fit_pipeline(iv), fit_pipeline(direct)

    def test_point_fits_agree(self):
        iv, direct = self.make_pipes()
        for a, b in ((iv.fit1, direct.fit1), (iv.fit0, direct.fit0)):
            assert a.y_min == b.y_min
            assert a.alpha_hat == pytest.approx(b.alpha_hat, rel=self.IDENTITY_RTOL)
            assert a.s_min == pytest.approx(b.s_min, rel=self.IDENTITY_RTOL)

    def test_draws_and_intervals_agree(self):
        iv, direct = self.make_pipes()
        cfg = SubsampleConfig(draws=200)
        a = subsample_tail_pairs(iv, cfg, draw_stream(11))
        b = subsample_tail_pairs(direct, cfg, draw_stream(11))
        assert a.failed == b.failed
        np.testing.assert_array_equal(a.thresholds, b.thresholds)
        np.testing.assert_allclose(a.alphas, b.alphas, rtol=self.IDENTITY_RTOL, atol=0)
        np.testing.assert_allclose(a.survivals, b.survivals, rtol=self.IDENTITY_RTOL, atol=0)
        levels = [0.999, 0.9999]
        ra = estimate_qte_batch(iv, levels, cfg, draw_stream(11))
        rb = estimate_qte_batch(direct, levels, cfg, draw_stream(11))
        for x, y in zip(ra, rb):
            np.testing.assert_allclose([x.estimate, x.ci.lo, x.ci.hi],
                                       [y.estimate, y.ci.lo, y.ci.hi],
                                       rtol=self.IDENTITY_RTOL, atol=0)


class TestLabelSwap:
    """Swapping the treatment labels (d -> 1 - d, and z -> 1 - z in the
    instrument design; r stays in the discontinuity design) trades the
    arms: the refitted propensity becomes 1 - p, under which the kappa
    weights w1 and w0 trade places and wd stays, and the kernel jump
    ratios of the two arms trade places. Every point estimate is
    negated, each interval [lo, hi] maps to [-hi, -lo] and the
    failed-draw count is kept, within IDENTITY_RTOL: the logit's Newton
    iterate and the weighted sums round differently on the swapped
    labels, by about 1e-13 at most at n = 2 x 10^4 (2.5e-13 in the
    discontinuity design). A flat arm's infinite index compares equal."""

    IDENTITY_RTOL = 1e-12
    LEVELS = [0.01, 0.02, 0.025]

    def check_swap(self, data, swapped, seed):
        pipe = fit_pipeline(data, tail_side="lower")
        pipe_s = fit_pipeline(swapped, tail_side="lower")
        for a, b in ((pipe.fit1, pipe_s.fit0), (pipe.fit0, pipe_s.fit1)):
            np.testing.assert_allclose([a.y_min, a.alpha_hat, a.s_min],
                                       [b.y_min, b.alpha_hat, b.s_min],
                                       rtol=self.IDENTITY_RTOL, atol=0)
        cfg = SubsampleConfig(draws=200)
        res = estimate_qte_batch(pipe, self.LEVELS, cfg, draw_stream(seed))
        res_s = estimate_qte_batch(pipe_s, self.LEVELS, cfg, draw_stream(seed))
        for r, s in zip(res, res_s):
            assert s.ci.n_failed == r.ci.n_failed
            np.testing.assert_allclose([s.estimate, s.ci.lo, s.ci.hi],
                                       [-r.estimate, -r.ci.hi, -r.ci.lo],
                                       rtol=self.IDENTITY_RTOL, atol=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_instrument_design(self, seed):
        data = gen_iv(substream(49, seed), 20_000).data
        swapped = ObservationSet(design="iv", y=data.y, d=1 - data.d, z=1 - data.z, x=data.x)
        self.check_swap(data, swapped, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_direct_design(self, seed):
        data = gen_iv(substream(49, seed), 20_000).data
        direct = ObservationSet(design="direct", y=data.y, d=data.d)
        swapped = ObservationSet(design="direct", y=data.y, d=1 - data.d)
        self.check_swap(direct, swapped, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_discontinuity_design(self, seed):
        # the running variable stays: the first-stage jump changes sign,
        # and each arm's takers, and so its threshold, become the other's
        data = gen_rdd(substream(49, seed), 20_000).data
        swapped = ObservationSet(design="rdd", y=data.y, d=1 - data.d, r=data.r)
        self.check_swap(data, swapped, seed)


class TestOutcomeScaling:
    """Multiplying every outcome by a power of two multiplies every point
    estimate and interval endpoint by it, bit for bit, when no positivity
    shift applies: the product is exact, the tail index reads only ratios
    of outcomes over the threshold, and neither the propensity nor the
    bandwidth reads the outcomes."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("tail_side", ["lower", "upper"])
    @pytest.mark.parametrize("design", DESIGNS)
    def test_estimates_scale_with_the_outcomes(self, design, tail_side, seed):
        data = design_sample(design, seed)
        cfg = SubsampleConfig(draws=100)
        levels = TAIL_LEVELS[tail_side]
        pipe = fit_pipeline(data, tail_side=tail_side)
        assert pipe.fit1.shift == pipe.fit0.shift == 0.0
        results = estimate_qte_batch(pipe, levels, cfg, draw_stream(54, seed))
        for factor in (4.0, 2.0**-3):
            scaled = fit_pipeline(replace(data, y=data.y * factor), tail_side=tail_side)
            scaled_results = estimate_qte_batch(scaled, levels, cfg, draw_stream(54, seed))
            for r, s in zip(results, scaled_results):
                assert s.ci.n_failed == r.ci.n_failed
                assert [s.estimate, s.ci.lo, s.ci.hi] == [
                    factor * r.estimate, factor * r.ci.lo, factor * r.ci.hi]


class TestRowPermutation:
    """Permuting the rows leaves every point estimate unchanged within
    PERMUTATION_RTOL: the logit, the weighted CDF sums and the kernel
    sums then add the same terms in another order, which moves the last
    bits only (at most 4.1e-13 relative over these 108 estimates, 72 of
    them exact)."""

    PERMUTATION_RTOL = 1e-10

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("tail_side", ["lower", "upper"])
    @pytest.mark.parametrize("design", DESIGNS)
    def test_point_estimates_ignore_row_order(self, design, tail_side, seed):
        data = design_sample(design, seed)
        permuted = data.subset(substream(55, seed).permutation(data.n))
        levels = TAIL_LEVELS[tail_side]
        point, point_permuted = (
            [r.estimate for r in estimate_qte_batch(fit_pipeline(d, tail_side=tail_side), levels)]
            for d in (data, permuted))
        np.testing.assert_allclose(point_permuted, point, rtol=self.PERMUTATION_RTOL, atol=0)


class TestDeterminism:
    def make_pipe(self):
        data = direct_set(pareto(4, 1200, 2.0), pareto(5, 1200, 2.0, scale=2.0))
        return fit_pipeline(data, EstimatorSettings(ymin_level=0.9))

    def test_same_streams_same_answer(self):
        pipe = self.make_pipe()
        cfg = SubsampleConfig(draws=120)
        r1 = estimate_qte_batch(pipe, [0.95], cfg, draw_stream(6))
        r2 = estimate_qte_batch(pipe, [0.95], cfg, draw_stream(6))
        assert r1[0].estimate == r2[0].estimate
        assert r1[0].ci.lo == r2[0].ci.lo
        assert r1[0].ci.hi == r2[0].ci.hi

    def test_different_streams_differ(self):
        pipe = self.make_pipe()
        cfg = SubsampleConfig(draws=120)
        r1 = estimate_qte_batch(pipe, [0.95], cfg, draw_stream(6))
        r2 = estimate_qte_batch(pipe, [0.95], cfg, draw_stream(7))
        assert r1[0].ci.lo != r2[0].ci.lo

    def test_point_only_when_config_omitted(self):
        pipe = self.make_pipe()
        res = estimate_qte_batch(pipe, [0.95, 0.96])
        assert all(r.ci is None for r in res)
        assert res[0].estimate != res[1].estimate


class TestSharedDrawsAcrossLevels:
    def test_batch_matches_manual_composition(self):
        data = direct_set(pareto(8, 900, 2.0), pareto(9, 900, 2.0, scale=1.5))
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9))
        cfg = SubsampleConfig(draws=110)
        res = estimate_qte_batch(pipe, [0.94, 0.96], cfg, draw_stream(10))
        tails = subsample_tail_pairs(pipe, cfg, draw_stream(10))
        for r in res:
            draws = qte_draws_from_tails(pipe.fit1, pipe.fit0, tails, r.q)
            ci = subsampling_ci(
                draws, r.estimate, cfg, pipe.data.design, data.n, tails.failed
            )
            assert r.ci == ci

    def test_single_level_helper_agrees(self):
        # one level through the batch entry point uses the same draws
        data = direct_set(pareto(11, 700, 2.0), pareto(12, 700, 2.0))
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9))
        cfg = SubsampleConfig(draws=100)
        (res,) = estimate_qte_batch(pipe, [0.95], cfg, draw_stream(13))
        tails = subsample_tail_pairs(pipe, cfg, draw_stream(13))
        draws = qte_draws_from_tails(pipe.fit1, pipe.fit0, tails, 0.95)
        assert res.ci.n_failed == tails.failed
        assert res.ci.n_draws == draws.size == 100 - tails.failed
        assert res.ci == subsampling_ci(
            draws, res.estimate, cfg, pipe.data.design, data.n, tails.failed
        )


def heavy_lower_tail_arm(key, n):
    p = (1.0 - substream(47, key).random(n)) ** (-1.0 / 1.5)
    return 100.0 - np.ceil(10.0 * p)


class TestSingleFlipPoint:
    """A lower-tail pipeline is the upper-tail pipeline fitted on negated
    outcomes; only estimate_qte_batch maps its results back, by
    reflecting each level and negating the point and every draw."""

    @pytest.mark.parametrize("gen,n", [(gen_iv, 2000), (gen_rdd, 3000)], ids=["iv", "rdd"])
    def test_lower_tail_is_the_negated_upper_tail(self, gen, n):
        data = gen(substream(47, 40), n).data
        cfg = SubsampleConfig(draws=100)
        q_list = [0.02, 0.025]
        lower = fit_pipeline(data, tail_side="lower")
        upper = fit_pipeline(flip_outcomes(data), tail_side="upper")
        assert (lower.fit1, lower.fit0) == (upper.fit1, upper.fit0)
        results = estimate_qte_batch(lower, q_list, cfg, draw_stream(41))
        upper_results = estimate_qte_batch(upper, [1.0 - q for q in q_list], cfg, draw_stream(41))
        tails = subsample_tail_pairs(lower, cfg, draw_stream(41))
        upper_tails = subsample_tail_pairs(upper, cfg, draw_stream(41))
        for q, res, ref in zip(q_list, results, upper_results):
            level = 1.0 - q
            assert res.q == q
            assert res.estimate == -ref.estimate
            draws = qte_draws_from_tails(lower.fit1, lower.fit0, tails, level)
            upper_draws = qte_draws_from_tails(upper.fit1, upper.fit0, upper_tails, level)
            assert np.array_equal(draws, upper_draws)
            # on the original scale the effect is control minus treated
            # on the negated one, point and draws alike
            arm_quantiles = [
                extrapolated_quantiles(
                    fit, level, tails.alphas[:, col], tails.survivals[:, col],
                    tails.thresholds[:, col],
                )
                for col, fit in enumerate((lower.fit1, lower.fit0))
            ]
            lower_draws = arm_quantiles[1] - arm_quantiles[0]
            assert np.array_equal(lower_draws, -upper_draws)
            point = (
                extrapolated_quantiles(lower.fit0, level, [lower.fit0.alpha_hat])[0]
                - extrapolated_quantiles(lower.fit1, level, [lower.fit1.alpha_hat])[0]
            )
            assert res.estimate == point
            assert res.ci == subsampling_ci(
                lower_draws, point, cfg, data.design, data.n, tails.failed
            )


class TestShiftEquivariance:
    """Adding a constant to every outcome must leave the QTE and its
    interval unchanged, with per-arm quantiles moving by that constant.

    Integer-valued outcomes keep the shift-protocol arithmetic exact, so
    the only slack is the final subtraction in each quantile.
    """

    def build(self, offset):
        base = heavy_lower_tail_arm(20, 700)
        tilt = heavy_lower_tail_arm(21, 700) - 2.0
        data = direct_set(base + offset, tilt + offset)
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9), tail_side="lower")
        cfg = SubsampleConfig(draws=110)
        res = estimate_qte_batch(pipe, [0.05], cfg, draw_stream(22))
        return pipe, res[0]

    def test_shift_protocol_invariance(self):
        pipe_a, res_a = self.build(0.0)
        pipe_b, res_b = self.build(-7.0)
        # identical analysis-scale objects after shift normalization
        assert pipe_b.fit1.alpha_hat == pipe_a.fit1.alpha_hat
        assert pipe_b.fit0.alpha_hat == pipe_a.fit0.alpha_hat
        assert pipe_b.fit1.s_min == pipe_a.fit1.s_min
        # flipped outcomes move by +7, so the recorded shifts move by -7
        assert pipe_b.fit1.shift == pipe_a.fit1.shift - 7.0
        # per-arm original-scale quantiles move by the offset
        qa = -extrapolated_quantiles(pipe_a.fit1, 0.95, [pipe_a.fit1.alpha_hat])[0]
        qb = -extrapolated_quantiles(pipe_b.fit1, 0.95, [pipe_b.fit1.alpha_hat])[0]
        assert qb == pytest.approx(qa - 7.0, rel=1e-12)
        # the QTE and its interval do not move
        assert res_b.estimate == pytest.approx(res_a.estimate, rel=1e-12)
        assert res_b.ci.lo == pytest.approx(res_a.ci.lo, rel=1e-12)
        assert res_b.ci.hi == pytest.approx(res_a.ci.hi, rel=1e-12)
        assert res_b.ci.n_failed == res_a.ci.n_failed


class TestFlatTailDraws:
    """Subsets whose tail carries no information give an infinite index.

    A flat tail is the boundary of arbitrarily fast decay, so the draw
    extrapolates to the threshold itself instead of being discarded.
    """

    @staticmethod
    def frozen_tail(knots, values, y_min):
        """(index, survival) of one subset CDF on the draws' tail stage,
        with the survival it realizes."""
        view = tail_view(StepCdf(knots, values))
        (a,), (s,), _ = inference._fit_rows(
            view.knots[None], np.ones(view.knots.size, dtype=bool), view.values[None],
            np.array([y_min]), 1.0,
        )
        return a, s

    def test_no_knots_beyond_threshold(self):
        a, s = self.frozen_tail([1.0, 2.0, 3.0, 4.0], [0.5, 0.9, 1.0, 1.0], 3.0)
        assert (a, s) == (math.inf, 0.0)

    def test_dead_baseline(self):
        a, s = self.frozen_tail([1.0, 2.0, 3.0, 4.0], [0.5, 1.0, 1.0, 1.0], 3.0)
        assert (a, s) == (math.inf, 0.0)

    def test_constant_positive_survival(self):
        # survival sits at 0.4 on the whole tail, so the slope is zero
        # but the threshold survival itself is informative
        a, s = self.frozen_tail([1.0, 2.0, 3.0], [0.6, 0.6, 1.0], 2.0)
        assert a == math.inf
        assert s == pytest.approx(0.4, rel=1e-12)

    def test_informative_tail_stays_finite(self):
        a, s = self.frozen_tail([1.0, 2.0, 3.0, 4.0], [0.5, 0.8, 0.95, 1.0], 2.0)
        assert math.isfinite(a) and a > 0
        assert s == pytest.approx(0.5, rel=1e-12)

    def test_infinite_draws_land_on_threshold_gap(self):
        # one arm twice the other: with every draw flat, each QTE draw
        # is exactly the gap between the two thresholds
        data = direct_set(
            np.arange(1.0, 41.0), 2.0 * np.arange(1.0, 41.0)
        )
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9))
        tails = TailDraws(
            alphas=np.full((5, 2), np.inf),
            survivals=np.zeros((5, 2)),
            thresholds=np.tile([pipe.fit1.y_min, pipe.fit0.y_min], (5, 1)),
            failed=0,
        )
        draws = qte_draws_from_tails(pipe.fit1, pipe.fit0, tails, 0.95)
        gap = (pipe.fit1.y_min - pipe.fit1.shift) - (
            pipe.fit0.y_min - pipe.fit0.shift
        )
        np.testing.assert_allclose(draws, gap, rtol=1e-12)


class TestUnstableSubsampling:
    """Draws still fail hard when the subset estimator itself breaks."""

    def tiny_arm_set(self):
        # 4 treated rows among 400: at b = 67 roughly half the subsets
        # contain no treated observation at all and the refit raises
        return direct_set(
            pareto(30, 396, 2.0), np.array([1.0, 2.0, 4.0, 8.0])
        )

    def test_vanishing_arm_draws_raise(self):
        pipe = fit_pipeline(self.tiny_arm_set(), EstimatorSettings(ymin_level=0.5))
        cfg = SubsampleConfig(draws=150)
        with pytest.raises(UnstableSubsampling):
            subsample_tail_pairs(pipe, cfg, draw_stream(32))

    def test_failure_budget_can_be_raised(self):
        pipe = fit_pipeline(self.tiny_arm_set(), EstimatorSettings(ymin_level=0.5))
        cfg = SubsampleConfig(draws=150, max_failure_share=0.9)
        tails = subsample_tail_pairs(pipe, cfg, draw_stream(32))
        assert tails.failed > 15
        assert tails.alphas.shape[0] == 150 - tails.failed
        assert tails.survivals.shape == tails.alphas.shape


class TestCoverageSmoke:
    def test_interval_covers_truth_most_of_the_time(self):
        # exact Pareto arms, true upper QTE at q = 0.95 is 0.05^(-1/2)
        true = 0.05**-0.5
        settings = EstimatorSettings(ymin_level=0.9)
        cfg = SubsampleConfig(draws=120)
        covered = 0
        points = []
        reps = 40
        for rep in range(reps):
            y0 = (1.0 - substream(5, rep, 0).random(1500)) ** -0.5
            y1 = 2.0 * (1.0 - substream(5, rep, 1).random(1500)) ** -0.5
            pipe = fit_pipeline(direct_set(y0, y1), settings)
            res = estimate_qte_batch(pipe, [0.95], cfg, lambda t, rep=rep: substream(5, rep, 2, t))
            points.append(res[0].estimate)
            covered += res[0].ci.lo <= true <= res[0].ci.hi
        assert covered / reps >= 0.70
        assert abs(np.mean(points) - true) < 0.35
        assert np.mean(points) == pytest.approx(true, rel=0.10)


class TestOverflow:
    """Tail indices so small that an arm's extrapolated quantile
    overflows to inf leave an infinite estimate, or inf - inf = NaN when
    both arms overflow; either must raise instead of reaching an
    artifact."""

    def make_pipe(self):
        data = direct_set(pareto(60, 800, 2.0), pareto(61, 800, 2.0, scale=2.0))
        return fit_pipeline(data, EstimatorSettings(ymin_level=0.9))

    @staticmethod
    def tiny(fit):
        return replace(fit, alpha_hat=1e-4)

    @pytest.mark.parametrize("tail_side", ["upper", "lower"])
    def test_nan_point_raises(self, tail_side):
        pipe = self.make_pipe()
        pipe = replace(pipe, fit1=self.tiny(pipe.fit1), fit0=self.tiny(pipe.fit0),
                       tail_side=tail_side)
        assert math.isnan(qte_point(pipe.fit1, pipe.fit0, 0.95))
        with pytest.raises(UndefinedEstimate, match="point estimate at q = "):
            estimate_qte_batch(pipe, [0.05 if tail_side == "lower" else 0.95])

    def test_nan_draws_raise(self):
        pipe = self.make_pipe()
        cfg = SubsampleConfig(draws=100)
        tails = subsample_tail_pairs(pipe, cfg, draw_stream(62))
        assert tails.failed == 0
        # ten draws whose indices overflow both arms at the full-sample
        # survivals; the point stays finite
        alphas, survivals = tails.alphas.copy(), tails.survivals.copy()
        alphas[:10] = [self.tiny(pipe.fit1).alpha_hat, self.tiny(pipe.fit0).alpha_hat]
        survivals[:10] = [pipe.fit1.s_min, pipe.fit0.s_min]
        nan_tails = replace(tails, alphas=alphas, survivals=survivals)
        assert np.isnan(qte_draws_from_tails(pipe.fit1, pipe.fit0, nan_tails, 0.95)).sum() == 10
        with mock.patch.object(inference, "subsample_tail_pairs", return_value=nan_tails):
            with pytest.raises(UndefinedEstimate, match="10 of 100 draws are NaN"):
                estimate_qte_batch(pipe, [0.95], cfg, draw_stream(62))
        with mock.patch.object(inference, "subsample_tail_pairs", return_value=tails):
            (res,) = estimate_qte_batch(pipe, [0.95], cfg, draw_stream(62))
        assert math.isfinite(res.ci.lo) and math.isfinite(res.ci.hi)

    @pytest.mark.parametrize("tail_side", ["upper", "lower"])
    def test_infinite_point_raises(self, tail_side):
        pipe = self.make_pipe()
        pipe = replace(pipe, fit1=self.tiny(pipe.fit1), tail_side=tail_side)
        assert qte_point(pipe.fit1, pipe.fit0, 0.95) == math.inf
        with pytest.raises(UndefinedEstimate, match="point estimate at q = .* is -?inf"):
            estimate_qte_batch(pipe, [0.05 if tail_side == "lower" else 0.95])

    def test_infinite_endpoint_raises(self):
        pipe = self.make_pipe()
        cfg = SubsampleConfig(draws=110)
        tails = subsample_tail_pairs(pipe, cfg, draw_stream(63))
        assert tails.failed == 0
        # three draws whose arm-1 index overflows at the full-sample
        # survival: the upper end of the 95% interval interpolates
        # between the largest finite draw and the first infinite one
        alphas, survivals = tails.alphas.copy(), tails.survivals.copy()
        alphas[:3, 0] = self.tiny(pipe.fit1).alpha_hat
        survivals[:3, 0] = pipe.fit1.s_min
        inf_tails = replace(tails, alphas=alphas, survivals=survivals)
        assert np.isposinf(qte_draws_from_tails(pipe.fit1, pipe.fit0, inf_tails, 0.95)).sum() == 3
        with mock.patch.object(inference, "subsample_tail_pairs", return_value=inf_tails):
            with pytest.raises(UndefinedEstimate, match="0 of 110 draws are NaN and 3 infinite"):
                estimate_qte_batch(pipe, [0.95], cfg, draw_stream(63))
