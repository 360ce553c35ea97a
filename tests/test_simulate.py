import numpy as np
import pytest
from scipy import stats

from xqte.core import substream
from xqte.simulate import (
    TRUE_QTE_IV,
    TRUE_QTE_RDD,
    TRUE_QTE_RDD_ALT,
    McConfig,
    _censor,
    format_report,
    gen_iv,
    gen_rdd,
    run_mc,
    student_t,
    summarize_cell,
    true_qte,
)


class TestStudentT:
    def test_moments_and_tail_quantile(self):
        x = student_t(substream(11, 0), 400_000)
        assert abs(x.var() - 10.0 / 8.0) < 0.02
        # excess kurtosis of t(10) is 6/(df-4) = 1
        assert abs(stats.kurtosis(x) - 1.0) < 0.25
        assert abs(np.quantile(x, 0.025) - stats.t.ppf(0.025, 10)) < 0.02

    def test_df_passthrough(self):
        x = student_t(substream(11, 1), 400_000, df=4.0)
        assert abs(x.var() - 2.0) < 0.05


class TestGenIv:
    def test_observed_margins(self):
        draw = gen_iv(substream(12, 0), 400_000)
        data = draw.data
        assert abs(data.z.mean() - 0.5) < 0.01
        assert abs(data.d[data.z == 1].mean() - 2.0 / 3.0) < 0.01
        assert abs(data.d[data.z == 0].mean() - 1.0 / 3.0) < 0.01
        assert abs((draw.types == 1).mean() - 1.0 / 3.0) < 0.01

    def test_observed_outcome_consistency(self):
        draw = gen_iv(substream(12, 1), 5_000)
        expected = np.where(draw.data.d == 1, draw.y1, draw.y0)
        np.testing.assert_array_equal(draw.data.y, expected)

    def test_complier_tail_qte_is_one(self):
        # the complier effect shifts every quantile by exactly 1, so the
        # latent potential outcomes reveal the estimand directly
        draw = gen_iv(substream(12, 2), 400_000)
        comp = draw.types == 1
        gap = np.quantile(draw.y1[comp], 0.025) - np.quantile(draw.y0[comp], 0.025)
        assert abs(gap - 1.0) < 0.08


class TestGenRdd:
    def test_first_stage_jump(self):
        # complier share 1/3 times a take-up jump of 1/3: the treatment
        # probability rises by 1/9 across the cutoff
        draw = gen_rdd(substream(13, 0), 400_000)
        data = draw.data
        left = data.d[data.r < 0].mean()
        right = data.d[data.r > 0].mean()
        assert abs(left - 4.0 / 9.0) < 0.01
        assert abs(right - 5.0 / 9.0) < 0.01
        assert abs((right - left) - 1.0 / 9.0) < 0.01

    def test_complier_tail_qte_includes_bonus(self):
        draw = gen_rdd(substream(13, 1), 400_000)
        comp = draw.types == 1
        gap = np.quantile(draw.y1[comp], 0.025) - np.quantile(draw.y0[comp], 0.025)
        assert abs(gap - 1.1) < 0.08

    def test_observed_outcome_consistency(self):
        draw = gen_rdd(substream(13, 2), 5_000)
        expected = np.where(draw.data.d == 1, draw.y1, draw.y0)
        np.testing.assert_array_equal(draw.data.y, expected)


class TestTruth:
    def test_constants(self):
        assert true_qte("iv") == TRUE_QTE_IV == -1.0
        assert true_qte("rdd") == TRUE_QTE_RDD == -1.1
        assert TRUE_QTE_RDD_ALT == -1.0

    def test_unknown_design(self):
        with pytest.raises(ValueError):
            true_qte("direct")


class TestSummarizeCell:
    def test_rmse_identity(self):
        est = np.array([0.2, -0.1, 0.4, 0.05])
        bias, sd, rmse = summarize_cell(est, truth=0.1)
        assert bias == pytest.approx(est.mean() - 0.1)
        assert sd == pytest.approx(est.std())
        assert rmse == pytest.approx(np.hypot(bias, sd))
        assert rmse == pytest.approx(np.sqrt(np.mean((est - 0.1) ** 2)))

    def test_single_rep_has_zero_sd(self):
        bias, sd, rmse = summarize_cell(np.array([0.7]), truth=0.2)
        assert sd == 0.0
        assert rmse == pytest.approx(abs(bias))

    def test_empty(self):
        bias, sd, rmse = summarize_cell(np.array([]), truth=0.0)
        assert np.isnan(bias) and np.isnan(sd) and np.isnan(rmse)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        good = dict(design="iv", n_list=(200,), q_list=(0.02,), reps=2, seed=0)
        McConfig(**good)
        for bad in (
            dict(good, design="nearest"),
            dict(good, n_list=()),
            dict(good, n_list=(50,)),
            dict(good, q_list=(0.6,)),
            dict(good, q_list=()),
            dict(good, reps=0),
        ):
            with pytest.raises(ValueError):
                McConfig(**bad)


class TestRunMc:
    def test_point_path_near_truth(self):
        cfg = McConfig(design="iv", n_list=(2000,), q_list=(0.025,),
                       reps=3, seed=5, subsample=None)
        rep = run_mc(cfg)
        cell = rep.cells[0]
        assert cell.n_used == 3
        assert cell.coverage is None
        assert np.all(np.isfinite(cell.estimates))
        assert -2.5 < cell.estimates.mean() < 0.0

    def test_rdd_scale_convention(self):
        # estimates come back on the negated scale: a left-tail complier
        # effect of +1.1 must appear near -1.1, not +1.1
        cfg = McConfig(design="rdd", n_list=(4000,), q_list=(0.025,),
                       reps=3, seed=6, subsample=None)
        cell = run_mc(cfg).cells[0]
        assert cell.n_used == 3
        assert -2.0 < cell.estimates.mean() < -0.5

    def test_interior_levels_are_refused(self):
        # the extrapolation gate only serves targets well beyond the
        # threshold, so a shallow q fails every replication
        cfg = McConfig(design="iv", n_list=(300,), q_list=(0.2,),
                       reps=2, seed=7, subsample=None)
        cell = run_mc(cfg).cells[0]
        assert cell.n_used == 0
        assert cell.n_failed == 2

    def test_failed_replication_leaves_every_cell(self):
        # the interior level fails each replication, so the deep level
        # must not keep that replication's estimate either
        cfg = McConfig(design="iv", n_list=(2000,), q_list=(0.025, 0.3),
                       reps=2, seed=7, subsample=None)
        cells = run_mc(cfg).cells
        assert [(c.n_used, c.n_failed) for c in cells] == [(0, 2), (0, 2)]

    def test_deterministic_and_isolated_substreams(self):
        cfg = McConfig(design="iv", n_list=(600,), q_list=(0.025,),
                       reps=2, seed=8, subsample=None)
        a = run_mc(cfg)
        b = run_mc(cfg)
        np.testing.assert_array_equal(a.cells[0].estimates, b.cells[0].estimates)
        # the first replication does not depend on how many follow
        one = run_mc(McConfig(design="iv", n_list=(600,), q_list=(0.025,),
                              reps=1, seed=8, subsample=None))
        assert one.cells[0].estimates[0] == a.cells[0].estimates[0]

    def test_truths_attached_per_design(self):
        cfg = McConfig(design="rdd", n_list=(600,), q_list=(0.025,),
                       reps=1, seed=9, subsample=None)
        rep = run_mc(cfg)
        assert rep.truth == TRUE_QTE_RDD
        assert rep.truth_alt == TRUE_QTE_RDD_ALT
        cfg = McConfig(design="iv", n_list=(600,), q_list=(0.025,),
                       reps=1, seed=9, subsample=None)
        rep = run_mc(cfg)
        assert rep.truth == TRUE_QTE_IV
        assert rep.truth_alt is None


class TestFormatting:
    def test_censor(self):
        assert _censor(12.0).strip() == ">10"
        assert _censor(-12.0).strip() == "<-10"
        assert _censor(None).strip() == "na"
        assert _censor(float("nan")).strip() == "na"
        assert _censor(0.2345).strip() == "0.234"
        assert len(_censor(0.2345)) == 8

    def test_report_layout(self):
        cfg = McConfig(design="rdd", n_list=(600,), q_list=(0.025,),
                       reps=1, seed=10, subsample=None)
        text = format_report(run_mc(cfg))
        lines = text.splitlines()
        assert "design=rdd" in lines[0] and "alt=" in lines[0]
        assert "cov95a" in lines[1]
        assert len(lines) == 3

    def test_report_hides_alt_for_iv(self):
        cfg = McConfig(design="iv", n_list=(600,), q_list=(0.025,),
                       reps=1, seed=10, subsample=None)
        text = format_report(run_mc(cfg))
        assert "cov95a" not in text
