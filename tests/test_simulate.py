import functools
import multiprocessing
import os
import threading
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from scipy import special, stats

from xqte import simulate
from xqte.core import substream
from xqte.inference import SubsampleConfig
from xqte.pipeline import fit_pipeline
from xqte.simulate import (
    FORK_MIN_ROWS,
    TRUE_QTE_IV,
    TRUE_QTE_RDD,
    TRUE_QTE_RDD_ALT,
    McCell,
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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_draws_match_the_scipy_link(self, seed, n):
        # numpy's exp may differ from libm's in the last bit; no
        # instrument draw may flip, so saved inputs stay the same
        draw = gen_iv(np.random.default_rng(seed), n).data
        with mock.patch("xqte.simulate.logistic", special.expit):
            ref = gen_iv(np.random.default_rng(seed), n).data
        for name in ("y", "d", "z", "x"):
            np.testing.assert_array_equal(getattr(draw, name), getattr(ref, name))


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
            # a repeated size or level would count its replications twice
            dict(good, n_list=(300, 300)),
            dict(good, q_list=(0.02, 0.02)),
            dict(good, reps=0),
            dict(good, subsample=SubsampleConfig(draws=99)),
            # b must be below every sample size, not just the first
            dict(good, n_list=(1000, 200), subsample=SubsampleConfig(b=200)),
        ):
            with pytest.raises(ValueError):
                McConfig(**bad)
        McConfig(**dict(good, n_list=(1000, 200), subsample=SubsampleConfig(b=199)))


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

    def test_nan_estimate_fails_the_replication(self):
        # both arms' tail index at 1e-4: the point estimate is inf - inf
        def tiny_index_fit(*args, **kwargs):
            pipe = fit_pipeline(*args, **kwargs)
            fit1, fit0 = (replace(f, alpha_hat=1e-4) for f in (pipe.fit1, pipe.fit0))
            return replace(pipe, fit1=fit1, fit0=fit0)

        # at q = 0.01 the target lies beyond the threshold (ymin_level 0.975)
        cfg = McConfig(design="rdd", n_list=(1000,), q_list=(0.01,),
                       reps=2, seed=6, subsample=None)
        with mock.patch("xqte.simulate.fit_pipeline", tiny_index_fit):
            cell = run_mc(cfg).cells[0]
        assert (cell.n_used, cell.n_failed) == (0, 2)

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


def cell_fields(report):
    # repr is exact for floats and tells NaN, -0.0 and None apart
    return [
        [repr(getattr(c, f.name)) for f in fields(McCell) if f.name != "estimates"]
        for c in report.cells
    ]


def run_on(cfg, cpus, min_rows=0):
    """run_mc on cpus usable CPUs with the rows from which it forks
    (FORK_MIN_ROWS) set to min_rows, 0 unless given, so that these
    small runs fork."""
    with mock.patch("xqte.simulate._usable_cpus", return_value=cpus), \
            mock.patch("xqte.simulate.FORK_MIN_ROWS", min_rows):
        return run_mc(cfg)


class TestWorkers:
    @pytest.mark.parametrize("cfg", [
        McConfig(design="iv", n_list=(600, 1000), q_list=(0.02, 0.025), reps=3, seed=4,
                 subsample=SubsampleConfig(draws=100)),
        McConfig(design="rdd", n_list=(600, 1000), q_list=(0.02, 0.025), reps=3, seed=4,
                 subsample=SubsampleConfig(draws=100)),
        # every replication fails: n_failed is counted from the workers
        McConfig(design="iv", n_list=(300,), q_list=(0.2,), reps=2, seed=7, subsample=None),
    ], ids=["iv", "rdd", "iv-failing"])
    def test_worker_count_leaves_the_report_unchanged(self, cfg):
        one = run_on(cfg, 1)
        two = run_on(cfg, 2)
        assert not multiprocessing.active_children()
        for a, b in zip(one.cells, two.cells, strict=True):
            assert a.estimates.tobytes() == b.estimates.tobytes()
        assert cell_fields(one) == cell_fields(two)
        assert format_report(one) == format_report(two)
        assert (one.truth, one.truth_alt) == (two.truth, two.truth_alt)
        if cfg.q_list == (0.2,):
            assert [(c.n_used, c.n_failed) for c in two.cells] == [(0, 2)]
        else:
            assert sum(c.n_used for c in two.cells) > 0

    def test_small_runs_stay_in_process(self):
        # 3 x (600 + 89 x 100) + 3 x (1000 + 126 x 100) = 69,300 rows
        # touched: below the gate the replications run here; a pool made
        # this run about 1.7 times as slow
        cfg = McConfig(design="rdd", n_list=(600, 1000), q_list=(0.02, 0.025), reps=3, seed=4,
                       subsample=SubsampleConfig(draws=100))
        pids = []

        def spied(*args, **kwargs):
            pids.append(os.getpid())
            return gen_rdd(*args, **kwargs)

        reports = []
        for min_rows, here in ((FORK_MIN_ROWS, True), (69_301, True), (69_300, False)):
            with mock.patch("xqte.simulate.gen_rdd", spied):
                reports.append(format_report(run_on(cfg, 2, min_rows)))
            # a forked worker's calls are lost with its memory
            assert pids == ([os.getpid()] * 6 if here else [])
            assert not multiprocessing.active_children()
            pids.clear()
        assert len(set(reports)) == 1

    def test_other_errors_reach_the_caller_from_a_worker(self):
        cfg = McConfig(design="iv", n_list=(600,), q_list=(0.025,), reps=2, seed=8,
                       subsample=None)
        # the flipped outcomes replication 1 fits
        target = -gen_iv(substream(8, 0, 1, 0), 600).data.y

        def failing_fit(data, *args, **kwargs):
            if np.array_equal(data.y, target):
                raise ValueError(os.getpid())
            return fit_pipeline(data, *args, **kwargs)

        with mock.patch("xqte.simulate.fit_pipeline", failing_fit):
            with pytest.raises(ValueError) as raised:
                run_on(cfg, 2)
        assert raised.value.args[0] != os.getpid()  # raised in a worker
        assert not multiprocessing.active_children()

    def test_wrapped_function_sees_every_replication(self):
        # a tracer's wrapper records in the process that calls it, so the
        # replications stay in this one
        cfg = McConfig(design="rdd", n_list=(600,), q_list=(0.025,), reps=3, seed=9,
                       subsample=None)
        pids = []

        @functools.wraps(gen_rdd)
        def traced(*args, **kwargs):
            pids.append(os.getpid())
            return gen_rdd(*args, **kwargs)

        with mock.patch("xqte.simulate.gen_rdd", traced):
            report = run_on(cfg, 2)
        assert pids == [os.getpid()] * 3
        assert format_report(report) == format_report(run_on(cfg, 1))

    def test_package_wrapper_leaves_the_fork_on(self):
        # a functools.wraps decorator whose code lies in the package
        # directory is the package's own, not a tracer's
        source = ("import functools\n"
                  "@functools.wraps(gen_rdd)\n"
                  "def wrapped(*args, **kwargs):\n"
                  "    return gen_rdd(*args, **kwargs)\n")
        path = os.path.join(os.path.dirname(simulate.__file__), "decorated.py")
        namespace = {"gen_rdd": gen_rdd}
        exec(compile(source, path, "exec"), namespace)
        with mock.patch.object(simulate, "gen_rdd", namespace["wrapped"]), \
                mock.patch.object(simulate, "_usable_cpus", return_value=2):
            assert simulate.gen_rdd.__wrapped__ is gen_rdd
            assert simulate.fork_workers(2, FORK_MIN_ROWS) == 2

    def test_live_thread_keeps_the_replications_here(self):
        # forking while another thread holds a lock can deadlock the child
        cfg = McConfig(design="rdd", n_list=(600,), q_list=(0.025,), reps=3, seed=9,
                       subsample=None)
        pids = []

        def spied(*args, **kwargs):
            pids.append(os.getpid())
            return gen_rdd(*args, **kwargs)

        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            with mock.patch("xqte.simulate.gen_rdd", spied):
                report = run_on(cfg, 2)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert pids == [os.getpid()] * 3
        assert format_report(report) == format_report(run_on(cfg, 1))


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
