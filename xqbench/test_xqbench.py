"""Tests of the benchmark's own code: the reference agrees with xqte on
small seeded IV, RDD and direct inputs, its workload checks pass on
real program output and catch a tampered one, and the span arithmetic
is right.

    PYTHONPATH=src python -m pytest -q xqbench
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import run
import tracer
from run import sim_inputs, write_iv_csv
from xqte import ObservationSet, SubsampleConfig, estimate_qte_batch, fit_pipeline, substream
from xqte.cdf_rdd import arm_threshold, rdd_cdf, rot_bandwidth
from xqte.cli import main as xqte_main
from xqte.core import flip_outcomes
from xqte.simulate import gen_iv, gen_rdd

Q = [0.02, 0.025]
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def agree(a, b):
    assert ref.close(a, b), (a, b)


def agree_fit(mine: ref.Fit, theirs) -> None:
    agree([mine.alpha, mine.y_min, mine.s_min, mine.shift],
          [theirs.alpha_hat, theirs.y_min, theirs.s_min, theirs.shift])


def agree_results(est: ref.Estimate, results) -> None:
    agree(est.points, [r.estimate for r in results])
    if est.intervals is not None:
        agree(est.intervals, [(r.ci.lo, r.ci.hi) for r in results])
        assert est.failed_draws == results[0].ci.n_failed


def test_iv_estimate_and_interval_match_program():
    data = gen_iv(substream(11, 0), 4000).data
    pipe = fit_pipeline(data, tail_side="lower")
    results = estimate_qte_batch(pipe, Q, SubsampleConfig(draws=150), lambda t: substream(5, t))
    est = ref.estimate("iv", data.y, data.d, z=data.z, x=data.x, q_list=Q, seed=5, draws=150)
    np.testing.assert_allclose(ref.logit(data.x, data.z.astype(float)), pipe.meta["gamma"],
                               rtol=1e-12, atol=1e-14)
    assert np.array_equal(est.knots[0], pipe.cdf1.knots)
    agree(est.values[0], pipe.cdf1.values)
    agree(est.values[1], pipe.cdf0.values)
    agree_fit(est.fits[0], pipe.fit1)
    agree_fit(est.fits[1], pipe.fit0)
    agree_results(est, results)


def test_direct_estimate_and_interval_match_program_upper_tail():
    rng = np.random.default_rng(4)
    n = 3000
    d = rng.integers(2, size=n)
    y = np.where(d == 1, 2.0, 1.0) * (rng.pareto(3.0, n) + 1.0) - 1.5  # some shifted fits
    data = ObservationSet(design="direct", y=y, d=d)
    pipe = fit_pipeline(data, tail_side="upper")
    levels = [1.0 - q for q in Q]
    results = estimate_qte_batch(pipe, levels, SubsampleConfig(draws=120),
                                 lambda t: substream(9, t))
    est = ref.estimate("direct", y, d, q_list=Q, lower=False, seed=9, draws=120)
    for mine, cdf in zip(est.knots, (pipe.cdf1, pipe.cdf0)):
        assert np.array_equal(mine, cdf.knots)
    agree(est.values[0], pipe.cdf1.values)
    agree_fit(est.fits[0], pipe.fit1)
    agree_fit(est.fits[1], pipe.fit0)
    agree_results(est, results)


@pytest.mark.parametrize("seed", [3, 8])
def test_rdd_jump_ratio_thresholds_and_estimates_match_program(seed):
    data = flip_outcomes(gen_rdd(substream(seed, 0), 5000).data)
    pipe = fit_pipeline(data, tail_side="upper")
    h = rot_bandwidth(data.r)
    assert ref.rot_bandwidth(data.r) == pytest.approx(h, rel=1e-14)
    knots, values, jump = ref.rdd_cdfs(data.y, data.d.astype(float), data.r, h)
    pair = rdd_cdf(data, h)
    assert np.array_equal(knots[0], pair.beta1.knots)
    agree(jump, pair.denom1)
    agree(values[0], pair.beta1.values)
    agree(values[1], pair.beta0.values)
    for arm in (1, 0):
        agree(ref.arm_threshold(data.y, data.d, data.r, arm, h), arm_threshold(data, arm, h))
    est = ref.estimate("rdd", data.y, data.d, r=data.r, q_list=Q, lower=False)
    agree_fit(est.fits[0], pipe.fit1)
    agree_fit(est.fits[1], pipe.fit0)
    agree_results(est, estimate_qte_batch(pipe, [1.0 - q for q in Q]))


def test_estimate_check_passes_on_program_output_and_catches_tampering(tmp_path):
    csv_path = tmp_path / "in.csv"
    write_iv_csv(csv_path, 2, 3000)
    out = tmp_path / "out"
    argv = ["estimate-iv", "--input", str(csv_path), "--q", "0.02", "0.025",
            "--B", "100", "--seed", "4", "--out", str(out)]
    assert xqte_main(argv) == 0
    assert ref.check_estimate_iv(csv_path, out, Q, 4, 100) == []
    rows = (out / "qte.csv").read_text().splitlines()
    q, est, lo, hi = rows[1].split(",")
    rows[1] = ",".join([q, est, lo, repr(float(hi) + 1e-6)])
    (out / "qte.csv").write_text("\n".join(rows) + "\n")
    assert any("qte.csv" in p for p in ref.check_estimate_iv(csv_path, out, Q, 4, 100))


def test_simulate_check_passes_on_program_output_and_catches_tampering(tmp_path):
    argv = ["simulate", "--design", "rdd", "--n", "2000", "--q", "0.025", "--B", "100",
            "--reps", "3", "--seed", "6", "--out", str(tmp_path)]
    assert xqte_main(argv) == 0
    gen = sim_inputs("rdd")
    failed, problems, est = ref.check_simulate(tmp_path, "rdd", gen, 2000, [0.025], 3, 6)
    assert (failed, problems, est.shape) == (0, [], (3, 1))
    table = tmp_path / "table.csv"
    text = table.read_text()
    bias_row = next(line for line in text.splitlines() if ",bias," in line)
    n, stat, bias = bias_row.split(",")
    table.write_text(text.replace(bias_row, f"{n},{stat},{float(bias) + 1e-6!r}"))
    _, problems, _ = ref.check_simulate(tmp_path, "rdd", gen, 2000, [0.025], 3, 6)
    assert any("bias/sd/rmse" in p for p in problems)


def test_a_failed_check_fails_every_replication_of_its_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "N_SIM", 2000)
    monkeypatch.setattr(run, "DRAWS", 100)
    monkeypatch.setattr(run, "SIM_REPS", 3)
    wl = run.Workload("simulate-iv", 1, tmp_path)
    assert xqte_main(wl.args(5)) == 0
    assert (wl.check_output(5), wl.problems) == (0, [])
    table = wl.out_dir / "table.csv"
    text = table.read_text()
    bias_row = next(line for line in text.splitlines() if ",bias," in line)
    n, stat, *biases = bias_row.split(",")
    table.write_text(text.replace(bias_row, ",".join([n, stat, "0.5", *biases[1:]])))
    fresh = run.Workload("simulate-iv", 1, tmp_path)
    assert fresh.check_output(5) == 3 and fresh.problems


def test_only_the_reproduced_rdd_crash_is_a_known_fault(tmp_path):
    log = "Traceback (most recent call last):\n  ...\n" + run.RDD_FAULT + "\n"
    assert run.Workload("simulate-rdd", 1, tmp_path).known_fault(log)
    assert not run.Workload("simulate-rdd", 1, tmp_path).known_fault("ValueError: x\n")
    assert not run.Workload("simulate-iv", 1, tmp_path).known_fault(log)


def test_truth_check_flags_a_biased_sample_only():
    rng = np.random.default_rng(0)
    est = ref.TRUTH["iv"] + 0.2 * rng.standard_normal((40, 2))
    assert ref.check_truth("iv", est, Q) == []
    assert len(ref.check_truth("iv", est + 0.5, Q)) == 2


def test_self_times_subtract_the_union_of_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: covered time counts once
        ["c", 2.0, 3.5, 1],  # grandchild: only a loses it
        ["d", 8.0, 12.0, 0],  # clipped to the parent's end
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 1.5, 3.0, 1.5, 4.0])


def test_layer_metrics_sum_spans_and_draw_self_time():
    spans = [
        ["pipeline.fit_pipeline", 0.0, 1.0, -1],
        ["inference.subsample_tail_pairs", 1.0, 5.0, -1],
        ["core.subset", 1.5, 2.0, 1],
        ["cdf_iv.kappa_cdf", 2.0, 3.0, 1],
        ["core.subset", 3.0, 3.25, 1],
        ["cli.write_qte_csv", 5.0, 5.5, -1],
        ["cli.write_run_json", 5.5, 5.75, -1],
    ]
    trace = {"spans": spans, "tallies": {"inference.draws_attempted": 2}, "values": {}}
    m = tracer.layer_metrics(trace)
    assert m["core.subset_s"] == (0.75, "s")
    assert m["core.subset_calls"] == (2, "count")
    assert m["cli.write_s"] == (0.75, "s")
    assert m["inference.draw_self_s"] == (4.0 - 1.75, "s")
    assert m["inference.draws_attempted"] == (2, "count")
    assert m["cdf_rdd.rdd_cdf_calls"] == (0, "count")


def test_traced_command_counts_calls_and_leaves_outputs_unchanged(tmp_path):
    csv_path = tmp_path / "in.csv"
    write_iv_csv(csv_path, 2, 2000)
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    outputs = []
    for mode in ("plain", "traced"):
        out = tmp_path / mode
        args = ["estimate-iv", "--input", str(csv_path), "--q", "0.025", "--B", "100",
                "--seed", "1", "--out", str(out)]
        spans = str(tmp_path / "spans.json")
        prefix = ([sys.executable, "-m", "xqte"] if mode == "plain"
                  else [sys.executable, str(HERE / "tracer.py"), spans, "--"])
        subprocess.run(prefix + args, env=env, check=True, timeout=120)
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "run.json"})
    assert outputs[0] == outputs[1]
    m = tracer.layer_metrics(json.loads((tmp_path / "spans.json").read_text()))
    assert m["cli.rows_parsed"] == (2000, "count")
    assert m["pipeline.fits"] == (1, "count")
    assert m["inference.draws_attempted"] == (100, "count")
    assert m["core.subset_calls"] == (100, "count")
    assert m["core.substream_calls"] == (100, "count")
    assert m["cdf_iv.kappa_cdf_calls"] == (101, "count")
    assert m["cdf_iv.logit_iterations"][0] > 0
    assert m["inference.draw_self_s"][0] < m["inference.subsample_tail_pairs_s"][0]


def test_measure_reports_the_commands_own_peak_rss(tmp_path):
    ballast = np.ones(100_000_000 // 8)  # 100 MB resident in this process
    result = tmp_path / "m.json"
    argv = [sys.executable, str(HERE / "measure.py"), str(result), "60", "--",
            sys.executable, "-c", "raise SystemExit(3)"]
    assert subprocess.run(argv, timeout=120).returncode == 3
    measured = json.loads(result.read_text())
    assert measured["exit_code"] == 3
    assert 0.0 < measured["peak_rss_mb"] < 50.0 < ballast.nbytes / 2**20
    assert measured["wall_s"] > 0.0

