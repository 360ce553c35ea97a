"""End-to-end checks of the headline numerical claims.

Each test prints a single PASS/FAIL line with the measured quantities,
so a full run doubles as a sign-off sheet. The two table reruns and the
coverage study take a minute or two each; everything else is fast.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

from xqte.cdf_iv import LogitModel, fit_logit, kappa_cdf
from xqte.cdf_rdd import rdd_cdf, rot_bandwidth
from xqte.cli import main as cli_main
from xqte.core import ObservationSet, substream
from xqte.inference import SubsampleConfig, estimate_qte_batch
from xqte.pipeline import fit_pipeline
from xqte.simulate import McConfig, run_mc

from oracles import SecondOrderSpec, pareto_index_analytic


def report(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_exact_pareto_index_recovery(capsys):
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0, 5.0):
        for omega in (0.5, 1.0, 2.0):
            fit = pareto_index_analytic(
                lambda y, a=alpha: 2.0 * y**-a, y_min=1.3, omega=omega
            )
            worst = max(worst, abs(fit.alpha_hat - alpha))
    ok = worst < 1e-10
    report(capsys, "exact Pareto index recovery", ok, f"max |error| {worst:.2e}")
    assert ok


def test_weight_integral_identity(capsys):
    # in threshold units the weighted log integrates to 1/omega^2
    worst = 0.0
    for omega in (0.5, 1.0, 2.0, 4.0):
        val = quad(
            lambda u: np.log(u) * u ** (-omega - 1.0),
            1.0,
            np.inf,
            epsabs=1e-13,
            epsrel=1e-13,
        )[0]
        worst = max(worst, abs(val - 1.0 / omega**2))
    ok = worst < 1e-10
    report(capsys, "weight integral identity", ok, f"max |error| {worst:.2e}")
    assert ok


def test_second_order_index_bias_oracle(capsys):
    # at thresholds deep enough that the second tail term is 1% of the
    # first, the population index error matches the predicted bias
    worst_ratio = 0.0
    for alpha in (0.5, 2.0):
        for d in (0.3, -0.3):
            for rho in (0.5, 1.5):
                for omega in (0.5, 1.0, 2.0):
                    spec = SecondOrderSpec(alpha=alpha, c=1.0, d=d, rho=rho)
                    y_min = (abs(d) / 0.01) ** (1.0 / rho)
                    fit = pareto_index_analytic(spec.survival, y_min, omega)
                    predicted = -spec.index_bias(y_min, omega)
                    err = abs((fit.alpha_hat - alpha) - predicted)
                    allowed = 0.2 * abs(predicted) + 1e-6
                    worst_ratio = max(worst_ratio, err / allowed)
    ok = worst_ratio <= 1.0
    report(capsys, "second-order index bias oracle", ok,
           f"worst error at {worst_ratio:.2f} of allowance")
    assert ok


@pytest.mark.slow
def test_iv_simulation_summary(capsys):
    cfg = McConfig(
        design="iv",
        n_list=(10000,),
        q_list=(0.020, 0.025),
        reps=500,
        seed=20260815,
        subsample=SubsampleConfig(draws=300),
    )
    rep = run_mc(cfg)
    # reference values for the scaled rerun: bias, rmse, coverage per q
    reference = {0.020: (0.008, 0.183, 0.932), 0.025: (-0.001, 0.180, 0.938)}
    ok = True
    parts = []
    for cell in rep.cells:
        ref_bias, ref_rmse, ref_cov = reference[cell.q]
        bias = -(float(np.mean(cell.estimates)) + 1.0)  # original outcome scale
        ok &= abs(bias - ref_bias) <= 0.03
        ok &= 0.7 * ref_rmse <= cell.rmse <= 1.3 * ref_rmse
        ok &= abs(cell.coverage - ref_cov) <= 0.04
        ok &= cell.n_failed == 0
        parts.append(
            f"q={cell.q:g}: bias {bias:+.4f} rmse {cell.rmse:.3f} cov {cell.coverage:.3f}"
        )
    report(capsys, "instrumented-design table rerun", ok, "; ".join(parts))
    assert ok


@pytest.mark.slow
def test_rdd_simulation_summary(capsys):
    cfg = McConfig(
        design="rdd", n_list=(10000,), q_list=(0.025,), reps=300, seed=20260815
    )
    cell = run_mc(cfg).cells[0]
    mean = float(np.mean(cell.estimates))
    # the design pays treated units a bonus of 0.1, so results are read
    # against both the bonus-inclusive effect (1.1) and the bare one (1.0)
    bias_bare = -(mean + 1.0)
    rmse_bare = float(np.sqrt(np.mean((cell.estimates + 1.0) ** 2)))
    cov_full, cov_bare = cell.coverage, cell.coverage_alt
    ok = (
        0.0 <= bias_bare <= 0.2
        and 0.15 <= rmse_bare <= 0.40
        and (0.88 <= cov_full <= 0.98 or 0.88 <= cov_bare <= 0.98)
        and cell.n_failed == 0
    )
    report(
        capsys, "discontinuity-design table rerun", ok,
        f"vs bare 1.0: bias {bias_bare:+.4f} rmse {rmse_bare:.3f} cov {cov_bare:.3f}; "
        f"vs bonus 1.1: bias {-(mean + 1.1):+.4f} cov {cov_full:.3f}",
    )
    assert ok


@pytest.mark.slow
def test_direct_design_interval_coverage(capsys):
    # two exact Pareto arms with a known quantile gap: intervals built
    # from subsample draws should cover at close to the nominal rate
    alpha, s1, s0, level = 2.0, 2.0, 1.0, 0.99
    n_arm, reps, seed = 2500, 300, 20260815
    truth = (s1 - s0) * (1.0 - level) ** (-1.0 / alpha)
    cfg = SubsampleConfig(draws=300)
    hits = 0
    for rep in range(reps):
        rng = substream(seed, rep, 0)
        y1 = s1 * rng.random(n_arm) ** (-1.0 / alpha)
        y0 = s0 * rng.random(n_arm) ** (-1.0 / alpha)
        data = ObservationSet(
            design="direct",
            y=np.concatenate([y1, y0]),
            d=np.concatenate([np.ones(n_arm), np.zeros(n_arm)]),
        )
        pipe = fit_pipeline(data, tail_side="upper")
        res = estimate_qte_batch(
            pipe, [level], cfg, lambda t, rep=rep: substream(seed, rep, 1, t)
        )[0]
        hits += res.ci.lo <= truth <= res.ci.hi
    cov = hits / reps
    ok = 0.88 <= cov <= 0.99
    report(capsys, "direct-design interval coverage", ok,
           f"coverage {cov:.3f} over {reps} replications, truth {truth:g}")
    assert ok


def test_reference_implementations_agree(capsys):
    # randomized fair-coin instrument with perfect compliance: the
    # weighted counterfactual CDF tracks the treated-arm ECDF
    rng = substream(811, 0)
    n = 100_000
    z = (rng.random(n) < 0.5).astype(int)
    y = rng.standard_normal(n)
    data = ObservationSet(design="iv", y=y, d=z, z=z, x=np.ones((n, 1)))
    known_p = LogitModel(gamma=np.zeros(1), converged=True, iterations=0)
    pair = kappa_cdf(data, known_p, p_trim=0.0)
    treated = np.sort(y[z == 1])
    ecdf_vals = np.searchsorted(treated, pair.beta1.knots, side="right") / treated.size
    sup = float(np.max(np.abs(pair.beta1.values - ecdf_vals)))
    ok_kappa = sup <= 3.0 / math.sqrt(n)

    # sharp discontinuity: arm CDFs reduce to plain one-sided kernel means
    rng = substream(811, 1)
    m = 4000
    r = rng.standard_normal(m)
    d = (r > 0).astype(int)
    yr = rng.standard_normal(m) + d
    sharp = ObservationSet(design="rdd", y=yr, d=d, r=r)
    h = rot_bandwidth(r)
    cdfs = rdd_cdf(sharp, h=h)

    def one_sided(t, side):
        num = den = 0.0
        for ri, yi in zip(r, yr):
            if (ri > 0) != side or ri == 0 or abs(ri) > h:
                continue
            w = 0.75 * (1.0 - (ri / h) ** 2)
            num += w * (yi <= t)
            den += w
        return num / den

    worst_sharp = 0.0
    for idx in np.linspace(0, cdfs.beta1.knots.size - 1, 7).astype(int):
        t = cdfs.beta1.knots[idx]
        worst_sharp = max(
            worst_sharp,
            abs(cdfs.beta1.values[idx] - one_sided(t, True)),
            abs(cdfs.beta0.values[idx] - one_sided(t, False)),
        )
    ok_sharp = worst_sharp <= 1e-12

    # logistic fit against slow fixed-step gradient ascent
    rng = substream(811, 2)
    x = rng.normal(size=(200, 3))
    zz = (rng.random(200) < expit(x @ np.array([0.8, -0.5, 0.2]))).astype(int)
    lr = 1.0 / np.linalg.eigvalsh(x.T @ x / 200).max()
    gamma = np.zeros(3)
    for _ in range(500_000):
        grad = x.T @ (zz - expit(x @ gamma)) / 200
        if np.max(np.abs(grad)) < 1e-11:
            break
        gamma = gamma + lr * grad
    model = fit_logit(x, zz)
    logit_gap = float(np.max(np.abs(model.gamma - gamma)))
    ok_logit = logit_gap < 1e-6

    ok = ok_kappa and ok_sharp and ok_logit
    report(
        capsys, "reference implementations agree", ok,
        f"kappa sup {sup:.4f} <= {3.0 / math.sqrt(n):.4f}; "
        f"sharp max {worst_sharp:.1e}; logit max {logit_gap:.1e}",
    )
    assert ok


def test_rerun_reproduces_outputs_byte_identically(tmp_path, capsys):
    rows = ["y,d,r"]
    for i in range(10):
        rows.append(f"{1.0 + 0.5 * i},0,{-(i + 1) / 10.0}")
    for i in range(10):
        rows.append(f"{3.0 + 0.5 * i},1,{(i + 1) / 10.0}")
    src = tmp_path / "toy.csv"
    src.write_text("\n".join(rows) + "\n")

    est_out = tmp_path / "est"
    est_argv = [
        "estimate-rdd", "--input", str(src), "--q", "0.1", "0.05",
        "--ymin-level", "0.8", "--b", "16", "--B", "120",
        "--seed", "7", "--out", str(est_out),
    ]
    assert cli_main(est_argv) == 0
    first = {p.name: p.read_bytes() for p in est_out.iterdir()}
    assert cli_main(est_argv) == 0
    second = {p.name: p.read_bytes() for p in est_out.iterdir()}
    ok_est = first == second and set(first) == {
        "cdf.csv", "paretofit.csv", "qte.csv", "run.json"
    }

    sim_out = tmp_path / "sim"
    sim_argv = [
        "simulate", "--design", "iv", "--n", "300", "--reps", "2",
        "--q", "0.025", "--B", "100", "--seed", "4", "--out", str(sim_out),
    ]
    assert cli_main(sim_argv) == 0
    first_sim = {p.name: p.read_bytes() for p in sim_out.iterdir()}
    assert cli_main(sim_argv) == 0
    second_sim = {p.name: p.read_bytes() for p in sim_out.iterdir()}
    ok_sim = first_sim == second_sim

    ok = ok_est and ok_sim
    report(capsys, "byte-identical reruns", ok,
           f"{len(first)} estimation files, {len(first_sim)} simulation files")
    assert ok
