"""Independent reference for the estimates the benchmark workloads produce.

Written from the estimator definitions in the paper and the README, not
from src/xqte, and it imports nothing from the program: it reads only
the workload inputs and the files the program writes. Weighted step
CDFs are built from per-knot group sums (np.unique + np.bincount) where
the program takes a cumulative sum over sorted units, so the two agree
up to reordered floating-point sums; REL_TOL is the allowance for that.

Every function works on the analysis scale, where the target tail is
the upper one: lower-tail runs negate outcomes first and negate the
effect back at the end.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import expit

REL_TOL = 1e-9  # allowance for reordered floating-point sums
SCORE_TOL = 1e-7  # the logit stops once its mean score is within 1e-8
BIAS_SIGMAS = 5.0  # simulated bias must lie within this many sd/sqrt(reps)

LEVEL = 0.975  # threshold level of the CDF (default --ymin-level)
OMEGA = 1.0  # tail weight exponent (default --omega)
TRIM = 0.01  # propensity clipping (default --trim)
CI_LEVEL = 0.95
MAX_FAILED_SHARE = 0.10
DENOM_EPS = 1e-10

# Complier effect in the far left tail of the bundled data-generating
# processes, on the negated scale the simulation tables report: IV types
# carry effects (2, 1, 0) and compliers +1; the discontinuity design adds
# a 0.1 bonus to every treated unit.
TRUTH = {"iv": -1.0, "rdd": -1.1}


class Degenerate(Exception):
    """The estimator is undefined on this input; the program raises an
    EstimationError at the same point."""


class Fit(NamedTuple):
    """One arm's Pareto tail on the (possibly shifted) analysis scale."""

    y_min: float
    s_min: float
    alpha: float
    shift: float


class Estimate(NamedTuple):
    knots: tuple[np.ndarray, np.ndarray]  # arm 1, arm 0
    values: tuple[np.ndarray, np.ndarray]  # raw CDF values just above each knot
    fits: tuple[Fit, Fit]
    points: list[float]
    intervals: list[tuple[float, float]] | None
    failed_draws: int


# ---------------------------------------------------------------- CDFs


def group_cumsum(y: np.ndarray, *weights: np.ndarray):
    """Distinct values of y and, per weight vector, the running total of
    the weights of all units at or below each distinct value."""
    knots, inverse = np.unique(y, return_inverse=True)
    sums = [np.cumsum(np.bincount(inverse, weights=w, minlength=knots.size))
            for w in weights]
    return knots, sums


def logit(x: np.ndarray, z: np.ndarray, tol: float = 1e-8, max_iter: int = 100) -> np.ndarray:
    """Logit MLE by Newton steps from zero with step halving.

    The estimate is only defined up to the stopping rule, so the rule is
    the program's documented one: stop once the sup norm of the mean
    score x'(z - p)/n is at most tol.
    """
    n, k = x.shape
    gamma = np.zeros(k)
    eta = x @ gamma
    loglik = float(np.mean(z * eta - np.logaddexp(0.0, eta)))
    for _ in range(max_iter):
        p = expit(eta)
        score = x.T @ (z - p) / n
        if np.max(np.abs(score)) <= tol:
            return gamma
        info = (x * (p * (1.0 - p))[:, None]).T @ x / n
        step = np.linalg.solve(info, score)
        scale = 1.0
        for _ in range(40):
            cand = gamma + scale * step
            eta_cand = x @ cand
            ll_cand = float(np.mean(z * eta_cand - np.logaddexp(0.0, eta_cand)))
            if ll_cand >= loglik:
                break
            scale *= 0.5
        gamma, eta, loglik = cand, eta_cand, ll_cand
    raise Degenerate("logit did not converge")


def logit_score(x: np.ndarray, z: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    return x.T @ (z - expit(x @ gamma)) / z.size


def iv_cdfs(y, d, z, p):
    """Kappa-weighted complier CDFs (Abadie 2003) on the distinct outcomes."""
    pq = p * (1.0 - p)
    w1 = d * (z - p) / pq
    w0 = (1.0 - d) * (p - z) / pq
    wd = 1.0 - d * (1.0 - z) / (1.0 - p) - (1.0 - d) * z / p
    mass = float(wd.mean())
    if abs(mass) < DENOM_EPS:
        raise Degenerate(f"complier mass {mass:.3e}")
    knots, (c1, c0) = group_cumsum(y, w1, w0)
    scale = y.size * mass
    return (knots, knots), (c1 / scale, c0 / scale)


def direct_cdfs(y, d):
    """Empirical CDF of each observed arm."""
    knots, values = [], []
    for arm in (1, 0):
        ya = y[d == arm]
        if ya.size == 0:
            raise Degenerate(f"arm {arm} is empty")
        k, (c,) = group_cumsum(ya, np.ones(ya.size))
        knots.append(k)
        values.append(c / ya.size)
    return tuple(knots), tuple(values)


def epanechnikov(u):
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def rot_bandwidth(r) -> float:
    sd = float(np.std(r, ddof=1))
    if sd == 0.0:
        raise Degenerate("constant running variable")
    return sd * r.size ** (-0.2)


def rdd_cdfs(y, d, r, h):
    """Complier CDFs as ratios of one-sided kernel-mean jumps at r = 0.

    Only outcomes within the bandwidth carry kernel weight, so only they
    become knots.
    """
    k = epanechnikov(r / h)
    up = np.where(r > 0, k, 0.0)
    down = np.where(r < 0, k, 0.0)
    s_up, s_down = up.sum(), down.sum()
    if s_up <= 0.0 or s_down <= 0.0:
        raise Degenerate("no kernel mass on one side of the cutoff")
    jump = (up * d).sum() / s_up - (down * d).sum() / s_down
    if abs(jump) < DENOM_EPS:
        raise Degenerate(f"first-stage jump {jump:.3e}")
    win = np.abs(r) <= h
    if not win.any():
        raise Degenerate("no outcomes inside the bandwidth")
    knots, (u1, d1, u0, d0) = group_cumsum(
        y[win], (up * d)[win], (down * d)[win], (up * (1 - d))[win], (down * (1 - d))[win]
    )
    beta1 = (u1 / s_up - d1 / s_down) / jump
    beta0 = (u0 / s_up - d0 / s_down) / -jump
    return (knots, knots), (beta1, beta0), float(jump)


def arm_threshold(y, d, r, arm: int, h: float, level: float = LEVEL) -> float:
    """Kernel-weighted quantile of the D = arm outcomes near the cutoff,
    by linear interpolation between weighted midpoint ranks."""
    keep = (np.abs(r) <= h) & (r != 0.0) & (d == arm)
    w = epanechnikov(r[keep] / h)
    if w.sum() <= 0.0:
        raise Degenerate(f"no arm-{arm} kernel mass")
    order = np.argsort(y[keep], kind="stable")
    ys, ws = y[keep][order], w[order]
    cum = np.cumsum(ws)
    return float(np.interp(level, (cum - 0.5 * ws) / cum[-1], ys))


# ---------------------------------------------------------------- tails


def tail_view(values: np.ndarray) -> np.ndarray:
    """Running maximum rescaled to end at 1: the proper CDF the tail fit reads."""
    peak = np.maximum.accumulate(values)
    if peak[-1] <= 0.0:
        raise Degenerate("CDF has no positive mass")
    return np.clip(peak / peak[-1], 0.0, 1.0)


def survival_at(knots, view, y: float) -> float:
    """1 - F(y) for the left-continuous step CDF (value of the last knot below y)."""
    j = int(np.searchsorted(knots, y, side="left"))
    return 1.0 - (float(view[j - 1]) if j > 0 else 0.0)


def tail_index(knots, view, y_min: float, omega: float, s_min: float) -> float | None:
    """Closed-form weighted log-survival-ratio index above y_min.

    alpha = -sum_seg log(s/s_min) W(seg) / sum_seg L(seg), with
    W = int u^(-omega-1) du and L = int log(u) u^(-omega-1) du over each
    constancy segment in threshold units u = y / y_min, over the segments
    whose survival is positive. None when no such segment exists.
    """
    first = int(np.searchsorted(knots, y_min, side="right"))
    if first >= knots.size:
        return None
    lo = np.concatenate(([y_min], knots[first:])) / y_min
    hi = np.concatenate((knots[first:], [np.inf])) / y_min
    below = view[first - 1] if first > 0 else 0.0
    surv = 1.0 - np.concatenate(([below], view[first:]))
    pos = surv > 0.0
    if not pos.any():
        return None
    lo, hi, surv = lo[pos], hi[pos], surv[pos]

    def log_moment(u):  # int_u^inf log(v) v^(-omega-1) dv
        out = np.zeros_like(u)
        fin = np.isfinite(u)
        out[fin] = u[fin] ** -omega * (omega * np.log(u[fin]) + 1.0) / omega**2
        return out

    weight = (lo**-omega - hi**-omega) / omega
    num = float(np.sum(np.log(surv / s_min) * weight))
    den = float(np.sum(log_moment(lo) - log_moment(hi)))
    return -num / den


def fit_at_level(knots, view, level: float = LEVEL, omega: float = OMEGA) -> Fit:
    """Threshold at the first knot where the view reaches level; outcomes
    shift so that a non-positive threshold lands on 1."""
    y_min = float(knots[np.argmax(view >= level)])
    shift = 0.0
    if y_min <= 0.0:
        shift = 1.0 - y_min
        knots = knots + shift
        y_min = y_min + shift
    s_min = survival_at(knots, view, y_min)
    if s_min <= 0.0:
        raise Degenerate("no survival at the threshold")
    alpha = tail_index(knots, view, y_min, omega, s_min)
    if alpha is None:
        raise Degenerate("no tail beyond the threshold")
    return Fit(y_min, s_min, alpha, shift)


def fit_at_threshold(knots, view, threshold: float, level: float = LEVEL,
                     omega: float = OMEGA) -> Fit:
    """Discontinuity-design arm: survival pinned at the nominal 1 - level,
    and a degenerate tail shape falls back to the flat tail (alpha = inf)."""
    shift = 0.0
    y_min = threshold
    if y_min <= 0.0:
        shift = 1.0 - y_min
        knots = knots + shift
        y_min = 1.0
    alpha = math.inf
    s = survival_at(knots, view, y_min)
    if s > 0.0:
        a = tail_index(knots, view, y_min, omega, s)
        if a is not None and a > 0.0:
            alpha = a
    return Fit(y_min, 1.0 - level, alpha, shift)


def draw_at_frozen(knots, view, fit: Fit, omega: float = OMEGA) -> tuple[float, float]:
    """(index, survival) of a subsample CDF at the full-sample threshold;
    a flat tail is the boundary case alpha = inf."""
    knots = knots + fit.shift
    s = survival_at(knots, view, fit.y_min)
    if s <= 0.0:
        return math.inf, 0.0
    a = tail_index(knots, view, fit.y_min, omega, s)
    if a is None:
        return math.inf, 0.0
    if a == 0.0:
        return math.inf, s
    return a, s


def quantile(fit: Fit, level: float, alpha=None, survival=None) -> np.ndarray:
    """y_min (s / p)^(1/alpha) - shift with p = 1 - level, elementwise over
    draws when alpha and survival are given."""
    p = 1.0 - level
    if p >= 2.0 * fit.s_min:
        raise Degenerate("target is interior to the fit")
    a = np.asarray(fit.alpha if alpha is None else alpha, dtype=float)
    s = np.asarray(fit.s_min if survival is None else survival, dtype=float)
    if np.any(a <= 0.0) or np.any((s <= 0.0) & np.isfinite(a)):
        raise Degenerate("no quantile for a non-positive index or survival")
    with np.errstate(over="ignore"):
        return fit.y_min * (s / p) ** (1.0 / a) - fit.shift


def subsample(seed: int, t: int, n: int, b: int) -> np.ndarray:
    """Draw t's index set: stream (seed, t) of a SeedSequence, b of n
    without replacement, sorted."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
    return np.sort(rng.choice(n, size=b, replace=False))


def interval(draws, point: float, b: int, n: int, exponent: float,
             ci_level: float = CI_LEVEL) -> tuple[float, float]:
    """Equal-tailed subsampling interval from rate-scaled draw dispersion."""
    scaled = (b / n) ** exponent * (np.asarray(draws) - point)
    a = 1.0 - ci_level
    lo, hi = np.quantile(scaled, [a / 2.0, 1.0 - a / 2.0])
    return point - hi, point - lo


# ---------------------------------------------------------------- estimates


def estimate(design: str, y, d, *, z=None, x=None, r=None, q_list=(), lower=True,
             seed=None, draws=500, b=None, gamma=None) -> Estimate:
    """Point estimates (and, with a seed, subsampling intervals) for the
    complier QTE at each lower-tail level q, as `xqte estimate-*` and the
    simulation harness compute them.

    lower=True reports effects on the original scale of y (the CLI's
    default tail side); lower=False expects y already negated and
    reports on that scale (the simulation tables). The IV and direct
    designs freeze thresholds across draws; gamma, when given, replaces
    the reference's own logit fit. Intervals are not built for the
    discontinuity design.
    """
    ya = -np.asarray(y, dtype=float) if lower else np.asarray(y, dtype=float)
    d = np.asarray(d, dtype=float)
    n = ya.size
    if design == "rdd":
        r = np.asarray(r, dtype=float)
        h = rot_bandwidth(r)
        knots, values, _ = rdd_cdfs(ya, d, r, h)
        fits = tuple(
            fit_at_threshold(k, tail_view(v), arm_threshold(ya, d, r, arm, h))
            for k, v, arm in zip(knots, values, (1, 0))
        )
    else:
        if design == "iv":
            z = np.asarray(z, dtype=float)
            x = np.asarray(x, dtype=float)
            if gamma is None:
                gamma = logit(x, z)
            p = np.clip(expit(x @ gamma), TRIM, 1.0 - TRIM)
            refit = lambda idx: iv_cdfs(ya[idx], d[idx], z[idx], p[idx])  # noqa: E731
        elif design == "direct":
            refit = lambda idx: direct_cdfs(ya[idx], d[idx])  # noqa: E731
        else:
            raise ValueError(f"unknown design {design!r}")
        knots, values = refit(slice(None))
        fits = tuple(fit_at_level(k, tail_view(v)) for k, v in zip(knots, values))

    sign = -1.0 if lower else 1.0
    levels = [1.0 - q for q in q_list]
    points = [sign * float(quantile(fits[0], lv) - quantile(fits[1], lv)) for lv in levels]
    if seed is None or design == "rdd":
        return Estimate(knots, values, fits, points, None, 0)

    b = int(math.ceil(n**0.7)) if b is None else b
    kept, failed = [], 0
    for t in range(draws):
        try:
            sub_knots, sub_values = refit(subsample(seed, t, n, b))
            pair = [draw_at_frozen(k, tail_view(v), f)
                    for k, v, f in zip(sub_knots, sub_values, fits)]
        except Degenerate:
            failed += 1
            continue
        if pair[0][0] <= 0.0 or pair[1][0] <= 0.0:
            failed += 1
            continue
        kept.append(pair)
    if failed > MAX_FAILED_SHARE * draws:
        raise Degenerate(f"{failed} of {draws} draws failed")
    tails = np.asarray(kept, dtype=float).reshape(-1, 2, 2)  # draw, arm, (alpha, s)
    intervals = []
    for lv, point in zip(levels, points):
        q1 = quantile(fits[0], lv, tails[:, 0, 0], tails[:, 0, 1])
        q0 = quantile(fits[1], lv, tails[:, 1, 0], tails[:, 1, 1])
        intervals.append(interval(sign * (q1 - q0), point, b, n, 0.5))
    return Estimate(knots, values, fits, points, intervals, failed)


# ---------------------------------------------------------------- checks


def close(a, b, tol: float = REL_TOL) -> bool:
    """Same shape, and equal (infinities included) or within tol, relative
    to the larger of 1 and |b|."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    with np.errstate(invalid="ignore"):
        return bool(np.all((a == b) | (np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b)))))


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row]


def check_estimate_iv(csv_path: Path, out_dir: Path, q_list, seed: int, draws: int) -> list[str]:
    """Check one `xqte estimate-iv` run (lower tail, default settings)
    against the reference; returns the problems found."""
    arr = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    y, d, z, x = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3:]
    meta = json.loads((out_dir / "run.json").read_text(encoding="utf-8"))["_meta"]
    gamma = np.asarray(meta["design_meta"]["gamma"], dtype=float)
    problems = []
    score = float(np.max(np.abs(logit_score(x, z, gamma))))
    if score > SCORE_TOL:
        problems.append(f"logit score {score:.3e} at the recorded gamma exceeds {SCORE_TOL}")
    try:
        ref = estimate("iv", y, d, z=z, x=x, q_list=q_list, seed=seed, draws=draws, gamma=gamma)
    except Degenerate as exc:
        return problems + [f"reference has no estimate: {exc}"]

    cdf = np.loadtxt(out_dir / "cdf.csv", delimiter=",", skiprows=1, ndmin=2)
    if not np.array_equal(cdf[:, 0], ref.knots[0]):
        problems.append("cdf.csv knots differ from the distinct negated outcomes")
    elif not (close(cdf[:, 2], ref.values[0]) and close(cdf[:, 1], ref.values[1])):
        problems.append("cdf.csv values differ from the kappa-weighted cumulative sums")
    for arm, fit in (("arm1", ref.fits[0]), ("arm0", ref.fits[1])):
        got = meta[arm]
        want = {"alpha_hat": fit.alpha, "y_min": fit.y_min, "s_min": fit.s_min, "shift": fit.shift}
        bad = [k for k, v in want.items() if not close(got[k], v)]
        if bad:
            problems.append(f"{arm} {', '.join(bad)} differ from the reference tail fit")
    if meta["discarded_draws"] != ref.failed_draws:
        problems.append(f"{meta['discarded_draws']} discarded draws, reference {ref.failed_draws}")
    rows = read_rows(out_dir / "qte.csv")
    if rows[0] != ["q", "estimate", "ci_lo", "ci_hi"] or len(rows) != len(q_list) + 1:
        return problems + ["qte.csv layout"]
    for row, q, point, (lo, hi) in zip(rows[1:], q_list, ref.points, ref.intervals):
        got = [float(v) for v in row]
        if not close(got, [q, point, lo, hi]):
            problems.append(f"qte.csv row for q={q} is {row}, reference {[q, point, lo, hi]}")
    return problems


def check_simulate(out_dir: Path, design: str, gen: Callable, n: int, q_list, reps: int,
                   seed: int):
    """Check one `xqte simulate` run; returns (replications the program
    dropped, problems, recomputed estimates of shape (kept reps,
    len(q_list))).

    gen(rng, n) yields the replication's (y, d, z, x, r) from its data
    stream (seed, 0, rep, 0). Each replication's point estimate is
    recomputed, and the table's bias, sd and rmse must be those of the
    recomputed estimates.
    """
    problems = []
    meta = json.loads((out_dir / "run.json").read_text(encoding="utf-8"))["_meta"]
    truth = TRUTH[design]
    if meta["truth"] != truth:
        problems.append(f"run.json truth {meta['truth']} is not the design's {truth}")
    program_failed = {c["n_failed"] for c in meta["cells"]}
    estimates, failed = [], 0
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, rep, 0)))
        y, d, z, x, r = gen(rng, n)
        ya = -np.asarray(y, dtype=float)  # the harness negates before fitting
        try:
            est = estimate(design, ya, d, z=z, x=x, r=r, q_list=q_list, lower=False)
        except Degenerate:
            failed += 1
            continue
        estimates.append(est.points)
    est = np.asarray(estimates, dtype=float).reshape(-1, len(q_list))
    if program_failed != {failed}:
        problems.append(f"program dropped {sorted(program_failed)} replications, "
                        f"reference {failed}")
        return max(program_failed), problems, est

    rows = read_rows(out_dir / "table.csv")
    header = rows[0]
    table = {row[1]: dict(zip(header[2:], row[2:])) for row in rows[1:]}
    for j, q in enumerate(q_list):
        col = f"q={q:g}"
        bias, sd = float(est[:, j].mean() - truth), float(est[:, j].std())
        got = {s: float(table[s][col]) for s in ("bias", "sd", "rmse", "cov95")}
        if not close([got["bias"], got["sd"], got["rmse"]], [bias, sd, math.hypot(bias, sd)]):
            problems.append(f"{col}: table bias/sd/rmse {got} differ from the recomputed "
                            f"{bias}, {sd}")
        if not 0.0 <= got["cov95"] <= 1.0:
            problems.append(f"{col}: coverage {got['cov95']} outside [0, 1]")
    return failed, problems, est


def check_truth(design: str, estimates: np.ndarray, q_list) -> list[str]:
    """The mean of the program's estimates (pooled over a run's commands)
    must lie within BIAS_SIGMAS standard errors of the design's truth."""
    problems = []
    for j, q in enumerate(q_list):
        e = estimates[:, j]
        bias, se = float(e.mean() - TRUTH[design]), float(e.std(ddof=1)) / math.sqrt(e.size)
        if not abs(bias) <= BIAS_SIGMAS * se:
            problems.append(f"q={q:g}: bias {bias:.4f} over {e.size} replications is beyond "
                            f"{BIAS_SIGMAS} standard errors ({BIAS_SIGMAS * se:.4f})")
    return problems
