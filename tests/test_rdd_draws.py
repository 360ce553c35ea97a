"""The chunked discontinuity draw engine against the per-draw recipe.

The oracle below is the recipe subsample_tail_pairs used to run one draw
at a time: subset the data, re-derive the bandwidth, the jump-ratio
CDFs and both arm thresholds, and fit each arm's index on the proper-CDF
view at its re-selected threshold, with the former scalar index fit
(oracles.pareto_index). Tied outcomes are taken in input row order (a
stable sort), as the library does; they move the arm thresholds, not
just the rounding. The engine must return the same TailDraws bit for
bit.
"""

import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xqte import inference
from xqte.cdf_rdd import DENOM_EPS, EmptyWindow, ZeroVariance, epanechnikov
from xqte.core import DegenerateDenominator, EstimationError, ObservationSet, StepCdf, substream
from xqte.inference import SubsampleConfig, UnstableSubsampling, subsample_tail_pairs
from xqte.pipeline import EstimatorSettings, fit_pipeline
from xqte.simulate import gen_rdd
from xqte.tail import EmptyTail, NonPositiveSurvival

from oracles import pareto_index


def oracle_bandwidth(r):
    sd = float(np.std(r, ddof=1))
    if sd == 0.0:
        raise ZeroVariance("running variable is constant")
    return sd * r.size ** (-1.0 / 5.0)


def oracle_cdfs(sub, h):
    """Jump-ratio CDF pair from running sums over the windowed outcomes;
    the side masses add the window's units one at a time by outcome."""
    r, d = sub.r, sub.d.astype(float)
    w = epanechnikov(r / h)
    w_above = np.where(r > 0, w, 0.0)
    w_below = np.where(r < 0, w, 0.0)
    window = np.abs(r) <= h
    yw = sub.y[window]
    order = np.argsort(yw, kind="stable")

    def window_total(weights):
        total = 0.0
        for v in weights[window][order]:
            total += v
        return total

    s_above, s_below = window_total(w_above), window_total(w_below)
    if s_above <= 0.0 or s_below <= 0.0:
        raise EmptyWindow("no kernel mass on one side of the cutoff")
    denom1 = window_total(w_above * d) / s_above - window_total(w_below * d) / s_below
    if abs(denom1) < DENOM_EPS:
        raise DegenerateDenominator("no first-stage jump")
    ys = yw[order]
    knots = np.unique(ys)
    last = np.searchsorted(ys, knots, side="right") - 1

    def jump_cumsum(weights):
        return np.cumsum(weights[window][order])[last]

    num1 = jump_cumsum(w_above * d) / s_above - jump_cumsum(w_below * d) / s_below
    num0 = jump_cumsum(w_above * (1.0 - d)) / s_above - jump_cumsum(w_below * (1.0 - d)) / s_below
    return StepCdf(knots, num1 / denom1), StepCdf(knots, num0 / -denom1)


def oracle_threshold(sub, arm, h, level):
    """Kernel-weighted midpoint-rank quantile of the arm takers, by np.interp."""
    keep = (np.abs(sub.r) <= h) & (sub.r != 0.0) & (sub.d == arm)
    w = epanechnikov(sub.r[keep] / h)
    if w.sum() <= 0.0:
        raise EmptyWindow(f"no arm-{arm} kernel mass")
    y = sub.y[keep]
    order = np.argsort(y, kind="stable")
    ys, ws = y[order], w[order]
    cum = np.cumsum(ws)
    return float(np.interp(level, (cum - 0.5 * ws) / cum[-1], ys))


def oracle_arm(cdf, threshold, fit):
    """(index, threshold) of one arm on the full fit's shifted scale."""
    peak = np.maximum.accumulate(cdf.values)
    if peak[-1] <= 0.0:
        raise DegenerateDenominator("CDF estimate has no positive mass")
    view = StepCdf(cdf.knots, np.clip(peak / peak[-1], 0.0, 1.0))
    if fit.shift != 0.0:
        view = view.shifted(fit.shift)
    th = threshold + fit.shift
    if th <= 0.0:
        return math.inf, th
    try:
        alpha = pareto_index(view, th, fit.omega).alpha_hat
    except (NonPositiveSurvival, EmptyTail):
        return math.inf, th
    return (alpha if alpha > 0.0 else math.inf), th


def oracle_tail_pairs(pipe, cfg, rng_for_draw):
    """(alphas, thresholds, failures by exception class), one draw at a time."""
    n, b = pipe.data.n, cfg.validate(pipe.data.n)
    level = pipe.settings.ymin_level
    alphas, thresholds, failures = [], [], Counter()
    for t in range(cfg.draws):
        sub = pipe.data.subset(np.sort(rng_for_draw(t).choice(n, size=b, replace=False)))
        try:
            h = oracle_bandwidth(sub.r)
            cdf1, cdf0 = oracle_cdfs(sub, h)
            thr1, thr0 = oracle_threshold(sub, 1, h, level), oracle_threshold(sub, 0, h, level)
            a1, th1 = oracle_arm(cdf1, thr1, pipe.fit1)
            a0, th0 = oracle_arm(cdf0, thr0, pipe.fit0)
        except EstimationError as err:
            failures[type(err).__name__] += 1
            continue
        alphas.append((a1, a0))
        thresholds.append((th1, th0))
    return np.reshape(alphas, (-1, 2)), np.reshape(thresholds, (-1, 2)), failures


def check_engine(pipe, cfg, seed):
    """Assert the engine reproduces the oracle; return the oracle's failures."""
    stream = lambda t: substream(seed, t)  # noqa: E731
    alphas, thresholds, failures = oracle_tail_pairs(pipe, cfg, stream)
    failed = sum(failures.values())
    if failed > cfg.max_failure_share * cfg.draws:
        with pytest.raises(UnstableSubsampling):
            subsample_tail_pairs(pipe, cfg, stream)
        return failures
    tails = subsample_tail_pairs(pipe, cfg, stream)
    assert tails.failed == failed
    nominal = np.tile([pipe.fit1.s_min, pipe.fit0.s_min], (len(alphas), 1))
    assert np.array_equal(tails.survivals, nominal)
    assert np.array_equal(tails.alphas, alphas)
    assert np.array_equal(tails.thresholds, thresholds)
    return failures


def rdd_set(y, d, r):
    return ObservationSet(design="rdd", y=np.asarray(y, float), d=d, r=np.asarray(r, float))


@st.composite
def rdd_samples(draw):
    n = draw(st.integers(30, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = rng.uniform(-1.0, 1.0, n)
    p_above, p_below = draw(st.floats(0.5, 1.0)), draw(st.floats(0.0, 0.5))
    d = (rng.random(n) < np.where(r > 0, p_above, p_below)).astype(int)
    y = rng.standard_t(draw(st.sampled_from([2.0, 10.0])), n) + d
    if draw(st.booleans()):
        y = np.round(y, 1)  # tied outcomes
    return rdd_set(y, d, r)


@settings(max_examples=60, deadline=None)
@given(
    data=rdd_samples(),
    b_share=st.floats(0.05, 0.95),
    draws=st.integers(100, 160),
    chunk=st.integers(1, 3000),
    budget=st.sampled_from([0.1, 0.5, 0.99]),
    lower=st.booleans(),
    seed=st.integers(0, 1000),
)
def test_engine_matches_per_draw_oracle(data, b_share, draws, chunk, budget, lower, seed):
    try:
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9), "lower" if lower else "upper")
    except EstimationError:
        assume(False)
    b = max(2, min(data.n - 1, round(b_share * data.n)))
    cfg = SubsampleConfig(b=b, draws=draws, max_failure_share=budget)
    with mock.patch.multiple(inference, CHUNK_ELEMENTS=chunk, MIN_CHUNK_DRAWS=1):
        check_engine(pipe, cfg, seed)


def simulation_pipe():
    """Lower-tail pipeline on 3000 units of the simulation design; b = 272."""
    return fit_pipeline(gen_rdd(substream(3, 0), 3000).data, tail_side="lower")


def test_chunked_draws_match_oracle_on_the_simulation_design():
    pipe = simulation_pipe()
    # 100 draws of b = 272 make a chunk of 60 draws and a last one of 40
    assert inference.CHUNK_ELEMENTS // 272 == 60
    failures = check_engine(pipe, SubsampleConfig(draws=100), 4)
    assert not failures


@pytest.mark.parametrize("per_chunk", [1, 33])
def test_one_draw_chunks(per_chunk):
    # one draw in every chunk, or 33-draw chunks and a last one of one draw
    with mock.patch.multiple(inference, CHUNK_ELEMENTS=per_chunk * 272, MIN_CHUNK_DRAWS=1):
        assert not check_engine(simulation_pipe(), SubsampleConfig(draws=100), 5)


def force_one_arm_out(taken_value):
    """inference's side_masses with every unit of every third draw of each
    chunk marked as taken_value: True leaves no arm-0 taker (an untreated
    unit) in the draw, False no arm-1 taker."""
    fn = inference.side_masses

    def forced(w, above, below, taken):
        taken = taken.copy()
        taken[::3] = taken_value
        return fn(w, above, below, taken)

    return forced


@pytest.mark.parametrize(
    "taken_value",
    [True, False],
    ids=["empty arm-0 window", "degenerate arm-1 view"],
)
def test_one_failed_arm_fails_the_whole_draw(taken_value):
    # a draw with no takers of one arm has a first-stage jump of exactly
    # 0 (its arm-1 view is then 0 throughout), so the first-stage check
    # drops both of its arms together; forced on draws 0, 3, 6, ...
    # (chunks of 30 draws)
    pipe = simulation_pipe()
    cfg = SubsampleConfig(draws=120, max_failure_share=0.5)
    b = cfg.validate(pipe.data.n)
    stream = lambda t: substream(7, t)  # noqa: E731
    assert not check_engine(pipe, cfg, 7)
    with mock.patch.multiple(inference, CHUNK_ELEMENTS=30 * b, MIN_CHUNK_DRAWS=1):
        alphas, _, thresholds, failed = inference._draws(pipe, cfg, b, stream)
        with mock.patch.object(inference, "side_masses", force_one_arm_out(taken_value)):
            tails = subsample_tail_pairs(pipe, cfg, stream)
    assert not failed.any()
    kept = np.arange(cfg.draws) % 3 != 0
    assert tails.failed == cfg.draws - kept.sum()
    assert np.array_equal(tails.alphas, alphas[kept])
    assert np.array_equal(tails.thresholds, thresholds[kept])


def spy(seen, name):
    """inference's function name, recording each call's result in seen[name]."""
    fn = getattr(inference, name)

    def spied(*args, **kwargs):
        out = fn(*args, **kwargs)
        seen[name].append(out)
        return out

    return spied


@settings(max_examples=40, deadline=None)
@given(
    data=rdd_samples(),
    b_share=st.floats(0.05, 0.95),
    chunk=st.integers(1, 3000),
    lower=st.booleans(),
    seed=st.integers(0, 1000),
)
def test_first_stage_check_implies_no_arm_flags(data, b_share, chunk, lower, seed):
    # a draw with a first-stage jump of at least DENOM_EPS has kernel mass
    # from both arms' takers, and each of its jump-ratio CDFs ends near
    # 1, so neither per-arm flag (no arm-taker mass, a view never above
    # 0) is ever set on a draw that the first-stage check keeps
    try:
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9), "lower" if lower else "upper")
    except EstimationError:
        assume(False)
    b = max(2, min(data.n - 1, round(b_share * data.n)))
    cfg = SubsampleConfig(b=b, draws=100, max_failure_share=0.99)
    names = ("rot_bandwidths", "side_masses", "arm_threshold_rows", "tail_view_rows")
    seen = {name: [] for name in names}
    spies = {name: spy(seen, name) for name in names}
    with mock.patch.multiple(inference, CHUNK_ELEMENTS=chunk, MIN_CHUNK_DRAWS=1, **spies):
        *_, failed = inference._draws(pipe, cfg, b, lambda t: substream(seed, t))
    h = np.concatenate(seen["rot_bandwidths"])
    s_above, s_below, jump = (np.concatenate(parts) for parts in zip(*seen["side_masses"]))
    ok = (h > 0.0) & (s_above > 0.0) & (s_below > 0.0) & (np.abs(jump) >= DENOM_EPS)
    empty = np.concatenate([flags.any(axis=0) for _, flags in seen["arm_threshold_rows"]])
    degenerate = np.concatenate([flags.any(axis=0) for _, flags in seen["tail_view_rows"]])
    assert np.array_equal(failed, ~ok)
    assert not (ok & (empty | degenerate)).any()


def test_all_flat_chunks():
    # top-coded outcomes: the arm thresholds land on the ceiling, with no
    # knot beyond it, so every draw of every chunk is a flat tail
    rng = np.random.default_rng(1)
    n = 400
    r = rng.uniform(-1.0, 1.0, n)
    d = (rng.random(n) < np.where(r > 0, 0.8, 0.2)).astype(int)
    y = rng.standard_t(3.0, n) + d
    top_coded = rdd_set(np.minimum(y, np.median(y)), d, r)
    pipe = fit_pipeline(top_coded, EstimatorSettings(ymin_level=0.9))
    cfg = SubsampleConfig(draws=120)
    with mock.patch.multiple(inference, CHUNK_ELEMENTS=7 * cfg.resolve_b(n), MIN_CHUNK_DRAWS=1):
        assert not check_engine(pipe, cfg, 6)
        tails = subsample_tail_pairs(pipe, cfg, lambda t: substream(6, t))
    assert tails.alphas.shape == (120, 2) and np.isinf(tails.alphas).all()


def failing_draws(r, d, b, budget):
    rng = np.random.default_rng(2)
    y = rng.standard_t(3.0, r.size) + d
    pipe = fit_pipeline(rdd_set(y, d, r), EstimatorSettings(ymin_level=0.9))
    cfg = SubsampleConfig(b=b, draws=120, max_failure_share=budget)
    with mock.patch.multiple(inference, CHUNK_ELEMENTS=50, MIN_CHUNK_DRAWS=1):
        return check_engine(pipe, cfg, 6)


@pytest.mark.parametrize("budget", [0.99, 0.1])
def test_constant_and_empty_windows_fail_draws(budget):
    # half the units sit at r = 0.125, so a size-3 subset often has a
    # constant running variable; most others have an empty side
    rng = np.random.default_rng(1)
    r = np.where(rng.random(60) < 0.5, 0.125, rng.uniform(-1.0, 1.0, 60))
    d = (rng.random(60) < np.where(r > 0, 0.8, 0.2)).astype(int)
    failures = failing_draws(r, d, 3, budget)
    assert failures["ZeroVariance"] and failures["EmptyWindow"]


def test_draws_without_first_stage_fail():
    # only three units near the cutoff are untreated; subsets that miss
    # all three have no first-stage jump
    r = np.random.default_rng(1).uniform(-1.0, 1.0, 60)
    d = np.ones(60, dtype=int)
    d[np.argsort(np.abs(r + 0.05))[:3]] = 0
    failures = failing_draws(r, d, 20, 0.99)
    assert failures["DegenerateDenominator"]
