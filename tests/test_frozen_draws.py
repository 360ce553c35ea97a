"""The frozen-threshold draws (IV and direct designs) against the per-draw
recipe.

The oracle (oracles.frozen_draws) is the recipe subsample_tail_pairs used
to run one draw at a time: refit the subset's two CDFs, take their
proper-CDF views on the full fit's shifted scale, and fit each arm with
the former scalar index fit (oracles.pareto_index) at the frozen
threshold. The row path must return the same TailDraws bit for bit.

Negative indices never come out of a proper-CDF view, whose survival
never rises, so some examples fit the raw CDFs instead: the library's
tail_view_rows and the oracle's tail_view are swapped for the identity.
"""

from collections import Counter
from contextlib import ExitStack
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from xqte import cdf_iv, inference, simulate
from xqte.cdf_iv import kappa_cdf, kappa_weights, logistic
from xqte.core import EstimationError, ObservationSet, substream
from xqte.inference import (
    SubsampleConfig, UnstableSubsampling, estimate_qte_batch, subsample_tail_pairs,
)
from xqte.pipeline import EstimatorSettings, fit_pipeline
from xqte.simulate import gen_iv


def bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


def check_draws(pipe, cfg, seed, x=None):
    """Assert the library reproduces the oracle; return the oracle's
    failed draw count. x is the covariate matrix an IV pipe was fitted
    on, which the oracle's kappa weights read (the pipe keeps none)."""
    stream = lambda t: substream(seed, t)  # noqa: E731
    b = cfg.validate(pipe.data.n)
    alphas, survivals, thresholds, failed = oracles.frozen_draws(pipe, cfg, b, stream, x)
    if failed > cfg.max_failure_share * cfg.draws:
        with pytest.raises(UnstableSubsampling, match=f"^{failed} of {cfg.draws} "):
            subsample_tail_pairs(pipe, cfg, stream)
        return failed
    tails = subsample_tail_pairs(pipe, cfg, stream)
    assert tails.failed == failed
    assert bits(tails.alphas) == bits(alphas)
    assert bits(tails.survivals) == bits(survivals)
    assert bits(tails.thresholds) == bits(thresholds)
    return failed


def raw_rows(values, at_knot=None):
    """tail_view_rows that hands the values on as they are, never
    degenerate. Off the knots they are running totals, which the tail
    fit reads only at a run's last entry, where they are the preceding
    knot's value."""
    return np.array(values, dtype=float), np.zeros(np.shape(values)[:-1], dtype=bool)


def patched(chunk, raw):
    """CHUNK_ELEMENTS set to chunk and MIN_CHUNK_DRAWS to 1, so that chunk
    alone sizes the chunks; with raw, the subset CDFs are fitted as they
    come instead of through their views."""
    stack = ExitStack()
    stack.enter_context(mock.patch.multiple(inference, CHUNK_ELEMENTS=chunk, MIN_CHUNK_DRAWS=1))
    if raw:
        stack.enter_context(mock.patch.object(inference, "tail_view_rows", raw_rows))
        stack.enter_context(mock.patch.object(oracles, "tail_view", lambda cdf: cdf))
    return stack


def direct_set(y, d):
    return ObservationSet(design="direct", y=np.asarray(y, float), d=d)


@st.composite
def frozen_samples(draw):
    """IV samples from gen_iv, or direct ones whose treated arm can be so
    small that subsets miss it; outcomes moved by an offset that can push
    the thresholds below 0 (the positivity shift) and sometimes rounded
    (tied outcomes)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(120, 400))
    if draw(st.booleans()):
        data = gen_iv(rng, n).data
    else:
        d = (rng.random(n) < draw(st.sampled_from([0.02, 0.3, 0.5]))).astype(int)
        data = direct_set(rng.standard_t(draw(st.sampled_from([2.0, 10.0])), n) + d, d)
    y = data.y + draw(st.sampled_from([0.0, -50.0, 100.0]))
    if draw(st.booleans()):
        y = np.round(y, 1)
    return ObservationSet(design=data.design, y=y, d=data.d, z=data.z, x=data.x)


@settings(max_examples=60, deadline=None)
@given(
    data=frozen_samples(),
    b_share=st.floats(0.03, 0.95),
    chunk=st.integers(1, 3000),
    level=st.sampled_from([0.8, 0.9, 0.975]),
    lower=st.booleans(),
    raw=st.booleans(),
    omega=st.sampled_from([1.0, 2.0]),
    seed=st.integers(0, 1000),
)
def test_row_path_matches_per_draw_oracle(data, b_share, chunk, level, lower, raw, omega, seed):
    try:
        pipe = fit_pipeline(data, EstimatorSettings(omega=omega, ymin_level=level),
                            "lower" if lower else "upper")
    except EstimationError:
        assume(False)
    b = max(2, min(data.n - 1, round(b_share * data.n)))
    cfg = SubsampleConfig(b=b, draws=100, max_failure_share=0.99)
    with patched(chunk, raw):
        check_draws(pipe, cfg, seed, data.x)


def failures_by_class(pipe, cfg, seed, x=None):
    """The oracle's failed draws by exception class, and its draws with a
    negative index under "negative"; x as in check_draws."""
    b = cfg.validate(pipe.data.n)
    failures = Counter()
    for t in range(cfg.draws):
        idx = np.sort(substream(seed, t).choice(pipe.data.n, size=b, replace=False))
        try:
            tails = [oracles._tail_at_frozen_threshold(cdf, fit)
                     for cdf, fit in zip(oracles.subset_cdfs(pipe, idx, x), (pipe.fit1, pipe.fit0))]
        except EstimationError as err:
            failures[type(err).__name__] += 1
            continue
        failures["negative"] += any(a < 0.0 for a, _ in tails)
    return failures


@pytest.mark.parametrize("per_chunk", [0, 1, None])
@pytest.mark.parametrize("raw, failure", [(False, "DegenerateDenominator"), (True, "negative")])
def test_iv_draws_that_fail(raw, failure, per_chunk):
    # at b = 12 some subsets' kappa CDFs never rise above 0, so their
    # views raise DegenerateDenominator; fitted raw, some draws give a
    # negative index instead. per_chunk 0 fits each draw's tails on
    # their own, 1 a few draws at a time (CHUNK_ELEMENTS // 4 = 12 kept
    # entries), None in batches of the default size
    data = gen_iv(substream(9, 0), 400).data
    pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.8))
    cfg = SubsampleConfig(b=12, draws=150, max_failure_share=0.9)
    chunk = inference.CHUNK_ELEMENTS if per_chunk is None else 4 * 12 * per_chunk
    with patched(chunk, raw):
        failures = failures_by_class(pipe, cfg, 10, data.x)
        assert failures[failure] > 5
        assert check_draws(pipe, cfg, 10, data.x) == sum(failures.values())


def test_direct_draws_that_miss_an_arm_fail():
    # 4 treated rows among 400: at b = 67 about half the subsets contain
    # no treated unit, and the empirical CDF of an empty arm raises
    rng = np.random.default_rng(3)
    d = np.zeros(400, dtype=int)
    d[:4] = 1
    pipe = fit_pipeline(direct_set(rng.pareto(2.0, 400) + 1.0, d), EstimatorSettings(ymin_level=0.5))
    cfg = SubsampleConfig(draws=150, max_failure_share=0.9)
    with patched(1, raw=False):
        assert check_draws(pipe, cfg, 11) > 15
    assert failures_by_class(pipe, cfg, 11)["DegenerateDenominator"] > 15


def test_draws_with_one_unit_per_arm_are_all_flat():
    # at b = 2 a draw that keeps both arms holds one unit of each, whose
    # empirical CDF has nothing to fit beyond the frozen threshold: every
    # retained index is inf (zero survival below the threshold's unit,
    # the unit's own survival above it); the other draws miss an arm
    rng = np.random.default_rng(5)
    d = (rng.random(200) < 0.5).astype(int)
    pipe = fit_pipeline(direct_set(rng.pareto(2.0, 200) + 1.0 + d, d),
                        EstimatorSettings(ymin_level=0.9))
    cfg = SubsampleConfig(b=2, draws=100, max_failure_share=0.9)
    alphas, survivals, _, failed = oracles.frozen_draws(pipe, cfg, 2, lambda t: substream(6, t))
    assert 0 < failed < 90 and np.isinf(alphas).all()
    assert {0.0, 1.0} <= set(survivals.ravel())
    for chunk in (1, 2 * 7, inference.CHUNK_ELEMENTS):
        with patched(chunk, raw=False):
            assert check_draws(pipe, cfg, 6) == failed


def test_draw_sets_that_all_fail_raise_with_the_oracles_count():
    # 3 treated rows among 400 and b = 2: no draw of this stream holds a
    # treated unit, so every draw misses an arm
    d = np.zeros(400, dtype=int)
    d[:3] = 1
    pipe = fit_pipeline(direct_set(np.random.default_rng(3).pareto(2.0, 400) + 1.0, d),
                        EstimatorSettings(ymin_level=0.5))
    cfg = SubsampleConfig(b=2, draws=100)
    for chunk in (1, inference.CHUNK_ELEMENTS):
        with patched(chunk, raw=False):
            assert check_draws(pipe, cfg, 4) == cfg.draws


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("side", ["upper", "lower"])
@pytest.mark.parametrize("chunk", [1, 150 * 7, inference.CHUNK_ELEMENTS])
def test_direct_draws_with_outcomes_tied_across_arms(seed, side, chunk):
    # integer outcomes: about 15 distinct values shared by both arms, so
    # most knots hold units of both arms and an arm's knots are the
    # subset's knots where its own count rose
    rng = np.random.default_rng(seed)
    d = (rng.random(600) < 0.4).astype(int)
    y = np.round(rng.standard_t(3.0, 600) + 0.5 * d)
    assert np.isin(y[d == 1], y[d == 0]).mean() > 0.9
    pipe = fit_pipeline(direct_set(y, d), EstimatorSettings(ymin_level=0.9), side)
    cfg = SubsampleConfig(b=150, draws=100, max_failure_share=0.5)
    with patched(chunk, raw=False):
        check_draws(pipe, cfg, seed)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("design", ["iv", "direct"])
def test_chunk_boundaries_inside_a_workers_block(design, workers):
    # 7 draws per chunk: 101 draws end in a chunk of 3. With fork_map
    # offering 1-3 workers for the draws' work, they still run as one
    # block in this process, and the part chunk matches the oracle
    data = gen_iv(substream(9, 1), 400).data
    if design == "direct":
        data = direct_set(data.y, data.d)
    pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9))
    cfg = SubsampleConfig(b=40, draws=101, max_failure_share=0.5)
    with patched(7 * 40, raw=False), \
            mock.patch.object(simulate, "_usable_cpus", return_value=workers), \
            mock.patch.object(simulate, "FORK_MIN_ROWS", 0):
        assert simulate.fork_workers(cfg.draws, 40 * cfg.draws) == workers
        check_draws(pipe, cfg, 13, data.x)


def strong_instrument_set(seed, n, coef):
    """gen_iv's complier types and effects under an instrument whose
    logit index on two covariates has coefficients (coef, -coef)."""
    rng = substream(seed, 0)
    x = rng.standard_normal((n, 2))
    z = (rng.random(n) < logistic(x @ np.array([coef, -coef]))).astype(int)
    types = rng.integers(3, size=n)
    d = ((types == 0) | ((types == 1) & (z == 1))).astype(int)
    return ObservationSet(design="iv", y=rng.standard_t(3.0, n) + d, d=d, z=z, x=x)


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_trimmed_propensities_in_the_fit_and_the_draws(side):
    # a strong instrument puts 75 of 600 fitted propensities outside
    # [trim, 1 - trim]; the fit and the draws clip them as the oracle does
    data = strong_instrument_set(21, 600, 2.0)
    pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9), side)
    p_hat, trim = pipe.logit.propensity(data.x), pipe.settings.trim
    assert ((p_hat < trim) | (p_hat > 1.0 - trim)).sum() > 50
    untrimmed = kappa_cdf(replace(pipe.data, x=data.x), pipe.logit, p_trim=0.0)
    assert bits(untrimmed.beta1.values) != bits(pipe.cdf1.values)
    assert bits(untrimmed.beta0.values) != bits(pipe.cdf0.values)
    refs = oracles.subset_cdfs(pipe, np.arange(data.n), data.x)
    for cdf, ref in zip((pipe.cdf1, pipe.cdf0), refs):
        assert bits(cdf.knots) == bits(ref.knots)
        assert bits(cdf.values) == bits(ref.values)
    check_draws(pipe, SubsampleConfig(b=150, draws=100, max_failure_share=0.5), 22, data.x)


def stable_order_cdf(y, w, total):
    """Running sums of w over the units in outcome order, tied units in
    input row order (Python's sort is stable), read at each distinct
    outcome and divided by total. The first sum is the first weight
    itself, -0.0 included, as in a cumulative sum."""
    knots, sums, running = [], [], -0.0
    for i in sorted(range(len(y)), key=lambda i: y[i]):
        running += w[i]
        if knots and knots[-1] == y[i]:
            sums[-1] = running
        else:
            knots.append(y[i])
            sums.append(running)
    return np.array(knots), np.array(sums) / total


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_tied_outcomes_are_summed_in_input_row_order(side):
    # outcomes rounded to 0.1: about 60 distinct values among 500 units
    data = gen_iv(substream(23, 0), 500).data
    data = ObservationSet(design="iv", y=np.round(data.y, 1), d=data.d, z=data.z, x=data.x)
    pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9), side)
    y, n = pipe.data.y, pipe.data.n
    fitted_data = replace(pipe.data, x=data.x)
    pair = kappa_cdf(fitted_data, pipe.logit, pipe.settings.trim)
    w1, w0, wd = kappa_weights(fitted_data, pipe.logit, pipe.settings.trim)
    total = n * float(np.mean(wd))
    reordered = 0
    for cdf, fitted, w in ((pair.beta1, pipe.cdf1, w1), (pair.beta0, pipe.cdf0, w0)):
        knots, values = stable_order_cdf(y, w, total)
        assert bits(cdf.knots) == bits(fitted.knots) == bits(knots)
        assert bits(cdf.values) == bits(fitted.values) == bits(values)
        # summed with ties in reverse input row order, the values change
        reordered += bits(stable_order_cdf(y[::-1], w[::-1], total)[1]) != bits(values)
    assert reordered == 2
    # at b = n every draw is the full sample in the fit's sum order
    cfg = SubsampleConfig(b=n, draws=100)
    alphas, survivals, _, failed = inference._draws(pipe, cfg, n, lambda t: substream(24, t))
    assert not failed.any()
    assert bits(alphas) == bits(np.tile([pipe.fit1.alpha_hat, pipe.fit0.alpha_hat], (100, 1)))
    assert bits(survivals) == bits(np.tile([pipe.fit1.s_min, pipe.fit0.s_min], (100, 1)))
    ref_alphas, ref_survivals, _, ref_failed = oracles.frozen_draws(
        pipe, cfg, n, lambda t: substream(24, t), data.x)
    assert ref_failed == 0
    assert bits(alphas) == bits(ref_alphas) and bits(survivals) == bits(ref_survivals)


def test_an_iv_fit_and_its_draws_weight_and_rank_the_sample_once():
    data = gen_iv(substream(9, 2), 400).data
    with mock.patch.object(cdf_iv, "kappa_weights", wraps=kappa_weights) as weigh, \
            mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9), "lower")
        estimate_qte_batch(pipe, [0.02, 0.025], SubsampleConfig(draws=100),
                           lambda t: substream(25, t))
    assert weigh.call_count == 1
    assert argsort.call_count == 1
