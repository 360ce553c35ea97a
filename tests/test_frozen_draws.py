"""The frozen-threshold draws (IV and direct designs) against the per-draw
recipe.

The oracle (oracles.frozen_draws) is the recipe subsample_tail_pairs used
to run one draw at a time: refit the subset's two CDFs, take their
proper-CDF views on the full fit's shifted scale, and fit each arm with
the former scalar index fit (oracles.pareto_index) at the frozen
threshold. The row path must return the same TailDraws bit for bit.

Negative indices never come out of a proper-CDF view, whose survival
never rises, so some examples fit the raw CDFs instead: tail_view is
swapped for the identity in the library and the oracle alike.
"""

from collections import Counter
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from xqte import inference
from xqte.core import EstimationError, ObservationSet, substream
from xqte.inference import SubsampleConfig, UnstableSubsampling, subsample_tail_pairs
from xqte.pipeline import EstimatorSettings, fit_pipeline, subset_cdfs
from xqte.simulate import gen_iv


def bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


def check_draws(pipe, cfg, seed):
    """Assert the library reproduces the oracle; return the oracle's
    failed draw count."""
    stream = lambda t: substream(seed, t)  # noqa: E731
    b = cfg.validate(pipe.data.n)
    alphas, survivals, thresholds, failed = oracles.frozen_draws(pipe, cfg, b, stream)
    if failed > cfg.max_failure_share * cfg.draws:
        with pytest.raises(UnstableSubsampling):
            subsample_tail_pairs(pipe, cfg, stream)
        return failed
    tails = subsample_tail_pairs(pipe, cfg, stream)
    assert tails.failed == failed
    assert bits(tails.alphas) == bits(alphas)
    assert bits(tails.survivals) == bits(survivals)
    assert bits(tails.thresholds) == bits(thresholds)
    return failed


def patched(chunk, raw):
    """CHUNK_ELEMENTS set to chunk; with raw, the subset CDFs are fitted
    as they come instead of through their views."""
    stack = ExitStack()
    stack.enter_context(mock.patch.object(inference, "CHUNK_ELEMENTS", chunk))
    if raw:
        identity = lambda cdf: cdf  # noqa: E731
        stack.enter_context(mock.patch.object(inference, "tail_view", identity))
        stack.enter_context(mock.patch.object(oracles, "tail_view", identity))
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
    seed=st.integers(0, 1000),
)
def test_row_path_matches_per_draw_oracle(data, b_share, chunk, level, lower, raw, seed):
    try:
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=level), "lower" if lower else "upper")
    except EstimationError:
        assume(False)
    b = max(2, min(data.n - 1, round(b_share * data.n)))
    cfg = SubsampleConfig(b=b, draws=100, max_failure_share=0.99)
    with patched(chunk, raw):
        check_draws(pipe, cfg, seed)


def failures_by_class(pipe, cfg, seed):
    """The oracle's failed draws by exception class, and its draws with a
    negative index under "negative"."""
    b = cfg.validate(pipe.data.n)
    failures = Counter()
    for t in range(cfg.draws):
        idx = np.sort(substream(seed, t).choice(pipe.data.n, size=b, replace=False))
        try:
            tails = [oracles._tail_at_frozen_threshold(cdf, fit)
                     for cdf, fit in zip(subset_cdfs(pipe, idx), (pipe.fit1, pipe.fit0))]
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
    pipe = fit_pipeline(gen_iv(substream(9, 0), 400).data, EstimatorSettings(ymin_level=0.8))
    cfg = SubsampleConfig(b=12, draws=150, max_failure_share=0.9)
    chunk = inference.CHUNK_ELEMENTS if per_chunk is None else 4 * 12 * per_chunk
    with patched(chunk, raw):
        failures = failures_by_class(pipe, cfg, 10)
        assert failures[failure] > 5
        assert check_draws(pipe, cfg, 10) == sum(failures.values())


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
