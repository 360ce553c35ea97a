"""Step-CDF algebra, proper-CDF views, flipping, and RNG substreams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xqte.core import (
    DegenerateDenominator,
    ObservationSet,
    StepCdf,
    evaluate,
    flip_outcomes,
    step_sums,
    substream,
    tail_view,
)


def ecdf(sample) -> StepCdf:
    """Empirical CDF as a step function: value just above each distinct
    point is the fraction of the sample at or below it."""
    ys = np.sort(np.asarray(sample, dtype=float))
    knots, counts = np.unique(ys, return_counts=True)
    return StepCdf(knots, np.cumsum(counts) / ys.size)


def classical_quantile(sample, q):
    """Left-continuous inverse of the empirical CDF, by linear scan."""
    ys = sorted(sample)
    n = len(ys)
    for i, v in enumerate(ys, start=1):
        if i / n >= q:
            return v
    raise AssertionError("level above 1 requested")


# ---------------------------------------------------------------- evaluate

def test_evaluate_worked_points():
    cdf = StepCdf(np.array([1.0, 2.0, 3.0]), np.array([1 / 3, 2 / 3, 1.0]))
    assert evaluate(cdf, 2.5) == pytest.approx(2 / 3)
    assert evaluate(cdf, 0.5) == 0.0
    assert evaluate(cdf, 3.5) == 1.0


def test_evaluate_left_continuous_at_knots():
    # at a knot the strict count 1{Y < y} applies: for the sample {1,2,3}
    # only one point lies strictly below 2
    sample = [1.0, 2.0, 3.0]
    cdf = ecdf(sample)
    strict_frac = sum(v < 2.0 for v in sample) / len(sample)
    assert evaluate(cdf, 2.0) == pytest.approx(strict_frac) == pytest.approx(1 / 3)


def test_evaluate_vectorized_matches_scalar():
    cdf = StepCdf(np.array([0.0, 1.5, 4.0]), np.array([0.2, 0.9, 1.0]))
    ys = np.array([-1.0, 0.0, 0.7, 1.5, 2.0, 4.0, 9.0])
    vec = evaluate(cdf, ys)
    assert vec.shape == ys.shape
    for y, v in zip(ys, vec):
        assert evaluate(cdf, float(y)) == v


def test_stepcdf_validation():
    with pytest.raises(ValueError):
        StepCdf(np.array([1.0, 1.0]), np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        StepCdf(np.array([1.0, 2.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        StepCdf(np.array([1.0, np.nan]), np.array([0.5, 1.0]))


# ------------------------------------------------------------- rearrange

def test_rearrange_worked_example():
    # the proper-CDF view: running maximum, rescaled to end at 1, clipped
    cdf = StepCdf(np.array([1.0, 2.0, 3.0]), np.array([-0.05, 0.5, 1.08]))
    view = tail_view(cdf)
    assert np.array_equal(view.knots, cdf.knots)
    assert np.allclose(view.values, [0.0, 0.5 / 1.08, 1.0])


def test_rearrange_subnormal_peak_clips_instead_of_overflowing():
    # -2 / 5e-324 overflows to -inf; the clip takes it to 0 without a
    # RuntimeWarning (which the test configuration turns into an error)
    cdf = StepCdf(np.array([1.0, 2.0, 3.0]), np.array([-2.0, 5e-324, 0.0]))
    assert np.array_equal(tail_view(cdf).values, [0.0, 1.0, 1.0])


@given(st.lists(st.floats(-2, 3, allow_nan=False), min_size=1, max_size=40))
def test_rearrange_properties(vals):
    knots = np.arange(len(vals), dtype=float)
    cdf = StepCdf(knots, np.array(vals))
    if max(vals) <= 0.0:
        with pytest.raises(DegenerateDenominator):
            tail_view(cdf)
        return
    view = tail_view(cdf)
    assert np.all(np.diff(view.values) >= 0)
    assert np.all((view.values >= 0) & (view.values <= 1))
    assert view.values[-1] == 1.0
    # idempotent
    assert np.array_equal(tail_view(view).values, view.values)


# ------------------------------------------------------------------ flip

def _direct(y):
    y = np.asarray(y, dtype=float)
    return ObservationSet(design="direct", y=y, d=np.zeros(y.size, dtype=int))


@given(st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=30))
def test_flip_is_involution(y):
    data = _direct(y)
    back = flip_outcomes(flip_outcomes(data))
    assert np.array_equal(back.y, data.y)
    assert back.design == data.design


def test_flip_quantile_mapping_20_points():
    # lower-tail quantile at q on the original sample equals the negated
    # upper-tail quantile at 1 - q on the flipped sample
    rng = substream(20240, 1)
    y = rng.normal(size=20)
    q = 0.01
    lower = classical_quantile(y, q)
    upper_flipped = classical_quantile(-y, 1 - q)
    assert lower == -upper_flipped


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=41),
    st.integers(1, 99),
)
@settings(max_examples=150)
def test_flip_quantile_mapping_property(y, qpct):
    # keep q*n off the integer lattice so both inversions pick the same
    # order statistic
    n = len(y)
    q = qpct / 100
    if abs(q * n - round(q * n)) < 1e-9:
        return
    lower = classical_quantile(y, q)
    upper_flipped = classical_quantile(np.negative(y), 1 - q)
    assert lower == -upper_flipped


def test_flipped_difference_of_quantiles_sign():
    # two-sample treatment-effect version of the mapping at q = 0.01
    rng = substream(20240, 2)
    y1, y0 = rng.normal(size=20), rng.normal(size=20) + 1.0
    q = 0.01

    def lower_qte(a, b, level):
        qa = classical_quantile(a, level)
        qb = classical_quantile(b, level)
        return qa - qb

    def upper_qte_flipped(a, b, level):
        qa = classical_quantile(-a, level)
        qb = classical_quantile(-b, level)
        return qa - qb

    assert lower_qte(y1, y0, q) == -upper_qte_flipped(y1, y0, 1 - q)


# --------------------------------------------------------- observation set

def test_observation_set_validation():
    y = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        ObservationSet(design="iv", y=y, d=np.array([0, 2]), z=np.array([0, 1]), x=np.eye(2))
    with pytest.raises(ValueError):
        ObservationSet(design="iv", y=y, d=np.array([0, 1]))
    with pytest.raises(ValueError):
        ObservationSet(design="rdd", y=y, d=np.array([0, 1]))
    with pytest.raises(ValueError):
        ObservationSet(design="mystery", y=y, d=np.array([0, 1]))


def test_observation_set_subset():
    data = ObservationSet(
        design="iv",
        y=np.array([1.0, 2.0, 3.0]),
        d=np.array([0, 1, 1]),
        z=np.array([0, 1, 0]),
        x=np.arange(6.0).reshape(3, 2),
    )
    sub = data.subset(np.array([2, 0]))
    assert np.array_equal(sub.y, [3.0, 1.0])
    assert np.array_equal(sub.z, [0, 0])
    assert sub.x.shape == (2, 2)


def test_observation_set_gathers_rows_from_contiguous_columns():
    # y and x given as strided views of one wider table
    rng = np.random.default_rng(2)
    table = rng.standard_normal((50, 6))
    data = ObservationSet(design="iv", y=table[:, 0], d=table[:, 1] > 0, z=table[:, 2] > 0,
                          x=table[:, 3:])
    assert data.y.flags.c_contiguous and data.x.flags.c_contiguous
    idx = rng.choice(50, 20, replace=False)
    sub = data.subset(idx)
    assert sub.x.flags.c_contiguous and sub.x.shape == (20, 3)
    assert sub.x.tobytes() == table[:, 3:][idx].tobytes()
    assert sub.y.tobytes() == table[idx, 0].tobytes()
    with pytest.raises(ValueError):  # a 0-d y is no 1-d array, contiguous or not
        ObservationSet(design="direct", y=1.0, d=np.array([1]))


# ------------------------------------------------------------- substreams

def test_substream_reproducible_and_independent():
    a1 = substream(7, 0, 3).standard_normal(5)
    a2 = substream(7, 0, 3).standard_normal(5)
    b = substream(7, 0, 4).standard_normal(5)
    c = substream(8, 0, 3).standard_normal(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_substream_order_independent():
    # consuming stream 5 first must not change what stream 2 yields
    first = substream(11, 2).standard_normal(4)
    _ = substream(11, 5).standard_normal(1000)
    second = substream(11, 2).standard_normal(4)
    assert np.array_equal(first, second)


# --------------------------------------------------------- step-CDF kernel

def test_step_sums_knots_at_last_entry_of_each_tie():
    ys = np.array([[1.0, 2.0, 2.0, 3.0, 3.0, 4.0], [0.0, 0.0, 1.0, 1.0, 5.0, 6.0]])
    weights = np.arange(1.0, 13.0).reshape(2, 6)
    at_knot, sums = step_sums(ys, np.stack([weights, 2.0 * weights]))
    assert at_knot.tolist() == [[True, False, True, False, True, True],
                                [False, True, False, True, True, True]]
    assert sums[0][at_knot].tolist() == [1.0, 6.0, 15.0, 21.0, 15.0, 34.0, 45.0, 57.0]
    assert np.array_equal(sums[1], 2.0 * sums[0])
    # the one-row case
    at_knot, counts = step_sums(ys[1], np.ones(6))
    assert ys[1][at_knot].tolist() == [0.0, 1.0, 5.0, 6.0]
    assert counts[at_knot].tolist() == [2.0, 4.0, 5.0, 6.0]
