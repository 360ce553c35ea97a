"""Tail-index fitting, quantile extrapolation, and the bias oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from xqte.core import EstimationError, StepCdf, evaluate, substream
from xqte.tail import (
    EmptyTail,
    InvalidAlpha,
    NonPositiveSurvival,
    NotBeyondThreshold,
    ShiftMergesKnots,
    TailFit,
    extrapolated_quantiles,
    fit_arm,
    fit_tail,
    pareto_index,
    qte_point,
    tail_index_rows,
)

import oracles
from oracles import SecondOrderSpec, pareto_index_analytic


def quad_index_oracle(cdf, y_min, omega):
    """Numeric-quadrature version of the tail-index ratio on a step CDF.

    Walks the constancy pieces above the threshold, drops pieces with
    non-positive survival, truncates after the last positive piece, and
    integrates numerator and denominator with scipy.quad.
    """

    def w(y):
        return y ** (-omega - 1.0) / y_min ** (-omega)

    s_min = 1.0 - evaluate(cdf, y_min)
    assert s_min > 0
    uppers = [float(k) for k in cdf.knots if k > y_min]
    assert uppers, "oracle needs knots beyond the threshold"
    pieces = []
    edges = [y_min] + uppers
    for a, b in zip(edges[:-1], edges[1:]):
        pieces.append((a, b, 1.0 - evaluate(cdf, 0.5 * (a + b))))
    pieces.append((uppers[-1], np.inf, 1.0 - float(cdf.values[-1])))
    while pieces and pieces[-1][2] <= 0:
        pieces.pop()
    num = den = 0.0
    for a, b, s in pieces:
        if s <= 0:
            continue
        num += quad(lambda y: np.log(s / s_min) * w(y), a, b, epsabs=1e-13, limit=200)[0]
        den += quad(lambda y: np.log(y / y_min) * w(y), a, b, epsabs=1e-13, limit=200)[0]
    return -num / den


def ecdf(sample) -> StepCdf:
    ys = np.sort(np.asarray(sample, dtype=float))
    knots, counts = np.unique(ys, return_counts=True)
    return StepCdf(knots, np.cumsum(counts) / ys.size)


def pareto_sample(rng, alpha, n):
    return rng.random(n) ** (-1.0 / alpha)


def first_crossing(cdf, level):
    """First knot where the CDF reaches level (so does its running
    maximum), for a level the CDF reaches."""
    return float(cdf.knots[np.argmax(cdf.values >= level)])


def classical_quantile(sample, q):
    """Left-continuous inverse of the empirical CDF, by linear scan."""
    ys = sorted(sample)
    n = len(ys)
    for i, v in enumerate(ys, start=1):
        if i / n >= q:
            return v
    raise AssertionError("level above 1 requested")


# ------------------------------------------------------------ threshold

def test_fit_tail_threshold_is_first_crossing():
    cdf = StepCdf(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.5, 0.96, 0.98, 1.0]))
    assert fit_tail(cdf, 0.975).y_min == 3.0
    assert fit_tail(cdf, 0.9).y_min == 2.0
    with pytest.raises(ValueError):
        fit_tail(cdf, 1.0)
    # the empirical CDF of {1, 2, 3}, at and between its steps
    cdf = ecdf([1.0, 2.0, 3.0])
    assert fit_tail(cdf, 0.5).y_min == 2.0
    assert fit_tail(cdf, 0.34).y_min == 2.0
    assert fit_tail(cdf, 1 / 3).y_min == 1.0


@given(
    st.lists(st.integers(1, 10**6).map(float), min_size=1, max_size=50),
    st.floats(0.01, 0.99),
)
@settings(max_examples=200)
def test_fit_tail_threshold_matches_classical_sample_quantile(sample, q):
    expected = classical_quantile(sample, q)
    if expected == max(sample):
        with pytest.raises(EmptyTail):
            fit_tail(ecdf(sample), q)
    else:
        assert fit_tail(ecdf(sample), q).y_min == expected


# ----------------------------------------------------------- step index

def test_pareto_index_worked_step_example():
    # survival 1 on [1,2), 0.25 on [2,4), 0 beyond; omega 1, threshold 1
    cdf = StepCdf(np.array([2.0, 4.0]), np.array([0.75, 1.0]))
    fit = pareto_index(cdf, y_min=1.0, omega=1.0)
    num = np.log(0.25) * (1.0 / 2.0 - 1.0 / 4.0)
    den = quad(lambda y: np.log(y) / y**2, 1.0, 4.0)[0]
    assert fit.alpha_hat == pytest.approx(-num / den, rel=1e-10)
    assert fit.alpha_hat == pytest.approx(0.8591, abs=2e-4)
    assert fit.s_min == 1.0
    assert fit.alpha_hat > 0


@pytest.mark.parametrize("case", range(6))
def test_pareto_index_matches_quadrature_oracle(case):
    rng = substream(701, case)
    m = int(rng.integers(8, 30))
    knots = np.cumsum(rng.uniform(0.1, 2.0, size=m)) + rng.uniform(0.2, 5.0)
    values = np.linspace(0.05, 1.0, m) + rng.normal(scale=0.05, size=m)
    values[-1] = 1.0 if case % 2 == 0 else values[-1]
    cdf = StepCdf(knots, values)
    level = [0.5, 0.6, 0.7][case % 3]
    omega = [0.5, 1.0, 2.0][case % 3]
    y_min = first_crossing(cdf, level)
    fit = pareto_index(cdf, y_min, omega)
    assert fit.alpha_hat == pytest.approx(quad_index_oracle(cdf, y_min, omega), rel=1e-9)


def test_pareto_index_skips_interior_saturated_pieces():
    cdf = StepCdf(
        np.array([1.0, 2.0, 3.0, 4.0]),
        np.array([0.5, 1.2, 0.75, 1.0]),
    )
    y_min = 1.0
    fit = pareto_index(cdf, y_min, omega=1.0)
    assert fit.alpha_hat == pytest.approx(quad_index_oracle(cdf, y_min, 1.0), rel=1e-10)


def test_pareto_index_scale_invariance():
    rng = substream(701, 99)
    cdf = ecdf(pareto_sample(rng, 2.0, 400))
    y_min = first_crossing(cdf, 0.9)
    base = pareto_index(cdf, y_min, omega=1.0)
    for lam in (0.01, 3.0, 1e4):
        scaled = pareto_index(
            StepCdf(cdf.knots * lam, cdf.values), y_min * lam, omega=1.0
        )
        assert scaled.alpha_hat == pytest.approx(base.alpha_hat, rel=1e-12)
        assert scaled.s_min == base.s_min


def test_pareto_index_errors():
    cdf = StepCdf(np.array([1.0, 2.0]), np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        pareto_index(cdf, y_min=-1.0)
    with pytest.raises(ValueError):
        pareto_index(cdf, y_min=1.5, omega=0.0)
    with pytest.raises(EmptyTail):
        pareto_index(cdf, y_min=2.0)
    saturated = StepCdf(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(NonPositiveSurvival):
        pareto_index(saturated, y_min=1.5)


def test_pareto_index_zero_width_tail_is_empty():
    # the threshold sits an ulp below the last knot, where survival drops
    # to zero: the only positive segment has no width in floating point
    cdf = StepCdf(np.array([0.4, 0.8971869061630902]), np.array([0.6, 1.0]))
    with pytest.raises(EmptyTail):
        pareto_index(cdf, y_min=np.nextafter(0.8971869061630902, 0.0))


def test_pareto_index_negative_alpha_flagged_not_raised():
    # survival rises above its threshold value, so the log ratio is positive
    cdf = StepCdf(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.3, 1.0]))
    fit = pareto_index(cdf, y_min=2.0, omega=1.0)
    assert fit.alpha_hat < 0
    # the nonpositive index is rejected when a quantile is asked of it
    with pytest.raises(InvalidAlpha):
        qte_point(fit, fit, 0.9999)
    with pytest.raises(InvalidAlpha):
        extrapolated_quantiles(fit, 0.9999, [fit.alpha_hat])


def test_pareto_index_pinned_survival_keeps_the_index():
    # the index still comes from the shape beyond the threshold; only the
    # recorded survival and the scale follow the pinned value
    cdf = StepCdf(np.array([2.0, 4.0]), np.array([0.75, 1.0]))
    free = pareto_index(cdf, y_min=1.5, omega=1.0)
    pinned = pareto_index(cdf, y_min=1.5, omega=1.0, s_min=0.4)
    assert pinned.alpha_hat == free.alpha_hat
    assert pinned.s_min == 0.4 and free.s_min == 1.0
    assert pinned.c_hat == 0.4 * 1.5**free.alpha_hat


@pytest.mark.parametrize("knots, values, y_min", [
    ([1.0, 2.0], [0.5, 1.0], 2.0),  # nothing beyond the threshold
    ([1.0, 2.0], [1.0, 1.0], 1.5),  # no survival at the threshold
    ([1.0, 2.0, 3.0], [0.5, 0.3, 1.0], 2.0),  # negative index
    ([1.0, 2.0], [0.5, 1.0], 0.0),  # threshold not positive
    ([0.25, 0.5], [0.5, 1.0], 0.5),  # nothing beyond a threshold in (0, 1)
    ([0.25, 0.5, 0.75], [0.5, 0.5, 1.0], 0.5),  # index 0 at a threshold in (0, 1)
])
def test_pareto_index_pinned_survival_falls_back_to_the_flat_tail(knots, values, y_min):
    fit = pareto_index(StepCdf(np.array(knots), np.array(values)), y_min, s_min=0.1)
    assert fit.alpha_hat == np.inf and fit.s_min == 0.1
    # a flat tail has no Pareto scale, whichever side of 1 its threshold
    # lies (s_min y_min^inf would be 0 below 1), so run.json writes null
    assert fit.c_hat == np.inf
    # the flat tail extrapolates to the threshold itself
    assert extrapolated_quantiles(fit, 0.9, [fit.alpha_hat])[0] == y_min


@st.composite
def step_cdfs_and_thresholds(draw):
    """A raw step CDF (non-monotone, above 1 or ending below 1) and a
    threshold on a knot, between two, an ulp below one, or anywhere."""
    m = draw(st.integers(1, 25))
    gaps = draw(st.lists(st.floats(1e-3, 3.0), min_size=m, max_size=m))
    knots = draw(st.floats(-3.0, 5.0)) + np.cumsum(gaps)
    shape = draw(st.sampled_from(["raw", "monotone", "view"]))
    values = np.array(draw(st.lists(st.floats(-0.3, 1.4), min_size=m, max_size=m)))
    if shape != "raw":
        values = np.maximum.accumulate(np.clip(values, 0.0, 1.0))
        if shape == "view" and values[-1] > 0.0:
            values = values / values[-1]
    i = draw(st.integers(0, m - 1))
    where = draw(st.sampled_from(["on", "between", "below", "anywhere"]))
    if where == "on":
        y_min = knots[i]
    elif where == "between":
        y_min = 0.5 * (knots[i] + (knots[i + 1] if i + 1 < m else knots[i] + 1.0))
    elif where == "below":
        y_min = np.nextafter(knots[i], -np.inf)
    else:
        y_min = draw(st.floats(knots[0] - 1.0, knots[-1] + 1.0))
    # a threshold next to 0 overflows the knot ratios, in either fit
    assume(not 0.0 < y_min < 1e-6)
    return StepCdf(knots, values), float(y_min)


def fit_or_error(fit, cdf, y_min, omega):
    try:
        return fit(cdf, y_min, omega)
    except (ValueError, EstimationError) as err:
        return type(err)


@settings(max_examples=1500, deadline=None)
@given(case=step_cdfs_and_thresholds(), omega=st.sampled_from([0.5, 1.0, 2.0, 3.7]))
def test_pareto_index_matches_scalar_oracle_bit_for_bit(case, omega):
    # the one-row case of tail_index_rows against the former scalar fit
    cdf, y_min = case
    got = fit_or_error(pareto_index, cdf, y_min, omega)
    want = fit_or_error(oracles.pareto_index, cdf, y_min, omega)
    if isinstance(want, type):
        assert got is want
    else:
        fields = ("y_min", "omega", "alpha_hat", "c_hat", "s_min", "shift")
        assert [float(getattr(got, f)).hex() for f in fields] == [
            float(getattr(want, f)).hex() for f in fields
        ]


def test_tail_index_rows_fits_rows_of_any_length():
    # three CDFs as the rows of one matrix, padded with inf knots; the
    # last has nothing to fit beyond its threshold
    cdfs = [
        StepCdf(np.array([2.0, 4.0]), np.array([0.75, 1.0])),
        StepCdf(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.5, 1.2, 0.75, 0.9])),
        StepCdf(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.9, 1.0])),
    ]
    y_min = np.array([1.0, 1.0, 3.0])
    at_knot = np.arange(4) < np.array([[2], [4], [3]])
    knots, values = np.full((3, 4), np.inf), np.ones((3, 4))
    knots[at_knot] = np.concatenate([c.knots for c in cdfs])
    values[at_knot] = np.concatenate([c.values for c in cdfs])
    alpha, s_min = tail_index_rows(knots, values, at_knot, y_min, 1.0)
    for row in range(2):
        fit = pareto_index(cdfs[row], y_min[row])
        assert (alpha[row], s_min[row]) == (fit.alpha_hat, fit.s_min)
    assert np.isnan(alpha[2]) and s_min[2] == pytest.approx(0.1)


def test_tail_index_rows_fits_a_row_alike_wherever_it_sits():
    # a CDF with 40 knots beyond its threshold, fitted as one row of a
    # matrix among other rows, padded with inf knots and led by knots
    # below its threshold, gets the bits of its one-row fit everywhere
    rng = substream(26, 0)
    knots = 1.0 + np.cumsum(rng.uniform(0.05, 1.0, 60))
    values = np.sort(rng.uniform(0.0, 1.0, 60))
    y_min = knots[19]
    others = [(knots[:10] * 1.5, values[:10], knots[3] * 1.5),
              (knots[:30] + 0.5, values[30:], knots[12] + 0.5)]
    for omega in (1.0, 2.0):
        want = oracles.pareto_index(StepCdf(knots, values), y_min, omega)
        got = set()
        for lead in (0, 7, 18):
            for pad in (0, 3, 50):
                for where in range(3):
                    rows = others[:where] + [(knots[lead:], values[lead:], y_min)] + others[where:]
                    width = knots.size - lead + pad
                    at_knot = np.arange(width) < np.array([[k.size] for k, _, _ in rows])
                    k, v = np.full((3, width), np.inf), np.ones((3, width))
                    k[at_knot] = np.concatenate([r[0] for r in rows])
                    v[at_knot] = np.concatenate([r[1] for r in rows])
                    thresholds = np.array([r[2] for r in rows])
                    alpha, s_min = tail_index_rows(k, v, at_knot, thresholds, omega)
                    got.add((alpha[where].hex(), s_min[where].hex()))
        assert got == {(want.alpha_hat.hex(), want.s_min.hex())}


# ------------------------------------------------------- analytic index

@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
def test_analytic_exact_pareto_recovery(omega):
    fit = pareto_index_analytic(lambda y: y**-2.0, y_min=1.0, omega=omega)
    assert fit.alpha_hat == pytest.approx(2.0, abs=1e-12)
    assert fit.c_hat == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0, 4.0])
def test_weight_normalization_identity(omega):
    # integral of log(y/y_min) * w over the full ray equals 1/omega^2;
    # substitute v = (y/y_min)^(-omega) to put quad on a finite interval
    y_min = 3.7
    val = quad(
        lambda v: -np.log(v) / omega**2, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13
    )[0]
    assert val == pytest.approx(1.0 / omega**2, abs=1e-10)
    # cross-check the untransformed integral on a finite stretch plus tail bound
    direct = quad(
        lambda y: np.log(y / y_min) * y ** (-omega - 1) / y_min**-omega,
        y_min,
        np.inf,
        epsabs=1e-12,
        limit=400,
    )[0]
    assert direct == pytest.approx(1.0 / omega**2, abs=1e-8)


def test_analytic_second_order_worked_example():
    spec = SecondOrderSpec(alpha=2.0, d=0.5, rho=1.0)
    y_min, omega = 10.0, 1.0
    bias = spec.index_bias(y_min, omega)
    assert bias == pytest.approx(-0.025)
    fit = pareto_index_analytic(spec.survival, y_min, omega)
    # population index sits near alpha - bias = 2.025
    assert fit.alpha_hat - spec.alpha == pytest.approx(-bias, rel=0.2)


# --------------------------------------------------------------- quantile

def _fit(y_min, alpha, s_min, shift=0.0, omega=1.0):
    return TailFit(
        y_min=y_min,
        omega=omega,
        alpha_hat=alpha,
        c_hat=s_min * y_min**alpha,
        s_min=s_min,
        shift=shift,
    )


def quantile(fit, level):
    """The fit's own extrapolated quantile at the given level."""
    return float(extrapolated_quantiles(fit, level, [fit.alpha_hat])[0])


def test_extreme_quantile_worked_values():
    fit = _fit(y_min=5.0, alpha=2.0, s_min=0.1)
    assert quantile(fit, 0.99) == pytest.approx(5.0 * np.sqrt(10.0))
    # just beyond the threshold the quantile sits at y_min
    eps_level = 1.0 - fit.s_min * 0.999
    assert quantile(fit, eps_level) == pytest.approx(5.0, rel=1e-3)


def test_extreme_quantile_exact_pareto_end_to_end():
    # alpha 2 tail, threshold at the 0.975 level, target level 0.999
    y_min = 0.025**-0.5
    fit = pareto_index_analytic(lambda y: y**-2.0, y_min=y_min, omega=1.0)
    got = quantile(fit, 0.999)
    assert got == pytest.approx(np.sqrt(1000.0), abs=1e-9)


def test_extreme_quantile_errors():
    fit = _fit(y_min=5.0, alpha=2.0, s_min=0.02)
    with pytest.raises(NotBeyondThreshold):
        quantile(fit, 0.96)  # p = 0.04, twice the threshold survival
    with pytest.raises(ValueError):
        quantile(fit, 1.0)


def test_extreme_quantile_allows_slightly_interior_targets():
    # a threshold picked on a discrete CDF overshoots its nominal level,
    # leaving the realized survival a shade below the nominal tail
    # probability; such queries interpolate just below the threshold
    # instead of being refused
    fit = _fit(y_min=5.0, alpha=2.0, s_min=0.02)
    got = quantile(fit, 0.975)
    assert got == pytest.approx(5.0 * (0.02 / 0.025) ** 0.5, rel=1e-12)
    assert got < fit.y_min


def test_extreme_quantile_applies_shift():
    plain = _fit(y_min=4.0, alpha=1.5, s_min=0.05)
    shifted = _fit(y_min=4.0, alpha=1.5, s_min=0.05, shift=9.0)
    assert quantile(shifted, 0.999) == pytest.approx(
        quantile(plain, 0.999) - 9.0
    )


# -------------------------------------------------------------- qte point

def test_qte_point_worked_values():
    fit1 = _fit(y_min=2.0, alpha=1.0, s_min=0.1)
    fit0 = _fit(y_min=3.5, alpha=1.0, s_min=0.04)
    level = 0.98  # p = 0.02: arm quantiles 10 and 7
    assert quantile(fit1, level) == pytest.approx(10.0)
    assert quantile(fit0, level) == pytest.approx(7.0)
    assert qte_point(fit1, fit0, level) == pytest.approx(3.0)
    assert qte_point(fit1, fit1, level) == 0.0


# ------------------------------------------------------------ fit_tail

def test_fit_tail_positive_threshold_no_shift():
    rng = substream(702, 0)
    cdf = ecdf(pareto_sample(rng, 2.0, 1000))
    fit = fit_tail(cdf, level=0.9, omega=1.0)
    assert fit.shift == 0.0
    assert fit.y_min == first_crossing(cdf, 0.9)


def test_fit_tail_shift_protocol_on_nonpositive_threshold():
    rng = substream(702, 1)
    y = pareto_sample(rng, 2.0, 1000) - 50.0  # threshold lands negative
    cdf = ecdf(y)
    y_min = first_crossing(cdf, 0.9)
    assert y_min <= 0
    fit = fit_tail(cdf, level=0.9, omega=1.0)
    assert fit.shift == pytest.approx(1.0 - y_min)
    manual = pareto_index(cdf.shifted(fit.shift), y_min + fit.shift, omega=1.0)
    assert fit.alpha_hat == manual.alpha_hat
    # quantiles come back on the original scale
    q_orig = quantile(fit, 0.999)
    q_shifted_scale = fit.y_min * (fit.s_min / 0.001) ** (1.0 / fit.alpha_hat)
    assert q_orig == pytest.approx(q_shifted_scale - fit.shift)


def test_fit_arm_shifts_threshold_and_knots_alike():
    # a pinned survival rides along the shift; the threshold lands on
    # y_min + (1 - y_min), which need not be exactly 1.0
    cdf = StepCdf(np.array([-0.3, 0.2, 0.9]), np.array([0.5, 0.9, 1.0]))
    y_min = -0.3
    fit = fit_arm(cdf, y_min, s_min=0.1)
    assert fit.shift == 1.0 - y_min and fit.y_min == y_min + fit.shift
    manual = pareto_index(cdf.shifted(fit.shift), fit.y_min, s_min=0.1)
    assert (fit.alpha_hat, fit.s_min, fit.c_hat) == (manual.alpha_hat, 0.1, manual.c_hat)
    # beyond 2^53 the 1 in 1 - y_min is lost, and the threshold lands on
    # 0 although no knots merge
    far = StepCdf(np.array([-1e17, -1e17 + 64.0, -1e17 + 128.0]), np.array([0.5, 0.9, 1.0]))
    for pinned in (None, 0.1):
        with pytest.raises(ShiftMergesKnots):
            fit_arm(far, -1e17, s_min=pinned)


def test_shifted_arm_errors_name_the_callers_threshold():
    # the shifted threshold is always 1; the message names the threshold
    # the caller asked for and the shift that moved it
    empty = StepCdf(np.array([-3.0, -2.0, -1.0, 0.0]), np.array([0.2, 0.5, 0.6, 1.0]))
    saturated = StepCdf(np.array([-3.0, -2.0]), np.array([0.5, 1.0]))
    for cdf, y_min, error, text in ((empty, 0.0, EmptyTail, "threshold 0 shifted by 1: "),
                                    (saturated, -1.5, NonPositiveSurvival,
                                     "threshold -1.5 shifted by 2.5: ")):
        with pytest.raises(error) as raised:
            fit_arm(cdf, y_min)
        assert str(raised.value).startswith(text)


def test_fit_tail_shift_that_merges_knots_is_an_estimation_error():
    # the shift 1 - (-1e20) rounds to 1e20, which maps both small knots
    # onto 1e20; a bare ValueError from StepCdf would escape the CLI's
    # exit codes
    cdf = StepCdf(np.array([-1e20, 1e-10, 2e-10]), np.array([0.98, 0.99, 1.0]))
    with pytest.raises(ShiftMergesKnots):
        fit_tail(cdf, level=0.975)
    assert issubclass(ShiftMergesKnots, EstimationError)


def test_fit_tail_median_alpha_orders_with_truth():
    # heavier tails should fit systematically smaller indices
    meds = {}
    for alpha in (1.0, 3.0):
        fits = []
        for rep in range(200):
            rng = substream(703, int(alpha), rep)
            cdf = ecdf(pareto_sample(rng, alpha, 500))
            fits.append(fit_tail(cdf, level=0.9, omega=1.0).alpha_hat)
        meds[alpha] = np.median(fits)
    assert meds[1.0] < meds[3.0]
    assert meds[1.0] == pytest.approx(1.0, rel=0.35)
    assert meds[3.0] == pytest.approx(3.0, rel=0.35)
