"""Shared data model: observation sets, ranked samples and their step
CDFs, proper-CDF views, outcome flipping and reproducible RNG substreams.

Counterfactual CDF estimators in this package return raw step functions
that need not be monotone or stay inside [0, 1]. Tail fits read them
through a proper-CDF view (tail_view), which is monotone and ends at
exactly 1, so threshold lookups on it are always well defined.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Literal, NamedTuple

import numpy as np

Design = Literal["iv", "rdd", "direct"]
DENOM_EPS = 1e-10  # the smallest complier mass an instrument CDF divides by


class EstimationError(Exception):
    """Base class for failures of the estimation pipeline."""


class DegenerateDenominator(EstimationError):
    """Estimated complier mass is numerically zero, or the instrument is
    constant; the design carries no identifying variation for the
    counterfactual CDFs."""


def _check_finite(arr: np.ndarray, name: str) -> np.ndarray:
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_binary(arr: np.ndarray, name: str) -> np.ndarray:
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError(f"{name} must be 0/1 valued")
    return arr


@dataclass(frozen=True)
class ObservationSet:
    """Unit-level records for one research design.

    design "iv":     outcome y, treatment d, binary instrument z,
                     covariate matrix x of shape (n, k).
    design "rdd":    outcome y, treatment d, running variable r with the
                     cutoff normalized to 0.
    design "direct": outcome y and treatment d only; each arm's CDF is
                     read straight off the corresponding subsample.
    """

    design: Design
    y: np.ndarray
    d: np.ndarray
    z: np.ndarray | None = None
    x: np.ndarray | None = None
    r: np.ndarray | None = None

    def __post_init__(self):
        y = _check_finite(np.asarray(self.y, dtype=float), "y")
        if y.ndim != 1 or y.size == 0:
            raise ValueError("y must be a non-empty 1-d array")
        n = y.size
        d = np.asarray(self.d)
        if d.shape != (n,):
            raise ValueError("d must match y in length")
        d = _check_binary(d, "d").astype(np.int8)
        # stored C-contiguous, so that subset gathers whole rows from
        # adjacent memory, not from every column of a wider parsed table
        object.__setattr__(self, "y", np.ascontiguousarray(y))
        object.__setattr__(self, "d", d)
        if self.design == "iv":
            if self.z is None or self.x is None:
                raise ValueError("iv design needs z and x")
            z = np.asarray(self.z)
            if z.shape != (n,):
                raise ValueError("z must match y in length")
            z = _check_binary(z, "z").astype(np.int8)
            x = _check_finite(np.asarray(self.x, dtype=float), "x")
            if x.ndim != 2 or x.shape[0] != n:
                raise ValueError("x must be a 2-d array with one row per unit")
            object.__setattr__(self, "z", z)
            object.__setattr__(self, "x", np.ascontiguousarray(x))
        elif self.design == "rdd":
            if self.r is None:
                raise ValueError("rdd design needs the running variable r")
            r = _check_finite(np.asarray(self.r, dtype=float), "r")
            if r.shape != (n,):
                raise ValueError("r must match y in length")
            object.__setattr__(self, "r", r)
        elif self.design != "direct":
            raise ValueError(f"unknown design {self.design!r}")

    @property
    def n(self) -> int:
        return self.y.size

    def subset(self, idx: np.ndarray) -> "ObservationSet":
        """Row subset. Rows of a validated set are valid and their dtypes
        already normalised, so validation does not re-run."""
        out = object.__new__(ObservationSet)
        out.__dict__.update(
            design=self.design,
            y=self.y[idx],
            d=self.d[idx],
            z=None if self.z is None else self.z[idx],
            x=None if self.x is None else np.take(self.x, idx, axis=0),
            r=None if self.r is None else self.r[idx],
        )
        return out


def flip_outcomes(data: ObservationSet) -> ObservationSet:
    """Negate outcomes so a lower-tail analysis becomes an upper-tail one.

    An involution: flipping twice restores the input. A lower-tail
    quantile level q on the original data corresponds to the upper-tail
    level 1 - q on flipped data, and quantile estimates map back with a
    sign change.
    """
    return replace(data, y=-data.y)


@dataclass(frozen=True)
class StepCdf:
    """Piecewise-constant CDF estimate on a strictly increasing knot grid.

    values[i] is the estimate just above knots[i]. Evaluation is
    left-continuous: 0 below the first knot, values[i-1] on
    (knots[i-1], knots[i]], and values[-1] above the last knot. Values
    are stored raw; they may leave [0, 1] or be non-monotone, and no
    clipping happens here.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = _check_finite(np.asarray(self.knots, dtype=float), "knots")
        values = _check_finite(np.asarray(self.values, dtype=float), "values")
        if knots.ndim != 1 or knots.size == 0:
            raise ValueError("knots must be a non-empty 1-d array")
        if values.shape != knots.shape:
            raise ValueError("values must match knots in shape")
        if knots.size > 1 and not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be strictly increasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def shifted(self, delta: float) -> "StepCdf":
        return StepCdf(self.knots + delta, self.values)


def step_sums(ys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted step-CDF kernel: running weight totals read at the knots.

    ys holds outcomes sorted ascending along its last axis, one row per
    sample; a 1-d array is the one-row case. weights holds per-unit
    weights in the same order, shape ys.shape or (k, *ys.shape) for k
    weight arrays at once.

    Returns (at_knot, sums). sums holds the running totals along the
    last axis, written over weights (a float array the caller builds for
    the call), and at_knot marks the last entry of each run of tied
    outcomes, so a knot's total counts every tied unit.
    """
    at_knot = np.ones(ys.shape, dtype=bool)
    at_knot[..., :-1] = ys[..., 1:] != ys[..., :-1]
    return at_knot, np.cumsum(weights, axis=-1, out=weights)


def row_totals(terms: np.ndarray) -> np.ndarray:
    """Each row's total along the last axis, added in order (np.sum's
    pairwise blocks would make it depend on the row's length and so on
    its zero padding), -0.0 as 0.0; 0 for empty rows."""
    if not terms.shape[-1]:
        return np.zeros(terms.shape[:-1])
    return np.cumsum(terms, axis=-1)[..., -1] + 0.0


class RankedSample(NamedTuple):
    """A sample ranked by outcome once, stably (tied outcomes keep their
    input row order): each unit's rank (smallest integer type), then in
    rank order the outcomes, both arms' weights (shape (2, n), arm 1
    first) and the instrument design's complier-mass terms (None in the
    direct design, whose weights are d and 1 - d). The arrays are
    read-only: the fitted CDFs and the draws share them."""

    rank: np.ndarray
    y: np.ndarray
    weights: np.ndarray
    wd: np.ndarray | None


def rank_sample(y: np.ndarray, weights: np.ndarray, wd: np.ndarray | None = None) -> RankedSample:
    """RankedSample of y, weights (2, n) and wd, given in input row order."""
    order = np.argsort(y, kind="stable")
    rank = np.empty(y.size, dtype=np.min_scalar_type(y.size - 1))
    rank[order] = np.arange(y.size)
    sample = RankedSample(rank, y[order], np.take(weights, order, axis=1),
                          None if wd is None else wd[order])
    for a in sample:
        if a is not None:
            a.flags.writeable = False
    return sample


def arm_cdf_rows(sample: RankedSample, units: np.ndarray):
    """Both arms' CDFs on each row of a (rows x m) array of unit ranks.

    The complier mass is the mean of a row's wd in the row's order (index
    order for a subset); the running sums follow rank order, which sums
    tied outcomes in input row order. Returns (ys, at_knot, values, ok):
    each row's outcomes in rank order; each arm's knots and values, shape
    (2, rows, m), arm 1 first (a direct arm's knots are those where its
    count rose); and a mask of the rows with a complier mass of at least
    DENOM_EPS in size or both arms present, whose values are not NaN.
    """
    m = units.shape[-1]
    if sample.wd is not None:
        mass = np.take(sample.wd, units).mean(axis=1)
        ok = np.abs(mass) >= DENOM_EPS
        totals = np.where(ok, m * mass, np.nan)
    units = np.sort(units, axis=1)
    # np.take gathers with the small rank type much faster than indexing
    ys = np.take(sample.y, units)
    at_knot, sums = step_sums(ys, np.take(sample.weights, units, axis=1))
    if sample.wd is None:
        counts = sums[:, :, -1]
        ok = (counts > 0.0).all(axis=0)
        totals = np.where(counts > 0.0, counts, np.nan)
        last = np.maximum.accumulate(np.where(at_knot, sums, 0.0), axis=-1)
        at_knot = at_knot & (np.diff(last, axis=-1, prepend=0.0) > 0.0)
    sums /= totals[..., None]
    return ys, np.broadcast_to(at_knot, sums.shape), sums, ok


def ranked_cdfs(sample: RankedSample) -> tuple[StepCdf, StepCdf]:
    """The full sample's (treated, control) CDFs: the one-row case of
    arm_cdf_rows. An arm whose every outcome is a knot (untied instrument
    outcomes) takes sample.y itself as knots and a view of the one
    running-sum matrix, made read-only, as values; the others copy
    their knot entries out."""
    _, at_knot, values, ok = arm_cdf_rows(sample, sample.rank[None])
    if not ok[0]:
        raise DegenerateDenominator("no complier mass or an empty arm: no CDF to build")
    values.flags.writeable = False
    return tuple(StepCdf(*(a if at.all() else a[at] for a in (sample.y, v)))
                 for at, v in zip(at_knot[:, 0], values[:, 0]))


def evaluate(cdf: StepCdf, y) -> np.ndarray | float:
    """Left-continuous evaluation of a step CDF at scalar or array y."""
    y_arr = np.asarray(y, dtype=float)
    # number of knots strictly below y gives the active segment
    idx = np.searchsorted(cdf.knots, y_arr, side="left")
    padded = np.concatenate(([0.0], cdf.values))
    out = padded[idx]
    return float(out) if np.isscalar(y) or y_arr.ndim == 0 else out


def tail_view(cdf: StepCdf) -> StepCdf:
    """Proper-CDF view of a raw step CDF for tail estimation.

    Weighted CDF estimates wander around their terminal level instead of
    landing on 1, and the wobble is of the same order as the tail
    probabilities we want to measure. Feeding the raw values into a tail
    fit therefore mostly measures sampling noise in the normalisation.
    The view takes the running maximum of the raw values and rescales by
    the global maximum, so the last knot sits at exactly 1 and threshold
    selection is always well defined. Clipping happens only after the
    rescaling: an early noise peak above 1 deflates the whole curve
    slightly instead of freezing it at 1 and erasing the tail. Ratios of
    survival levels, which is all the tail fit consumes, are unchanged
    by the rescaling.
    """
    view, degenerate = tail_view_rows(cdf.values[None])
    if degenerate[0]:
        raise DegenerateDenominator("CDF estimate has no positive mass")
    return StepCdf(cdf.knots, view[0])


def tail_view_rows(
    values: np.ndarray, at_knot: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """tail_view of each row of a (..., samples x m) array of CDF values.

    Only the entries marked at_knot (all, when omitted; it broadcasts
    against values) are values; the others take the value of the
    preceding knot, or 0 before the first. Returns (view, degenerate);
    degenerate flags the rows whose values never rise above 0, where
    tail_view raises.
    """
    if at_knot is None:
        view = np.array(values, dtype=float)
    else:
        view = np.where(at_knot, values, -np.inf)
    np.maximum.accumulate(view, axis=-1, out=view)
    top = view[..., -1:].copy()
    # below a subnormal peak a negative value overflows to -inf, which
    # the clip takes to 0 like any other negative value
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        view /= top
    np.clip(view, 0.0, 1.0, out=view)
    return view, ~(top[..., 0] > 0.0)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for a (seed, key) pair, independent across keys.

    Replication k of a run with master seed s always sees the stream
    substream(s, ..., k) no matter how work is scheduled, which makes
    simulation output independent of worker count.

    The stream is np.random.default_rng(np.random.SeedSequence(seed,
    spawn_key=key)), bit for bit. Building that seed sequence costs more
    than drawing a subsample's indices from it, so for a non-negative
    integer seed and key the PCG64 seed words come from a block of
    SEED_BLOCK consecutive last keys, mixed at once (_seed_block).
    """
    generator, pcg64 = _random()
    if key and all(isinstance(v, (int, np.integer)) and v >= 0 for v in (seed, *key)):
        block, at = divmod(int(key[-1]), SEED_BLOCK)
        words = _seed_block(int(seed), tuple(map(int, key[:-1])), block)[at]
        return generator(pcg64(_SeedWords(words, seed, key)))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@functools.lru_cache(maxsize=None)
def _random():
    """numpy.random's Generator and PCG64, imported on first use, so that
    importing xqte does not import numpy.random; _SeedWords is registered
    as a seed sequence then too."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISpawnableSeedSequence

    ISpawnableSeedSequence.register(_SeedWords)
    return Generator, PCG64


class _SeedWords:
    """The seed sequence substream hands its PCG64: generate_state(4,
    np.uint64), all that PCG64 asks of it, returns the precomputed words;
    everything else (entropy, spawn_key, pool_size, n_children_spawned,
    spawn, other generate_state calls, pickling) goes to the
    np.random.SeedSequence(seed, spawn_key=key) it stands for, built on
    first use."""

    def __init__(self, words: np.ndarray, seed: int, key: tuple):
        self._words, self._seed, self._key, self._seq = words, seed, key, None

    def _sequence(self):
        if self._seq is None:
            self._seq = np.random.SeedSequence(self._seed, spawn_key=self._key)
        return self._seq

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:
            return self._words.copy()
        return self._sequence().generate_state(n_words, dtype)

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._sequence(), name)

    def __reduce__(self):
        return self._sequence().__reduce__()


# last keys per block of seed words, and the constants of numpy's
# SeedSequence (numpy/random/bit_generator.pyx): a 4-word pool, its
# hash and mix multipliers, and 32-bit words. SEED_BLOCK divides 2^32,
# so the keys of a block, which starts at a multiple of it, all have as
# many 32-bit words
SEED_BLOCK = 512
_POOL_SIZE = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words32(value: int) -> list[int]:
    """A non-negative integer's 32-bit words, least significant first; 0
    is one word."""
    return [value >> s & _MASK32 for s in range(0, max(value.bit_length(), 1), 32)]


# a replication of a simulation uses two blocks, its data's and its draws'
@functools.lru_cache(maxsize=8)
def _seed_block(seed: int, head: tuple[int, ...], block: int) -> np.ndarray:
    """SeedSequence(seed, spawn_key=head + (k,)).generate_state(4,
    np.uint64) for the SEED_BLOCK last keys k from block * SEED_BLOCK
    on, as a (SEED_BLOCK, 4) array.

    numpy's mixing, word by word: with a spawn key, the seed's words are
    padded to the pool size, so they fill the pool and the key's words
    are mixed in after it. Only the last key's low word differs across
    the block; it is a uint32 array, every other word a Python int kept
    to 32 bits, and the same expressions serve both.
    """
    last = _words32(block * SEED_BLOCK)
    low = np.arange(SEED_BLOCK, dtype=np.uint32) + np.uint32(last[0])
    entropy = _words32(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    for k in head:
        entropy += _words32(k)
    entropy += [low, *last[1:]]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        out = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
        return out ^ out >> 16

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state: 8 words off the cycled pool, paired little-endian
    hash_const = _INIT_B
    state = np.empty((SEED_BLOCK, 2 * _POOL_SIZE), dtype="<u4")
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state[:, i] = value ^ value >> 16
    words = state.view("<u8").astype(np.uint64)
    words.flags.writeable = False  # shared by every call that hits the cache
    return words
