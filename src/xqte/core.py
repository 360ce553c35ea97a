"""Shared data model: observation sets, ranked samples and their step
CDFs, proper-CDF views, outcome flipping, reproducible RNG substreams,
and the fork pool that runs independent tasks on worker processes.

Counterfactual CDF estimators in this package return raw step functions
that need not be monotone or stay inside [0, 1]. Tail fits read them
through a proper-CDF view (tail_view), which is monotone and ends at
exactly 1, so threshold lookups on it are always well defined.
"""

from __future__ import annotations

import os
import sys
import types
from dataclasses import dataclass, replace
from typing import Callable, Literal, NamedTuple, Sequence

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


class RankedSample(NamedTuple):
    """A sample ranked by outcome once, stably (tied outcomes keep their
    input row order): each unit's rank (smallest integer type), then in
    rank order the outcomes, both arms' weights (shape (2, n), arm 1
    first) and the instrument design's complier-mass terms (None in the
    direct design, whose weights are d and 1 - d)."""

    rank: np.ndarray
    y: np.ndarray
    weights: np.ndarray
    wd: np.ndarray | None


def rank_sample(y: np.ndarray, weights: np.ndarray, wd: np.ndarray | None = None) -> RankedSample:
    """RankedSample of y, weights (2, n) and wd, given in input row order."""
    order = np.argsort(y, kind="stable")
    rank = np.empty(y.size, dtype=np.min_scalar_type(y.size - 1))
    rank[order] = np.arange(y.size)
    return RankedSample(rank, y[order], np.take(weights, order, axis=1),
                        None if wd is None else wd[order])


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
    arm_cdf_rows."""
    ys, at_knot, values, ok = arm_cdf_rows(sample, sample.rank[None])
    if not ok[0]:
        raise DegenerateDenominator("no complier mass or an empty arm: no CDF to build")
    return tuple(StepCdf(ys[0, at[0]], v[0, at[0]]) for at, v in zip(at_knot, values))


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
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _wrapped_from_outside() -> bool:
    """Whether a function of this package has been wrapped with
    functools.wraps at run time, as tracers and profilers do. What they
    record stays in the memory of the process that makes the call, so the
    calls of a replication run on a forked worker would be lost to them."""
    package = __name__.partition(".")[0]
    functions = [ObservationSet.subset, StepCdf.__post_init__]
    for name, module in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            functions += [v for v in vars(module).values() if isinstance(v, types.FunctionType)]
    return any(hasattr(fn, "__wrapped__") for fn in functions)


# rows touched from which a Monte Carlo run forks its replications
# (simulate.run_mc): n, and b per subsample draw, in each. Set from
# end-to-end pairs of `xqte simulate` at n = 10^4 on 2 CPUs (CHANGES.md):
# two replications of the discontinuity design with B = 500 (651,000
# rows touched) ran faster forked in 9 of 10 pairs (the instrument
# design's did not resolve), with B = 250 (335,500) faster in process in
# 9 of 10; B = 350, and n = 5000 with B = 500, did not resolve and stay
# in process, where they cost less CPU. Estimates never fork
FORK_MIN_ROWS = 2**19


def fork_workers(tasks: int, rows: int) -> int:
    """How many forked workers fork_map runs a list of tasks on, given
    its length and the rows it touches: one per usable CPU (the CPUs this
    process may run on), at most one per task, and 1 below FORK_MIN_ROWS
    rows touched, which then never imports multiprocessing. It is also 1
    without the fork start method, inside a pool worker (a daemon
    process, which may not fork), while another Python thread is alive
    (a forked child inherits the locks that thread holds and can deadlock
    on them) and when a function has been wrapped at run time
    (_wrapped_from_outside)."""
    workers = min(_usable_cpus(), tasks)
    if workers < 2 or rows < FORK_MIN_ROWS:
        return 1
    import multiprocessing
    import threading

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1
            or _wrapped_from_outside()):
        return 1
    return workers


# a fork_map worker's function and task list, set by the pool's
# initializer in the worker only; under fork the initializer's arguments
# are inherited with the process, so neither is pickled
_fork_job: tuple[Callable, Sequence[tuple]] | None = None


def _install_job(job: tuple[Callable, Sequence[tuple]]) -> None:
    global _fork_job
    _fork_job = job


def _run_task(i: int):
    fn, tasks = _fork_job
    return fn(*tasks[i])


def fork_map(fn: Callable, tasks: Sequence[tuple], rows: int) -> list:
    """[fn(*task) for task in tasks], in task order, on a pool of
    fork_workers(len(tasks), rows) forked processes, which is shut down and
    joined before this returns or raises. Its one caller is simulate.run_mc,
    with one task per replication. fn and the tasks reach the workers by
    fork inheritance, so closures and large arrays need no pickling; only
    task numbers go out and results come back. With one worker everything
    runs in this process. An exception in a worker is re-raised here."""
    workers = fork_workers(len(tasks), rows)
    if workers < 2:
        return [fn(*task) for task in tasks]
    import multiprocessing

    context = multiprocessing.get_context("fork")
    with context.Pool(workers, initializer=_install_job, initargs=((fn, tasks),)) as pool:
        # leaving the block after an error terminates and joins the pool
        out = pool.map(_run_task, range(len(tasks)))
        pool.close()
        pool.join()
    return out
