"""Monte Carlo harness for the tail QTE estimators.

Both designs share the same latent structure: units are always-takers,
compliers, or never-takers with equal probability, and potential
outcomes are Student t(10) draws shifted by half the type-specific
effect on each side. The estimand of interest is the complier QTE deep
in the left tail, which is constant across quantile levels by
construction.

Left-tail targets are estimated by negating outcomes and running the
upper-tail pipeline, so the tables below report estimates on the
negated scale: the complier effect of +1 appears as -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cdf_iv import linear_index, logistic
from .core import EstimationError, ObservationSet, flip_outcomes, fork_map, substream
from .inference import QteResult, SubsampleConfig, estimate_qte_batch
from .pipeline import EstimatorSettings, fit_pipeline

IV_GAMMA = np.full(10, 0.1)

# Instrumented designs: always-taker effect 2, complier effect 1,
# never-taker effect 0. Only the complier effect is identified.
_TYPE_EFFECTS = np.array([2.0, 1.0, 0.0])

# On the negated scale a left-tail complier effect of +1 shows up as -1.
TRUE_QTE_IV = -1.0
# The discontinuity design additionally pays a participation bonus of
# 0.1 to every treated unit in both potential outcomes, lifting the
# identified effect to 1.1. If the bonus is read as a nuisance rather
# than part of the estimand the target is 1.0 instead; coverage is
# reported against both candidates.
TRUE_QTE_RDD = -1.1
TRUE_QTE_RDD_ALT = -1.0


def student_t(rng: np.random.Generator, n: int, df: float = 10.0) -> np.ndarray:
    """Student t draws via the normal over root chi-square ratio."""
    z = rng.standard_normal(n)
    v = rng.chisquare(df, n)
    return z / np.sqrt(v / df)


@dataclass(frozen=True, eq=False)
class SimDraw:
    """One simulated dataset plus the latent pieces tests need."""

    data: ObservationSet
    types: np.ndarray  # 0 always-taker, 1 complier, 2 never-taker
    y0: np.ndarray
    y1: np.ndarray


def gen_iv(rng: np.random.Generator, n: int) -> SimDraw:
    """Instrumented design: ten standard normal covariates drive a
    logistic instrument, compliers take treatment when the instrument
    fires."""
    types = rng.integers(3, size=n)
    x = rng.standard_normal((n, 10))
    pz = logistic(linear_index(x, IV_GAMMA))
    z = (rng.random(n) < pz).astype(np.int8)
    t0 = student_t(rng, n)
    t1 = student_t(rng, n)
    te = _TYPE_EFFECTS[types]
    y0 = t0 - te / 2.0
    y1 = t1 + te / 2.0
    d = ((types == 0) | ((types == 1) & (z == 1))).astype(np.int8)
    y = np.where(d == 1, y1, y0)
    data = ObservationSet(design="iv", y=y, d=d, z=z, x=x)
    return SimDraw(data=data, types=types, y0=y0, y1=y1)


def gen_rdd(rng: np.random.Generator, n: int) -> SimDraw:
    """Discontinuity design: standard normal running variable, complier
    participation probability jumps from 1/3 to 2/3 at the cutoff, and
    every treated unit collects an extra 0.1 in both potential
    outcomes."""
    types = rng.integers(3, size=n)
    r = rng.standard_normal(n)
    p_take = 1.0 / 3.0 + (r > 0) / 3.0
    dtil = (rng.random(n) < p_take).astype(np.int8)
    t0 = student_t(rng, n)
    t1 = student_t(rng, n)
    te = _TYPE_EFFECTS[types]
    d = ((types == 0) | ((types == 1) & (dtil == 1))).astype(np.int8)
    y0 = t0 - te / 2.0
    y1 = t1 + te / 2.0 + 0.1
    y = np.where(d == 1, y1, y0)
    data = ObservationSet(design="rdd", y=y, d=d, r=r)
    return SimDraw(data=data, types=types, y0=y0, y1=y1)


def true_qte(design: str) -> float:
    """Target effect on the negated (analysis) scale."""
    if design == "iv":
        return TRUE_QTE_IV
    if design == "rdd":
        return TRUE_QTE_RDD
    raise ValueError(f"no simulated truth for design {design!r}")


@dataclass(frozen=True)
class McConfig:
    design: str
    n_list: tuple[int, ...]
    q_list: tuple[float, ...]
    reps: int
    seed: int
    settings: EstimatorSettings = EstimatorSettings()
    subsample: SubsampleConfig | None = SubsampleConfig()

    def __post_init__(self):
        if self.design not in ("iv", "rdd"):
            raise ValueError(f"unknown simulated design {self.design!r}")
        if not self.n_list:
            raise ValueError("simulate needs at least one sample size (--n)")
        if any(n < 100 for n in self.n_list):
            raise ValueError("each sample size must be at least 100")
        if not self.q_list:
            raise ValueError("the q-list must not be empty")
        if any(not 0.0 < q < 0.5 for q in self.q_list):
            raise ValueError("quantile levels must lie in (0, 0.5): these are left-tail targets")
        if self.reps < 1:
            raise ValueError("simulate needs a positive replication count (--reps)")
        if self.subsample is not None:
            for n in self.n_list:
                self.subsample.validate(n)


@dataclass(frozen=True, eq=False)
class McCell:
    """Summary of one (sample size, quantile) cell of the table."""

    n: int
    q: float
    bias: float
    sd: float
    rmse: float
    coverage: float | None
    coverage_alt: float | None
    n_used: int
    n_failed: int
    estimates: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class McReport:
    config: McConfig
    truth: float
    truth_alt: float | None
    cells: tuple[McCell, ...]


def summarize_cell(estimates: np.ndarray, truth: float) -> tuple[float, float, float]:
    """(bias, sd, rmse) with the population-style sd and the identity
    rmse^2 = bias^2 + sd^2."""
    est = np.asarray(estimates, dtype=float)
    if est.size == 0:
        return np.nan, np.nan, np.nan
    bias = float(est.mean() - truth)
    sd = float(est.std())
    return bias, sd, float(np.hypot(bias, sd))


def _replicate(config: McConfig, n_idx: int, rep: int) -> list[QteResult] | None:
    """Replication rep of sample size n_list[n_idx]: its data come from
    substream (seed, n_idx, rep, 0) and its subsample indices from
    (seed, n_idx, rep, 1, t), so the result does not depend on which
    process runs it or what ran before. Returns one QteResult per level
    of q_list, or None when the estimation raised an EstimationError."""
    gen = gen_iv if config.design == "iv" else gen_rdd
    draw = gen(substream(config.seed, n_idx, rep, 0), config.n_list[n_idx])
    # outcomes are negated up front and the pipeline runs plain
    # upper-tail, so estimates come back on the negated scale the truths
    # use and a lower-tail target q maps to the upper level 1 - q
    try:
        pipe = fit_pipeline(flip_outcomes(draw.data), config.settings, tail_side="upper")
        return estimate_qte_batch(
            pipe,
            [1.0 - q for q in config.q_list],
            config.subsample,
            lambda t: substream(config.seed, n_idx, rep, 1, t),
        )
    except EstimationError:
        return None


def run_mc(config: McConfig) -> McReport:
    """Run the Monte Carlo, one _replicate call per (sample size,
    replication), on forked workers once the rows the replications touch
    reach core.FORK_MIN_ROWS (core.fork_workers). Every replication draws
    from its own substreams, so the report is the same for any worker
    count and any subset of cells can be reproduced in isolation.

    A replication that raises an estimation error anywhere is dropped
    from every cell of its sample size and counted in n_failed. Any
    other exception propagates.
    """
    truth = true_qte(config.design)
    truth_alt = TRUE_QTE_RDD_ALT if config.design == "rdd" else None
    tasks = [(config, n_idx, rep)
             for n_idx in range(len(config.n_list)) for rep in range(config.reps)]
    sub = config.subsample
    rows = sum(n + (sub.resolve_b(n) * sub.draws if sub else 0) for n in config.n_list)
    replications = iter(fork_map(_replicate, tasks, config.reps * rows))

    cells = []
    for n in config.n_list:
        ests = {q: [] for q in config.q_list}
        cover = {q: [] for q in config.q_list}
        cover_alt = {q: [] for q in config.q_list}
        failed = 0
        for _ in range(config.reps):
            results = next(replications)
            if results is None:
                failed += 1
                continue
            for q, res in zip(config.q_list, results):
                ests[q].append(res.estimate)
                if res.ci is not None:
                    cover[q].append(res.ci.lo <= truth <= res.ci.hi)
                    if truth_alt is not None:
                        cover_alt[q].append(res.ci.lo <= truth_alt <= res.ci.hi)
        for q in config.q_list:
            est = np.asarray(ests[q], dtype=float)
            bias, sd, rmse = summarize_cell(est, truth)
            cells.append(
                McCell(
                    n=n,
                    q=q,
                    bias=bias,
                    sd=sd,
                    rmse=rmse,
                    coverage=float(np.mean(cover[q])) if cover[q] else None,
                    coverage_alt=float(np.mean(cover_alt[q])) if cover_alt[q] else None,
                    n_used=est.size,
                    n_failed=failed,
                    estimates=est,
                )
            )
    return McReport(config=config, truth=truth, truth_alt=truth_alt, cells=tuple(cells))


def _censor(value: float | None, width: int = 8) -> str:
    """Table entry, clipping runaway magnitudes the way the summary
    tables do."""
    if value is None or not np.isfinite(value):
        return "na".rjust(width)
    if value > 10.0:
        return ">10".rjust(width)
    if value < -10.0:
        return "<-10".rjust(width)
    return f"{value:{width}.3f}"


def format_report(report: McReport) -> str:
    """Fixed-width table, one row per (n, q) cell."""
    has_alt = report.truth_alt is not None
    header = f"design={report.config.design}  truth={report.truth:.3f}"
    if has_alt:
        header += f"  alt={report.truth_alt:.3f}"
    cols = f"{'n':>7} {'q':>7} {'bias':>8} {'sd':>8} {'rmse':>8} {'cov95':>8}"
    if has_alt:
        cols += f" {'cov95a':>8}"
    cols += f" {'used':>6} {'fail':>6}"
    lines = [header, cols]
    for c in report.cells:
        row = (
            f"{c.n:>7d} {c.q:>7.3f} {_censor(c.bias)} {_censor(c.sd)} "
            f"{_censor(c.rmse)} {_censor(c.coverage)}"
        )
        if has_alt:
            row += f" {_censor(c.coverage_alt)}"
        row += f" {c.n_used:>6d} {c.n_failed:>6d}"
        lines.append(row)
    return "\n".join(lines)
