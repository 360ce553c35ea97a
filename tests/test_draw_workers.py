"""Subsample draws stay in the calling process.

subsample_tail_pairs runs every draw in one call of the draw engine, in
the process that asks for them, at any CPU count and whatever the fork
gate (simulate.FORK_MIN_ROWS). Only a Monte Carlo run forks (simulate.run_mc,
one task per replication), and a replication's draws run inside the
worker that runs it.
"""

import itertools
import multiprocessing
import os
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest

from xqte import inference, simulate
from xqte.cli import main
from xqte.core import ObservationSet, substream
from xqte.inference import SubsampleConfig, subsample_tail_pairs
from xqte.pipeline import EstimatorSettings, fit_pipeline
from xqte.simulate import McConfig, gen_iv, gen_rdd, run_mc


def bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


@contextmanager
def on_cpus(cpus, log_dir):
    """simulate's CPU count patched to cpus and the rows from which work
    forks (simulate.FORK_MIN_ROWS) to 0, so that any work would fork; every
    call of the draw engine leaves a file
    "<pid>-<ppid>-<draws>-<call>" in log_dir, call counting the engine
    calls of its process."""
    calls = itertools.count()

    def logged(engine):
        def run(source, cfg, b, rng_for_draw):
            (log_dir / f"{os.getpid()}-{os.getppid()}-{cfg.draws}-{next(calls)}").touch()
            return engine(source, cfg, b, rng_for_draw)

        return run

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(simulate, "_usable_cpus", return_value=cpus))
        stack.enter_context(mock.patch.object(simulate, "FORK_MIN_ROWS", 0))
        stack.enter_context(mock.patch.object(inference, "_draws", logged(inference._draws)))
        yield


@pytest.fixture
def log(tmp_path):
    """An empty directory for on_cpus' engine log."""
    path = tmp_path / "log"
    path.mkdir()
    return path


def engine_calls(log_dir):
    """(pid, ppid, draws) of each logged engine call; the log is
    emptied."""
    calls = []
    for path in log_dir.iterdir():
        calls.append(tuple(int(v) for v in path.name.split("-")[:3]))
        path.unlink()
    return sorted(calls)


def iv_case():
    # b = 12: some subsets' kappa CDFs never rise above 0 (failed draws)
    # and many tails are flat
    pipe = fit_pipeline(gen_iv(substream(9, 0), 400).data, EstimatorSettings(ymin_level=0.8))
    return pipe, SubsampleConfig(b=12, draws=151, max_failure_share=0.9)


def direct_case():
    # 4 treated rows among 400: about half the subsets miss the arm
    rng = np.random.default_rng(3)
    d = np.zeros(400, dtype=int)
    d[:4] = 1
    data = ObservationSet(design="direct", y=rng.pareto(2.0, 400) + 1.0, d=d)
    pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.5))
    return pipe, SubsampleConfig(draws=150, max_failure_share=0.9)


def rdd_case():
    # three untreated units near the cutoff: subsets that miss them have
    # no first-stage jump
    r = np.random.default_rng(1).uniform(-1.0, 1.0, 60)
    d = np.ones(60, dtype=int)
    d[np.argsort(np.abs(r + 0.05))[:3]] = 0
    y = np.random.default_rng(2).standard_t(3.0, 60) + d
    pipe = fit_pipeline(ObservationSet(design="rdd", y=y, d=d, r=r),
                        EstimatorSettings(ymin_level=0.9))
    return pipe, SubsampleConfig(b=20, draws=121, max_failure_share=0.99)


@pytest.mark.parametrize("case", [iv_case, direct_case, rdd_case], ids=["iv", "direct", "rdd"])
def test_draws_never_leave_this_process(case, log):
    # with every CPU free and the fork gate at 0, one engine call runs all
    # the draws here, and they come out as on one CPU
    pipe, cfg = case()
    stream = lambda t: substream(5, t)  # noqa: E731
    runs = {}
    for cpus in (1, 2, 3):
        with on_cpus(cpus, log):
            runs[cpus] = subsample_tail_pairs(pipe, cfg, stream)
        assert engine_calls(log) == [(os.getpid(), os.getppid(), cfg.draws)]
        assert not multiprocessing.active_children()
    one = runs[1]
    assert one.failed > 0 and np.isinf(one.alphas).any()
    for tails in (runs[2], runs[3]):
        assert tails.failed == one.failed
        for name in ("alphas", "survivals", "thresholds"):
            assert bits(getattr(tails, name)) == bits(getattr(one, name))


def write_csv(path, data):
    if data.design == "iv":
        cols = ["y", "d", "z"] + [f"x{i}" for i in range(1, data.x.shape[1] + 1)]
        table = np.column_stack([data.y, data.d, data.z, data.x])
    else:
        cols = ["y", "d", "r"]
        table = np.column_stack([data.y, data.d, data.r])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(cols), comments="")


@pytest.mark.parametrize("design", ["iv", "rdd"])
@pytest.mark.parametrize("side, q", [("lower", ["0.02", "0.025"]), ("upper", ["0.98", "0.975"])])
def test_estimate_outputs_are_the_same_at_any_worker_count(design, side, q, tmp_path, log):
    # an estimate's draws run in one engine call in this process, however
    # many CPUs are free and wherever the fork gate stands, and write the
    # same bytes on 2 CPUs as on 1
    gen = gen_iv if design == "iv" else gen_rdd
    src = tmp_path / "in.csv"
    write_csv(src, gen(substream(1, 3), 3000).data)
    outputs = {}
    for cpus in (1, 2):
        out = tmp_path / f"out{cpus}"
        argv = [f"estimate-{design}", "--input", str(src), "--q", *q, "--tail-side", side,
                "--B", "150", "--seed", "3", "--out", str(out)]
        with on_cpus(cpus, log):
            assert main(argv) == 0
        assert engine_calls(log) == [(os.getpid(), os.getppid(), 150)]
        outputs[cpus] = [(out / name).read_bytes()
                         for name in ("cdf.csv", "paretofit.csv", "qte.csv")]
    assert outputs[1] == outputs[2]


def test_draws_inside_monte_carlo_workers_stay_in_the_replication(log):
    # a pool worker may not fork: each replication's draws run in the
    # worker that runs the replication, which starts no process of its own
    cfg = McConfig(design="rdd", n_list=(600,), q_list=(0.025,), reps=2, seed=4,
                   subsample=SubsampleConfig(draws=100))
    with on_cpus(2, log):
        run_mc(cfg)
    calls = engine_calls(log)
    assert [call[2] for call in calls] == [100] * 2
    # a worker that finishes its replication early may take the next one
    assert os.getpid() not in {call[0] for call in calls}
    assert {call[1] for call in calls} == {os.getpid()}
    assert not multiprocessing.active_children()


def test_fork_gate_on_two_cpus():
    # simulations at n = 10^4 count the rows a replication touches (n, and
    # b per draw): two replications fork with B = 500 (651,000 rows
    # touched) and stay in process with B = 250 (335,500), as measured end
    # to end; the benchmark's simulations (6 and 8 replications, B = 500)
    # fork. Nothing runs: run_mc's pool is replaced by the gate's decision
    # and replications that fail
    decided = []

    def gate(fn, tasks, rows):
        decided.append(simulate.fork_workers(len(tasks), rows))
        return [None] * len(tasks)

    with mock.patch.object(simulate, "_usable_cpus", return_value=2), \
            mock.patch("xqte.simulate.fork_map", gate):
        for design, reps, draws in (("iv", 2, 500), ("rdd", 2, 500), ("iv", 2, 250),
                                    ("rdd", 2, 250), ("iv", 6, 500), ("rdd", 8, 500)):
            run_mc(McConfig(design=design, n_list=(10_000,), q_list=(0.025,), reps=reps,
                            seed=1, subsample=SubsampleConfig(draws=draws)))
    assert decided == [2, 2, 1, 1, 2, 2]


def test_chunks_hold_at_least_min_chunk_draws():
    # CHUNK_ELEMENTS // b draws per chunk while that is at least 20: 25 at
    # b = 631 (n = 10^4), and 20 from b = 820 on, as at b = 3163 (n = 10^5),
    # while 20 draws fit MAX_CHUNK_ENTRIES; above that as many as fit it,
    # never fewer than CHUNK_ELEMENTS // b (the ceiling is lowered here
    # to keep b small)
    rng = np.random.default_rng(4)
    for n, b, ceiling, sizes in ((1000, 631, None, [25] * 4), (4000, 3163, None, [20] * 5),
                                 (4000, 3163, 8 * 3163, [8] * 12 + [4]),
                                 (4000, 3163, 3000, [5] * 20)):
        d = (rng.random(n) < 0.5).astype(int)
        pipe = fit_pipeline(ObservationSet(design="direct", y=rng.standard_t(3.0, n) + d, d=d),
                            EstimatorSettings(ymin_level=0.9))
        seen = []

        def fit_rows(knots, *args, fit_rows=inference._fit_rows):
            seen.append(knots.shape[1])
            return fit_rows(knots, *args)

        cfg = SubsampleConfig(b=b, draws=100)
        limit = inference.MAX_CHUNK_ENTRIES if ceiling is None else ceiling
        with mock.patch.multiple(inference, _fit_rows=fit_rows, MAX_CHUNK_ENTRIES=limit):
            inference._draws(pipe, cfg, b, lambda t: substream(8, t))
        assert seen == sizes
    assert inference.MAX_CHUNK_ENTRIES // 6824 == 19  # n = 3 x 10^5


def test_fitted_instrument_pipeline_keeps_no_covariates():
    # the draws read the ranked sample's weights, never x: the fitted
    # pipeline holds no array of n x k (here 10) entries
    data = gen_iv(substream(9, 3), 500).data
    pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.9), "lower")
    assert pipe.data.x.shape == (500, 0)
    arrays, pending = [], [pipe]
    while pending:
        item = pending.pop()
        if isinstance(item, np.ndarray):
            arrays.append(item)
        elif isinstance(item, (tuple, list)):
            pending += item
        elif isinstance(item, dict):
            pending += item.values()
        elif hasattr(item, "__dataclass_fields__"):
            pending += [getattr(item, name) for name in item.__dataclass_fields__]
    assert len(arrays) > 10
    assert max(a.size for a in arrays) == 2 * data.n  # both arms' weights
