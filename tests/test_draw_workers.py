"""Subsample draws on forked workers.

subsample_tail_pairs splits the draw numbers into one contiguous block
per usable CPU and runs each block's engine on a forked worker
(core.fork_map). The draws must come out the same bit for bit at any
worker count, reach the workers without pickling, and stay in the
calling process where forking would be unsafe, would hide calls from
a tracer or would take longer than the draws.
"""

import functools
import itertools
import multiprocessing
import os
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest

from xqte import core, inference
from xqte.cli import main
from xqte.core import ObservationSet, substream
from xqte.inference import SubsampleConfig, subsample_tail_pairs
from xqte.pipeline import EstimatorSettings, fit_pipeline
from xqte.simulate import McConfig, gen_iv, gen_rdd, run_mc


def bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


@contextmanager
def on_cpus(cpus, log_dir, min_rows=0):
    """core's CPU count patched to cpus and the rows from which work
    forks (core.FORK_MIN_ROWS) to min_rows, so that the small cases below
    fork; every call of a draw engine leaves a file
    "<pid>-<ppid>-<first draw>-<end draw>-<call>" in log_dir, call
    counting the engine calls of its process."""
    calls = itertools.count()

    def logged(engine):
        def run(source, cfg, b, rng_for_draw, draws=None):
            draws = range(cfg.draws) if draws is None else draws
            name = f"{os.getpid()}-{os.getppid()}-{draws.start}-{draws.stop}-{next(calls)}"
            (log_dir / name).touch()
            return engine(source, cfg, b, rng_for_draw, draws)

        return run

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(core, "_usable_cpus", return_value=cpus))
        stack.enter_context(mock.patch.object(core, "FORK_MIN_ROWS", min_rows))
        stack.enter_context(mock.patch.object(inference, "_draws", logged(inference._draws)))
        yield


@pytest.fixture
def log(tmp_path):
    """An empty directory for on_cpus' engine log."""
    path = tmp_path / "log"
    path.mkdir()
    return path


def engine_calls(log_dir):
    """(pid, ppid, first draw, end draw) of each logged engine call, by
    first draw; the log is emptied."""
    calls = []
    for path in log_dir.iterdir():
        calls.append(tuple(int(v) for v in path.name.split("-")[:4]))
        path.unlink()
    return sorted(calls, key=lambda call: call[2])


def assert_ran_on_workers(calls, cpus):
    """With one CPU the engine calls ran here; with more, in children of
    this process (a worker that finishes its block early may take the
    next one, so the number of distinct workers is not fixed)."""
    if cpus == 1:
        assert {call[:2] for call in calls} == {(os.getpid(), os.getppid())}
    else:
        assert os.getpid() not in {call[0] for call in calls}
        assert {call[1] for call in calls} == {os.getpid()}


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
def test_draws_are_the_same_at_any_worker_count(case, log):
    pipe, cfg = case()
    stream = lambda t: substream(5, t)  # noqa: E731
    runs = {}
    for cpus in (1, 2, 3):
        with on_cpus(cpus, log):
            runs[cpus] = subsample_tail_pairs(pipe, cfg, stream)
        calls = engine_calls(log)
        # one contiguous block per worker, covering every draw once
        assert [call[2:] for call in calls] == [
            (cfg.draws * k // cpus, cfg.draws * (k + 1) // cpus) for k in range(cpus)
        ]
        assert_ran_on_workers(calls, cpus)
        assert not multiprocessing.active_children()
    one = runs[1]
    assert one.failed > 0 and np.isinf(one.alphas).any()
    for tails in (runs[2], runs[3]):
        assert tails.failed == one.failed
        for name in ("alphas", "survivals", "thresholds"):
            assert bits(getattr(tails, name)) == bits(getattr(one, name))


@pytest.mark.parametrize("case", [iv_case, direct_case, rdd_case], ids=["iv", "direct", "rdd"])
def test_small_draw_sets_stay_in_process(case, log):
    # every design's draw set forks from the same core.FORK_MIN_ROWS
    # subset rows (b x draws) on
    pipe, cfg = case()
    rows = cfg.resolve_b(pipe.data.n) * cfg.draws
    for min_rows, blocks in ((rows + 1, 1), (rows, 2), (core.FORK_MIN_ROWS, 1)):
        with on_cpus(2, log, min_rows):
            subsample_tail_pairs(pipe, cfg, lambda t: substream(5, t))
        calls = engine_calls(log)
        assert [call[2:] for call in calls] == [
            (cfg.draws * k // blocks, cfg.draws * (k + 1) // blocks) for k in range(blocks)]
        assert_ran_on_workers(calls, blocks)


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
        assert_ran_on_workers(engine_calls(log), cpus)
        outputs[cpus] = [(out / name).read_bytes()
                         for name in ("cdf.csv", "paretofit.csv", "qte.csv")]
    assert outputs[1] == outputs[2]


def test_wrapped_function_keeps_the_draws_in_process(log):
    # a tracer records only the calls made in its own process
    pipe, cfg = iv_case()
    seen = []

    @functools.wraps(core.substream)
    def traced(*args):
        seen.append(os.getpid())
        return substream(*args)

    with on_cpus(2, log), mock.patch.object(core, "substream", traced):
        tails = subsample_tail_pairs(pipe, cfg, lambda t: traced(5, t))
    assert seen == [os.getpid()] * cfg.draws
    calls = engine_calls(log)
    assert [call[2:] for call in calls] == [(0, cfg.draws)]
    assert_ran_on_workers(calls, 1)
    with on_cpus(1, log):
        plain = subsample_tail_pairs(pipe, cfg, lambda t: substream(5, t))
    assert bits(tails.alphas) == bits(plain.alphas)


def test_other_errors_reach_the_caller_from_a_draw_worker(log):
    pipe, cfg = iv_case()

    def stream(t):
        if t == cfg.draws - 1:  # in the last block
            raise ValueError(os.getpid())
        return substream(5, t)

    with on_cpus(2, log), pytest.raises(ValueError) as raised:
        subsample_tail_pairs(pipe, cfg, stream)
    assert raised.value.args[0] != os.getpid()  # raised in a worker
    assert not multiprocessing.active_children()


def test_draws_inside_monte_carlo_workers_stay_in_the_replication(log):
    # a pool worker may not fork: each replication's draws run in the
    # worker that runs the replication, which starts no process of its own
    cfg = McConfig(design="rdd", n_list=(600,), q_list=(0.025,), reps=2, seed=4,
                   subsample=SubsampleConfig(draws=100))
    with on_cpus(2, log):
        run_mc(cfg)
    calls = engine_calls(log)
    assert [call[2:] for call in calls] == [(0, 100)] * 2
    assert_ran_on_workers(calls, 2)
    assert not multiprocessing.active_children()
