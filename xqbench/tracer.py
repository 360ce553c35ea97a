"""Span recorder for traced benchmark runs.

Wraps xqte's public functions from outside the program: every module
binding of a wrapped function is replaced, so the names that cli,
simulate, pipeline, inference and tail look up at call time all go
through the wrapper, and so do ObservationSet.subset and StepCdf
construction. Each call records a span (name, start, end, parent) and a
call count; spans stay in memory and are written out when the command
ends.

    python xqbench/tracer.py SPANS.json -- <xqte arguments>

runs one xqte command in this process, exits with its exit code and
leaves the spans and counts in SPANS.json.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (span name, module, attribute); the span name is the module of
# definition and the function name
WRAPPED = (
    ("cli.read_estimation_csv", "xqte.cli", "read_estimation_csv"),
    ("cli.write_cdf_csv", "xqte.cli", "write_cdf_csv"),
    ("cli.write_paretofit_csv", "xqte.cli", "write_paretofit_csv"),
    ("cli.write_qte_csv", "xqte.cli", "write_qte_csv"),
    ("cli.write_table_csv", "xqte.cli", "write_table_csv"),
    ("cli.write_run_json", "xqte.cli", "write_run_json"),
    ("simulate.gen_iv", "xqte.simulate", "gen_iv"),
    ("simulate.gen_rdd", "xqte.simulate", "gen_rdd"),
    ("pipeline.fit_pipeline", "xqte.pipeline", "fit_pipeline"),
    ("cdf_iv.fit_logit", "xqte.cdf_iv", "fit_logit"),
    ("cdf_iv.kappa_cdf", "xqte.cdf_iv", "kappa_cdf"),
    ("cdf_rdd.rdd_cdf", "xqte.cdf_rdd", "rdd_cdf"),
    ("cdf_rdd.arm_threshold", "xqte.cdf_rdd", "arm_threshold"),
    ("cdf_rdd.rot_bandwidth", "xqte.cdf_rdd", "rot_bandwidth"),
    ("core.substream", "xqte.core", "substream"),
    ("core.tail_view", "xqte.core", "tail_view"),
    ("tail.pareto_index", "xqte.tail", "pareto_index"),
    ("tail.extrapolated_quantiles", "xqte.tail", "extrapolated_quantiles"),
    ("inference.subsample_tail_pairs", "xqte.inference", "subsample_tail_pairs"),
    ("inference.subsampling_ci", "xqte.inference", "subsampling_ci"),
)

# per-layer metric -> spans whose inclusive durations it sums
TIMES = {
    "cli.read_estimation_csv_s": ("cli.read_estimation_csv",),
    "cli.write_s": ("cli.write_cdf_csv", "cli.write_paretofit_csv", "cli.write_qte_csv",
                    "cli.write_table_csv", "cli.write_run_json"),
    "simulate.gen_s": ("simulate.gen_iv", "simulate.gen_rdd"),
    "pipeline.fit_pipeline_s": ("pipeline.fit_pipeline",),
    "cdf_iv.fit_logit_s": ("cdf_iv.fit_logit",),
    "cdf_iv.kappa_cdf_s": ("cdf_iv.kappa_cdf",),
    "cdf_rdd.rdd_cdf_s": ("cdf_rdd.rdd_cdf",),
    "cdf_rdd.arm_threshold_s": ("cdf_rdd.arm_threshold",),
    "cdf_rdd.rot_bandwidth_s": ("cdf_rdd.rot_bandwidth",),
    "core.subset_s": ("core.subset",),
    "core.substream_s": ("core.substream",),
    "core.tail_view_s": ("core.tail_view",),
    "tail.pareto_index_s": ("tail.pareto_index",),
    "tail.extrapolated_quantiles_s": ("tail.extrapolated_quantiles",),
    "inference.subsample_tail_pairs_s": ("inference.subsample_tail_pairs",),
    "inference.subsampling_ci_s": ("inference.subsampling_ci",),
}
# per-layer metric -> spans whose call counts it sums
CALLS = {
    "simulate.reps": ("simulate.gen_iv", "simulate.gen_rdd"),
    "pipeline.fits": ("pipeline.fit_pipeline",),
    "cdf_iv.kappa_cdf_calls": ("cdf_iv.kappa_cdf",),
    "cdf_rdd.rdd_cdf_calls": ("cdf_rdd.rdd_cdf",),
    "cdf_rdd.arm_threshold_calls": ("cdf_rdd.arm_threshold",),
    "core.subset_calls": ("core.subset",),
    "core.substream_calls": ("core.substream",),
    "tail.pareto_index_calls": ("tail.pareto_index",),
}
# per-layer metrics read off return values (see Recorder.note)
TALLIES = (
    "cli.rows_parsed",
    "cli.bytes_written",
    "cdf_iv.logit_iterations",
    "core.stepcdf_built",
    "inference.draws_attempted",
    "inference.draws_failed",
    "inference.flat_arm_draws",
)
DRAW_LOOP = "inference.subsample_tail_pairs"


class Recorder:
    """In-memory spans [name, start, end, parent index] and tallies."""

    def __init__(self):
        self.spans: list[list] = []
        self.tallies: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            self.note(name, args, out)
            return out

        return traced

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.tallies[name] += 1
            return fn(*args, **kwargs)

        return counted

    def note(self, name: str, args, out) -> None:
        """Tallies taken from a finished call's arguments and result."""
        if name == "cli.read_estimation_csv":
            self.tallies["cli.rows_parsed"] += out.n
        elif name.startswith("cli.write_"):
            self.tallies["cli.bytes_written"] += os.path.getsize(args[0])
        elif name == "cdf_iv.fit_logit":
            self.tallies["cdf_iv.logit_iterations"] += out.iterations
        elif name == DRAW_LOOP:
            self.tallies["inference.draws_attempted"] += out.alphas.shape[0] + out.failed
            self.tallies["inference.draws_failed"] += out.failed
            self.tallies["inference.flat_arm_draws"] += int(np.isinf(out.alphas).sum())

    def install(self) -> None:
        """Route every module binding of the wrapped functions through the recorder."""
        import xqte.cli  # noqa: F401  (the package imports every other module)
        from xqte.core import ObservationSet, StepCdf

        modules = [m for k, m in sys.modules.items() if k == "xqte" or k.startswith("xqte.")]
        for name, module, attr in WRAPPED:
            original = getattr(sys.modules[module], attr)
            traced = self.wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)
        ObservationSet.subset = self.wrap("core.subset", ObservationSet.subset)
        StepCdf.__post_init__ = self.count("core.stepcdf_built", StepCdf.__post_init__)

    def dump(self, path: Path) -> None:
        payload = {"spans": self.spans, "tallies": dict(self.tallies)}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[i]):
            lo = max(c0, reach)
            if c1 > lo:
                covered += c1 - lo
                reach = c1
        out.append((end - start) - covered)
    return out


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced command: name -> (value, unit)."""
    spans = trace["spans"]
    total = defaultdict(float)
    calls = defaultdict(int)
    for name, start, end, _ in spans:
        total[name] += end - start
        calls[name] += 1
    out = {m: (sum(total[s] for s in names), "s") for m, names in TIMES.items()}
    out.update({m: (sum(calls[s] for s in names), "count") for m, names in CALLS.items()})
    out.update({m: (trace["tallies"].get(m, 0), "count") for m in TALLIES})
    draw_self = sum(t for t, span in zip(self_times(spans), spans) if span[0] == DRAW_LOOP)
    out["inference.draw_self_s"] = (draw_self, "s")
    return out


def main(argv: list[str]) -> int:
    spans_path, sep, *xqte_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <xqte arguments>")
    recorder = Recorder()
    recorder.install()
    from xqte.cli import main as xqte_main

    try:
        return xqte_main(xqte_args)
    finally:
        recorder.dump(Path(spans_path))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
