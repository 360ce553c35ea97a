"""Command-line front end: CSV in, estimate and table files out.

Two ingestion commands run the estimation pipeline on user data
(estimate-iv, estimate-rdd) and a third reruns the Monte Carlo harness
(simulate). Every command writes its artifacts into --out together with
a run.json recording the fully resolved configuration; feeding that
run.json back through --config reproduces the artifacts byte for byte.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 estimation error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .core import (
    EstimationError,
    ObservationSet,
    StepCdf,
    evaluate,
    substream,
    tail_view,
)
from .inference import RATE_EXPONENT, SubsampleConfig, estimate_qte_batch
from .pipeline import EstimatorSettings, FittedPipeline, fit_pipeline
from .simulate import McConfig, McReport, format_report, run_mc


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


class DataError(Exception):
    """Input file missing, malformed, or violating the column schema."""


@dataclasses.dataclass
class RunConfig:
    """Fully resolved invocation: defaults, then config file, then flags.

    The same flat field set serves all three commands; n and reps only
    matter for simulate, input and tail_side only for estimation.
    """

    command: str
    input: str | None = None
    design: str | None = None
    tail_side: str = "lower"
    q: tuple[float, ...] = ()
    omega: float = 1.0
    ymin_level: float = 0.975
    trim: float = 0.01
    b: int | None = None
    B: int = 500
    ci_level: float = 0.95
    seed: int = 0
    out: str = "."
    n: tuple[int, ...] = ()
    reps: int = 0


_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig))


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# (check, description) of what a --config file may hold for each field
_FILE_VALUES = {
    **dict.fromkeys(("input", "design"), (lambda v: v is None or isinstance(v, str),
                                          "a string or null")),
    **dict.fromkeys(("tail_side", "out"), (lambda v: isinstance(v, str), "a string")),
    **dict.fromkeys(("B", "seed", "reps"), (_integer, "an integer")),
    **dict.fromkeys(("omega", "ymin_level", "trim", "ci_level"), (_number, "a number")),
    "b": (lambda v: v is None or _integer(v), "an integer or null"),
    "q": (lambda v: isinstance(v, list) and all(map(_number, v)), "a list of numbers"),
    "n": (lambda v: isinstance(v, list) and all(map(_integer, v)), "a list of integers"),
}


def _fmt(x: float) -> str:
    """17 significant digits: parses back to the identical float."""
    return format(float(x), ".17g")


def _fmt_rows(*columns, lead: str = "") -> str:
    """One line per row: lead, then the row's values as _fmt writes
    them, comma-separated."""
    table = np.column_stack(columns).astype(float)
    line = lead + ",".join(["%.17g"] * table.shape[1]) + "\n"
    return line * table.shape[0] % tuple(table.ravel().tolist())


WRITE_BLOCK_ROWS = 4096


def _write_rows(fh, *columns, lead: str = "") -> None:
    """Write _fmt_rows of the columns, WRITE_BLOCK_ROWS rows at a time,
    so no artifact is ever held whole as a table or as Python objects."""
    columns = [np.asarray(column) for column in columns]
    for start in range(0, len(columns[0]), WRITE_BLOCK_ROWS):
        fh.write(_fmt_rows(*(c[start:start + WRITE_BLOCK_ROWS] for c in columns), lead=lead))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xqte",
        description="Extreme quantile treatment effects: estimation and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--config", default=None, metavar="FILE",
                        help="JSON file with run fields; explicit flags override it")
        sp.add_argument("--q", type=float, nargs="+", default=None,
                        help="quantile levels to estimate")
        sp.add_argument("--omega", type=float, default=None,
                        help="tail weight exponent (default 1)")
        sp.add_argument("--ymin-level", dest="ymin_level", type=float, default=None,
                        help="CDF level fixing the tail threshold (default 0.975)")
        sp.add_argument("--trim", type=float, default=None,
                        help="propensity clipping margin, instrument designs only")
        sp.add_argument("--b", type=int, default=None,
                        help="subsample size (default ceil(n^0.7))")
        sp.add_argument("--B", dest="B", type=int, default=None,
                        help="number of subsample draws (default 500)")
        sp.add_argument("--ci-level", dest="ci_level", type=float, default=None,
                        help="two-sided interval level (default 0.95)")
        sp.add_argument("--seed", type=int, default=None,
                        help="seed for the subsample index streams (default 0)")
        sp.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (default current directory)")

    for name, blurb in (
        ("estimate-iv", "binary-instrument design, CSV columns y,d,z,x1,...,xk"),
        ("estimate-rdd", "discontinuity design, CSV columns y,d,r"),
    ):
        sp = sub.add_parser(name, help=blurb)
        shared(sp)
        sp.add_argument("--input", default=None, metavar="FILE", help="input CSV")
        sp.add_argument("--tail-side", dest="tail_side", default=None,
                        choices=("lower", "upper"),
                        help="which tail the q levels target (default lower)")

    sp = sub.add_parser("simulate", help="rerun the Monte Carlo harness")
    shared(sp)
    sp.add_argument("--design", default=None, choices=("iv", "rdd"),
                    help="simulated design")
    sp.add_argument("--n", type=int, nargs="+", default=None,
                    help="sample sizes")
    sp.add_argument("--reps", type=int, default=None,
                    help="replications per sample size")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, the optional JSON config file (each value checked
    against _FILE_VALUES), and explicit flags."""
    values: dict = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        raw.pop("_meta", None)
        written_by = raw.pop("command", None)
        if written_by is not None and written_by != args.command:
            raise ConfigError(
                f"config file was written by {written_by!r} but this run is {args.command!r}"
            )
        unknown = sorted(set(raw) - set(_CONFIG_FIELDS))
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
        for name, value in raw.items():
            ok, kind = _FILE_VALUES[name]
            if not ok(value):
                raise ConfigError(f"config field {name!r} must be {kind}, got {value!r}")
        values.update(raw)
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    values["command"] = args.command
    if args.command == "estimate-iv":
        values["design"] = "iv"
    elif args.command == "estimate-rdd":
        values["design"] = "rdd"
    if "q" in values:
        values["q"] = tuple(float(v) for v in values["q"])
    if "n" in values:
        values["n"] = tuple(values["n"])
    return RunConfig(**values)


def validate_config(cfg: RunConfig) -> tuple[EstimatorSettings, SubsampleConfig, McConfig | None]:
    """All checks that need no data; raises ConfigError before any work.

    Returns the run's estimator settings, subsample settings and, for
    simulate, Monte Carlo configuration. Those objects check their own
    fields; only the seed, the output directory, the estimation input,
    tail side and q range are checked here."""
    if cfg.seed < 0:
        raise ConfigError(f"the seed must be a non-negative integer, got {cfg.seed}")
    out = Path(cfg.out)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"the output directory {cfg.out!r} exists and is not a directory")
    if cfg.command != "simulate":
        if not cfg.input:
            raise ConfigError("an input CSV is required (--input)")
        if cfg.tail_side not in ("lower", "upper"):
            raise ConfigError(f"tail_side must be 'lower' or 'upper', got {cfg.tail_side!r}")
        if not cfg.q:
            raise ConfigError("the q-list must not be empty")
        for q in cfg.q:
            if not 0.0 < q < 1.0:
                raise ConfigError(f"quantile level {q} outside (0, 1)")
    try:
        settings = EstimatorSettings(omega=cfg.omega, ymin_level=cfg.ymin_level, trim=cfg.trim)
        sub = SubsampleConfig(b=cfg.b, draws=cfg.B, ci_level=cfg.ci_level)
        sub.validate()
        mc = None
        if cfg.command == "simulate":
            mc = McConfig(design=cfg.design, n_list=cfg.n, q_list=cfg.q, reps=cfg.reps,
                          seed=cfg.seed, settings=settings, subsample=sub)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return settings, sub, mc


# bytes a body of plain numbers is made of; any other byte sends the file
# to the row loop
_PLAIN_BYTES = b"0123456789+-.eE,\n"
_SCAN_BLOCK = 1 << 20


def read_estimation_csv(path: str, design: str) -> ObservationSet:
    """Parse an input CSV against the design's column schema.

    Schema violations name the offending file line (the header is
    line 1). Fields must be plain '.'-decimal numbers; d and z must be
    0 or 1; everything must be finite.

    A body of plain numbers is parsed with array operations; every other
    file, and every file those checks reject, goes through the row loop,
    which accepts it or names the offending line. On plain numbers both
    parse each field with the same C routine, so values are identical.
    """
    columns = _load_plain(path, design)
    if columns is None:
        columns = _columns(_read_rows(path, design), design)
    try:
        return ObservationSet(design=design, **columns)
    except ValueError as exc:
        raise DataError(str(exc))


def _header_problem(header: list[str], design: str) -> str | None:
    if design == "iv":
        k = len(header) - 3
        expected = ["y", "d", "z"] + [f"x{i}" for i in range(1, k + 1)]
        if k < 1 or header != expected:
            return ("instrument input needs header y,d,z,x1,...,xk with k >= 1; "
                    f"got {','.join(header)}")
    elif header != ["y", "d", "r"]:
        return f"discontinuity input needs header y,d,r; got {','.join(header)}"
    return None


def _columns(table: np.ndarray, design: str) -> dict[str, np.ndarray]:
    """ObservationSet's arrays from an (n, k) table of rows that pass
    the schema: each column its own C-contiguous copy, d and z as int8."""
    columns = {"y": table[:, 0].copy(), "d": table[:, 1].astype(np.int8)}
    if design == "iv":
        columns["z"] = table[:, 2].astype(np.int8)
        columns["x"] = np.ascontiguousarray(table[:, 3:])
    else:
        columns["r"] = table[:, 2].copy()
    return columns


def _load_plain(path: str, design: str) -> dict[str, np.ndarray] | None:
    """The data columns (see _columns) when the header is valid, the
    body holds only digits, signs, points, exponents, commas and
    newlines, and every row parses, has one field per header column, is
    finite and has d and z in {0, 1}; None otherwise."""
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    with fh:
        # a pipe cannot be read twice: the row loop reads it
        if not fh.seekable():
            return None
        first = fh.readline()
        # without quotes, carriage returns or NULs the csv module splits
        # the header line at its commas
        if not first or any(c in first for c in (b'"', b"\r", b"\0")):
            return None
        try:
            header = [h.strip() for h in first.decode("utf-8-sig").removesuffix("\n").split(",")]
        except UnicodeDecodeError:
            return None
        if _header_problem(header, design) is not None:
            return None
        has_rows = False
        while block := fh.read(_SCAN_BLOCK):
            if block.translate(None, _PLAIN_BYTES):
                return None
            has_rows = has_rows or block.count(b"\n") < len(block)
        if not has_rows:
            return None
    try:
        # np.loadtxt skips empty lines itself, and reads a path faster
        # than a file object or a generator of its lines
        table = np.loadtxt(path, delimiter=",", comments=None, skiprows=1, ndmin=2,
                           dtype=float, encoding="utf-8")
    except ValueError:
        return None
    if table.shape[1] != len(header) or not np.isfinite(table).all():
        return None
    binary = table[:, 1:3] if design == "iv" else table[:, 1:2]
    if not ((binary == 0.0) | (binary == 1.0)).all():
        return None
    return _columns(table, design)


def _read_rows(path: str, design: str) -> np.ndarray:
    """Row-by-row parse of any CSV the csv module reads; raises DataError
    naming the first offending line."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read input file: {exc}")
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError("input file is empty")
        problem = _header_problem(header, design)
        if problem is not None:
            raise DataError(problem)
        ncol = len(header)
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != ncol:
                raise DataError(f"line {lineno}: expected {ncol} fields, found {len(row)}")
            vals = []
            for name, text in zip(header, row):
                try:
                    v = float(text)
                except ValueError:
                    raise DataError(
                        f"line {lineno}: column {name} has non-numeric value {text!r}"
                    )
                if not math.isfinite(v):
                    raise DataError(f"line {lineno}: column {name} must be finite, got {text!r}")
                if name in ("d", "z") and v not in (0.0, 1.0):
                    raise DataError(f"line {lineno}: column {name} must be 0 or 1, got {text!r}")
                vals.append(v)
            rows.append(vals)
        if not rows:
            raise DataError("input file has a header but no data rows")
    return np.asarray(rows, dtype=float)


def write_cdf_csv(path: Path, pipe: FittedPipeline) -> None:
    """Estimated counterfactual CDFs on their shared outcome grid.

    Values are the raw ratio estimates, exactly as the pipeline holds
    them before rearrangement; knots are on the analysis scale (negated
    when the run targeted the lower tail)."""
    c1, c0 = pipe.cdf1, pipe.cdf0
    if not np.array_equal(c1.knots, c0.knots):
        raise EstimationError("arms returned different knot grids")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("y,beta0,beta1\n")
        _write_rows(fh, c1.knots, c0.values, c1.values)


def read_cdf_csv(path: Path | str) -> tuple[StepCdf, StepCdf]:
    """Re-ingest a cdf.csv; returns (beta1, beta0) bit-identical to the
    pair that wrote it. A file that is not one raises DataError."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != ["y", "beta0", "beta1"]:
            raise DataError(f"not a cdf.csv: header {','.join(header) or 'missing'}")
        rows = [row for row in reader if row]
    if not rows:
        raise DataError("cdf.csv has a header but no rows")
    try:
        arr = np.array([[float(c) for c in row] for row in rows])
        if arr.shape[1] != 3:
            raise DataError("cdf.csv rows need 3 fields")
        knots = arr[:, 0]
        return StepCdf(knots, arr[:, 2]), StepCdf(knots, arr[:, 1])
    except ValueError as exc:  # a field, a row length or the knots
        raise DataError(f"malformed cdf.csv: {exc}")


def write_paretofit_csv(path: Path, pipe: FittedPipeline) -> None:
    """Fitted tail survival next to the empirical one, per arm.

    Rows live on each fit's working scale (analysis scale plus the
    arm's positivity shift, recorded in run.json), starting at the
    threshold where the fitted survival equals s_min by construction.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("arm,y,survival_emp,survival_fit\n")
        for arm, cdf, fit in ((1, pipe.cdf1, pipe.fit1), (0, pipe.cdf0, pipe.fit0)):
            view = tail_view(cdf)
            if fit.shift != 0.0:
                view = view.shifted(fit.shift)
            grid = np.concatenate(([fit.y_min], view.knots[view.knots > fit.y_min]))
            emp = 1.0 - np.asarray(evaluate(view, grid), dtype=float)
            with np.errstate(over="ignore"):
                fitted = fit.s_min * (grid / fit.y_min) ** (-fit.alpha_hat)
            _write_rows(fh, grid, emp, fitted, lead=f"{arm},")


def write_qte_csv(path: Path, results) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("q,estimate,ci_lo,ci_hi\n")
        _write_rows(fh, [r.q for r in results], [r.estimate for r in results],
                    [r.ci.lo for r in results], [r.ci.hi for r in results])


def write_table_csv(path: Path, report: McReport) -> None:
    """Monte Carlo summary in the simulation-table layout: one block of
    rows per sample size, one column per quantile level."""
    qs = list(report.config.q_list)
    stats = ["bias", "sd", "rmse", "cov95"]
    if report.truth_alt is not None:
        stats.append("cov95_alt")
    cells = {(c.n, c.q): c for c in report.cells}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["n", "stat"] + [f"q={q:g}" for q in qs])
        for n in report.config.n_list:
            for stat in stats:
                row = [str(n), stat]
                for q in qs:
                    c = cells[(n, q)]
                    v = {"bias": c.bias, "sd": c.sd, "rmse": c.rmse,
                         "cov95": c.coverage, "cov95_alt": c.coverage_alt}[stat]
                    row.append("" if v is None else _fmt(v))
                w.writerow(row)


def _jsonable(value):
    """value with numpy scalars and arrays as Python numbers and lists,
    and every non-finite float as None, which JSON writes as null."""
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_run_json(path: Path, cfg: RunConfig, meta: dict) -> None:
    """Resolved configuration plus run facts, in strict JSON: a
    non-finite value is written as null (a flat-tail arm's alpha_hat and
    c_hat). The file doubles as a --config payload: the loader ignores
    _meta and checks command."""
    payload = _jsonable({**dataclasses.asdict(cfg), "_meta": meta})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _arm_summary(fit) -> dict:
    return {k: getattr(fit, k) for k in ("alpha_hat", "y_min", "s_min", "c_hat", "shift")}


def _write_outputs(out: str, write: Callable[[Path], None]) -> None:
    """write(outdir) into the output directory, created if missing; an
    OSError while it is created or written becomes a ConfigError naming
    it."""
    try:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        write(outdir)
    except OSError as exc:
        raise ConfigError(f"cannot write the outputs to {out!r}: {exc}")


def cmd_estimate(cfg: RunConfig, settings: EstimatorSettings, sub: SubsampleConfig) -> None:
    data = read_estimation_csv(cfg.input, cfg.design)
    try:
        b = sub.validate(data.n)
    except ValueError as exc:
        raise ConfigError(str(exc))
    pipe = fit_pipeline(data, settings, tail_side=cfg.tail_side)
    # the fitted pipeline keeps no covariates: dropping the parsed set
    # frees them before the draws
    del data
    results = estimate_qte_batch(pipe, list(cfg.q), sub,
                                 lambda t: substream(cfg.seed, t))
    meta = {
        "n_rows": pipe.data.n,
        "resolved_b": b,
        "rate_exponent": RATE_EXPONENT[pipe.data.design],
        "flipped": pipe.tail_side == "lower",
        "discarded_draws": results[0].ci.n_failed,
        "arm1": _arm_summary(pipe.fit1),
        "arm0": _arm_summary(pipe.fit0),
        "design_meta": pipe.meta,
        "outputs": ["cdf.csv", "paretofit.csv", "qte.csv"],
    }

    def write(outdir: Path) -> None:
        write_cdf_csv(outdir / "cdf.csv", pipe)
        write_paretofit_csv(outdir / "paretofit.csv", pipe)
        write_qte_csv(outdir / "qte.csv", results)
        write_run_json(outdir / "run.json", cfg, meta)

    _write_outputs(cfg.out, write)


def cmd_simulate(cfg: RunConfig, mc: McConfig) -> None:
    report = run_mc(mc)
    meta = {
        "truth": report.truth,
        "truth_alt": report.truth_alt,
        "cells": [
            {"n": c.n, "q": c.q, "n_used": c.n_used, "n_failed": c.n_failed}
            for c in report.cells
        ],
        "outputs": ["table.csv", "report.txt"],
    }

    def write(outdir: Path) -> None:
        write_table_csv(outdir / "table.csv", report)
        (outdir / "report.txt").write_text(format_report(report) + "\n", encoding="utf-8")
        write_run_json(outdir / "run.json", cfg, meta)

    _write_outputs(cfg.out, write)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = resolve_config(args)
        settings, sub, mc = validate_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if mc is not None:
            cmd_simulate(cfg, mc)
        else:
            cmd_estimate(cfg, settings, sub)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except EstimationError as exc:
        print(f"estimation error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 4
    return 0
