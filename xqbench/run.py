"""Benchmark harness for xqte: runs one workload through the `xqte`
command line and prints its metrics.

    python3 xqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an xqte checkout; the program is imported from
./src. Workloads (see README.md for why each was chosen):

  estimate-iv-1e5  `xqte estimate-iv` on a 10^5-row CSV from gen_iv
  simulate-iv      `xqte simulate --design iv --n 10000 --q 0.02 0.025`
                   (not in BENCHMARK.json; see README.md)
  simulate-rdd     `xqte simulate --design rdd --n 10000 --q 0.025`, on the
                   one seed known to crash its draw path
  all              each of the above in turn

The run repeats the workload's command until S seconds have passed,
and before each repeat times a fresh interpreter reaching the command
(setup_s). With --trace 0 it reports the medians of wall time, CPU time
and peak RSS of the program process. With --trace 1 each round runs a
plain and a traced command (see tracer.py) on the same seed, and the
run reports per-layer metrics plus the tracing overhead. Outputs are checked against reference.py. The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
import tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".xqbench-out"

N_SIM = 10000
DRAWS = 500
Q = ("0.02", "0.025")
# replications per simulate-iv command: about 2 s of draw loops, so that a
# run holds about ten repeats
SIM_REPS = 6
SETUP_REPEATS = 5
MIN_ROUNDS = 3
# fewer pooled replications make the truth check's false alarms too likely
MIN_TRUTH_REPS = 20
COMMAND_TIMEOUT_S = 120
# simulate-rdd runs the one command known to crash the RDD draw path:
# replication 7 of this seed dies with a ZeroDivisionError in
# tail.pareto_index (see CHANGES.md). It does the same work every time,
# and every one of its replications is counted as failed.
RDD_Q = ("0.025",)
RDD_REPS = 8
RDD_SEED = 206000
RDD_FAULT = "ZeroDivisionError: float division by zero"


@dataclass
class Command:
    """One finished program process."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def run_command(argv: list[str], env: dict, log: Path) -> Command:
    """Run argv to completion through measure.py, which reports the
    resource use of the command's own process."""
    result = log.with_suffix(".measure.json")
    launcher = [sys.executable, str(HERE / "measure.py"), str(result),
                str(COMMAND_TIMEOUT_S), "--"]
    result.unlink(missing_ok=True)
    with open(log, "wb") as fh:
        subprocess.run(launcher + argv, cwd=ROOT, env=env, stdout=fh,
                       stderr=subprocess.STDOUT, check=False)
    return Command(**json.loads(result.read_text()))


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def write_iv_csv(path: Path, seed: int, n: int) -> None:
    from xqte.simulate import gen_iv

    data = gen_iv(np.random.default_rng(seed), n).data
    k = data.x.shape[1]
    header = ",".join(["y", "d", "z"] + [f"x{i}" for i in range(1, k + 1)])
    table = np.column_stack([data.y, data.d, data.z, data.x])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def sim_inputs(design: str):
    """A simulated design's data generator, as plain arrays for the reference."""
    from xqte.simulate import gen_iv, gen_rdd

    gen = gen_iv if design == "iv" else gen_rdd

    def arrays(rng, n):
        data = gen(rng, n).data
        return data.y, data.d, data.z, data.x, data.r

    return arrays


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Workload:
    """Inputs, command lines and output checks of one workload in one run.

    estimate-iv-1e5 repeats one command on one CSV, so every repeat must
    write the same bytes. simulate-iv gives round k the simulation seed
    1000 * seed + k, so that the run's replications pool into one sample
    large enough for the truth check. simulate-rdd repeats the fixed
    command RDD_* (it does not depend on the seed). In a traced run each
    round's plain and traced commands use the same seed, and must write
    the same bytes.
    """

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed = name, seed
        self.out_dir = work / "out"
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}
        self.failed: dict[int, int] = {}
        self.estimates: dict[int, np.ndarray] = {}
        self.min_rounds = MIN_ROUNDS
        if name == "estimate-iv-1e5":
            self.csv_path = work / "input.csv"
            write_iv_csv(self.csv_path, seed, 100_000)
            self.ops = 1
        elif name == "simulate-iv":
            self.ops = SIM_REPS
            self.min_rounds = max(MIN_ROUNDS, -(-MIN_TRUTH_REPS // SIM_REPS))
        else:
            self.ops = RDD_REPS

    def command_seed(self, k: int) -> int:
        return {"estimate-iv-1e5": self.seed, "simulate-iv": 1000 * self.seed + k,
                "simulate-rdd": RDD_SEED}[self.name]

    def design_q(self) -> tuple[str, tuple[str, ...]]:
        return ("iv", Q) if self.name == "simulate-iv" else ("rdd", RDD_Q)

    def args(self, cmd_seed: int) -> list[str]:
        out = str(self.out_dir.relative_to(ROOT))
        if self.name == "estimate-iv-1e5":
            return ["estimate-iv", "--input", str(self.csv_path.relative_to(ROOT)),
                    "--q", *Q, "--seed", str(cmd_seed), "--out", out]
        design, q = self.design_q()
        return ["simulate", "--design", design, "--n", str(N_SIM), "--q", *q,
                "--B", str(DRAWS), "--reps", str(self.ops), "--seed", str(cmd_seed),
                "--out", out]

    def known_fault(self, log: str) -> bool:
        """Whether a failed command died of the fault simulate-rdd reproduces."""
        lines = log.strip().splitlines()
        return self.name == "simulate-rdd" and bool(lines) and lines[-1] == RDD_FAULT

    def check_output(self, cmd_seed: int) -> int:
        """Compare a finished command's outputs with earlier commands of the
        same seed and, for simulate, with the reference; returns the
        operations it failed: all of them if a check failed, else the
        replications the program dropped."""
        seen = self.digests.setdefault(cmd_seed, digest(self.out_dir))
        if seen != digest(self.out_dir):
            self.problems.append(f"seed {cmd_seed}: a repeated command wrote different outputs")
            return self.ops
        if self.name == "estimate-iv-1e5" or cmd_seed in self.failed:
            return self.failed.get(cmd_seed, 0)
        design, q = self.design_q()
        failed, found, est = reference.check_simulate(
            self.out_dir, design, sim_inputs(design), N_SIM, [float(v) for v in q], self.ops,
            cmd_seed)
        self.problems += found
        self.estimates[cmd_seed] = est
        self.failed[cmd_seed] = self.ops if found else failed
        return self.failed[cmd_seed]

    def final_checks(self) -> bool:
        """Checks that need the whole run: the estimate-iv reference rebuild
        (its outputs are the same for every repeat) and the pooled truth
        check. Returns whether the estimate-iv outputs are wrong."""
        if self.name == "estimate-iv-1e5":
            found = reference.check_estimate_iv(
                self.csv_path, self.out_dir, [float(v) for v in Q], self.seed, DRAWS)
            self.csv_path.unlink()  # 22 MB, regenerated from the seed by every run
            self.problems += found
            return bool(found)
        if self.estimates:
            design, q = self.design_q()
            pooled = np.concatenate(list(self.estimates.values()))
            self.problems += reference.check_truth(design, pooled, [float(v) for v in q])
        return False


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = Workload(name, seed, work)
    env = program_env()
    log = work / "program.log"
    spans_path = work / "spans.json"
    # set-up: a fresh interpreter importing xqte and reaching the command;
    # the first one also fills the bytecode cache and is not timed
    help_argv = [sys.executable, "-m", "xqte", wl.args(seed)[0], "--help"]
    run_command(help_argv, env, log)

    setup, plain_runs, traced_runs = [], [], []
    layers: list[tuple[int, dict]] = []
    attempted = failed = 0
    last_ok = last_known = False
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds or k < wl.min_rounds:
        # one set-up sample per round spreads them over the run like the commands
        setup.append(run_command(help_argv, env, log))
        cmd_seed = wl.command_seed(k)
        for traced in (False, True)[: 1 + trace]:
            argv = ([sys.executable, str(HERE / "tracer.py"), str(spans_path), "--"] if traced
                    else [sys.executable, "-m", "xqte"]) + wl.args(cmd_seed)
            shutil.rmtree(wl.out_dir, ignore_errors=True)
            cmd = run_command(argv, env, log)
            (traced_runs if traced else plain_runs).append(cmd)
            attempted += wl.ops
            last_ok = cmd.exit_code == 0
            last_known = not last_ok and wl.known_fault(log.read_text())
            if traced and (last_ok or last_known):
                layers.append((cmd_seed, tracer.layer_metrics(json.loads(spans_path.read_text()))))
            if not last_ok:
                failed += wl.ops
                if not last_known:
                    wl.problems.append(f"exit code {cmd.exit_code}: {log.read_text()[-500:]}")
                continue
            failed += wl.check_output(cmd_seed)
        k += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(run_command(help_argv, env, log))
    if any(c.exit_code != 0 for c in setup):
        wl.problems.append("`xqte --help` failed")
    if last_ok:
        if wl.final_checks():
            failed = attempted  # every estimate-iv command wrote these same outputs
    elif not last_known:
        wl.problems.append("the last command did not complete")

    med = statistics.median
    if trace:
        metrics = {}
        first_seed, first = layers[0] if layers else (None, {})
        for key, (value, unit) in first.items():
            if unit == "count":
                # counts of the first traced command; commands of the same
                # seed must repeat them exactly
                values = [m[key][0] for s, m in layers if s == first_seed]
                if len(set(values)) > 1:
                    wl.problems.append(f"{key} differs between identical traced commands: "
                                       f"{values}")
            else:
                value = med(m[key][0] for _, m in layers)
            metrics[key] = {"value": value, "unit": unit}
        # plain and traced commands of a round use the same seed
        overhead = med(t.wall_s - p.wall_s for p, t in zip(plain_runs, traced_runs))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": med(c.wall_s for c in plain_runs), "unit": "s"},
            "cpu_s": {"value": med(c.cpu_s for c in plain_runs), "unit": "s"},
            "peak_rss_mb": {"value": med(c.peak_rss_mb for c in plain_runs), "unit": "MB"},
            "setup_s": {"value": med(c.wall_s for c in setup), "unit": "s"},
        }
    (work / "commands.json").write_text(json.dumps({
        "setup": [c.wall_s for c in setup],
        "plain": [vars(c) for c in plain_runs],
        "traced": [vars(c) for c in traced_runs],
    }, indent=1))
    for problem in wl.problems:
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
    return {"correct": not wl.problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    names = ("estimate-iv-1e5", "simulate-iv", "simulate-rdd")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "xqte" / "__init__.py").is_file():
        print(f"error: no xqte sources under {SRC}; run from the root of an xqte checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import xqte

    if Path(xqte.__file__).resolve().parent != (SRC / "xqte").resolve():
        print(f"error: imported xqte from {xqte.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    results = {}
    for name in (names if args.workload == "all" else (args.workload,)):
        results[name] = res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for key, m in res["metrics"].items():
            print(f"{name}  {key:34s} {m['value']:.6g} {m['unit']}")
        print(f"{name}  attempted {res['attempted']}  failed {res['failed']}  "
              f"correct {res['correct']}")
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": m for name, r in results.items()
                        for key, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
