import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xqte.cli import main, read_cdf_csv, read_estimation_csv
from xqte.pipeline import EstimatorSettings, fit_pipeline


def write_rdd_toy(path):
    """Sharp design: treated outcomes are control outcomes shifted by 2,
    so every quantile effect is exactly 2."""
    rows = ["y,d,r"]
    for i in range(10):
        rows.append(f"{1.0 + 0.5 * i},0,{-(i + 1) / 10.0}")
    for i in range(10):
        rows.append(f"{3.0 + 0.5 * i},1,{(i + 1) / 10.0}")
    path.write_text("\n".join(rows) + "\n")


def write_iv_toy(path, n=60):
    """All compliers, instrument independent of the covariate."""
    rng = np.random.default_rng(99)
    rows = ["y,d,z,x1"]
    for i in range(n):
        z = i % 2
        y = rng.standard_normal() + 2.0 * z
        rows.append(f"{y},{z},{z},{rng.standard_normal()}")
    path.write_text("\n".join(rows) + "\n")


def run_estimate_rdd(tmp_path, out="out", **overrides):
    src = tmp_path / "toy.csv"
    if not src.exists():
        write_rdd_toy(src)
    args = {
        "--input": str(src),
        "--ymin-level": "0.8",
        "--b": "16",
        "--B": "120",
        "--seed": "7",
        "--out": str(tmp_path / out),
    }
    args.update(overrides)
    argv = ["estimate-rdd", "--q", "0.1", "0.05"]
    for flag, val in args.items():
        argv.extend([flag, val])
    return main(argv)


class TestEstimateRdd:
    def test_toy_end_to_end(self, tmp_path):
        assert run_estimate_rdd(tmp_path) == 0
        outdir = tmp_path / "out"
        qte = (outdir / "qte.csv").read_text().splitlines()
        assert qte[0] == "q,estimate,ci_lo,ci_hi"
        for line in qte[1:]:
            q, est, lo, hi = map(float, line.split(","))
            assert np.isfinite(est) and np.isfinite(lo) and np.isfinite(hi)
            assert lo <= est <= hi
            # shifted-copy arms: the effect is exactly the shift
            assert est == pytest.approx(2.0)
        run = json.loads((outdir / "run.json").read_text())
        assert run["command"] == "estimate-rdd"
        assert run["design"] == "rdd"
        assert run["tail_side"] == "lower"
        assert run["omega"] == 1.0
        assert run["trim"] == 0.01
        assert run["ymin_level"] == 0.8
        assert run["_meta"]["n_rows"] == 20
        assert run["_meta"]["flipped"] is True
        assert set(run["_meta"]["outputs"]) == {"cdf.csv", "paretofit.csv", "qte.csv"}

    def test_cdf_roundtrip_bit_exact(self, tmp_path):
        assert run_estimate_rdd(tmp_path) == 0
        data = read_estimation_csv(str(tmp_path / "toy.csv"), "rdd")
        pipe = fit_pipeline(data, EstimatorSettings(ymin_level=0.8), tail_side="lower")
        c1, c0 = read_cdf_csv(tmp_path / "out" / "cdf.csv")
        np.testing.assert_array_equal(c1.knots, pipe.cdf1.knots)
        np.testing.assert_array_equal(c1.values, pipe.cdf1.values)
        np.testing.assert_array_equal(c0.values, pipe.cdf0.values)

    def test_upper_tail_run_is_not_flipped(self, tmp_path):
        assert run_estimate_rdd(tmp_path, **{"--tail-side": "upper", "--q": "0.9"}) == 0
        outdir = tmp_path / "out"
        (line,) = (outdir / "qte.csv").read_text().splitlines()[1:]
        q, est, lo, hi = map(float, line.split(","))
        assert q == 0.9
        assert est == pytest.approx(2.0)
        run = json.loads((outdir / "run.json").read_text())
        assert run["tail_side"] == "upper"
        assert run["_meta"]["flipped"] is False

    def test_paretofit_anchored_at_threshold(self, tmp_path):
        assert run_estimate_rdd(tmp_path) == 0
        lines = (tmp_path / "out" / "paretofit.csv").read_text().splitlines()
        assert lines[0] == "arm,y,survival_emp,survival_fit"
        first_by_arm = {}
        for line in lines[1:]:
            arm, y, emp, fit = line.split(",")
            first_by_arm.setdefault(arm, float(fit))
        # fitted survival equals 1 - ymin_level at each arm's threshold
        assert first_by_arm["1"] == pytest.approx(0.2)
        assert first_by_arm["0"] == pytest.approx(0.2)

    def test_rerun_is_byte_identical(self, tmp_path):
        assert run_estimate_rdd(tmp_path, out="a") == 0
        assert run_estimate_rdd(tmp_path, out="b") == 0
        for name in ("cdf.csv", "paretofit.csv", "qte.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_replay_from_run_json(self, tmp_path):
        assert run_estimate_rdd(tmp_path) == 0
        argv = ["estimate-rdd", "--config", str(tmp_path / "out" / "run.json"),
                "--out", str(tmp_path / "replay")]
        assert main(argv) == 0
        for name in ("cdf.csv", "paretofit.csv", "qte.csv"):
            a = (tmp_path / "out" / name).read_bytes()
            b = (tmp_path / "replay" / name).read_bytes()
            assert a == b
        a = json.loads((tmp_path / "out" / "run.json").read_text())
        b = json.loads((tmp_path / "replay" / "run.json").read_text())
        differing = {k for k in a if a[k] != b[k]}
        assert differing == {"out"}

    def test_flag_overrides_config_file(self, tmp_path):
        assert run_estimate_rdd(tmp_path) == 0
        argv = ["estimate-rdd", "--config", str(tmp_path / "out" / "run.json"),
                "--seed", "8", "--out", str(tmp_path / "reseeded")]
        assert main(argv) == 0
        run = json.loads((tmp_path / "reseeded" / "run.json").read_text())
        assert run["seed"] == 8


class TestEstimateIv:
    def test_toy_end_to_end(self, tmp_path):
        src = tmp_path / "iv.csv"
        write_iv_toy(src)
        out = tmp_path / "out"
        argv = ["estimate-iv", "--input", str(src), "--q", "0.1",
                "--ymin-level", "0.7", "--b", "48", "--B", "120",
                "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        line = (out / "qte.csv").read_text().splitlines()[1]
        q, est, lo, hi = map(float, line.split(","))
        assert np.isfinite(est)
        assert lo <= est <= hi
        run = json.loads((out / "run.json").read_text())
        assert "gamma" in run["_meta"]["design_meta"]


def test_cli_import_leaves_out_numerical_integration():
    # quadrature serves only the test oracles; starting a command must not
    # pay for importing it
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, xqte.cli; sys.exit('scipy.integrate' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestExitCodes:
    def test_schema_error_names_line(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("y,d,z,x1\n1.0,0,0,1.0\n2.0,1,2,1.0\n")
        code = main(["estimate-iv", "--input", str(src), "--q", "0.1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "line 3" in err and "z" in err

    def test_non_numeric_field_names_line(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("y,d,r\n1.0,0,-0.5\noops,1,0.5\n")
        code = main(["estimate-rdd", "--input", str(src), "--q", "0.1"])
        assert code == 3
        assert "line 3" in capsys.readouterr().err

    def test_wrong_header(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("y,d\n1.0,0\n")
        assert main(["estimate-rdd", "--input", str(src), "--q", "0.1"]) == 3
        assert "y,d,r" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["estimate-rdd", "--input", str(tmp_path / "nope.csv"),
                     "--q", "0.1"]) == 3

    def test_empty_q_list(self, tmp_path):
        src = tmp_path / "toy.csv"
        write_rdd_toy(src)
        assert main(["estimate-rdd", "--input", str(src)]) == 2

    def test_missing_input(self):
        assert main(["estimate-rdd", "--q", "0.1"]) == 2

    def test_unknown_config_field(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"qq": [0.1]}))
        assert main(["estimate-rdd", "--config", str(cfgfile)]) == 2

    def test_config_command_mismatch(self, tmp_path, capsys):
        src = tmp_path / "toy.csv"
        write_rdd_toy(src)
        assert run_estimate_rdd(tmp_path) == 0
        code = main(["estimate-iv", "--config", str(tmp_path / "out" / "run.json")])
        assert code == 2
        assert "estimate-rdd" in capsys.readouterr().err

    def test_interior_target_is_estimation_error(self, tmp_path, capsys):
        src = tmp_path / "toy.csv"
        write_rdd_toy(src)
        argv = ["estimate-rdd", "--input", str(src), "--q", "0.45",
                "--ymin-level", "0.8", "--b", "16", "--B", "120",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 4
        assert "estimation error" in capsys.readouterr().err

    def test_bad_flag_value(self):
        assert main(["estimate-rdd", "--q", "abc"]) == 2

    def test_no_command(self):
        assert main([]) == 2


class TestSimulateCommand:
    def test_small_run_writes_table(self, tmp_path):
        out = tmp_path / "sim"
        argv = ["simulate", "--design", "iv", "--n", "300", "--reps", "2",
                "--q", "0.025", "--B", "100", "--seed", "4", "--out", str(out)]
        assert main(argv) == 0
        lines = (out / "table.csv").read_text().splitlines()
        assert lines[0] == "n,stat,q=0.025"
        stats = [line.split(",")[1] for line in lines[1:]]
        assert stats == ["bias", "sd", "rmse", "cov95"]
        assert (out / "report.txt").read_text().startswith("design=iv")
        run = json.loads((out / "run.json").read_text())
        assert run["_meta"]["cells"][0]["n"] == 300

    def test_single_rep_has_zero_sd(self, tmp_path):
        out = tmp_path / "sim1"
        argv = ["simulate", "--design", "iv", "--n", "300", "--reps", "1",
                "--q", "0.025", "--B", "100", "--seed", "4", "--out", str(out)]
        assert main(argv) == 0
        lines = (out / "table.csv").read_text().splitlines()
        sd_row = next(line for line in lines if line.split(",")[1] == "sd")
        value = sd_row.split(",")[2]
        assert value == "" or float(value) == 0.0

    def test_rdd_threshold_an_ulp_below_a_knot_counts_as_flat(self, tmp_path):
        # replication 7, draw 275 re-selects an arm threshold an ulp below
        # the last knot with positive survival; that draw is a flat tail
        out = tmp_path / "sim_rdd"
        argv = ["simulate", "--design", "rdd", "--n", "10000", "--q", "0.025",
                "--B", "500", "--reps", "8", "--seed", "206000", "--out", str(out)]
        assert main(argv) == 0
        cell = json.loads((out / "run.json").read_text())["_meta"]["cells"][0]
        assert (cell["n_used"], cell["n_failed"]) == (8, 0)

    def test_unknown_design_rejected(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(
            {"design": "direct", "n": [300], "reps": 1, "q": [0.025]}
        ))
        assert main(["simulate", "--config", str(cfgfile)]) == 2
