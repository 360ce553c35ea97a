import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from xqte.cli import DataError, main, read_cdf_csv, read_estimation_csv
from xqte.core import substream
from xqte.pipeline import EstimatorSettings, fit_pipeline
from xqte.simulate import gen_iv, gen_rdd


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


def write_gen_csv(path, design, n, stream):
    """An input CSV of the simulation design's n rows at seed 1 and the
    given substream."""
    if design == "iv":
        data = gen_iv(substream(1, stream), n).data
        header = ",".join(["y", "d", "z"] + [f"x{i}" for i in range(1, data.x.shape[1] + 1)])
        table = np.column_stack([data.y, data.d, data.z, data.x])
    else:
        data = gen_rdd(substream(1, stream), n).data
        header, table = "y,d,r", np.column_stack([data.y, data.d, data.r])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


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

    @pytest.mark.parametrize("side, q", [("lower", "0.02"), ("upper", "0.98")])
    def test_flat_tail_arm_writes_strict_json(self, tmp_path, side, q):
        # on this sample arm 1's tail is flat at both sides: its index and
        # scale are infinite and must be written as null, not Infinity
        src = tmp_path / "rdd.csv"
        write_gen_csv(src, "rdd", 10_000, 1)
        out = tmp_path / "out"
        argv = ["estimate-rdd", "--input", str(src), "--q", q, "--tail-side", side,
                "--out", str(out)]
        assert main(argv) == 0
        run = json.loads((out / "run.json").read_text(),
                         parse_constant=lambda name: pytest.fail(f"{name} in run.json"))
        arm1, arm0 = run["_meta"]["arm1"], run["_meta"]["arm0"]
        assert arm1["alpha_hat"] is None and arm1["c_hat"] is None
        assert all(isinstance(v, float) for v in arm0.values())
        names = ("cdf.csv", "paretofit.csv", "qte.csv", "run.json")
        first = {name: (out / name).read_bytes() for name in names}
        # the replay writes into the same --out, taken from the file
        assert main(["estimate-rdd", "--config", str(out / "run.json")]) == 0
        assert {name: (out / name).read_bytes() for name in names} == first

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


def run_python(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], env=env).returncode


def test_cli_import_leaves_out_numerical_integration():
    # quadrature serves only the test oracles and special functions only
    # the instrument logit; starting a command must not pay for importing
    # either
    code = ("import sys, xqte.cli; "
            "sys.exit('scipy.integrate' in sys.modules or 'scipy.special' in sys.modules)")
    assert run_python(code) == 0


def test_cli_start_leaves_out_multiprocessing(tmp_path):
    # only a Monte Carlo run worth a pool starts worker processes;
    # importing the CLI, asking a command for its help or estimating on a
    # 2 MB file of 10^4 rows must not pay for the import, and neither the
    # CSV parse nor an estimate's draws ever fork, however long the file,
    # however many CPUs are free and wherever the gate (core.FORK_MIN_ROWS)
    # stands
    write_gen_csv(tmp_path / "iv.csv", "iv", 10_000, 0)
    write_gen_csv(tmp_path / "rdd.csv", "rdd", 10_000, 1)
    large = tmp_path / "iv4e4.csv"
    write_gen_csv(large, "iv", 40_000, 0)
    assert large.stat().st_size > 8 << 20
    estimates = [[f"estimate-{design}", "--input", str(tmp_path / f"{design}.csv"),
                  "--q", "0.02", "--out", str(tmp_path / design)] for design in ("iv", "rdd")]
    codes = ["import sys, xqte.cli; sys.exit('multiprocessing' in sys.modules)"]
    for argv in (["simulate", "--help"], ["estimate-iv", "--help"], *estimates):
        codes.append(f"import sys; from xqte.cli import main; main({argv!r}); "
                     "sys.exit('multiprocessing' in sys.modules)")
    codes.append("import sys; from xqte import cli, core; core._usable_cpus = lambda: 2; "
                 f"assert cli.read_estimation_csv({str(large)!r}, 'iv').n == 40_000; "
                 "sys.exit('multiprocessing' in sys.modules)")
    codes.append("import sys; from xqte import cli, core; core._usable_cpus = lambda: 2; "
                 f"core.FORK_MIN_ROWS = 0; cli.main({estimates[0]!r}); "
                 "sys.exit('multiprocessing' in sys.modules)")
    for code in codes:
        assert run_python(code) == 0
    for design in ("iv", "rdd"):
        assert (tmp_path / design / "cdf.csv").stat().st_size > 0


def test_discontinuity_estimate_leaves_out_special_functions(tmp_path):
    src = tmp_path / "toy.csv"
    write_rdd_toy(src)
    argv = ["estimate-rdd", "--input", str(src), "--q", "0.1", "--ymin-level", "0.8",
            "--b", "16", "--B", "120", "--out", str(tmp_path / "out")]
    code = ("import sys; from xqte.cli import main; "
            f"sys.exit(main({argv!r}) or 10 * ('scipy.special' in sys.modules))")
    assert run_python(code) == 0


def test_instrument_commands_run_without_scipy(tmp_path):
    # the package needs only numpy; scipy serves the tests and oracles
    src = tmp_path / "iv.csv"
    write_iv_toy(src)
    estimate = ["estimate-iv", "--input", str(src), "--q", "0.1", "--ymin-level", "0.7",
                "--b", "48", "--B", "100", "--seed", "3", "--out", str(tmp_path / "est")]
    simulate = ["simulate", "--design", "iv", "--n", "300", "--reps", "2", "--q", "0.025",
                "--B", "100", "--seed", "4", "--out", str(tmp_path / "sim")]
    code = ("import sys; sys.modules['scipy'] = None; from xqte.cli import main; "
            f"sys.exit(main({estimate!r}) or main({simulate!r}))")
    assert run_python(code) == 0
    assert (tmp_path / "est" / "qte.csv").exists() and (tmp_path / "sim" / "table.csv").exists()


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

    @pytest.mark.parametrize("command, fields, message", [
        ("simulate", {"design": "iv", "n": [300], "reps": "1", "q": [0.025]},
         "config field 'reps' must be an integer, got '1'"),
        ("estimate-rdd", {"B": "500"}, "config field 'B' must be an integer, got '500'"),
        ("estimate-rdd", {"q": 0.025}, "config field 'q' must be a list of numbers, got 0.025"),
        ("estimate-rdd", {"b": 2.5}, "config field 'b' must be an integer or null, got 2.5"),
        ("estimate-rdd", {"omega": True}, "config field 'omega' must be a number, got True"),
    ], ids=["reps-text", "B-text", "q-scalar", "b-fraction", "omega-bool"])
    def test_mistyped_config_values_are_config_errors(
        self, tmp_path, capsys, command, fields, message
    ):
        src = tmp_path / "toy.csv"
        write_rdd_toy(src)
        cfgfile = tmp_path / "c.json"
        base = {} if command == "simulate" else {"input": str(src), "q": [0.1], "B": 120}
        cfgfile.write_text(json.dumps({**base, **fields}))
        argv = [command, "--config", str(cfgfile), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_discontinuity_shift_that_merges_knots_is_estimation_error(self, tmp_path, capsys):
        # most outcomes near -1e20 put both arm thresholds there; shifting
        # them positive rounds every outcome in (0, 1) onto one value
        rng = substream(0, 0)
        base = gen_rdd(rng, 4000).data
        far = rng.random(4000) < 0.988
        y = np.where(far, -1e20 - rng.uniform(0.0, 1e5, 4000), rng.random(4000))
        src = tmp_path / "far.csv"
        np.savetxt(src, np.column_stack([y, base.d, base.r]), fmt="%.17g",
                   delimiter=",", header="y,d,r", comments="")
        argv = ["estimate-rdd", "--input", str(src), "--tail-side", "upper",
                "--q", "0.98", "--out", str(tmp_path / "out")]
        assert main(argv) == 4
        assert "estimation error (ShiftMergesKnots)" in capsys.readouterr().err

    def test_constant_instrument_is_estimation_error(self, tmp_path, capsys):
        # 500 rows with every z at 1: the propensity logit is not identified
        src = tmp_path / "iv.csv"
        write_gen_csv(src, "iv", 500, 0)
        header = src.read_text().partition("\n")[0]
        table = np.loadtxt(src, delimiter=",", skiprows=1)
        table[:, header.split(",").index("z")] = 1.0
        np.savetxt(src, table, fmt="%.17g", delimiter=",", header=header, comments="")
        argv = ["estimate-iv", "--input", str(src), "--q", "0.02", "--out", str(tmp_path / "o")]
        assert main(argv) == 4
        assert "estimation error (DegenerateDenominator)" in capsys.readouterr().err

    @pytest.mark.parametrize("d", [0.0, 1.0])
    def test_constant_treatment_is_estimation_error(self, tmp_path, capsys, d):
        # 500 rows with one treatment value: no unit is a complier, though
        # the estimated complier mass is noise of order n^-1/2, not 0
        src = tmp_path / "iv.csv"
        write_gen_csv(src, "iv", 500, 0)
        header = src.read_text().partition("\n")[0]
        table = np.loadtxt(src, delimiter=",", skiprows=1)
        table[:, header.split(",").index("d")] = d
        np.savetxt(src, table, fmt="%.17g", delimiter=",", header=header, comments="")
        argv = ["estimate-iv", "--input", str(src), "--q", "0.02", "--out", str(tmp_path / "o")]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "estimation error (DegenerateDenominator)" in err
        assert f"d is {d:g} for every unit; there is no first stage" in err

    def test_interior_target_is_estimation_error(self, tmp_path, capsys):
        src = tmp_path / "toy.csv"
        write_rdd_toy(src)
        argv = ["estimate-rdd", "--input", str(src), "--q", "0.45",
                "--ymin-level", "0.8", "--b", "16", "--B", "120",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 4
        assert "estimation error" in capsys.readouterr().err

    def test_nan_estimate_is_estimation_error(self, tmp_path, capsys):
        # both arms' tail index at 1e-4: their extrapolated quantiles
        # overflow, and the effect would be inf - inf
        def tiny_index_fit(*args, **kwargs):
            pipe = fit_pipeline(*args, **kwargs)
            fit1, fit0 = (dataclasses.replace(f, alpha_hat=1e-4) for f in (pipe.fit1, pipe.fit0))
            return dataclasses.replace(pipe, fit1=fit1, fit0=fit0)

        with mock.patch("xqte.cli.fit_pipeline", tiny_index_fit):
            assert run_estimate_rdd(tmp_path) == 4
        assert "UndefinedEstimate" in capsys.readouterr().err
        assert not (tmp_path / "out" / "qte.csv").exists()

    def test_subsample_as_large_as_the_input_is_config_error(self, tmp_path, capsys):
        # the toy input has 20 rows; b is checked against them after the parse
        assert run_estimate_rdd(tmp_path, **{"--b": "20"}) == 2
        assert "b=20 not in (1, n) for n=20" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--B", "99"], "need at least 100 subsample draws"),
        (["--b", "1"], "subsample size b must be at least 2"),
        (["--ci-level", "1"], "ci_level must lie in (0, 1)"),
        (["--omega", "0"], "omega must be positive"),
        (["--q", "1.5"], "quantile level 1.5 outside (0, 1)"),
    ])
    def test_invalid_settings_are_config_errors(self, tmp_path, capsys, flags, message):
        src = tmp_path / "missing.csv"
        argv = ["estimate-rdd", "--input", str(src), "--q", "0.1", *flags]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--design", "iv", "--reps", "1"], "simulate needs at least one sample size (--n)"),
        (["--design", "iv", "--n", "300"], "simulate needs a positive replication count (--reps)"),
        (["--n", "300", "--reps", "1"], "unknown simulated design None"),
        (["--design", "rdd", "--n", "300", "--reps", "1", "--B", "50"],
         "need at least 100 subsample draws"),
    ])
    def test_invalid_simulate_settings_are_config_errors(self, capsys, flags, message):
        assert main(["simulate", "--q", "0.02", *flags]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_bad_flag_value(self):
        assert main(["estimate-rdd", "--q", "abc"]) == 2

    def test_no_command(self):
        assert main([]) == 2


class TestReaderInputs:
    """Messages and accepted values of read_estimation_csv on the inputs
    that leave the plain-number layout."""

    @pytest.mark.parametrize("design, text, message", [
        ("iv", b"y,d,z,x1\n1.0,0,0,1.0\n1e999,1,1,2.0\n",
         "line 3: column y must be finite, got '1e999'"),
        ("rdd", b"y,d,r\n1.0,0,-0.5\n2.0,1,inf\n",
         "line 3: column r must be finite, got 'inf'"),
        ("rdd", b"y,d,r\n1.0,0,nan\n",
         "line 2: column r must be finite, got 'nan'"),
        ("rdd", b"y,d,r\n1.0,0,-0.5\n2.0,2,0.5\n",
         "line 3: column d must be 0 or 1, got '2'"),
        ("iv", b"y,d,z,x1\n1.0,0,0,1.0\n2.0,1,2,1.0\n",
         "line 3: column z must be 0 or 1, got '2'"),
        ("rdd", b"y,d,r\n", "input file has a header but no data rows"),
        ("rdd", b"y,d,r\n\n\n", "input file has a header but no data rows"),
        ("rdd", b"", "input file is empty"),
        ("rdd", b"y,d,r\n" + b"1.0,0,-0.5\n" * 50 + b"2.0,1\n",
         "line 52: expected 3 fields, found 2"),
        ("rdd", b"y,d,r\n1.0,0,-0.5\n1.0,0,-0.5,\n",
         "line 3: expected 3 fields, found 4"),
        ("rdd", b"y,d,r\n1.0,,-0.5\n", "line 2: column d has non-numeric value ''"),
        ("rdd", b"y,d,r\n1.0,0,-0.5\n1e,0,0.5\n", "line 3: column y has non-numeric value '1e'"),
        ("iv", b"y,d,z\n1.0,0,0\n",
         "instrument input needs header y,d,z,x1,...,xk with k >= 1; got y,d,z"),
    ])
    def test_error_message(self, tmp_path, design, text, message):
        src = tmp_path / "in.csv"
        src.write_bytes(text)
        with pytest.raises(DataError) as info:
            read_estimation_csv(str(src), design)
        assert str(info.value) == message

    @pytest.mark.parametrize("text", [
        b"y,d,r\n\n1.0,0,-0.5\n\n2.0,1,0.5\n\n",     # blank lines
        b"y,d,r\r\n1.0,0,-0.5\r\n2.0,1,0.5\r\n",     # CRLF line endings
        b'y,d,r\n"1.0",0,-0.5\n2.0,"1",0.5\n',       # quoted fields
        b"y,d,r\n 1.0 ,0, -0.5\n2.0,1,0.5\n",        # fields padded with spaces
        b" y , d ,r\n1.0,0,-0.5\n2.0,1,0.5",         # padded header, no final newline
        b"y,d,r\n1_0e-1,0,-0.5\n+2.0,1,.5e0\n",      # underscores, signs, bare fraction
    ])
    def test_accepted_layouts(self, tmp_path, text):
        src = tmp_path / "in.csv"
        src.write_bytes(text)
        data = read_estimation_csv(str(src), "rdd")
        assert data.y.tolist() == [1.0, 2.0]
        assert data.d.tolist() == [0, 1]
        assert data.r.tolist() == [-0.5, 0.5]

    def test_non_ascii_digits_accepted(self, tmp_path):
        # float() reads any Unicode decimal digit
        src = tmp_path / "in.csv"
        src.write_text("y,d,r\n١.5,0,-0.5\n", encoding="utf-8")
        data = read_estimation_csv(str(src), "rdd")
        assert data.y.tolist() == [1.5]


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

    def test_subsample_as_large_as_a_sample_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "sim"
        argv = ["simulate", "--design", "iv", "--n", "1000", "300", "--q", "0.02",
                "--reps", "1", "--b", "300", "--B", "100", "--out", str(out)]
        with mock.patch("xqte.cli.run_mc", side_effect=AssertionError("replications ran")):
            assert main(argv) == 2
        assert "b=300 not in (1, n) for n=300" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_design_rejected(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(
            {"design": "direct", "n": [300], "reps": 1, "q": [0.025]}
        ))
        assert main(["simulate", "--config", str(cfgfile)]) == 2
