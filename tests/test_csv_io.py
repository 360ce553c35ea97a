"""The CLI's array CSV reader and writers against their row-by-row forms.

read_estimation_csv parses a body of plain numbers with array operations
and sends every other file through its row loop. The row loop is the
oracle: on any text the two must return bitwise-equal arrays or raise
DataError with the same message.
"""

import io
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xqte import cli
from xqte.cli import DataError, read_cdf_csv, read_estimation_csv, write_cdf_csv
from xqte.core import StepCdf

HEADERS = {"iv": ["y", "d", "z", "x1", "x2"], "rdd": ["y", "d", "r"]}

_digits = st.text("0123456789", min_size=1, max_size=25)


@st.composite
def plain_number(draw, clean):
    """A number made of plain bytes: digits, point, exponent and sign.
    Unless clean, it may also be malformed, overflow or sit in the wrong
    column."""
    kinds = ["repr", "g17", "sci", "digits"] + ([] if clean else ["raw", "binary"])
    kind = draw(st.sampled_from(kinds))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    if kind == "repr":
        text = repr(draw(finite))
    elif kind == "g17":
        text = "%.17g" % draw(finite)
    elif kind == "sci":
        text = "%.*e" % (draw(st.integers(0, 20)), draw(finite))
    elif kind == "digits":
        whole, frac = draw(_digits), draw(_digits)
        text = draw(st.sampled_from([whole, f"{whole}.{frac}", f".{frac}", f"{whole}."]))
        if draw(st.booleans()):
            # up to 1e999, which overflows to inf, unless clean
            exp = draw(st.integers(-420, 250 if clean else 420))
            sign = draw(st.sampled_from(["", "+"])) if exp >= 0 else ""
            text += draw(st.sampled_from(["e", "E"])) + sign + str(exp)
            if clean and float(text) == math.inf:
                text = "0"
    elif kind == "raw":
        # anything made of the plain bytes, mostly not a number
        return draw(st.text("0123456789+-.eE", max_size=6))
    else:
        return draw(binary_field(clean))
    if not text.startswith("-"):
        text = draw(st.sampled_from(["", "+", "-"])) + text
    return text


def binary_field(clean):
    good = ["0", "1", "0.0", "1.0", "-0", "+1", "1e0", "0e5", ".0", "00", "-0.e-3"]
    return st.sampled_from(good if clean else good + ["2", "0.5", "-1", "1e999", "."])


odd_field = st.sampled_from([
    '"1.5"', '" 0"', "1.0 ", " 2", "\t3", "1_000.5", "1__0", "_1", "nan", "-inf", "inf",
    "Infinity", "NaN", "١٢", "1e999", "-1e999", "1e-400", "0x10", "", "abc", "1,5", "\"a,b\"",
])


@st.composite
def csv_text(draw):
    """Text of an input CSV. Level 0 is well formed and takes the array
    path; level 1 keeps to plain bytes but may be malformed (ragged rows,
    bad numbers, d or z outside {0, 1}, overflow); level 2 adds quotes,
    whitespace, underscores, nan/inf text, non-ASCII digits, CRLF and
    odd headers."""
    design = draw(st.sampled_from(["iv", "rdd"]))
    level = draw(st.integers(0, 2))
    header = list(HEADERS[design])
    if level == 2 and draw(st.integers(0, 4)) == 0:
        header[0] = draw(st.sampled_from([" y", "y ", '"y"', "Y", "y\r", ""]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0 if level else 1, 8))):
        fields = []
        for name in HEADERS[design]:
            field = binary_field(level == 0) if name in ("d", "z") else plain_number(level == 0)
            fields.append(draw(st.one_of(field, odd_field) if level == 2 else field))
        if level and draw(st.integers(0, 5)) == 0:
            # ragged: a field short or a field over
            fields = draw(st.sampled_from([fields[:-1], fields + ["1"]]))
        lines.append(",".join(fields))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])) if level == 2 else "")
    newline = draw(st.sampled_from(["\n", "\r\n"])) if level == 2 else "\n"
    text = newline.join(lines) + draw(st.sampled_from([newline, "", newline * 2]))
    return design, text


def read_both(path, design, monkeypatch):
    outcomes = []
    for row_loop in (False, True):
        with monkeypatch.context() as m:
            if row_loop:
                m.setattr(cli, "_load_plain", lambda path, design: None)
            try:
                data = read_estimation_csv(str(path), design)
            except DataError as exc:
                outcomes.append(("error", str(exc)))
            else:
                fields = ("y", "d", "z", "x") if design == "iv" else ("y", "d", "r")
                outcomes.append(("data", [(getattr(data, f).dtype.str, getattr(data, f).shape,
                                           getattr(data, f).tobytes()) for f in fields]))
    return outcomes


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_text())
def test_array_reader_matches_row_loop(tmp_path, monkeypatch, case):
    design, text = case
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    fast, oracle = read_both(path, design, monkeypatch)
    assert fast == oracle


def test_plain_file_takes_the_array_path(tmp_path, monkeypatch):
    # the property above would hold trivially if nothing reached loadtxt
    path = tmp_path / "in.csv"
    path.write_text("y,d,z,x1\n1.5,0,1,-2e-3\n\n+.25,1,0,7.\n")
    columns = cli._load_plain(str(path), "iv")
    assert columns is not None
    assert [(name, col.shape) for name, col in columns.items()] == [
        ("y", (2,)), ("d", (2,)), ("z", (2,)), ("x", (2, 1))]
    assert read_both(path, "iv", monkeypatch)[0] == read_both(path, "iv", monkeypatch)[1]


def test_a_pipe_is_read_by_the_row_loop(tmp_path):
    # a pipe can be read once only, so the array path, which scans the
    # body before it parses it, leaves it to the row loop
    text = "y,d,r\n1.5,1,0.25\n\n-2,0,-0.5\n"
    path = tmp_path / "in.csv"
    path.write_text(text)
    read, write = os.pipe()
    try:
        with os.fdopen(write, "w") as fh:
            fh.write(text)
        piped = read_estimation_csv(f"/dev/fd/{read}", "rdd")
    finally:
        os.close(read)
    data = read_estimation_csv(str(path), "rdd")
    for name in ("y", "d", "r"):
        assert getattr(piped, name).tobytes() == getattr(data, name).tobytes()


def test_seventeen_digit_values_parse_bit_exactly(tmp_path):
    rng = np.random.default_rng(5)
    values = np.concatenate([rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500),
                             [5e-324, -0.0, 1.7976931348623157e308, 0.1, 1 / 3]])
    path = tmp_path / "in.csv"
    rows = "".join(f"{float(v)!r},{i % 2},{-v:.17g}\n" for i, v in enumerate(values))
    path.write_text("y,d,r\n" + rows)
    data = read_estimation_csv(str(path), "rdd")
    assert data.y.tobytes() == values.tobytes()
    assert data.r.tobytes() == (-values).tobytes()


@given(st.lists(st.tuples(st.floats(), st.floats(), st.floats()), max_size=20),
       st.sampled_from(["", "0,", "1,"]))
def test_row_formatter_matches_per_value_format(rows, lead):
    cols = [np.array([r[j] for r in rows], dtype=float) for j in range(3)]
    expected = "".join(lead + ",".join(cli._fmt(v) for v in r) + "\n" for r in rows)
    assert cli._fmt_rows(*cols, lead=lead) == expected


def test_row_formatter_keeps_signed_zero_and_non_finite():
    text = cli._fmt_rows([-0.0, math.inf], [math.nan, -math.inf], [1e-320, 0.1])
    assert text == "-0,nan,9.9998886718268301e-321\ninf,-inf,0.10000000000000001\n"


_BLOCK = cli.WRITE_BLOCK_ROWS


@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 1])
@pytest.mark.parametrize("lead", ["", "1,"])
def test_block_writer_matches_the_whole_table(n, lead):
    rng = np.random.default_rng(n)
    cols = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n) for _ in range(3)]
    if n:
        cols[1][0], cols[2][-1] = -0.0, math.nan
    fh = io.StringIO()
    cli._write_rows(fh, *cols, lead=lead)
    assert fh.getvalue() == cli._fmt_rows(*cols, lead=lead)


def test_cdf_csv_longer_than_a_block_round_trips(tmp_path):
    rng = np.random.default_rng(9)
    n = 2 * _BLOCK + 17
    knots = np.cumsum(rng.exponential(size=n)) - 50.0
    v1, v0 = rng.standard_normal(n) / 3.0, rng.standard_normal(n) / 7.0
    write_cdf_csv(tmp_path / "cdf.csv",
                  SimpleNamespace(cdf1=StepCdf(knots, v1), cdf0=StepCdf(knots, v0)))
    c1, c0 = read_cdf_csv(tmp_path / "cdf.csv")
    assert c1.knots.tobytes() == knots.tobytes() == c0.knots.tobytes()
    assert c1.values.tobytes() == v1.tobytes()
    assert c0.values.tobytes() == v0.tobytes()
