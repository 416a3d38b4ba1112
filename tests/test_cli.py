"""End-to-end exercises of the command-line surface.

Every test drives cli.main in process with a temp directory, checking the
files it leaves behind rather than internal state; byte comparisons double
as determinism checks because all writes are atomic and timestamp-free.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetrend.cli import (
    _write_csv,
    _write_trend,
    main,
    read_matrix,
    read_series,
    read_trend,
)
from wavetrend.errors import WavetrendError
from wavetrend.scenarios import scenario
from wavetrend.spectrum import estimate_spectrum
from wavetrend.trend import NONLINEAR, EstimatorConfig, estimate_trend


def run(*argv):
    return main([str(a) for a in argv])


def write_series_csv(path, values):
    path.write_text("value\n" + "\n".join(repr(float(v)) for v in values) + "\n")


def test_sim_scenario_deterministic(tmp_path):
    d = tmp_path / "out"
    assert run("sim", "--scenario", "x1", "--seed", 3, "--out-dir", d) == 0
    first = (d / "series.csv").read_bytes()
    meta_first = (d / "metadata.json").read_bytes()
    assert run("sim", "--scenario", "x1", "--seed", 3, "--out-dir", d) == 0
    assert (d / "series.csv").read_bytes() == first
    assert (d / "metadata.json").read_bytes() == meta_first
    assert run("sim", "--scenario", "x1", "--seed", 4, "--out-dir", d) == 0
    assert (d / "series.csv").read_bytes() != first
    meta = json.loads((d / "metadata.json").read_text())
    assert meta["scenario"] == "x1" and meta["n"] == 512 and meta["seed"] == 4


def test_sim_roundtrip_is_value_exact(tmp_path):
    d = tmp_path / "out"
    assert run("sim", "--scenario", "x2", "--seed", 11, "--out-dir", d) == 0
    x = read_series(d / "series.csv")
    assert np.array_equal(x, scenario("x2").simulate(seed=11))


def test_csv_writer_bytes_are_17_digit_format(tmp_path):
    # pinned against per-value format(v, ".17g"), which reads back value-exact
    v = np.array([-0.0, 5e-324, 1e300, -1e300, 3.0, -2.0, 0.1, 1 / 3])
    g17 = [format(float(a), ".17g") for a in v]
    lo = [format(float(a), ".17g") for a in v[::-1]]
    hi = [format(float(a), ".17g") for a in 2 * v]
    _write_csv(tmp_path / "series.csv", v, "value")
    _write_csv(tmp_path / "matrix.csv", np.stack([v, v[::-1]]))
    _write_trend(tmp_path / "plain.csv", v)
    _write_trend(tmp_path / "ci.csv", v, v[::-1], 2 * v)
    want = {
        "series.csv": "value\n" + "".join(f"{a}\n" for a in g17),
        "matrix.csv": ",".join(g17) + "\n" + ",".join(lo) + "\n",
        "plain.csv": "t,estimate,lo,hi\n" + "".join(f"{t},{a},,\n" for t, a in enumerate(g17)),
        "ci.csv": "t,estimate,lo,hi\n"
        + "".join(f"{t},{a},{b},{c}\n" for t, (a, b, c) in enumerate(zip(g17, lo, hi))),
    }
    for name, text in want.items():
        assert (tmp_path / name).read_bytes() == text.encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(want)


def test_sim_pure_trend_from_csv(tmp_path):
    trend = np.linspace(-1.0, 1.0, 32)
    src = tmp_path / "trend.csv"
    write_series_csv(src, trend)
    d = tmp_path / "out"
    assert run("sim", "--trend-csv", src, "--out-dir", d) == 0
    assert np.allclose(read_series(d / "series.csv"), trend, atol=0)


def test_sim_negative_spectrum_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.csv"
    rows = [["1.0"] * 8 for _ in range(3)]
    rows[0][5] = "-1.0"
    spec.write_text("\n".join(",".join(r) for r in rows) + "\n")
    rc = run("sim", "--spec-csv", spec, "--out-dir", tmp_path / "out")
    assert rc == 2
    assert "NegativeSpectrum" in capsys.readouterr().err


def test_sim_without_source_exits_2(tmp_path, capsys):
    assert run("sim", "--out-dir", tmp_path) == 2
    assert "scenario" in capsys.readouterr().err


def test_analyze_non_dyadic_length(tmp_path):
    rng = np.random.default_rng(21)
    src = tmp_path / "series.csv"
    write_series_csv(src, rng.standard_normal(300))
    d = tmp_path / "out"
    assert run("analyze", src, "--out-dir", d) == 0
    spec = np.loadtxt(d / "spectrum.csv", delimiter=",")
    assert spec.shape == (5, 300)  # floor(0.7 log2 300) scales
    est, lo, hi = read_trend(d / "trend.csv")
    assert est.size == 300 and lo is None and hi is None
    lacv = np.loadtxt(d / "lacv.csv", delimiter=",")
    assert lacv.shape == (300, 58)  # floor(10 ln 300) lags plus lag 0
    meta = json.loads((d / "metadata.json").read_text())
    assert meta["n"] == 300
    assert meta["spectrum"]["max_scale"] == 5
    assert meta["lacv"]["lag_max"] == 57
    assert meta["trend"]["est_type"] == "linear"


def test_trend_bootstrap_ci_deterministic(tmp_path):
    d = tmp_path / "out"
    assert run("sim", "--scenario", "x1", "--seed", 1, "--out-dir", d) == 0
    src = d / "series.csv"
    args = ("trend", src, "--out-dir", d, "--ci", "normal", "--reps", 100, "--seed", 7)
    assert run(*args) == 0
    first = (d / "trend.csv").read_bytes()
    est, lo, hi = read_trend(d / "trend.csv")
    assert lo is not None and np.all(lo <= est) and np.all(est <= hi)
    assert np.any(hi > lo)
    assert run(*args) == 0
    assert (d / "trend.csv").read_bytes() == first
    meta = json.loads((d / "metadata.json").read_text())
    assert meta["trend"]["ci"] is True
    assert meta["trend"]["ci_type"] == "normal"
    assert meta["trend"]["reps"] == 100


def test_trend_analytic_ci(tmp_path):
    rng = np.random.default_rng(22)
    src = tmp_path / "series.csv"
    write_series_csv(src, rng.standard_normal(300))
    d = tmp_path / "out"
    rc = run("trend", src, "--out-dir", d, "--t-transform", "dec",
             "--ci", "analytic", "--lag-max", 20)
    assert rc == 0
    est, lo, hi = read_trend(d / "trend.csv")
    assert lo is not None and np.any(hi > lo)
    meta = json.loads((d / "metadata.json").read_text())
    assert meta["trend"]["ci_type"] == "analytic"
    assert meta["lacv"]["lag_max"] == 20
    assert "spectrum" in meta


def test_trend_without_ci_leaves_columns_empty(tmp_path):
    d = tmp_path / "out"
    assert run("sim", "--scenario", "x1", "--seed", 2, "--out-dir", d) == 0
    assert run("trend", d / "series.csv", "--out-dir", d) == 0
    lines = (d / "trend.csv").read_text().splitlines()
    assert lines[0] == "t,estimate,lo,hi"
    assert all(line.endswith(",,") for line in lines[1:])
    est, lo, hi = read_trend(d / "trend.csv")
    assert est.size == 512 and lo is None and hi is None


def test_nonlinear_trend_matches_library_fit(tmp_path):
    # the CLI passes its unfloored spectrum; the estimator floors it, as it
    # does for a library caller (they were 1.04 apart on this series)
    x = scenario("x1").simulate(seed=3)
    src = tmp_path / "series.csv"
    write_series_csv(src, x)
    assert run("trend", src, "--est-type", "nonlinear", "--diff", 1, "--out-dir", tmp_path) == 0
    fit = estimate_trend(x, EstimatorConfig(method=NONLINEAR), estimate_spectrum(x, diff=(1, 1)))
    assert np.array_equal(read_trend(tmp_path / "trend.csv")[0], fit.values)


def test_nonlinear_pairing_note(tmp_path):
    d = tmp_path / "out"
    assert run("sim", "--scenario", "x1", "--seed", 8, "--out-dir", d) == 0
    assert run("trend", d / "series.csv", "--out-dir", d, "--est-type", "nonlinear") == 0
    meta = json.loads((d / "metadata.json").read_text())
    assert any("undifferenced" in note for note in meta["notes"])
    assert run("trend", d / "series.csv", "--out-dir", d, "--est-type", "nonlinear",
               "--diff", 1) == 0
    meta = json.loads((d / "metadata.json").read_text())
    assert meta["notes"] == []
    assert meta["spectrum"]["do_diff"] is True and meta["spectrum"]["lag"] == 1


def test_linear_trend_without_spectrum_has_no_pairing_note(tmp_path):
    # no interval and no threshold: no spectrum is estimated, so --diff pairs nothing
    src = tmp_path / "series.csv"
    write_series_csv(src, np.random.default_rng(29).standard_normal(64))
    assert run("trend", src, "--out-dir", tmp_path, "--diff", 1) == 0
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["notes"] == [] and "spectrum" not in meta


def test_spec_binwidth_clamped_on_short_series(tmp_path):
    rng = np.random.default_rng(23)
    src = tmp_path / "series.csv"
    write_series_csv(src, rng.standard_normal(20))
    d = tmp_path / "out"
    assert run("spec", src, "--out-dir", d) == 0
    meta = json.loads((d / "metadata.json").read_text())
    assert meta["spectrum"]["binwidth"] == 9
    assert meta["spectrum"]["binwidth_clamped"] is True


def test_plot_renders_all_figures(tmp_path):
    d = tmp_path / "out"
    assert run("sim", "--scenario", "x1", "--seed", 5, "--out-dir", d) == 0
    assert run("analyze", d / "series.csv", "--out-dir", d) == 0
    assert run("plot", "--out-dir", d) == 0
    svg = (d / "spectrum.svg").read_text()
    assert svg.count(">scale ") == 6  # one panel per analysis scale at n = 512
    trend_svg = (d / "trend.svg").read_text()
    assert "<path" not in trend_svg  # no interval, no band
    assert (d / "lacf.svg").exists()
    global_bytes = (d / "spectrum.svg").read_bytes()
    assert run("plot", "--out-dir", d) == 0
    assert (d / "spectrum.svg").read_bytes() == global_bytes
    assert run("plot", "--out-dir", d, "--scaling", "by-level") == 0
    assert (d / "spectrum.svg").read_bytes() != global_bytes


def test_plot_draws_band_with_interval(tmp_path):
    d = tmp_path / "out"
    assert run("sim", "--scenario", "x1", "--seed", 9, "--out-dir", d) == 0
    assert run("trend", d / "series.csv", "--out-dir", d,
               "--ci", "percentile", "--reps", 40, "--seed", 1) == 0
    assert run("plot", "--out-dir", d, "--plot-type", "trend") == 0
    assert "<path" in (d / "trend.svg").read_text()


def test_plot_empty_dir_exits_3(tmp_path, capsys):
    assert run("plot", "--out-dir", tmp_path) == 3
    assert "no result CSVs" in capsys.readouterr().err


def test_missing_input_exits_3(tmp_path):
    assert run("trend", tmp_path / "nope.csv", "--out-dir", tmp_path) == 3


def test_short_series_exits_2(tmp_path, capsys):
    src = tmp_path / "series.csv"
    write_series_csv(src, np.arange(10.0))
    assert run("spec", src, "--out-dir", tmp_path) == 2
    assert "SeriesTooShort" in capsys.readouterr().err


def test_bad_series_file_exits_2(tmp_path, capsys):
    src = tmp_path / "series.csv"
    src.write_text("value\n1.0\nnan\n")
    assert run("spec", src, "--out-dir", tmp_path) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")  # an overflow warning before the error fails it
def test_huge_series_exits_2(tmp_path, capsys):
    # its periodogram squares overflow: once exit 0 with NaN spectrum.csv and lacv.csv
    src = tmp_path / "series.csv"
    write_series_csv(src, 1e160 * np.random.default_rng(5).standard_normal(256))
    assert run("analyze", src, "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "rescale the series" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out" / "spectrum.csv").exists()


@pytest.mark.parametrize("ci", ["analytic", "normal"])
@pytest.mark.parametrize("alpha", ["0", "1", "1.5", "-0.1", "nan"])
def test_bad_significance_level_exits_2(tmp_path, capsys, alpha, ci):
    src = tmp_path / "series.csv"
    write_series_csv(src, np.random.default_rng(0).standard_normal(64))
    assert run("trend", src, "--out-dir", tmp_path, "--t-transform", "dec",
               "--ci", ci, "--t-sig-lvl", alpha) == 2
    assert "significance level" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["time,value\n0,1.5\n1,2.5,9\n2,0.5\n",
                                  "time,value\n0,1.5\n2\n3,0.5\n"])
def test_ragged_series_rows_exit_2(tmp_path, capsys, text):
    # a longer row was read at its last cell, a shorter one at its time index
    src = tmp_path / "series.csv"
    src.write_text(text)
    assert run("spec", src, "--out-dir", tmp_path) == 2
    assert "every row" in capsys.readouterr().err


def test_zero_difference_order_exits_2(tmp_path, capsys):
    src = tmp_path / "series.csv"
    write_series_csv(src, np.random.default_rng(27).standard_normal(64))
    assert run("analyze", src, "--out-dir", tmp_path / "out", "--s-do-diff",
               "--s-diff-number", 0) == 2
    assert "InvalidDiffSpec" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metadata.json").exists()


@pytest.mark.parametrize("depth", [0, -1])
@pytest.mark.parametrize("boundary", ["--t-boundary-handle", "--no-t-boundary-handle"])
def test_trend_depth_below_one_exits_2(tmp_path, capsys, depth, boundary):
    # -1 with boundary handling once ended in a TypeError traceback (exit 1)
    src = tmp_path / "series.csv"
    write_series_csv(src, np.random.default_rng(29).standard_normal(64))
    assert run("trend", src, "--out-dir", tmp_path / "out", "--t-max-scale", depth,
               boundary) == 2
    err = capsys.readouterr().err
    assert err == "ScaleTooDeep: levels must be at least 1\n"
    assert not (tmp_path / "out" / "trend.csv").exists()


def test_unknown_flag_raises_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("trend", tmp_path / "x.csv", "--bogus")
    assert exc.value.code == 2


def _refused(fragment):
    return WavetrendError, fragment


# (id, reader, input text, the values read or (refusal class, fragment of its text));
# the first row counts as a header when one of its nonblank cells is not a number
READER_TABLE = [
    ("header", read_series, "value\n1.5\n-2.25\n", [1.5, -2.25]),
    ("no_header", read_series, "1.5\n-2.25\n", [1.5, -2.25]),
    ("blank_lines", read_series, "\nvalue\n\n1.5\n\n-2.25\n\n", [1.5, -2.25]),
    ("whitespace_only_lines", read_series, "value\n  \n1.5\n\t\n -2.25 \n , \n", [1.5, -2.25]),
    ("crlf", read_series, "value\r\n1.5\r\n\r\n-2.25\r\n", [1.5, -2.25]),
    ("no_final_newline", read_series, "value\n1.5\n-2.25", [1.5, -2.25]),
    ("two_columns", read_series, "time,value\n0,1.5\n1,-2.25\n2,0.125\n", [1.5, -2.25, 0.125]),
    ("three_columns", read_series, "0,1.5,2\n1,-2.25,3\n", _refused("one or two columns")),
    # R's write.csv: a quoted header whose row-name column is named "", quoted row names
    ("r_quoted", read_series, '"","x"\n"1",1.5\n"2",-2.25\n', [1.5, -2.25]),
    ("bom_header", read_series, "\ufeffvalue\n1.5\n-2.25\n", [1.5, -2.25]),
    # a first cell read as "\ufeff1.5" would make the first row a header
    ("bom_no_header", read_series, "\ufeff1.5\n2.5\n3.5\n", [1.5, 2.5, 3.5]),
    ("header_only", read_series, "value\n", _refused("is empty")),
    ("empty", read_series, "", _refused("is empty")),
    ("ragged_long", read_series, "time,value\n0,1.5\n1,2.5,9\n2,0.5\n",
     _refused("every row needs the 2 columns of the first")),
    ("ragged_short", read_series, "time,value\n0,1.5\n2\n3,0.5\n",
     _refused("every row needs the 2 columns of the first")),
    ("body_non_number", read_series, "value\n1.5\nabc\n",
     _refused("could not convert string to float: 'abc'")),
    ("series_nan", read_series, "value\n1.5\nnan\n", _refused("values must be finite")),
    ("series_inf", read_series, "value\n1.5\n-inf\n", _refused("values must be finite")),
    ("matrix", read_matrix, "a,b,c\n1,2,3\n4,5,6\n", [[1, 2, 3], [4, 5, 6]]),
    ("matrix_nan_inf", read_matrix, "1.5,nan\ninf,-2.25\n", [[1.5, np.nan], [np.inf, -2.25]]),
    ("trend_interval", read_trend, "t,estimate,lo,hi\n0,1.5,1,2\n1,2.5,2,3\n",
     ([1.5, 2.5], [1, 2], [2, 3])),
    ("trend_no_interval", read_trend, "t,estimate,lo,hi\n0,1.5,,\n1,2.5,,\n",
     ([1.5, 2.5], None, None)),
    ("trend_part_interval", read_trend, "t,estimate,lo,hi\n0,1.5,1,2\n1,2.5,,\n",
     ([1.5, 2.5], None, None)),
]


@pytest.mark.parametrize("reader,text,expected", [pytest.param(*row[1:], id=row[0])
                                                  for row in READER_TABLE])
def test_reader_table(tmp_path, reader, text, expected):
    src = tmp_path / "input.csv"
    src.write_bytes(text.encode())
    if isinstance(expected[0], type):
        error, fragment = expected
        with pytest.raises(error, match=re.escape(fragment)) as exc:
            reader(src)
        assert str(src) in str(exc.value)
        return
    got = reader(src)
    if reader is read_trend:
        assert [None if g is None else g.tolist() for g in got] == list(expected)
    else:
        assert np.array_equal(got, expected, equal_nan=True)


BASE_KEYS = {"command", "input", "out_dir", "n", "seed"}


@pytest.mark.parametrize("argv,extra", [
    (("spec",), {"spectrum"}),
    (("lacf",), {"spectrum", "lacv"}),
    (("analyze",), {"spectrum", "trend", "notes", "lacv"}),
    (("trend",), {"trend", "notes"}),
    (("trend", "--est-type", "nonlinear"), {"spectrum", "trend", "notes"}),
    (("trend", "--t-transform", "dec", "--ci", "analytic"), {"spectrum", "trend", "notes", "lacv"}),
    (("trend", "--ci", "normal", "--reps", 40), {"spectrum", "trend", "notes"}),
])
def test_metadata_keys_per_command(tmp_path, argv, extra):
    src = tmp_path / "series.csv"
    write_series_csv(src, np.random.default_rng(24).standard_normal(64))
    d = tmp_path / "out"
    assert run(argv[0], src, "--out-dir", d, *argv[1:]) == 0
    assert set(json.loads((d / "metadata.json").read_text())) == BASE_KEYS | extra


TREND_META = {
    "est_type": "linear", "transform": "nondec", "filter_number": 4,
    "family": "extremal_phase", "max_scale": 4, "boundary_handle": True,
    "thresh_type": "hard", "thresh_normal": True, "ci": False, "ci_type": None,
    "sig_lvl": None, "reps": None,
}


@pytest.mark.parametrize("flags,changed", [
    (("--t-transform", "dec", "--ci", "analytic"),
     {"transform": "dec", "ci": True, "ci_type": "analytic", "sig_lvl": 0.05}),
    (("--t-thresh-type", "soft", "--no-t-thresh-normal", "--t-family", "DaubLeAsymm",
      "--t-filter-number", 6, "--t-max-scale", 3, "--no-t-boundary-handle"),
     {"thresh_type": "soft", "thresh_normal": False, "family": "least_asymmetric",
      "filter_number": 6, "max_scale": 3, "boundary_handle": False}),
    (("--est-type", "nonlinear", "--ci", "percentile", "--t-sig-lvl", 0.1),
     {"est_type": "nonlinear", "ci": True, "ci_type": "percentile", "sig_lvl": 0.1,
      "reps": 200}),
])
def test_trend_metadata_fields(tmp_path, flags, changed):
    src = tmp_path / "series.csv"
    write_series_csv(src, np.random.default_rng(28).standard_normal(64))
    d = tmp_path / "out"
    assert run("trend", src, "--out-dir", d, *flags) == 0
    assert json.loads((d / "metadata.json").read_text())["trend"] == TREND_META | changed


SPEC_META = {
    "filter_number": 4, "family": "extremal_phase", "max_scale": 5, "smooth": True,
    "smooth_type": "mean", "binwidth": 97, "binwidth_clamped": False, "boundary_handle": True,
    "do_diff": False, "lag": None, "diff_number": None,
}


@pytest.mark.parametrize("flags,changed", [
    ((), {}),
    (("--no-s-smooth", "--s-lag", 3),
     {"smooth": False, "smooth_type": "none", "binwidth": None, "binwidth_clamped": None}),
    (("--diff", 2), {"do_diff": True, "lag": 2, "diff_number": 1}),
    (("--s-do-diff", "--s-diff-number", 2), {"do_diff": True, "lag": 1, "diff_number": 2}),
    (("--s-smooth-type", "median", "--s-binwidth", 129, "--no-s-boundary-handle",
      "--s-family", "la", "--s-filter-number", 6),
     {"smooth_type": "median", "binwidth": 129, "boundary_handle": False,
      "family": "least_asymmetric", "filter_number": 6}),
])
def test_spectrum_metadata_fields(tmp_path, flags, changed):
    src = tmp_path / "series.csv"
    write_series_csv(src, np.random.default_rng(30).standard_normal(256))
    d = tmp_path / "out"
    assert run("spec", src, "--out-dir", d, *flags) == 0
    assert json.loads((d / "metadata.json").read_text())["spectrum"] == SPEC_META | changed


def test_lag_max_past_series_exits_2(tmp_path, capsys):
    # once exit 0 with a 512 x 5001 lacv.csv, every column past lag 441 zero
    src = tmp_path / "series.csv"
    write_series_csv(src, np.random.default_rng(31).standard_normal(512))
    assert run("lacf", src, "--out-dir", tmp_path / "out", "--lag-max", 5000) == 2
    assert capsys.readouterr().err == "DimensionMismatch: lag_max must be within [0, 511]\n"
    assert not (tmp_path / "out" / "lacv.csv").exists()


def test_default_lag_max_stops_at_last_lag_of_short_series(tmp_path):
    # floor(10 ln 16) = 27 is past 15, the last lag of a 16-point series
    src = tmp_path / "series.csv"
    write_series_csv(src, np.random.default_rng(32).standard_normal(16))
    assert run("lacf", src, "--out-dir", tmp_path / "out") == 0
    lacv = np.loadtxt(tmp_path / "out" / "lacv.csv", delimiter=",", ndmin=2)
    assert lacv.shape == (16, 16)
    assert json.loads((tmp_path / "out" / "metadata.json").read_text())["lacv"]["lag_max"] == 15


@pytest.mark.parametrize("argv", [
    ("analyze", "{src}", "--ci", "normal", "--reps", 40, "--seed", -1),
    ("sim", "--scenario", "x1", "--seed", -3),
])
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    src = tmp_path / "series.csv"
    write_series_csv(src, np.random.default_rng(25).standard_normal(64))
    argv = [str(src) if a == "{src}" else a for a in argv]
    assert run(*argv, "--out-dir", tmp_path / "out") == 2
    assert "seed must be a nonnegative integer" in capsys.readouterr().err


@pytest.mark.parametrize("name,kind,text", [
    ("trend.csv", "trend", "t,estimate,lo,hi\n0,1.5,,\n1,oops,,\n"),
    ("trend.csv", "trend", "estimate\n1.5\n2.5\n"),
    ("trend.csv", "trend", "t,estimate,lo,hi\n0,1.5,1,2\n1,2.5\n"),
    ("spectrum.csv", "spec", "a,b\n"),
])
def test_plot_malformed_result_exits_2(tmp_path, capsys, name, kind, text):
    (tmp_path / name).write_text(text)
    assert run("plot", "--out-dir", tmp_path, "--plot-type", kind) == 2
    assert "WavetrendError" in capsys.readouterr().err


N_PROP = 64


def _maybe(*values):
    """None half the time, else one of values."""
    return st.sampled_from([None] * len(values) + list(values))


@st.composite
def analyze_flags(draw):
    """analyze flags over their valid ranges and past them, as strings."""
    flags = []

    def opt(name, value):
        if value is not None:
            flags.extend([name, str(value)])

    opt("--s-binwidth", draw(_maybe(3, 9, 31, N_PROP + 1, -3, 8)))
    opt("--s-max-scale", draw(_maybe(0, 2, 4, 6, 7)))
    opt("--t-max-scale", draw(_maybe(0, 2, 4, 6, 7)))
    opt("--s-filter-number", draw(_maybe(1, 4, 6, 10, 11)))
    opt("--t-filter-number", draw(_maybe(1, 4, 6, 10, 11)))
    opt("--s-family", draw(_maybe("extremal_phase", "DaubLeAsymm", "coiflet")))
    opt("--t-family", draw(_maybe("extremal_phase", "DaubLeAsymm", "coiflet")))
    opt("--s-smooth-type", draw(_maybe("mean", "median", "epan")))
    if draw(st.booleans()):
        flags.append("--s-do-diff")
        opt("--s-lag", draw(st.none() | st.integers(-1, 2 * N_PROP)))
        opt("--s-diff-number", draw(_maybe(0, 1, 2, 3)))
    opt("--lag-max", draw(st.none() | st.integers(-2, 2 * N_PROP)))
    opt("--est-type", draw(_maybe("linear", "nonlinear")))
    opt("--t-transform", draw(_maybe("dec", "nondec")))
    opt("--ci", draw(_maybe("analytic", "normal", "percentile")))
    opt("--t-sig-lvl", draw(_maybe(float("nan"), 0.0, 0.05, 0.5, 1.5)))
    opt("--reps", draw(st.sampled_from([0, 40])))
    opt("--seed", draw(st.none() | st.integers(-3, 3)))
    for switch in ("--no-s-smooth", "--no-s-boundary-handle", "--no-t-boundary-handle"):
        if draw(st.booleans()):
            flags.append(switch)
    return flags


@settings(max_examples=100, deadline=None)
@given(flags=analyze_flags())
def test_analyze_flag_combinations_exit_cleanly(flags):
    with tempfile.TemporaryDirectory() as tmp:
        src, d = Path(tmp) / "series.csv", Path(tmp) / "out"
        write_series_csv(src, np.random.default_rng(26).standard_normal(N_PROP))
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = run("analyze", src, "--out-dir", d, *flags)
            except SystemExit as exc:
                rc = exc.code
        assert rc in (0, 2, 3)
        if rc == 0:
            assert np.loadtxt(d / "spectrum.csv", delimiter=",", ndmin=2).shape[1] == N_PROP
            assert read_trend(d / "trend.csv")[0].size == N_PROP
            assert np.loadtxt(d / "lacv.csv", delimiter=",", ndmin=2).shape[0] == N_PROP
