"""CLI outputs do not depend on the BLAS thread count.

OpenBLAS splits long reductions across threads, so a sum over a long axis
that goes through BLAS changes its last bits with the thread count.  Each
case runs ``analyze`` (or ``spec``) under 1 and 4 threads, in separate
working directories with the same relative ``--out-dir`` (``metadata.json``
records it), and compares every written file byte for byte.  Depth 11
gives autocorrelation wavelets with rows of about 14,000 taps.
"""

import numpy as np
import pytest

from test_acceptance import _run_cli

CASES = {
    "deep_spectrum": ["--s-max-scale", "11"],
    "deep_bootstrap": [
        "--est-type", "nonlinear", "--diff", "1", "--s-max-scale", "11",
        "--t-max-scale", "11", "--ci", "normal", "--reps", "40",
    ],
    "analytic": ["--t-transform", "dec", "--ci", "analytic"],
    "analytic_ep10_lag300": ["--t-transform", "dec", "--ci", "analytic",
                             "--t-filter-number", "10", "--lag-max", "300"],
    "analytic_no_boundary": ["--t-transform", "dec", "--ci", "analytic",
                             "--no-t-boundary-handle"],
    "boot_dec_percentile": ["--t-transform", "dec", "--ci", "percentile", "--reps", "40"],
}


def assert_outputs_identical_across_thread_counts(tmp_path, n, command, flags):
    rng = np.random.default_rng(n)
    series = "value\n" + "\n".join(repr(float(v)) for v in rng.standard_normal(n)) + "\n"
    snapshots = []
    for threads in ("1", "4"):
        d = tmp_path / f"threads{threads}"
        d.mkdir()
        (d / "series.csv").write_text(series)
        _run_cli(d, [command, "series.csv", "--out-dir", "out", *flags], threads)
        snapshots.append({p.name: p.read_bytes() for p in sorted((d / "out").iterdir())})
    assert "spectrum.csv" in snapshots[0]
    assert snapshots[0].keys() == snapshots[1].keys()
    differ = [name for name in snapshots[0] if snapshots[0][name] != snapshots[1][name]]
    assert not differ, f"files differ between 1 and 4 threads: {differ}"


@pytest.mark.parametrize("flags", CASES.values(), ids=CASES.keys())
def test_analyze_outputs_identical_across_thread_counts(tmp_path, flags):
    assert_outputs_identical_across_thread_counts(tmp_path, 2048, "analyze", flags)


# Windows of 10,001 columns: past the length at which OpenBLAS threads a dot
# product, so a smoother that reduced its windows through BLAS would differ.
@pytest.mark.parametrize("kind", ["mean", "epan"])
def test_wide_smoother_identical_across_thread_counts(tmp_path, kind):
    flags = ["--s-binwidth", "10001", "--s-smooth-type", kind]
    assert_outputs_identical_across_thread_counts(tmp_path, 24000, "spec", flags)


# At n = 8192 the lacv product of 9 levels by 301 lags is long enough for
# OpenBLAS to thread it; lacv.csv then changed with the thread count.
def test_long_lacv_identical_across_thread_counts(tmp_path):
    assert_outputs_identical_across_thread_counts(tmp_path, 8192, "analyze", ["--lag-max", "300"])


# The nonlinear fit mixes the spectrum into coefficient variances over all
# 8192 columns (variance_matrix), as the correction unmixes the periodogram.
def test_long_nonlinear_identical_across_thread_counts(tmp_path):
    flags = ["--est-type", "nonlinear"]
    assert_outputs_identical_across_thread_counts(tmp_path, 8192, "analyze", flags)
