"""Acceptance gate: one test per shipping criterion, one printed line each.

Every check is deterministic (fixed seeds throughout) and independent of
the library's own linear algebra where the point is to validate it: matrix
values are compared against plain-Python double-sum oracles built from raw
filter taps, and Monte Carlo targets come from the known simulation truth.
Expected magnitudes quoted in comments were frozen from calibration runs.
"""

import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from wavetrend.filters import (
    EXTREMAL_PHASE,
    LEAST_ASYMMETRIC,
    wavelet_filter,
)
from wavetrend.lacv import lacv_from_spectrum
from wavetrend.scenarios import scenario
from wavetrend.simulate import tlsw_sim
from wavetrend.spectrum import estimate_spectrum, wavelet_periodogram
from wavetrend.transforms import (
    DECIMATED,
    dwt_forward,
    dwt_inverse,
    ndwt_average_basis,
    ndwt_forward,
)
from wavetrend.trend import (
    NONLINEAR,
    EstimatorConfig,
    analytic_ci,
    bootstrap_ci,
    estimate_trend,
)
from wavetrend.wavelets import (
    a_matrix,
    autocorrelation_wavelets,
    d_matrix,
    lagged_a_matrix,
    support_length,
)

ALL_FILTERS = [(EXTREMAL_PHASE, k) for k in range(1, 11)] + [
    (LEAST_ASYMMETRIC, k) for k in range(4, 11)
]


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


# ------------------------------------------------------------ C1 transforms

def test_c01_transform_reconstruction():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(50):
        n = 64 if i % 2 else 256
        family, number = ALL_FILTERS[i % len(ALL_FILTERS)]
        filt = wavelet_filter(family, number)
        x = rng.standard_normal(n)
        dec = dwt_inverse(dwt_forward(x, filt, 4))
        nondec = ndwt_average_basis(ndwt_forward(x, filt, 4))
        worst = max(worst, np.max(np.abs(dec - x)), np.max(np.abs(nondec - x)))
    elapsed = time.perf_counter() - start
    report(
        "C1",
        worst < 1e-8 and elapsed < 10.0,
        f"50 series, 17 filters, max reconstruction error {worst:.2e} in {elapsed:.1f}s",
    )


# --------------------------------------------------------- C2 matrix oracles

def brute_psi(filt, level):
    """Cascade by explicit index loops only."""
    h = [float(v) for v in filt.lowpass]
    psi = [float(v) for v in filt.highpass]
    for _ in range(level - 1):
        up = [0.0] * (2 * len(psi) - 1)
        up[::2] = psi
        psi = [
            sum(up[k] * h[i - k] for k in range(len(up)) if 0 <= i - k < len(h))
            for i in range(len(up) + len(h) - 1)
        ]
    return psi


def brute_acf(psi, tau):
    tau = abs(tau)
    if tau >= len(psi):
        return 0.0
    return sum(psi[k] * psi[k + tau] for k in range(len(psi) - tau))


def brute_a(filt, depth, lag=0):
    psis = [brute_psi(filt, j) for j in range(1, depth + 1)]
    acfs = []
    for psi in psis:
        r = len(psi) - 1
        acfs.append({tau: brute_acf(psi, tau) for tau in range(-r, r + 1)})
    out = np.zeros((depth, depth))
    for j in range(depth):
        for l in range(depth):
            out[j, l] = sum(
                v * acfs[l].get(tau - lag, 0.0) for tau, v in acfs[j].items()
            )
    return out


def test_c02_matrix_oracles():
    haar = wavelet_filter(EXTREMAL_PHASE, 1)
    acw2 = autocorrelation_wavelets(haar, 2)
    A = a_matrix(acw2, 2).matrix
    frozen = np.array([[1.5, 0.75], [0.75, 1.75]])
    err_haar = max(
        np.max(np.abs(A - frozen)),
        np.max(np.abs(A - brute_a(haar, 2))),
        abs(lagged_a_matrix(acw2, 1, 1)[0, 0] - (-1.0)),
        abs(lagged_a_matrix(acw2, 1, 1)[0, 0] - brute_a(haar, 1, lag=1)[0, 0]),
        abs(d_matrix(acw2, 1, lag=1, order=1).matrix[0, 0] - 2.5),
    )
    err_deep = 0.0
    for family, number in ((EXTREMAL_PHASE, 4), (LEAST_ASYMMETRIC, 8)):
        filt = wavelet_filter(family, number)
        lib = a_matrix(autocorrelation_wavelets(filt, 4), 4).matrix
        err_deep = max(err_deep, np.max(np.abs(lib - brute_a(filt, 4))))
    report(
        "C2",
        err_haar < 1e-12 and err_deep < 1e-10,
        f"Haar oracle error {err_haar:.2e}, EP4/LA8 depth-4 oracle error {err_deep:.2e}",
    )


# --------------------------------------------------- C3 periodogram calibration

def test_c03_periodogram_calibration():
    # periodic transform: raw E I[j, k] = 1 for unit iid noise at every scale
    n, reps, levels = 512, 200, 6
    filt = wavelet_filter(EXTREMAL_PHASE, 4)
    rng = np.random.default_rng(42)
    means = np.empty((reps, levels))
    for r in range(reps):
        x = rng.standard_normal(n)
        means[r] = wavelet_periodogram(x, filt, levels, boundary=False).raw.mean(axis=1)
    m = means.mean(axis=0)
    se = means.std(axis=0, ddof=1) / np.sqrt(reps)
    z = (m - 1.0) / se
    report(
        "C3",
        bool(np.all(np.abs(z) <= 3.0)),
        f"per-scale raw means {np.round(m, 3)}, |z| max {np.max(np.abs(z)):.2f} <= 3",
    )


# ------------------------------------------------------- C4 direct estimator

def test_c04_direct_estimator_consistency():
    start = time.perf_counter()
    sc = scenario("x1")
    n = sc.length
    interior = slice(n // 4, 3 * n // 4)
    truth = sc.spectrum[:6]
    s4, zeros, mise512 = [], {1: [], 3: [], 5: [], 6: []}, []
    for r in range(100):
        x = sc.simulate(seed=1000 + r)
        est = estimate_spectrum(x)
        s4.append(est.S[3, interior].mean())
        for j in zeros:
            zeros[j].append(est.S[j - 1, interior].mean())
        mise512.append(np.mean((est.S[:, interior] - truth[:, interior]) ** 2))
    n2 = 2048
    z2 = (np.arange(n2) + 0.5) / n2
    spec2 = np.zeros((11, n2))
    spec2[1] = 2.0 + 12.0 * z2 - 12.0 * z2**2
    spec2[3] = 2.0
    trend2 = 3.0 * (32.0 * z2**3 - 48.0 * z2**2 + 22.0 * z2 - 3.0)
    interior2 = slice(n2 // 4, 3 * n2 // 4)
    mise2048 = []
    for r in range(100):
        x = tlsw_sim(trend=trend2, spec=spec2, n=n2, seed=5000 + r)
        est = estimate_spectrum(x, levels=6)
        mise2048.append(np.mean((est.S[:6, interior2] - spec2[:6, interior2]) ** 2))
    s4_mean = float(np.mean(s4))
    worst_zero = max(abs(float(np.mean(v))) for v in zeros.values())
    m512, m2048 = float(np.mean(mise512)), float(np.mean(mise2048))
    elapsed = time.perf_counter() - start
    report(
        "C4",
        1.5 <= s4_mean <= 2.5 and worst_zero < 0.5 and m2048 < m512 and elapsed < 120,
        f"S4 interior mean {s4_mean:.3f}, worst zero-scale {worst_zero:.3f}, "
        f"MISE {m512:.3f}@512 > {m2048:.3f}@2048 in {elapsed:.1f}s",
    )


# ------------------------------------------- C5 differenced estimator bias

def test_c05_differenced_estimator_unbiased():
    n, levels, cusp, slope = 512, 6, 256, 0.1
    spec = np.zeros((9, n))
    spec[0], spec[2], spec[4] = 1.5, 0.8, 0.4
    truth = spec[:levels]
    t = np.arange(n, dtype=np.float64)
    trend = np.where(t < cusp, slope * t, slope * cusp - slope * (t - cusp))
    margin = 135 // 2 + support_length(2, levels) // 2 + 5
    cols = np.zeros(n, dtype=bool)
    cols[margin : n - margin] = True
    cols[cusp - margin : cusp + margin + 1] = False
    wins = 0
    bias = {(1, 1): [], (12, 1): [], (1, 2): []}
    for r in range(100):
        x = tlsw_sim(trend=trend, spec=spec, n=n, seed=8000 + r, family="extremal_phase",
                     filter_number=1)
        direct = estimate_spectrum(x, filter_number=1, levels=levels)
        for mode in bias:
            est = estimate_spectrum(x, filter_number=1, levels=levels, diff=mode)
            bias[mode].append((est.S[:, cols] - truth[:, cols]).mean(axis=1))
            if mode == (1, 1):
                mise_diff = np.mean((est.S[:, cols] - truth[:, cols]) ** 2)
        mise_direct = np.mean((direct.S[:, cols] - truth[:, cols]) ** 2)
        wins += mise_direct > mise_diff
    all_within = True
    for mode, vals in bias.items():
        vals = np.asarray(vals)
        m = vals.mean(axis=0)
        se = vals.std(axis=0, ddof=1) / np.sqrt(len(vals))
        all_within &= bool(np.all(np.abs(m) <= 3.0 * se))
    report(
        "C5",
        all_within and wins >= 70,
        f"per-scale bias within 3 SE for lag-1/lag-12/second-order, "
        f"direct MISE above differenced in {wins}/100",
    )


# ------------------------------------------------------- C6 trend exactness

def test_c06_trend_exactness():
    n = 512
    z = np.arange(n) / n
    cubic = 3.0 * (32.0 * z**3 - 48.0 * z**2 + 22.0 * z - 3.0)
    fit = estimate_trend(cubic, EstimatorConfig(filter_number=4))
    cubic_err = np.max(np.abs(fit.values - cubic)) / np.max(np.abs(cubic))
    const = np.full(128, -3.25)
    const_err = 0.0
    for family, number in ALL_FILTERS:
        fit = estimate_trend(const, EstimatorConfig(filter_number=number, family=family))
        const_err = max(const_err, np.max(np.abs(fit.values - const)))
    report(
        "C6",
        cubic_err < 1e-6 and const_err < 1e-10,
        f"cubic relative error {cubic_err:.2e}, constant error {const_err:.2e} over 17 filters",
    )


# -------------------------------------------------------- C7 trend accuracy

def test_c07_trend_accuracy():
    start = time.perf_counter()
    x1 = scenario("x1")
    sd_eps = float(np.sqrt(x1.spectrum.sum(axis=0).mean()))
    rmses = []
    for r in range(100):
        x = x1.simulate(seed=2000 + r)
        fit = estimate_trend(x, EstimatorConfig())
        rmses.append(np.sqrt(np.mean((fit.values - x1.trend) ** 2)))
    mean_rmse = float(np.mean(rmses))
    x2 = scenario("x2")
    wins = 0
    for r in range(100):
        x = x2.simulate(seed=4000 + r)
        sp = estimate_spectrum(x, diff=(1, 1), smoother="median", binwidth=129)
        config = EstimatorConfig(NONLINEAR, filter_number=6, family=LEAST_ASYMMETRIC)
        fit = estimate_trend(x, config, sp)
        wins += np.sqrt(np.mean((fit.values - x2.trend) ** 2)) < 1.0
    elapsed = time.perf_counter() - start
    report(
        "C7",
        mean_rmse < 0.5 * sd_eps and wins >= 80 and elapsed < 180,
        f"x1 mean RMSE {mean_rmse:.3f} < {0.5 * sd_eps:.3f}, "
        f"x2 RMSE<1 in {wins}/100, {elapsed:.0f}s",
    )


# ---------------------------------------------------------- C8 CI coverage

def test_c08_interval_coverage():
    start = time.perf_counter()
    # analytic: iid noise, zero trend is the truth; the lacv input is
    # estimated one scale deeper than the default and floored, which keeps
    # the variance passband of the interior estimator rows representable
    n = 256
    acw = autocorrelation_wavelets(wavelet_filter(EXTREMAL_PHASE, 4), 8)
    rng = np.random.default_rng(1234)
    hits = total = 0
    for _ in range(200):
        x = rng.standard_normal(n)
        fit = estimate_trend(x, EstimatorConfig(transform=DECIMATED))
        sp = estimate_spectrum(x, levels=6)
        lv = lacv_from_spectrum(replace(sp, S=np.maximum(sp.S, 0.0)), acw)
        ci = analytic_ci(fit, lv, alpha=0.05)
        inside = (ci.ci_lo[64:192] <= 0.0) & (0.0 <= ci.ci_hi[64:192])
        hits += int(inside.sum())
        total += inside.size
    analytic_cov = hits / total

    # bootstrap: x1 truth, replicate spectrum capped at the scenario's
    # support depth so floored estimation noise at dead coarse scales
    # cannot leak into the estimator's scaling band
    x1 = scenario("x1")
    lo, hi = x1.length // 4, 3 * x1.length // 4
    hits = total = 0
    for rep in range(50):
        x = x1.simulate(seed=10_000 + rep)
        fit = estimate_trend(x, EstimatorConfig())
        sp = estimate_spectrum(x, levels=4)
        ci = bootstrap_ci(fit, sp, reps=99, alpha=0.05, seed=rep)
        inside = (ci.ci_lo[lo:hi] <= x1.trend[lo:hi]) & (x1.trend[lo:hi] <= ci.ci_hi[lo:hi])
        hits += int(inside.sum())
        total += inside.size
    boot_cov = hits / total
    elapsed = time.perf_counter() - start
    ok = 0.85 <= analytic_cov <= 0.99 and 0.85 <= boot_cov <= 0.99 and elapsed < 600
    report(
        "C8",
        ok,
        f"interior 95% coverage: analytic {analytic_cov:.3f}, "
        f"bootstrap {boot_cov:.3f}, both in [0.85, 0.99], {elapsed:.0f}s",
    )


# ------------------------------------------------------------------ C9 lacv

def test_c09_local_autocovariance():
    haar = wavelet_filter(EXTREMAL_PHASE, 1)
    S = np.zeros((1, 64))
    S[0] = 1.0
    lv = lacv_from_spectrum(S, autocorrelation_wavelets(haar, 1), lag_max=5)
    exact_err = max(
        np.max(np.abs(lv.lacv[:, 0] - 1.0)),
        np.max(np.abs(lv.lacv[:, 1] + 0.5)),
        np.max(np.abs(lv.lacv[:, 2:])),
    )
    c0 = []
    acw = None
    for r in range(100):
        x = np.random.default_rng(3000 + r).standard_normal(512)
        est = estimate_spectrum(x)
        if acw is None:
            acw = autocorrelation_wavelets(est.filter, est.levels)
        c0.append(lacv_from_spectrum(est, acw, lag_max=20).lacv[:, 0].mean())
    pipeline = float(np.mean(c0))
    report(
        "C9",
        exact_err < 1e-10 and 0.8 <= pipeline <= 1.2,
        f"Haar lacv exact to {exact_err:.2e}, pipeline mean variance {pipeline:.3f}",
    )


# ----------------------------------------------------- C10 non-dyadic + CLI

def _run_cli(cwd, args, threads):
    import os

    import wavetrend

    # The subprocess runs in `cwd`, where a relative PYTHONPATH (e.g. `src`)
    # no longer resolves; put the directory holding the imported package
    # first so the CLI runs the same code as this test process.
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(wavetrend.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    proc = subprocess.run(
        [sys.executable, "-m", "wavetrend.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_c10_cli_end_to_end(tmp_path):
    rng = np.random.default_rng(300)
    series = "value\n" + "\n".join(repr(float(v)) for v in rng.standard_normal(300)) + "\n"
    outputs = ("out/spectrum.csv", "out/trend.csv", "out/lacv.csv",
               "out/metadata.json", "out/trend.svg", "out/spectrum.svg", "out/lacf.svg")
    snapshots = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        d = tmp_path / name
        d.mkdir()
        (d / "series.csv").write_text(series)
        _run_cli(d, ["analyze", "series.csv", "--out-dir", "out"], threads)
        _run_cli(d, ["plot", "--input", "series.csv", "--out-dir", "out"], threads)
        snapshots.append({rel: (d / rel).read_bytes() for rel in outputs})
    trend_rows = len(snapshots[0]["out/trend.csv"].splitlines()) - 1
    spec_cols = snapshots[0]["out/spectrum.csv"].splitlines()[0].count(b",") + 1
    lacv_rows = len(snapshots[0]["out/lacv.csv"].splitlines())
    lengths_ok = trend_rows == spec_cols == lacv_rows == 300
    rerun_ok = snapshots[0] == snapshots[1]
    threads_ok = snapshots[0] == snapshots[2]
    report(
        "C10",
        lengths_ok and rerun_ok and threads_ok,
        f"n=300 outputs all length 300, byte-identical across reruns ({rerun_ok}) "
        f"and thread counts ({threads_ok})",
    )
