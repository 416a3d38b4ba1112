"""Simulation contract: determinism, moments, input validation."""

import numpy as np
import pytest

from wavetrend.errors import (
    DimensionMismatch,
    NegativeSpectrum,
    WavetrendError,
)
from wavetrend.filters import EXTREMAL_PHASE, wavelet_filter
from wavetrend.scenarios import scenario
from wavetrend.simulate import (
    NoisePlan,
    max_scales,
    sample_spec,
    sample_trend,
    synthesis_kernel,
    tlsw_sim,
)
from wavetrend.wavelets import autocorrelation_wavelets, discrete_wavelets

def haar_spec(n: int, value: float = 1.0) -> np.ndarray:
    spec = np.zeros((max_scales(n), n))
    spec[0] = value
    return spec


def test_zero_spec_returns_trend_exactly():
    n = 64
    trend = np.linspace(-1.0, 4.0, n)
    out = tlsw_sim(trend=trend, spec=np.zeros((max_scales(n), n)), seed=3)
    assert np.array_equal(out, trend)


def test_determinism_and_seed_sensitivity():
    spec = haar_spec(128)
    a = tlsw_sim(spec=spec, family="extremal_phase", filter_number=1, seed=42)
    b = tlsw_sim(spec=spec, family="extremal_phase", filter_number=1, seed=42)
    c = tlsw_sim(spec=spec, family="extremal_phase", filter_number=1, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_linearity_in_trend():
    n = 64
    spec = haar_spec(n)
    extra = np.sin(np.arange(n))
    base = tlsw_sim(trend=np.zeros(n), spec=spec, family="extremal_phase", filter_number=1,
                    seed=9)
    shifted = tlsw_sim(trend=extra, spec=spec, family="extremal_phase", filter_number=1,
                       seed=9)
    assert np.allclose(shifted, base + extra, atol=1e-12)


def test_haar_unit_spec_variance():
    reps, n = 200, 256
    spec = haar_spec(n)
    draws = np.stack([tlsw_sim(spec=spec, family="extremal_phase", filter_number=1, seed=s)
                      for s in range(reps)])
    assert abs(draws.var() - 1.0) < 0.05


@pytest.mark.parametrize("number", [1, 4])
def test_second_moment_matches_acw_mix(number):
    # stationary rows: empirical lag-tau autocovariance should match
    # sum_j S_j Psi_j(tau) within Monte Carlo error
    filt = wavelet_filter(EXTREMAL_PHASE, number)
    n, reps = 512, 200
    spec = np.zeros((max_scales(n), n))
    spec[0], spec[2] = 1.0, 0.8
    acw = autocorrelation_wavelets(filt, 3)
    psi = acw.window(3, 3)[:, 3:]  # Psi_j(tau) at tau = 0..3
    truth = 1.0 * psi[0] + 0.8 * psi[2]
    draws = np.stack([tlsw_sim(spec=spec, family="extremal_phase", filter_number=number,
                               seed=1000 + s) for s in range(reps)])
    interior = slice(32, n - 32)
    for tau in range(4):
        prods = draws[:, interior] * np.roll(draws, -tau, axis=1)[:, interior]
        per_rep = prods.mean(axis=1)
        se = per_rep.std(ddof=1) / np.sqrt(reps)
        assert abs(per_rep.mean() - truth[tau]) < 3 * se + 1e-12


def test_functional_inputs_on_midpoint_grid():
    n = 32
    z = (np.arange(n) + 0.5) / n
    assert np.allclose(sample_trend(lambda v: v**2, n), z**2, atol=1e-15)
    spec = sample_spec({2: lambda v: 2 + 12 * v - 12 * v**2}, n)
    assert spec.shape == (max_scales(n), n)
    assert np.allclose(spec[1], 2 + 12 * z - 12 * z**2, atol=1e-14)
    assert np.allclose(spec[0], 0.0, atol=0)


def test_functional_spec_value():
    row = sample_spec({2: lambda v: 2 + 12 * v - 12 * v**2}, 16)[1]
    # evaluated on midpoints (k + 0.5)/16, symmetric about the z = 0.5 peak
    z = 7.5 / 16
    assert row[7] == pytest.approx(2 + 12 * z - 12 * z * z, rel=1e-12)
    assert row[7] == pytest.approx(row[8], rel=1e-12)
    assert row.max() < 5.0  # the grid straddles the crest


def test_matrix_spec_validation():
    with pytest.raises(NegativeSpectrum):
        tlsw_sim(spec=np.full((3, 8), -1.0), family="extremal_phase", filter_number=1)
    with pytest.raises(DimensionMismatch):
        # needs max_scales(16) = 4 rows
        tlsw_sim(spec=np.zeros((2, 16)), family="extremal_phase", filter_number=1)
    with pytest.raises(DimensionMismatch):
        tlsw_sim(trend=lambda z: z, spec={1: lambda z: 1.0})  # n unknown


def test_nested_list_spectrum_matches_ndarray():
    spec = np.abs(np.random.default_rng(6).standard_normal((4, 16)))
    assert np.array_equal(sample_spec(spec.tolist(), 16), sample_spec(spec, 16))
    want = tlsw_sim(spec=spec, seed=9)
    assert tlsw_sim(spec=spec.tolist(), seed=9).tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [np.ones(16), [[1.0] * 16, [1.0] * 8, [1.0] * 16, [1.0] * 16]],
                         ids=["one-dimensional", "ragged"])
def test_spectrum_without_matrix_shape_needs_n(spec):
    # n is read from a spectrum only when it is a matrix; a vector or a ragged
    # list is refused as a dimension error, not an IndexError or ValueError
    with pytest.raises(DimensionMismatch):
        tlsw_sim(spec=spec, seed=0)


@pytest.mark.parametrize("spec", [
    [np.ones(16), None, None, None],  # one entry per scale, None for no power
    [None] * 4,
    [lambda z: np.ones(z.size)] * 4,
    [np.ones(16), lambda z: np.ones(z.size), np.ones(16), np.ones(16)],
    "spectrum",
    "1.5",
], ids=["none-row", "all-none", "callables", "callable-row", "string", "number-string"])
def test_non_matrix_spectrum_rejected(spec):
    with pytest.raises(DimensionMismatch):
        sample_spec(spec, 16)
    with pytest.raises(DimensionMismatch):
        tlsw_sim(spec=spec, n=16, seed=0)


def test_nonfinite_trend_rejected():
    n = 16
    trend = np.zeros(n)
    trend[5] = np.nan
    with pytest.raises(WavetrendError, match="finite"):
        tlsw_sim(trend=trend, spec=haar_spec(n), seed=0)
    with pytest.raises(WavetrendError, match="finite"):
        tlsw_sim(trend=lambda z: np.full(z.size, np.inf), spec=haar_spec(n), n=n, seed=0)
    with pytest.raises(WavetrendError, match="finite"):
        sample_trend([np.inf] * 8, 8)


@pytest.mark.parametrize("seed", [1.5, np.float64(1.0), -1, "1"])
@pytest.mark.parametrize("spec", [None, haar_spec(16)])
def test_non_integer_seed_rejected(seed, spec):
    # 1.5 used to end in a bare TypeError from numpy
    with pytest.raises(WavetrendError, match="seed must be a nonnegative integer"):
        tlsw_sim(trend=np.zeros(16), spec=spec, seed=seed)


def test_numpy_integer_seed_accepted():
    spec = haar_spec(16)
    assert np.array_equal(tlsw_sim(spec=spec, seed=np.int64(4)), tlsw_sim(spec=spec, seed=4))


@pytest.mark.parametrize("n", [100, 1000])
def test_functional_inputs_at_any_length(n):
    # callables are evaluated on (k + 0.5) / n, so they give the bytes of
    # their values passed as numbers, at non-dyadic n too
    z = (np.arange(n) + 0.5) / n
    trend = lambda v: np.sin(2 * np.pi * v)  # noqa: E731
    rows = {1: lambda v: 1 + v, 3: lambda v: 2 - v**2, 4: 0.5}
    numeric = {1: 1 + z, 3: 2 - z**2, 4: 0.5}
    want = tlsw_sim(trend=trend(z), spec=numeric, seed=3)
    got = tlsw_sim(trend=trend, spec=rows, n=n, seed=3)
    assert got.tobytes() == want.tobytes()
    assert sample_trend(trend, n).tobytes() == trend(z).tobytes()
    assert sample_spec(rows, n).tobytes() == sample_spec(numeric, n).tobytes()


def test_custom_innovations():
    n = 32
    out = tlsw_sim(
        trend=np.ones(n),
        spec=haar_spec(n),
        family="extremal_phase",
        filter_number=1,
        innovations=lambda rng, size: np.zeros(size),
    )
    assert np.allclose(out, 1.0, atol=0)


def per_scale_loop(trend, spec, n, filt, innovations, seed):
    """tlsw_sim as one loop over scales that builds each kernel as it goes."""
    levels = max_scales(n)
    amplitude = np.sqrt(sample_spec(spec, n))
    dw = discrete_wavelets(filt, levels)
    rng = np.random.default_rng(seed)
    noise = np.zeros(n)
    for j in range(1, levels + 1):
        xi = np.asarray(innovations(rng, n), dtype=np.float64)
        row = amplitude[j - 1]
        if not row.any():
            continue
        kernel = synthesis_kernel(dw[j - 1], filt.length, j, n)
        noise += np.fft.irfft(np.fft.rfft(row * xi) * np.fft.rfft(kernel), n)
    return sample_trend(trend, n) + noise


def uniform_innovations(rng, size):
    return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size)


@pytest.mark.parametrize("n", [256, 300, 1000])
@pytest.mark.parametrize("number", [1, 4])
@pytest.mark.parametrize("innovations", [None, uniform_innovations])
def test_tlsw_sim_matches_per_scale_loop(n, number, innovations):
    # zero rows in the middle and at the end of the spectrum must still draw
    # their innovations, so the later scales see the same stream
    filt = wavelet_filter(EXTREMAL_PHASE, number)
    rng = np.random.default_rng(n + number)
    spec = rng.uniform(0.0, 2.0, (max_scales(n), n))
    spec[2] = 0.0
    spec[-2:] = 0.0
    trend = np.linspace(-1.0, 1.0, n)
    for seed in (0, 17, np.random.SeedSequence(5).spawn(2)[1]):
        got = tlsw_sim(trend=trend, spec=spec, family="extremal_phase", filter_number=number,
                       innovations=innovations, seed=seed)
        want = per_scale_loop(trend, spec, n, filt,
                              innovations or (lambda g, size: g.standard_normal(size)), seed)
        assert np.array_equal(got, want)


def spec_with_gaps(n):
    spec = np.random.default_rng(n).uniform(0.0, 2.0, (max_scales(n), n))
    spec[[0, 2, 3, -1]] = 0.0
    return spec


@pytest.mark.parametrize("spec_of", [lambda n: scenario("x2").spectrum, spec_with_gaps,
                                     lambda n: np.zeros((max_scales(n), n))])
def test_block_draw_matches_one_stream_draws(spec_of):
    # a block of streams goes through one batched rfft/irfft pair, yet every
    # row equals its one-stream draw to the bit, and every generator has
    # drawn the same innovations, live scales or not
    n = scenario("x2").length
    filt = wavelet_filter(EXTREMAL_PHASE, 4)
    plan = NoisePlan.build(spec_of(n), n, filt)
    streams = np.random.SeedSequence(9).spawn(5)
    block_rngs = [np.random.default_rng(s) for s in streams]
    one_rngs = [np.random.default_rng(s) for s in streams]
    block = plan.draw(block_rngs)
    assert block.shape == (len(streams), n)
    for row, rng in zip(block, one_rngs):
        one = plan.draw([rng])
        assert one.shape == (1, n)
        assert np.array_equal(row, one[0])
        assert np.array_equal(np.signbit(row), np.signbit(one[0]))
    for a, b in zip(block_rngs, one_rngs):
        assert a.standard_normal() == b.standard_normal()


def test_draw_without_generators_is_empty():
    plan = NoisePlan.build({1: 1.0}, 16, wavelet_filter(EXTREMAL_PHASE, 4))
    assert plan.draw([]).shape == (0, 16)


def test_wrong_length_inputs_are_refused():
    with pytest.raises(DimensionMismatch):
        sample_trend(np.ones(15), 16)
    with pytest.raises(DimensionMismatch):
        sample_spec({1: np.ones(15)}, 16)
    with pytest.raises(NegativeSpectrum, match="non-finite"):
        sample_spec(np.full((4, 16), np.nan), 16)
    plan = NoisePlan.build({1: 1.0}, 16, wavelet_filter(EXTREMAL_PHASE, 4))
    with pytest.raises(DimensionMismatch, match="length-n"):
        plan.draw([np.random.default_rng(0)], lambda rng, n: rng.standard_normal(n - 1))
