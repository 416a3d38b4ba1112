"""Forward/inverse transforms, extensions, and coefficient alignment."""

import numpy as np
import pytest

from wavetrend.errors import ModeMismatch, NonDyadicLength, ScaleTooDeep
from wavetrend.filters import EXTREMAL_PHASE, LEAST_ASYMMETRIC, wavelet_filter
from wavetrend.transforms import (
    DECIMATED,
    NO_EXTENSION,
    NONDECIMATED,
    SYMMETRIC_TRIPLE,
    TREND_REFLECT,
    centre_shift,
    crop_extension,
    detail_support,
    dwt_forward,
    dwt_inverse,
    extend_adjoint,
    extend_rows,
    extension_descriptor,
    ndwt_average_basis,
    ndwt_forward,
    next_pow2,
)
from wavetrend import transforms
from wavetrend.transforms import _analysis_step, _synthesis_step
from wavetrend.wavelets import discrete_wavelets

EP4 = wavelet_filter(EXTREMAL_PHASE, 4)


def test_dwt_perfect_reconstruction():
    rng = np.random.default_rng(0)
    for number, family in ((1, EXTREMAL_PHASE), (4, EXTREMAL_PHASE), (8, LEAST_ASYMMETRIC)):
        filt = wavelet_filter(family, number)
        x = rng.standard_normal(128)
        pyr = dwt_forward(x, filt, 5)
        assert np.allclose(dwt_inverse(pyr), x, atol=1e-10)


def test_dwt_coefficient_counts():
    x = np.zeros(64)
    pyr = dwt_forward(x, EP4, 3)
    assert [pyr.detail(j).size for j in (1, 2, 3)] == [32, 16, 8]
    assert pyr.scaling.size == 8


def test_dwt_requires_dyadic():
    with pytest.raises(NonDyadicLength):
        dwt_forward(np.zeros(100), EP4, 2)


def test_depth_guard():
    with pytest.raises(ScaleTooDeep):
        ndwt_forward(np.zeros(64), EP4, 7)
    with pytest.raises(ScaleTooDeep):
        dwt_forward(np.zeros(64), EP4, 7)


def test_ndwt_inverse_any_length():
    rng = np.random.default_rng(1)
    for n in (64, 100, 257):
        x = rng.standard_normal(n)
        pyr = ndwt_forward(x, EP4, 4)
        assert np.allclose(ndwt_average_basis(pyr), x, atol=1e-10)


def test_ndwt_rows_keep_length():
    pyr = ndwt_forward(np.zeros(96), EP4, 3)
    assert all(pyr.detail(j).size == 96 for j in (1, 2, 3))
    assert pyr.scaling.size == 96


def test_ndwt_alignment_is_shift_equivariant():
    # centred coefficients: circularly shifting the input shifts every row
    rng = np.random.default_rng(2)
    x = rng.standard_normal(128)
    shift = 17
    a = ndwt_forward(x, EP4, 3)
    b = ndwt_forward(np.roll(x, shift), EP4, 3)
    for j in (1, 2, 3):
        assert np.allclose(np.roll(a.detail(j), shift), b.detail(j), atol=1e-12)


@pytest.mark.parametrize("number,family", [(1, EXTREMAL_PHASE), (4, EXTREMAL_PHASE),
                                           (8, LEAST_ASYMMETRIC)])
def test_ndwt_matches_dwt_subsample(number, family):
    # undo the centring roll and the decimated coefficients are exactly the
    # 2^j-strided samples of the nondecimated row
    filt = wavelet_filter(family, number)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(64)
    dec = dwt_forward(x, filt, 3)
    nd = ndwt_forward(x, filt, 3)
    for j in (1, 2, 3):
        aligned = np.roll(nd.detail(j), -centre_shift(filt.length, j))[0 :: 2**j]
        assert np.array_equal(aligned, dec.detail(j))


@pytest.mark.parametrize("number,family", [(1, EXTREMAL_PHASE), (4, EXTREMAL_PHASE),
                                           (10, EXTREMAL_PHASE), (8, LEAST_ASYMMETRIC)])
@pytest.mark.parametrize("n", [64, 96, 100])
def test_ndwt_matches_cascade_wavelets(number, family, n):
    # oracle outside the filter bank: the cascade psi_j correlated with the
    # data by an explicit circular sum; deep EP10 wavelets wrap the row
    filt = wavelet_filter(family, number)
    levels = 6
    x = np.random.default_rng(n).standard_normal(n)
    pyr = ndwt_forward(x, filt, levels)
    dw = discrete_wavelets(filt, levels)
    k = np.arange(n)
    for j in range(1, levels + 1):
        psi = dw[j - 1]
        expected = x[(k[:, None] + np.arange(psi.size)) % n] @ psi
        got = np.roll(pyr.detail(j), -centre_shift(filt.length, j))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_extend_trend_reflect():
    x = np.arange(10.0)
    desc = extension_descriptor(x.size, TREND_REFLECT)
    ext = extend_rows(x, desc)
    assert desc.extended_length == next_pow2(20) == ext.size
    assert np.allclose(ext[desc.window()], x, atol=0)
    # odd reflection continues the local slope across the seam
    assert ext[desc.offset - 1] == pytest.approx(2 * x[0] - x[1])
    assert ext[desc.offset + 10] == pytest.approx(2 * x[9] - x[8])


def test_extend_symmetric_triple():
    x = np.arange(12.0)
    desc = extension_descriptor(x.size, SYMMETRIC_TRIPLE)
    ext = extend_rows(x, desc)
    assert desc.extended_length == next_pow2(36)
    assert np.allclose(ext[desc.window()], x, atol=0)
    assert ext[desc.offset - 1] == x[0]  # mirrored copy sits to the left


@pytest.mark.parametrize("n", [2, 3, 64, 100, 257])
def test_extend_adjoint_is_transpose_of_extension(n):
    desc = extension_descriptor(n, SYMMETRIC_TRIPLE)
    # small integers keep every sum on both sides exact
    b = np.random.default_rng(n).integers(-8, 9, (2, 3, desc.extended_length)).astype(float)
    dense = b @ extend_rows(np.eye(n), desc).T
    np.testing.assert_allclose(extend_adjoint(b, desc), dense, rtol=0, atol=1e-15)
    np.testing.assert_allclose(extend_adjoint(b[0, 0], desc), dense[0, 0], rtol=0, atol=1e-15)


def filter_bank_calls(monkeypatch):
    """(output columns, terms) of every _filter_bank call from now on, in call order.

    The filter bank is the one place a transform multiplies and adds, so
    columns times terms counts the multiply-adds of a row whatever route
    reaches it.
    """
    calls, bank = [], transforms._filter_bank

    def counted(inputs, bases, reach, strides, cols, outputs, terms):
        calls.append((cols, len(terms)))
        return bank(inputs, bases, reach, strides, cols, outputs, terms)

    monkeypatch.setattr(transforms, "_filter_bank", counted)
    return calls


def add_at_adjoint(b, desc):
    """extend_adjoint by scatter: every extended sample adds to the data at
    its mirror index, and in the odd-reflection pads also at its edge index
    (2 x[edge] - x[mirror]); padding the index row of [reverse, identity,
    reverse] like the data gives both.  One np.add.at pass per row."""
    if desc.policy == NO_EXTENSION:
        return b
    n = desc.original_length
    index = np.arange(n)
    triple = np.concatenate([index[::-1], index, index[::-1]])
    left = desc.offset - n
    widths = (left, desc.extended_length - 3 * n - left)
    mirror = np.pad(triple, widths, mode="reflect")
    edge = np.pad(triple, widths, mode="edge")
    pad = np.ones(desc.extended_length, dtype=bool)
    pad[left : left + 3 * n] = False
    sign = np.where(pad, -1.0, 1.0)
    rows = b.reshape(-1, desc.extended_length)
    out = np.zeros((rows.shape[0], n))
    for row, acc in zip(rows, out):
        np.add.at(acc, mirror, sign * row)
        np.add.at(acc, edge[pad], 2.0 * row[pad])
    return out.reshape(b.shape[:-1] + (n,))


@pytest.mark.parametrize("n", [2, 3, 5, 64, 100, 257, 300])
def test_extend_adjoint_matches_scatter_oracle(n):
    # n = 5: 3n = 15 leaves no left pad and a one-sample right pad
    desc = extension_descriptor(n, SYMMETRIC_TRIPLE)
    rng = np.random.default_rng(n)
    b = rng.integers(-8, 9, (3, desc.extended_length)).astype(float)
    assert np.array_equal(extend_adjoint(b, desc), add_at_adjoint(b, desc))
    b = rng.standard_normal((2, 3, desc.extended_length))
    got, want = extend_adjoint(b, desc), add_at_adjoint(b, desc)
    assert got.shape == (2, 3, n)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("policy", [TREND_REFLECT, SYMMETRIC_TRIPLE])
@pytest.mark.parametrize("n", [5, 100, 257])
def test_cropped_extension_is_a_span_of_the_whole(policy, n):
    whole = extension_descriptor(n, policy)
    x = np.random.default_rng(n).standard_normal((2, n))
    full = extend_rows(x, whole)
    for before, after in [(0, 0), (1, 3), (whole.offset, 2), (3, whole.extended_length)]:
        desc = crop_extension(whole, before, after)
        if before > whole.offset or after > whole.extended_length - whole.offset - n:
            assert desc == whole  # the span would run past the extension
            continue
        lo = whole.offset - before
        assert (desc.extended_length, desc.offset) == (n + before + after, before)
        assert np.array_equal(extend_rows(x, desc), full[:, lo : lo + n + before + after])
        assert np.array_equal(extend_rows(x, desc)[:, desc.window()], x)
    with pytest.raises(ValueError, match="whole"):
        extend_adjoint(full, crop_extension(whole, 1, 1))


def test_crop_leaves_no_extension_alone():
    desc = extension_descriptor(10, NO_EXTENSION)
    assert crop_extension(desc, 0, 0) == desc


def test_no_extension_is_the_identity_without_a_copy():
    desc = extension_descriptor(10, NO_EXTENSION)
    assert (desc.extended_length, desc.offset, desc.window()) == (10, 0, slice(0, 10))
    x = np.arange(30.0).reshape(3, 10)
    assert extend_rows(x, desc) is x
    assert extend_adjoint(x, desc) is x
    assert np.shares_memory(extend_rows(x[0], desc), x)


def test_extend_adjoint_rejects_other_policies():
    with pytest.raises(ValueError, match="symmetric_triple"):
        extend_adjoint(np.zeros(32), extension_descriptor(10, TREND_REFLECT))


def test_detail_support_shapes():
    start, length = detail_support(DECIMATED, 8, 2, 3)
    assert (start, length) == (12, 22)
    start, length = detail_support(NONDECIMATED, 2, 1, 5)
    assert length == 2
    assert start == 5 - centre_shift(2, 1)
    starts, length = detail_support(DECIMATED, 8, 2, np.arange(4))
    assert np.array_equal(starts, [0, 4, 8, 12]) and length == 22


FILTERS = [(1, EXTREMAL_PHASE), (4, EXTREMAL_PHASE), (10, EXTREMAL_PHASE),
           (8, LEAST_ASYMMETRIC)]


@pytest.mark.parametrize("number,family", FILTERS)
@pytest.mark.parametrize("k", [1, 3, 33])
def test_batched_rows_match_one_row_calls(number, family, k):
    # a (k, n) call does per row exactly the multiply-adds of a one-row call
    filt = wavelet_filter(family, number)
    x = np.random.default_rng(k).standard_normal((k, 64))
    for forward, inverse in ((dwt_forward, dwt_inverse), (ndwt_forward, ndwt_average_basis)):
        for levels in (1, 3, 6):
            batch = forward(x, filt, levels)
            back = inverse(batch)
            assert back.shape == x.shape
            for i, row in enumerate(x):
                one = forward(row, filt, levels)
                for j in range(1, levels + 1):
                    assert np.array_equal(batch.detail(j)[i], one.detail(j))
                assert np.array_equal(batch.scaling[i], one.scaling)
                assert np.array_equal(back[i], inverse(one))


@pytest.mark.parametrize("shape", [(64,), (3, 64), (2, 2, 64)])
def test_pyramid_depth_and_length_read_from_rows(shape):
    # levels and length are what the forward transform was given, for one
    # series and for batches, decimated or not
    x = np.random.default_rng(2).standard_normal(shape)
    for forward in (dwt_forward, ndwt_forward):
        for levels in (1, 3, 6):
            pyr = forward(x, EP4, levels)
            assert (pyr.levels, pyr.length) == (levels, 64)
            assert type(pyr.levels) is int and type(pyr.length) is int
            with pytest.raises(ModeMismatch):
                pyr.with_details(pyr.details[:-1])
    assert ndwt_forward(np.zeros(96), EP4, 3).length == 96


def zero_upsampled_inverse(pyr):
    """dwt_inverse as the stride-1 synthesis of zero-upsampled rows, tap by tap."""
    approx = pyr.scaling
    for j in range(pyr.levels, 0, -1):
        up = np.zeros((2, 2 * approx.size))
        up[0, 0::2], up[1, 0::2] = approx, pyr.detail(j)
        approx = np.zeros(up.shape[1])
        for m, (g, h) in enumerate(zip(pyr.filter.highpass, pyr.filter.lowpass)):
            approx += h * np.roll(up[0], m)
            approx += g * np.roll(up[1], m)
    return approx


@pytest.mark.parametrize("number,family", FILTERS)
@pytest.mark.parametrize("n", [2, 32, 128, 2048])
def test_polyphase_inverse_matches_zero_upsampled(number, family, n):
    # same taps in the same order, so equal to the bit, signed zeros included;
    # half the details zeroed as in the trend edits
    filt = wavelet_filter(family, number)
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    for levels in range(1, n.bit_length()):
        pyr = dwt_forward(x, filt, levels)
        edited = pyr.with_details(
            tuple(np.where(rng.random(d.size) < 0.5, 0.0, d) for d in pyr.details)
        )
        for p in (pyr, edited):
            got, expected = dwt_inverse(p), zero_upsampled_inverse(p)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))


def windows(n, offset, stride):
    """(out, src) slice pairs that read x[(stride * i + offset) % n] into out[i].

    Covers i < n // stride in two pieces, before and after the read position
    wraps past the end of the row; offset must lie in [0, n).
    """
    head = -(-(n - offset) // stride)
    yield slice(0, head), slice(offset, n, stride)
    if offset:
        yield slice(head, n // stride), slice((offset - n) % stride, offset, stride)


def windowed_analysis(approx, filt, step, stride, detail_shift, smooth_shift):
    """The analysis step as two wrap-around pieces per tap, then the centring rolls."""
    n = approx.shape[-1]
    detail = np.zeros(approx.shape[:-1] + (n // stride,))
    smooth = np.zeros_like(detail)
    for m, (g, h) in enumerate(zip(filt.highpass, filt.lowpass)):
        for out, src in windows(n, step * m % n, stride):
            window = approx[..., src]
            d, a = detail[..., out], smooth[..., out]
            d += g * window
            a += h * window
    return np.roll(detail, detail_shift, axis=-1), np.roll(smooth, smooth_shift, axis=-1)


def windowed_synthesis(approx, detail, filt, step, stride, approx_shift, detail_shift):
    """The synthesis step after the centring rolls, as two pieces per tap."""
    approx = np.roll(approx, -approx_shift, axis=-1)
    detail = np.roll(detail, -detail_shift, axis=-1)
    k = approx.shape[-1]
    nxt = np.zeros(approx.shape[:-1] + (stride * k,))
    for m, (g, h) in enumerate(zip(filt.highpass, filt.lowpass)):
        shift = step * m
        phase = nxt[..., shift % stride :: stride]
        for out, src in windows(k, -(shift // stride) % k, 1):
            acc = phase[..., out]
            acc += h * approx[..., src]
            acc += g * detail[..., src]
    return nxt


def assert_same_bits(got, expected):
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("n", [64, 97, 100, 2048])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
@pytest.mark.parametrize("budget", [None, 520])
def test_steps_match_windowed_taps(stride, n, batch, budget, monkeypatch):
    # one circular window per block reads the same values in the same tap
    # order as the two wrap-around pieces, so every output bit agrees; the
    # last step and the last shift make supports that wrap the row more than
    # twice.  n is the coefficient row length: analysis reads stride * n
    # samples.  A budget of 520 doubles makes blocks of 104 to 130 output
    # columns: two rows per block at n = 64 (stride 1), one row at n = 97
    # and 100, and column chunks at n = 2048
    if budget is not None:
        monkeypatch.setattr(transforms, "_BLOCK_ELEMENTS", budget)
    rng = np.random.default_rng(n + stride)
    x = rng.standard_normal(batch + (stride * n,))
    x[rng.random(x.shape) < 0.3] = 0.0
    x[rng.random(x.shape) < 0.1] = -0.0
    a, d = (np.where(rng.random(batch + (n,)) < 0.3, 0.0, rng.standard_normal(batch + (n,)))
            for _ in range(2))
    for filt in (wavelet_filter(EXTREMAL_PHASE, 1), EP4, wavelet_filter(EXTREMAL_PHASE, 10)):
        for step in (1, 2, 8, 2 * stride * n // (filt.length - 1) + 1):
            for s1, s2 in ((0, 0), (1, 0), (0, n + 5), (n + 5, 1)):
                got = _analysis_step(x, filt, step, stride, (s1, s2))
                expected = windowed_analysis(x, filt, step, stride, s1, s2)
                assert len(got) == 2
                for g, e in zip(got, expected):
                    assert_same_bits(g, e)
                assert_same_bits(
                    _synthesis_step(a, d, filt, step, stride, (s2, s1)),
                    windowed_synthesis(a, d, filt, step, stride, s1, s2),
                )


def test_average_basis_needs_a_nondecimated_pyramid():
    pyr = dwt_forward(np.ones(16), wavelet_filter(EXTREMAL_PHASE, 2), 2)
    with pytest.raises(ModeMismatch):
        ndwt_average_basis(pyr)
