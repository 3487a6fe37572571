import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.ndimage import convolve1d

import oracles
from prnukit import wavelets
from prnukit.denoise import (
    DEFAULT_NOISE_VARIANCE,
    DenoiserSpec,
    apply_denoiser,
    gaussian_denoise,
    local_signal_variance,
    wavelet_denoise,
)
from prnukit.errors import ShapeError


def test_filters_orthonormal():
    h = oracles.LOWPASS
    g = oracles.HIGHPASS
    assert abs((h * h).sum() - 1.0) < 1e-14
    assert abs(h.sum() - np.sqrt(2)) < 1e-14
    assert abs(g.sum()) < 1e-14
    for s in (1, 2, 3):
        assert abs(np.dot(h[2 * s :], h[: -2 * s])) < 1e-14
        assert abs(np.dot(g[2 * s :], g[: -2 * s])) < 1e-14


def test_lifting_steps_multiply_out_to_the_filter_taps():
    # weights[p, q, 5 + s]: the weight of x_q[m + s] in the lifted x_p[m] (0: x_o, 1: x_e)
    weights = np.zeros((2, 2, 11))
    weights[0, 0, 5] = weights[1, 1, 5] = 1.0
    for dst, terms in wavelets._STEPS:
        for offset, c in terms:
            weights[dst] += c * np.roll(weights[1 - dst], offset, axis=-1)
    # lo[j] = K x_o[j] and hi[j] = x_e[j + 3] / K; the filter form's c[j] reads
    # x_o[j + s] with tap f[7 - 2s] and x_e[j + s] with tap f[6 - 2s], s = 0..3
    lo = wavelets._K * weights[0]
    hi = wavelets._INV_K * np.roll(weights[1], 3, axis=-1)
    for got, f in ((lo, oracles.LOWPASS), (hi, oracles.HIGHPASS)):
        want = np.zeros((2, 11))
        want[:, 5:9] = f[7::-2], f[6::-2]
        assert np.abs(got - want).max() < 4e-15


@settings(max_examples=100)
@given(st.integers(16, 48), st.integers(16, 48), st.integers(1, 4), st.integers(0, 2**31))
def test_transform_roundtrip_exact(h, w, levels, seed):
    x = np.random.default_rng(seed).standard_normal((h, w))
    approx, details, shapes = wavelets.decompose(x, levels)
    assert np.abs(wavelets.reconstruct(approx, details, shapes) - x).max() < 1e-12


@pytest.mark.parametrize("shape", [(16, 16), (37, 61), (252, 252), (512, 384)])
def test_transform_coefficients_match_the_oracle(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    plane = rng.random(shape)
    for levels in (1, 2, 3, 4):
        approx, details, shapes = wavelets.decompose(plane, levels)
        want_approx, want_details, want_shapes = oracles.wavelet_decompose(plane, levels)
        assert shapes == want_shapes
        levels_got = [*details, (approx,)]
        levels_want = [*want_details, (want_approx,)]
        for got, want in zip(levels_got, levels_want, strict=True):
            tol = 1e-13 * max(np.abs(band).max() for band in want)
            for band, want_band in zip(got, want, strict=True):
                assert band.shape == want_band.shape
                assert np.abs(band - want_band).max() < tol
        # random coefficients in the oracle's subband shapes, through both inverses
        coeffs = [tuple(rng.standard_normal(band.shape) for band in level) for level in levels_want]
        got = wavelets.reconstruct(coeffs[-1][0], coeffs[:-1], shapes)
        want = oracles.wavelet_reconstruct(coeffs[-1][0], coeffs[:-1], shapes)
        assert got.shape == want.shape == shape
        assert np.abs(got - want).max() < 1e-13 * max(np.abs(c).max() for level in coeffs for c in level)


@pytest.mark.parametrize("shape", [(16, 16), (37, 61), (252, 252), (256, 256), (512, 384)])
def test_wavelet_denoise_matches_the_oracle(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    smooth = 0.5 + 0.05 * rng.standard_normal(shape)
    for plane in (rng.random(shape), smooth):
        want = oracles.wavelet_denoise(plane, DEFAULT_NOISE_VARIANCE)
        assert np.abs(wavelet_denoise(plane) - want).max() < 1e-12


def test_local_signal_variance_matches_the_oracle():
    stack = 0.05 * np.random.default_rng(13).standard_normal((3, 70, 45))
    got = local_signal_variance(stack, DEFAULT_NOISE_VARIANCE)
    for band, est in zip(stack, got):
        # window sums are differences of a summed-area table, so their
        # rounding scales with the plane's total energy
        tol = 64 * np.finfo(float).eps * (band * band).sum()
        assert np.abs(est - oracles.local_signal_variance(band, DEFAULT_NOISE_VARIANCE)).max() < tol
        assert np.array_equal(local_signal_variance(band, DEFAULT_NOISE_VARIANCE), est)


_RESIDUAL_DIGEST = """
import hashlib
import numpy as np
from prnukit.denoise import DenoiserSpec
from prnukit.fingerprint import residual
from prnukit.matching import ncc
plane = 0.5 + 0.05 * np.random.default_rng(14).standard_normal((256, 256))
r = residual(plane, DenoiserSpec())
print(hashlib.sha256(r.tobytes() + repr(ncc(r, plane)).encode()).hexdigest())
"""


# numpy's AVX-512 and AVX2 dispatch turned off
_SIMD_OFF = "X86_V4 AVX512_ICL AVX512_SPR X86_V3"


def test_residual_bits_do_not_depend_on_the_blas_kernel():
    src = Path(__file__).resolve().parent.parent / "src"
    digests = set()
    rejected = False
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    base["PYTHONPATH"] = str(src)
    for extra in ({}, *({"OPENBLAS_CORETYPE": c} for c in ("Haswell", "Nehalem", "Sandybridge")),
                  {"NPY_DISABLE_CPU_FEATURES": _SIMD_OFF}):
        proc = subprocess.run(
            [sys.executable, "-W", "always::ImportWarning", "-c", _RESIDUAL_DIGEST],
            env={**base, **extra}, capture_output=True, text=True, check=True, timeout=120,
        )
        # numpy warns and ignores the setting when it does not dispatch those features
        if "NPY_DISABLE_CPU_FEATURES" in proc.stderr:
            rejected = True
        else:
            digests.add(proc.stdout.strip())
    assert len(digests) == 1, digests
    if rejected:
        pytest.skip(f"numpy rejects NPY_DISABLE_CPU_FEATURES={_SIMD_OFF!r}; only the BLAS kernels were compared")


def test_wavelet_denoise_peak_memory():
    plane = 0.5 + 0.05 * np.random.default_rng(15).standard_normal((512, 512))
    tracemalloc.start()
    try:
        wavelet_denoise(plane)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6, peak


def test_wavelet_constant_fixpoint():
    plane = np.full((64, 48), 0.5)
    out = wavelet_denoise(plane)
    assert np.allclose(out, 0.5, atol=1e-12)


def test_wavelet_spike_goes_to_residual():
    nv = DEFAULT_NOISE_VARIANCE
    plane = np.full((128, 128), 0.5)
    amp = 10.0 * np.sqrt(nv)
    plane[64, 64] += amp
    res = plane - wavelet_denoise(plane, nv)
    assert (res**2).sum() > 0.5 * amp**2


def test_wavelet_reduces_noise_variance():
    rng = np.random.default_rng(8)
    nv = DEFAULT_NOISE_VARIANCE
    noise = rng.normal(0.0, np.sqrt(nv), (192, 192))
    out = wavelet_denoise(noise, nv)
    assert out.var() < noise.var()


def test_wavelet_size_error():
    with pytest.raises(ShapeError):
        wavelet_denoise(np.zeros((15, 64)))
    with pytest.raises(ValueError):
        wavelet_denoise(np.zeros((32, 32)), noise_variance=0.0)


def test_gaussian_constant_fixpoint():
    plane = np.full((32, 32), 0.7)
    assert np.allclose(gaussian_denoise(plane, 1.3), 0.7, atol=1e-12)


def test_gaussian_impulse_kernel_sums_to_one():
    plane = np.zeros((41, 41))
    plane[20, 20] = 1.0
    out = gaussian_denoise(plane, 1.5)
    assert abs(out.sum() - 1.0) < 1e-9
    assert out[20, 20] == out.max()


def _reflect_index(i, n):
    # scipy 'reflect': (d c b a | a b c d)
    period = 2 * n
    i = i % period
    if i < 0:
        i += period
    return i if i < n else period - 1 - i


def test_gaussian_matches_direct_convolution_oracle():
    rng = np.random.default_rng(9)
    plane = rng.random((14, 11))
    sigma = 1.2
    radius = int(np.floor(3 * sigma))
    t = np.arange(-radius, radius + 1)
    k1 = np.exp(-0.5 * (t / sigma) ** 2)
    k1 /= k1.sum()
    kernel = np.outer(k1, k1)
    h, w = plane.shape
    expect = np.zeros_like(plane)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    yy = _reflect_index(y + dy, h)
                    xx = _reflect_index(x + dx, w)
                    acc += kernel[dy + radius, dx + radius] * plane[yy, xx]
            expect[y, x] = acc
    assert np.abs(gaussian_denoise(plane, sigma) - expect).max() < 1e-9


@pytest.mark.parametrize("sigma", [0.2, 0.5, 1.0, 1.1, 4.0, 9.0])
def test_gaussian_equals_scipy_convolve1d(sigma):
    # scipy is the oracle: two reflect-mode passes, bit for bit, also where the
    # kernel is wider than the plane and where the blur takes several bands of rows.
    radius = int(np.floor(3 * sigma))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (t / sigma) ** 2)
    kernel /= kernel.sum()
    rng = np.random.default_rng(12)
    for shape in ((1, 7), (3, 3), (17, 33), (64, 64), (257, 129)):
        plane = rng.standard_normal(shape)
        expect = convolve1d(convolve1d(plane, kernel, axis=0, mode="reflect"), kernel, axis=1, mode="reflect")
        assert np.array_equal(gaussian_denoise(plane, sigma), expect), shape


def _scipy_blur(plane, sigma):
    radius = int(np.floor(3 * sigma))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (t / sigma) ** 2)
    kernel /= kernel.sum()
    return convolve1d(convolve1d(plane, kernel, axis=0, mode="reflect"), kernel, axis=1, mode="reflect")


@pytest.mark.parametrize("sigma", [0.2, 1.1, 4.0, 9.0])
def test_gaussian_equals_scipy_on_one_row_bands_and_a_channel_view(sigma):
    rng = np.random.default_rng(13)
    # Padded rows of over 32 768 samples: every band is one row.
    wide = rng.standard_normal((2, 33000))
    assert np.array_equal(gaussian_denoise(wide, sigma), _scipy_blur(wide, sigma))
    channel = rng.standard_normal((40, 50, 3))[:, :, 1]
    assert np.array_equal(gaussian_denoise(channel, sigma), _scipy_blur(channel, sigma))


def test_gaussian_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gaussian_denoise(np.zeros((8, 8)), 0.0)


def test_residual_of_constant_is_zero():
    plane = np.full((64, 64), 0.25)
    for spec in (DenoiserSpec("wavelet"), DenoiserSpec("gaussian", sigma=1.0)):
        res = plane - apply_denoiser(plane, spec)
        assert np.abs(res).max() < 1e-12


def test_gaussian_shift_covariant_interior():
    rng = np.random.default_rng(10)
    plane = rng.random((64, 64))
    sigma = 1.5
    shifted = np.roll(np.roll(plane, 5, axis=0), 3, axis=1)
    a = gaussian_denoise(shifted, sigma)
    b = np.roll(np.roll(gaussian_denoise(plane, sigma), 5, axis=0), 3, axis=1)
    margin = int(3 * sigma) + 6
    assert np.abs(a[margin:-margin, margin:-margin] - b[margin:-margin, margin:-margin]).max() < 1e-9


def test_wavelet_shift_covariant_interior():
    # shifts that are multiples of 2^levels move subband samples rigidly,
    # so the interior (beyond the multi-level filter support) must agree.
    rng = np.random.default_rng(12)
    plane = 0.5 + 0.05 * rng.standard_normal((768, 768))
    shift = 16
    shifted = np.roll(np.roll(plane, shift, axis=0), shift, axis=1)
    a = wavelet_denoise(shifted)
    b = np.roll(np.roll(wavelet_denoise(plane), shift, axis=0), shift, axis=1)
    margin = 300
    diff = np.abs(a[margin:-margin, margin:-margin] - b[margin:-margin, margin:-margin])
    assert diff.max() < 1e-9


def test_denoiser_spec_validation_and_json():
    with pytest.raises(ValueError):
        DenoiserSpec("median")
    with pytest.raises(ValueError):
        DenoiserSpec("wavelet", noise_variance=-1.0)
    with pytest.raises(ValueError):
        DenoiserSpec("gaussian", sigma=0.0)
    for spec in (DenoiserSpec("wavelet", noise_variance=2e-4), DenoiserSpec("gaussian", sigma=0.8)):
        assert DenoiserSpec.from_json(spec.to_json()) == spec
