"""Independent reference implementations that tests compare the package against."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import uniform_filter
from scipy.signal import convolve

from prnukit.denoise import apply_denoiser, gaussian_denoise
from prnukit.ispsim import output_shape
from prnukit.matching import PceScore, _pair, signed_shift


def cross_correlate_direct(a, b) -> np.ndarray:
    """Spatial-domain reference implementation, O(n^2) per shift.

    Kept as an independent check of the frequency-domain path; only suitable
    for small planes (<= 64 px or so).
    """
    pa, pb = _pair(a, b)
    da = pa - pa.mean()
    db = pb - pb.mean()
    h, w = da.shape
    out = np.empty((h, w))
    for sy in range(h):
        for sx in range(w):
            out[sy, sx] = np.sum(da * np.roll(db, (-sy, -sx), axis=(0, 1)))
    return out


def _circular_square_mask(shape, center, radius) -> np.ndarray:
    """Mask of the (2r+1)^2 circular neighborhood of ``center`` (row, column)."""
    h, w = shape
    cy, cx = center
    ry = np.arange(h) - cy
    rx = np.arange(w) - cx
    dy = np.minimum(ry % h, (-ry) % h)
    dx = np.minimum(rx % w, (-rx) % w)
    return (dy[:, None] <= radius) & (dx[None, :] <= radius)


def pinned_pce(surface, exclusion_radius, peak=None) -> PceScore:
    """The PCE of a full correlation surface at the pinned ``peak`` shift (dx, dy),
    or at its maximum-|value| entry when ``peak`` is None.

    The off-peak energy is the mean square of the surface outside the
    (2r+1)^2 circular neighborhood of the peak, gathered through a mask.
    """
    s = np.asarray(surface, dtype=np.float64)
    h, w = s.shape
    if peak is None:
        py, px = (int(v) for v in np.unravel_index(np.argmax(np.abs(s)), s.shape))
    else:
        px, py = int(peak[0]) % w, int(peak[1]) % h
    peak_value = float(s[py, px])
    off = s[~_circular_square_mask(s.shape, (py, px), exclusion_radius)]
    energy = float(np.mean(off * off))
    value = 0.0 if peak_value == 0.0 else float(np.copysign(peak_value * peak_value / energy, peak_value))
    return PceScore(value, peak_value, (signed_shift(px, w), signed_shift(py, h)))


def _bayer_masks(shape):
    """Boolean RGGB site masks (red, green, blue) of a plane of ``shape``."""
    h, w = shape
    odd_row = (np.arange(h) % 2)[:, None].astype(bool)
    odd_col = (np.arange(w) % 2)[None, :].astype(bool)
    r = ~odd_row & ~odd_col
    b = odd_row & odd_col
    g = ~(r | b)
    return r, g, b


def capture(scene, sensor, seed: int = 0) -> np.ndarray:
    """``ispsim.capture`` through boolean Bayer masks and nested ``np.where``, each step into a
    new array."""
    sc = np.asarray(scene, dtype=np.float64)
    h, w = sc.shape[:2]
    spec = sensor.spec
    rmask, _, bmask = _bayer_masks((h, w))
    bayer = np.where(rmask, sc[:, :, 0], np.where(bmask, sc[:, :, 2], sc[:, :, 1]))
    signal = bayer * (1.0 + sensor.prnu)
    rng = np.random.default_rng(seed)
    shot_sd = np.sqrt(np.clip(bayer, 0.0, None) * spec.shot_noise_scale)
    noise = rng.standard_normal((h, w)) * shot_sd
    noise += rng.standard_normal((h, w)) * spec.read_noise_std
    return np.clip(signal + noise, 0.0, 1.0)


# The bilinear demosaic's kernels, red/blue and green; symmetric, so correlating is convolving.
_K_RB = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]])
_K_G = np.array([[0.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 0.0]])


def demosaic_bilinear_direct(raw: np.ndarray) -> np.ndarray:
    """Bilinear demosaic by direct 2-D convolution of the reflect-padded plane."""
    # Reflect padding mirrors about the edge sample, preserving CFA parity.
    pad = np.pad(raw, 2, mode="reflect")
    rmask, gmask, bmask = _bayer_masks(pad.shape)
    # With these kernels the mask-weighted normalizer is 4 at every site.
    r = convolve(pad * rmask, _K_RB, mode="same", method="direct") / 4.0
    g = convolve(pad * gmask, _K_G, mode="same", method="direct") / 4.0
    b = convolve(pad * bmask, _K_RB, mode="same", method="direct") / 4.0
    out = np.stack([r, g, b], axis=2)
    return out[2:-2, 2:-2]


def demosaic_edge_direct(raw: np.ndarray) -> np.ndarray:
    """Edge-directed demosaic with its chroma step by direct 2-D convolution."""
    pad = np.pad(raw, 2, mode="reflect")
    rmask, gmask, bmask = _bayer_masks(pad.shape)
    left = np.roll(pad, 1, axis=1)
    right = np.roll(pad, -1, axis=1)
    up = np.roll(pad, 1, axis=0)
    down = np.roll(pad, -1, axis=0)
    left2 = np.roll(pad, 2, axis=1)
    right2 = np.roll(pad, -2, axis=1)
    up2 = np.roll(pad, 2, axis=0)
    down2 = np.roll(pad, -2, axis=0)
    dh = np.abs(left - right)
    dv = np.abs(up - down)
    est_h = 0.5 * (left + right) + 0.25 * (2.0 * pad - left2 - right2)
    est_v = 0.5 * (up + down) + 0.25 * (2.0 * pad - up2 - down2)
    est = np.where(dh < dv, est_h, np.where(dv < dh, est_v, 0.5 * (est_h + est_v)))
    green = np.where(gmask, pad, est)
    # Chroma by difference interpolation: own-color sites pass through.
    r = green + convolve((pad - green) * rmask, _K_RB, "same", "direct") / 4.0
    b = green + convolve((pad - green) * bmask, _K_RB, "same", "direct") / 4.0
    out = np.stack([r, green, b], axis=2)
    return out[2:-2, 2:-2]


def render(rgb: np.ndarray, config) -> np.ndarray:
    """Every step of ``config`` after the demosaic on one interleaved (H, W, 3) image: white
    balance, tone and clip on the whole, denoise and sharpen one strided channel at a time."""
    out_h, out_w = output_shape(config, rgb.shape[:2])
    r_gain, b_gain = config.white_balance
    rgb = np.clip(rgb * np.array([r_gain, 1.0, b_gain]), 0.0, 1.0)
    rgb = config.tone.apply(rgb)
    if config.denoise is not None:
        for c in range(3):
            rgb[:, :, c] = apply_denoiser(rgb[:, :, c], config.denoise)
    if config.sharpen is not None:
        for c in range(3):
            blurred = gaussian_denoise(rgb[:, :, c], 1.0)
            rgb[:, :, c] += config.sharpen * (rgb[:, :, c] - blurred)
    rgb = np.clip(rgb, 0.0, 1.0)
    dx, dy = config.crop_offset
    return rgb[dy : dy + out_h, dx : dx + out_w]


# The wavelet transform and Wiener shrink as first written: zero-upsampled
# synthesis, one 8-tap matmul per filter on either axis, and one
# ``uniform_filter`` per window size.
#
# Daubechies 8-tap scaling filter (4 vanishing moments), refined by spectral
# factorization to machine-precision orthonormality.
LOWPASS = np.array(
    [
        -0.010597401785069013,
        0.032883011666885155,
        0.03084138183556072,
        -0.18703481171909253,
        -0.02798376941685889,
        0.6308807679298593,
        0.7148465705529155,
        0.23037781330889637,
    ]
)
# Quadrature-mirror highpass: g[m] = (-1)^m h[L-1-m].
HIGHPASS = LOWPASS[::-1] * np.where(np.arange(8) % 2 == 0, 1.0, -1.0)
_LEN = 8
_PAD = _LEN - 1


def _analyze(ext: np.ndarray, axis: int):
    m = ext.shape[axis]
    win = sliding_window_view(ext, _LEN, axis=axis)
    if axis == 1:
        win = win[:, 1 : m - _LEN + 1 : 2, :]
    else:
        win = win[1 : m - _LEN + 1 : 2, :, :]
    return win @ LOWPASS[::-1], win @ HIGHPASS[::-1]


def _upsample(coeff: np.ndarray, axis: int, m: int) -> np.ndarray:
    shape = list(coeff.shape)
    shape[axis] = m + _LEN - 1
    up = np.zeros(shape)
    idx = [slice(None), slice(None)]
    idx[axis] = slice(_LEN, _LEN + 2 * coeff.shape[axis], 2)
    up[tuple(idx)] = coeff
    return up


def _synthesize(lo: np.ndarray, hi: np.ndarray, axis: int, m: int) -> np.ndarray:
    rec = sliding_window_view(_upsample(lo, axis, m), _LEN, axis=axis) @ LOWPASS
    rec += sliding_window_view(_upsample(hi, axis, m), _LEN, axis=axis) @ HIGHPASS
    return rec


def wavelet_decompose(plane: np.ndarray, levels: int):
    """(approx, [(lh, hl, hh) per level, finest first], [input shape per level])."""
    cur = np.asarray(plane, dtype=np.float64)
    details = []
    shapes = []
    for _ in range(levels):
        shapes.append(cur.shape)
        ext = np.pad(cur, _PAD, mode="symmetric")
        row_lo, row_hi = _analyze(ext, axis=1)
        ll, hl = _analyze(row_lo, axis=0)
        lh, hh = _analyze(row_hi, axis=0)
        details.append((lh, hl, hh))
        cur = ll
    return cur, details, shapes


def wavelet_reconstruct(approx: np.ndarray, details, shapes) -> np.ndarray:
    cur = approx
    for (lh, hl, hh), (h, w) in zip(reversed(details), reversed(shapes)):
        mh, mw = h + 2 * _PAD, w + 2 * _PAD
        row_lo = _synthesize(cur, hl, axis=0, m=mh)
        row_hi = _synthesize(lh, hh, axis=0, m=mh)
        ext = _synthesize(row_lo, row_hi, axis=1, m=mw)
        cur = ext[_PAD : _PAD + h, _PAD : _PAD + w]
    return cur


def local_signal_variance(coeff: np.ndarray, noise_variance: float) -> np.ndarray:
    """Minimum over 3, 5, 7 and 9 px windows of the mean energy (zeros outside
    the plane), minus the noise floor, clamped at zero; 2-D planes only."""
    energy = coeff * coeff
    est = None
    for size in (3, 5, 7, 9):
        m = uniform_filter(energy, size=size, mode="constant")
        est = m if est is None else np.minimum(est, m)
    return np.maximum(est - noise_variance, 0.0)


def wavelet_denoise(plane: np.ndarray, noise_variance: float) -> np.ndarray:
    """4-level transform, each detail subband shrunk by s2 / (s2 + noise_variance)."""
    approx, details, shapes = wavelet_decompose(plane, 4)
    shrunk = []
    for level in details:
        bands = []
        for band in level:
            s2 = local_signal_variance(band, noise_variance)
            bands.append(band * (s2 / (s2 + noise_variance)))
        shrunk.append(bands)
    return wavelet_reconstruct(approx, shrunk, shapes)
