"""Independent reference implementations that tests compare the package against."""

import numpy as np
from scipy.signal import convolve

from prnukit.ispsim import _K_G, _K_RB, _bayer_masks
from prnukit.matching import _pair


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
