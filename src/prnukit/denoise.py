"""Denoising filters used to form noise residuals.

The wavelet denoiser is the workhorse: a 4-level Daubechies-8 decomposition
with local Wiener shrinkage. Each detail coefficient is scaled by
s2 / (s2 + noise_variance), where s2 is the smallest 3, 5, 7 or 9 px window
mean energy (from one summed-area table per subband, zeros outside it)
minus the noise floor, clamped at zero. No step calls BLAS or fuses a product
into a sum, so residual bits depend neither on the BLAS kernel nor on numpy's
SIMD level. The Gaussian blur is a baseline for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _config, wavelets
from .errors import ShapeError
from .imaging import as_plane

# The "sigma = 3 on the 8-bit scale" convention, in normalized-intensity units.
DEFAULT_NOISE_VARIANCE = (3.0 / 255.0) ** 2

_LEVELS = 4
_WINDOW_SIZES = (3, 5, 7, 9)
_MIN_SIZE = 16


@dataclass(frozen=True)
class DenoiserSpec:
    """Declarative description of a denoising filter.

    kind: "wavelet" (uses noise_variance, intensity^2 units) or
    "gaussian" (uses sigma, pixels).
    """

    KIND_PARAM = {"wavelet": "noise_variance", "gaussian": "sigma"}

    kind: str = "wavelet"
    noise_variance: float = DEFAULT_NOISE_VARIANCE
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in self.KIND_PARAM:
            raise ValueError(f"unknown denoiser kind {self.kind!r}")
        for name in ("noise_variance", "sigma"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and > 0, got {value}")

    to_json = _config.to_json
    from_json = classmethod(_config.from_json)


def local_signal_variance(coeff: np.ndarray, noise_variance: float) -> np.ndarray:
    """Conservative local signal-energy estimate of each (h, w) plane of
    ``coeff``: the minimum over window sizes of the windowed mean energy (zeros
    outside the plane), minus the noise floor, clamped at zero."""
    h, w = coeff.shape[-2:]
    r = _WINDOW_SIZES[-1] // 2
    # table[..., i, j]: energy summed over rows < i and columns < j of the plane zero-padded by r
    table = np.zeros(coeff.shape[:-2] + (h + 2 * r + 1, w + 2 * r + 1))
    np.multiply(coeff, coeff, out=table[..., r + 1 : r + 1 + h, r + 1 : r + 1 + w])
    np.cumsum(table, axis=-2, out=table)
    np.cumsum(table, axis=-1, out=table)
    est = None
    for size in _WINDOW_SIZES:
        a = r - size // 2
        rows = table[..., a + size : a + size + h, :] - table[..., a : a + h, :]
        mean = rows[..., a + size : a + size + w] - rows[..., a : a + w]
        mean /= size * size
        est = mean if est is None else np.minimum(est, mean, out=est)
    est -= noise_variance
    return np.maximum(est, 0.0, out=est)


def wavelet_denoise(plane, noise_variance: float = DEFAULT_NOISE_VARIANCE) -> np.ndarray:
    """Wavelet-domain Wiener denoiser. Requires both dimensions >= 16."""
    p = as_plane(plane)
    if not 0.0 < noise_variance < np.inf:
        raise ValueError(f"noise_variance must be finite and > 0, got {noise_variance}")
    if min(p.shape) < _MIN_SIZE:
        raise ShapeError(
            f"plane {p.shape[1]}x{p.shape[0]} smaller than minimum "
            f"decomposition size {_MIN_SIZE}"
        )
    approx, details, shapes = wavelets.decompose(p, _LEVELS)
    for bands in details:
        for band in bands:
            s2 = local_signal_variance(band, noise_variance)
            band *= np.divide(s2, s2 + noise_variance, out=s2)
    return wavelets.reconstruct(approx, details, shapes)


def _symmetric_taps(ext, kernel, step, out=None):
    """Correlate the 1-D ``ext`` with ``kernel``, whose taps sit ``step`` samples apart, into ``out``:
    each output is centre * w0, then += (left + right) * w per tap pair outermost first, as scipy.ndimage does."""
    r = len(kernel) // 2
    n = len(ext) - 2 * r * step
    taps = [ext[k * step : k * step + n] for k in range(2 * r + 1)]
    out = np.multiply(taps[r], kernel[r], out=out)
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(taps[r - j], taps[r + j], out=pair)
        pair *= kernel[r + j]
        out += pair
    return out


def gaussian_denoise(plane, sigma: float) -> np.ndarray:
    """Separable Gaussian blur, kernel truncated at +-3 sigma and normalized
    to sum 1, edges handled by reflection (d c b a | a b c d), repeated past a short side."""
    p = as_plane(plane)
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    radius = int(math.floor(3.0 * sigma))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (t / sigma) ** 2)
    kernel /= kernel.sum()
    h, w = p.shape
    width = w + 2 * radius
    ext = np.pad(p, radius, mode="symmetric")
    out = np.empty((h, width))
    rows = max(1, (1 << 15) // width)  # bands of ~32 K samples stay in cache
    for i in range(0, h, rows):
        cols = _symmetric_taps(ext[i : i + rows + 2 * radius].ravel(), kernel, width)
        # The padded rows run as one line; the 2 * radius outputs that straddle two rows land in the margin.
        band = out[i : i + rows].ravel()
        _symmetric_taps(cols, kernel, 1, band[: band.size - 2 * radius])
    return out[:, :w]


def apply_denoiser(plane, spec: DenoiserSpec) -> np.ndarray:
    if spec.kind == "wavelet":
        return wavelet_denoise(plane, spec.noise_variance)
    return gaussian_denoise(plane, spec.sigma)
