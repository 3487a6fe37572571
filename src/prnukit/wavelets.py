"""Separable orthogonal wavelet transform used by the residual extractor.

Daubechies 8-tap filters with symmetric boundary extension. Each level
extends its input by filter_length - 1 samples per side and keeps exactly
the downsampled convolution coefficients whose filter support lies fully
inside the extended signal. That set is a few coefficients larger than the
critically-sampled size, which is what makes the inverse transform exact on
the original sample positions: every basis function overlapping them is
retained, and no partially-supported (tapered) coefficient ever enters the
reconstruction.

Both directions run in polyphase form, as elementwise products summed in tap
order: no filter calls BLAS, and synthesis builds no zero-upsampled plane.
"""

from __future__ import annotations

import numpy as np

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

_PAD = len(LOWPASS) - 1  # 7


def _dot(terms, out: np.ndarray) -> np.ndarray:
    """out = the sum of samples * tap over ``terms``, added in order."""
    tmp = np.empty_like(out)
    np.multiply(*terms[0], out=out)
    for samples, tap in terms[1:]:
        out += np.multiply(samples, tap, out=tmp)
    return out


def _analyze(ext: np.ndarray, axis: int) -> np.ndarray:
    """Lowpass and highpass coefficients of ``ext`` along ``axis`` (a negative
    axis), stacked on a new first axis: c[j] = sum_t f[t] ext[2j + 8 - t] for
    every window ext[2j+1 .. 2j+8], read from copies of its odd and even samples."""
    shape = list(ext.shape)
    shape[axis] = (shape[axis] - 9) // 2 + 1
    out = np.empty([2] + shape)
    ext, bands = np.swapaxes(ext, axis, -1), np.swapaxes(out, axis, -1)
    phases = [ext[..., start::2].copy(order="K") for start in (1, 2)]
    for f, band in zip((LOWPASS, HIGHPASS), bands):
        _dot([(phases[k % 2][..., k // 2 : k // 2 + shape[axis]], tap) for k, tap in enumerate(f[::-1])], band)
    return out


def _synthesize(lo: np.ndarray, hi: np.ndarray, axis: int, n: int) -> np.ndarray:
    """Invert one analysis step along ``axis`` on the ``n`` original samples:
    sample 2q is sum_i f[2i+1] c[q+i] and sample 2q+1 is sum_i f[2i] c[q+i],
    summed over each branch, and the two branch sums added."""
    lo, hi = np.swapaxes(lo, axis, -1), np.swapaxes(hi, axis, -1)
    out = np.empty_like(lo, shape=lo.shape[:-1] + (n,))
    for parity in (0, 1):
        phase = out[..., parity::2]
        low, high = (
            _dot([(c[..., i : i + phase.shape[-1]], t) for i, t in enumerate(f[1 - parity :: 2])], np.empty_like(phase))
            for c, f in ((lo, LOWPASS), (hi, HIGHPASS))
        )
        np.add(low, high, out=phase)
    return np.swapaxes(out, axis, -1)


def decompose(plane: np.ndarray, levels: int):
    """Multi-level 2-D decomposition.

    Returns ``(approx, details, shapes)`` where ``details`` holds one
    ``(3, h, w)`` array of the (lh, hl, hh) subbands per level (finest first)
    and ``shapes`` records each level's input shape for reconstruction.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    cur = np.asarray(plane, dtype=np.float64)
    details, shapes = [], []
    for _ in range(levels):
        shapes.append(cur.shape)
        rows = _analyze(np.pad(cur, _PAD, mode="symmetric"), -1)  # row lowpass, row highpass
        bands = _analyze(rows, -2).reshape(4, -1, rows.shape[-1])  # ll, lh, hl, hh
        details.append(bands[1:])
        cur = bands[0]
    return cur, details, shapes


def reconstruct(approx: np.ndarray, details, shapes) -> np.ndarray:
    """Invert :func:`decompose` exactly (up to float rounding)."""
    cur = approx
    for bands, (h, w) in zip(reversed(details), reversed(shapes)):
        rows = _synthesize(np.stack((cur, bands[0])), bands[1:], -2, h)
        cur = _synthesize(rows[0], rows[1], -1, w)
    return cur
