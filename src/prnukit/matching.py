"""Fingerprint similarity, circular cross-correlation, PCE and alignment.

Shift conventions: a correlation surface S has S[sy, sx] equal to
sum_x a~(x) * b~(x + s), with circular indexing and a~, b~ mean-removed.
Shifts are reported as (dx, dy) tuples using the signed representative in
[-dim/2, dim/2). The peak therefore lands at the displacement of b's
content relative to a's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateInputError, ShapeError
from .imaging import as_plane, common_crop_planes

DEFAULT_EXCLUSION_RADIUS = 5
DEFAULT_MAX_SHIFT = 16


@dataclass(frozen=True)
class PceScore:
    """One detection decision: signed PCE, its peak, and the tail probability."""

    pce: float
    peak_value: float
    peak: tuple  # (dx, dy), signed circular shift
    p_value: float


def _pair(a, b):
    pa, pb = as_plane(a), as_plane(b)
    if pa.shape != pb.shape:
        raise ShapeError(f"planes differ in shape: {pa.shape} vs {pb.shape}")
    return pa, pb


def ncc(a, b) -> float:
    """Pearson correlation of the mean-removed, flattened planes."""
    pa, pb = _pair(a, b)
    da = pa - pa.mean()
    db = pb - pb.mean()
    saa = float(np.sum(da * da))  # not np.dot, whose rounding depends on the BLAS kernel
    sbb = float(np.sum(db * db))
    if not (math.isfinite(saa) and math.isfinite(sbb)):
        raise DegenerateInputError("plane holds a non-finite value")
    if saa == 0.0 or sbb == 0.0:
        raise DegenerateInputError("constant plane has no correlation")
    return float(np.sum(da * db) / (math.sqrt(saa) * math.sqrt(sbb)))


def _correlate(fa, fb, shape) -> np.ndarray:
    """Correlation surface of two ``shape`` planes from their ``np.fft.rfft(plane, axis=0)`` spectra.

    Zeroing ``fa``'s DC bin removes both planes' means from the product.
    """
    fa = np.fft.fft(fa, axis=1)
    fa[0, 0] = 0.0
    return np.fft.irfftn(np.conj(fa) * np.fft.fft(fb, axis=1), s=shape[::-1], axes=(1, 0))


def cross_correlate(a, b) -> np.ndarray:
    """Circular cross-correlation surface, computed in the frequency domain."""
    pa, pb = _pair(a, b)
    return _correlate(np.fft.rfft(pa, axis=0), np.fft.rfft(pb, axis=0), pa.shape)


def signed_shift(index: int, dim: int) -> int:
    """Map a circular index to its signed representative in [-dim/2, dim/2)."""
    return index - dim if index >= (dim + 1) // 2 else index


def p_value(pce_value: float) -> float:
    """One-sided tail probability of a PCE under the no-match null model.

    Under the null the off-peak-normalized peak behaves as a standard
    normal, so sqrt(PCE) ~ |N(0, 1)| and p = erfc(sqrt(max(pce, 0))/sqrt(2))/2.
    Monotone non-increasing in pce; p = 0.5 at pce = 0. It is the value of
    one shift: the search correction (ROADMAP item 4) adds the count of
    shifts searched, which is 1 for a pinned peak.
    """
    return 0.5 * math.erfc(math.sqrt(max(float(pce_value), 0.0)) / math.sqrt(2.0))


@lru_cache(maxsize=16)
def _circular_square_mask(shape: tuple, center: tuple, radius: int) -> np.ndarray:
    """Read-only mask of the (2r+1)^2 circular neighborhood of ``center``."""
    h, w = shape
    cy, cx = center
    ry = np.arange(h) - cy
    rx = np.arange(w) - cx
    dy = np.minimum(ry % h, (-ry) % h)
    dx = np.minimum(rx % w, (-rx) % w)
    mask = (dy[:, None] <= radius) & (dx[None, :] <= radius)
    mask.flags.writeable = False
    return mask


def pce(
    surface,
    exclusion_radius: int = DEFAULT_EXCLUSION_RADIUS,
    peak: tuple | None = None,
) -> PceScore:
    """Peak-to-correlation-energy of a correlation surface.

    The peak is the maximum-|value| entry (or the pinned ``peak`` shift,
    (dx, dy), for synchronized analysis). Its sign is carried into the PCE.
    The off-peak energy excludes the (2r+1)^2 circular neighborhood around
    the peak; a negative ``exclusion_radius`` raises ValueError.
    """
    if exclusion_radius < 0:
        raise ValueError(f"exclusion_radius must be >= 0, got {exclusion_radius}")
    s = as_plane(surface)
    h, w = s.shape
    side = 2 * exclusion_radius + 1
    if h * w <= side * side:
        raise ValueError(
            f"surface {w}x{h} not larger than the {side}x{side} exclusion zone"
        )
    if peak is None:
        py, px = (int(v) for v in np.unravel_index(int(np.argmax(np.abs(s))), s.shape))
    else:
        px, py = int(peak[0]) % w, int(peak[1]) % h
    peak_value = float(s[py, px])
    mask = _circular_square_mask(s.shape, (py, px), exclusion_radius)
    off = s[~mask]
    energy = float(np.mean(off * off))
    if energy == 0.0:
        raise DegenerateInputError("all off-peak correlation values are zero")
    value = math.copysign(peak_value * peak_value / energy, peak_value)
    if peak_value == 0.0:
        value = 0.0
    return PceScore(
        pce=value,
        peak_value=peak_value,
        peak=(signed_shift(px, w), signed_shift(py, h)),
        p_value=p_value(value),
    )


def align(fa, fb, max_shift: int = DEFAULT_MAX_SHIFT):
    """Find the shift of ``fb``'s content relative to ``fa``.

    Planes of different sizes, such as a cropped pipeline's fingerprint and
    an uncropped one, are compared over the top-left rectangle they share,
    and ``max_shift`` must be under half its smaller side. Searches the
    cross-correlation surface over signed shifts within +-max_shift and
    returns ``((dx, dy), correlation)`` where correlation is the NCC of the
    overlapping regions after undoing the shift. Ties are broken by smallest
    |dx| + |dy|, then row-major order.
    """
    pa, pb = common_crop_planes([as_plane(fa), as_plane(fb)])
    h, w = pa.shape
    if max_shift < 0 or max_shift >= min(h, w) / 2:
        raise ValueError(
            f"max_shift {max_shift} must be in [0, {min(h, w)}/2)"
        )
    surface = cross_correlate(pa, pb)
    offsets = np.arange(-max_shift, max_shift + 1)
    window = surface[np.ix_(offsets % h, offsets % w)]
    flat = window.ravel()
    best = flat.max()
    if not np.isfinite(best):
        raise DegenerateInputError("plane holds a non-finite value")
    candidates = np.flatnonzero(flat == best)
    dy = offsets[candidates // len(offsets)]
    dx = offsets[candidates % len(offsets)]
    taxicab = np.abs(dx) + np.abs(dy)
    pick = candidates[np.lexsort((candidates, taxicab))][0]
    sy = int(offsets[pick // len(offsets)])
    sx = int(offsets[pick % len(offsets)])

    a_rows = slice(max(0, -sy), h - max(0, sy))
    a_cols = slice(max(0, -sx), w - max(0, sx))
    b_rows = slice(max(0, sy), h - max(0, -sy))
    b_cols = slice(max(0, sx), w - max(0, -sx))
    corr = ncc(pa[a_rows, a_cols], pb[b_rows, b_cols])
    return (sx, sy), corr


def match_patch(
    test_image,
    test_residual,
    fingerprint,
    exclusion_radius: int = DEFAULT_EXCLUSION_RADIUS,
) -> PceScore:
    """PCE of a test patch against a fingerprint plane of its shape, or ShapeError.

    The residual is correlated against test_image * k (multiplicative
    model: a matching residual carries I * k plus noise).
    """
    img, res = _pair(test_image, test_residual)
    _, k = _pair(img, fingerprint)
    return pce(cross_correlate(res, img * k), exclusion_radius)


def match_windows(
    test_image,
    test_residual,
    fingerprint,
    size: int,
    origins,
    exclusion_radius: int = DEFAULT_EXCLUSION_RADIUS,
    peak: tuple | None = None,
) -> list:
    """``match_patch``'s score of the ``size``-square window at each of ``origins``, bit for bit;
    a given ``peak`` pins each window's score at that shift, as :func:`pce` does.

    The three planes share one shape (else ShapeError). An origin is a
    window's top-left (x, y) corner, as :func:`~prnukit.imaging.window_origins`
    lays them out; a window that leaves the planes raises ValueError before
    any is scored. The axis-0 spectra of the residual and of the template
    are taken once per band of rows; columns transform independently, so the
    columns a window slices out of them are the bits of its own spectra.
    """
    img, res = _pair(test_image, test_residual)
    _, k = _pair(img, fingerprint)
    h, w = img.shape
    for x, y in origins:
        if x < 0 or y < 0 or x + size > w or y + size > h:
            raise ValueError(f"patch {size}x{size} at ({x},{y}) outside {w}x{h} image")
    scores, band = [], None
    for x, y in origins:
        if band != y:
            band, rows = y, slice(y, y + size)
            fres = np.fft.rfft(res[rows], axis=0)
            ftpl = np.fft.rfft(img[rows] * k[rows], axis=0)
        cols = slice(x, x + size)
        scores.append(pce(_correlate(fres[:, cols], ftpl[:, cols], (size, size)), exclusion_radius, peak))
    return scores
