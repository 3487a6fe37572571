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

import numpy as np

from .errors import DegenerateInputError, ShapeError
from .fingerprint import Fingerprint
from .imaging import as_plane

DEFAULT_EXCLUSION_RADIUS = 5
DEFAULT_MAX_SHIFT = 16


@dataclass(frozen=True)
class PceScore:
    """One detection decision: signed PCE, its peak, and the tail probability."""

    pce: float
    peak_value: float
    peak_location: tuple  # (dx, dy), signed circular shift
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
    saa = float(np.dot(da.ravel(), da.ravel()))
    sbb = float(np.dot(db.ravel(), db.ravel()))
    if not (math.isfinite(saa) and math.isfinite(sbb)):
        raise DegenerateInputError("plane holds a non-finite value")
    if saa == 0.0 or sbb == 0.0:
        raise DegenerateInputError("constant plane has no correlation")
    return float(np.dot(da.ravel(), db.ravel()) / (math.sqrt(saa) * math.sqrt(sbb)))


def cross_correlate(a, b) -> np.ndarray:
    """Circular cross-correlation surface, computed in the frequency domain."""
    pa, pb = _pair(a, b)
    da = pa - pa.mean()
    db = pb - pb.mean()
    fa = np.fft.rfft2(da)
    fb = np.fft.rfft2(db)
    return np.fft.irfft2(np.conj(fa) * fb, s=da.shape)


def signed_shift(index: int, dim: int) -> int:
    """Map a circular index to its signed representative in [-dim/2, dim/2)."""
    return index - dim if index >= (dim + 1) // 2 else index


def p_value(pce_value: float, surface_area: int) -> float:
    """One-sided tail probability of a PCE under the no-match null model.

    Under the null the off-peak-normalized peak behaves as a standard
    normal, so sqrt(PCE) ~ |N(0, 1)| and p = erfc(sqrt(max(pce, 0))/sqrt(2))/2.
    Monotone non-increasing in pce; p = 0.5 at pce = 0.
    """
    if surface_area <= 1:
        raise ValueError(f"surface_area must be > 1, got {surface_area}")
    return 0.5 * math.erfc(math.sqrt(max(float(pce_value), 0.0)) / math.sqrt(2.0))


def _circular_square_mask(shape, center, radius):
    h, w = shape
    cy, cx = center
    ry = np.arange(h) - cy
    rx = np.arange(w) - cx
    dy = np.minimum(ry % h, (-ry) % h)
    dx = np.minimum(rx % w, (-rx) % w)
    return (dy[:, None] <= radius) & (dx[None, :] <= radius)


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
        peak_location=(signed_shift(px, w), signed_shift(py, h)),
        p_value=p_value(value, h * w),
    )


def _plane_of(obj) -> np.ndarray:
    return obj.plane if isinstance(obj, Fingerprint) else as_plane(obj)


def align(fa, fb, max_shift: int = DEFAULT_MAX_SHIFT):
    """Find the shift of ``fb``'s content relative to ``fa``.

    Searches the cross-correlation surface over signed shifts within
    +-max_shift and returns ``((dx, dy), correlation)`` where correlation is
    the NCC of the overlapping regions after undoing the shift. Ties are
    broken by smallest |dx| + |dy|, then row-major order.
    """
    pa, pb = _pair(_plane_of(fa), _plane_of(fb))
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
    fp: Fingerprint,
    origin: tuple = (0, 0),
    exclusion_radius: int = DEFAULT_EXCLUSION_RADIUS,
    peak: tuple | None = None,
) -> PceScore:
    """PCE of a test patch against the fingerprint region at ``origin``.

    The residual is correlated against test_image * k restricted to the
    patch location (multiplicative model: a matching residual carries
    I * k plus noise).
    """
    img, res = _pair(test_image, test_residual)
    kplane = fp.plane
    ph, pw = img.shape
    x0, y0 = int(origin[0]), int(origin[1])
    fh, fw = kplane.shape
    if x0 < 0 or y0 < 0 or x0 + pw > fw or y0 + ph > fh:
        raise ValueError(
            f"patch {pw}x{ph} at ({x0},{y0}) outside {fw}x{fh} fingerprint"
        )
    template = img * kplane[y0 : y0 + ph, x0 : x0 + pw]
    surface = cross_correlate(res, template)
    return pce(surface, exclusion_radius, peak=peak)
