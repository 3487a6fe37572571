"""Fingerprint similarity, circular cross-correlation, PCE, alignment and window tiling.

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

from . import _config
from .errors import DegenerateInputError, ShapeError
from .imaging import as_plane, common_crop_planes

EXCLUSION_RADIUS = 5  # every PCE leaves out the standard 11x11 block around its peak
_SIDE = 2 * EXCLUSION_RADIUS + 1
DEFAULT_MAX_SHIFT = 16


@dataclass(frozen=True)
class PceScore:
    """One detection decision: signed PCE and its peak; :func:`p_value` gives its tail probability."""

    pce: float
    peak_value: float
    peak: tuple  # (dx, dy), signed circular shift


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


def _cross_power(fa, fb) -> np.ndarray:
    """Cross-power spectrum of two planes from their ``np.fft.rfft(plane, axis=0)`` spectra.

    Zeroing ``fa``'s DC bin removes both planes' means from the product.
    """
    p = np.fft.fft(fa, axis=1)
    p[0, 0] = 0.0
    np.conjugate(p, out=p)
    p *= np.fft.fft(fb, axis=1)
    return p


def _surface(p, h, cols=slice(None)) -> np.ndarray:
    """Columns ``cols`` of the ``h``-row correlation surface whose :func:`_cross_power` spectrum is ``p``.

    The axis-0 inverse takes each column on its own, so selected columns hold the whole surface's bits.
    """
    return np.fft.irfft(np.fft.ifft(p, axis=1)[:, cols], n=h, axis=0)


def cross_correlate(a, b) -> np.ndarray:
    """Circular cross-correlation surface, computed in the frequency domain."""
    pa, pb = _pair(a, b)
    return _surface(_cross_power(np.fft.rfft(pa, axis=0), np.fft.rfft(pb, axis=0)), pa.shape[0])


def signed_shift(index, dim: int):
    """Map a circular index, or an array of them, to its signed representative in [-dim/2, dim/2)."""
    return index - dim * (index >= (dim + 1) // 2)


def p_value(pce_value: float) -> float:
    """One-sided tail probability of a PCE under the no-match null model.

    Under the null the off-peak-normalized peak behaves as a standard
    normal, so sqrt(PCE) ~ |N(0, 1)| and p = erfc(sqrt(max(pce, 0))/sqrt(2))/2.
    Monotone non-increasing in pce; p = 0.5 at pce = 0. It is the value of
    one shift: the search correction (ROADMAP item 4) adds the count of
    shifts searched, which is 1 for a pinned peak. A NaN PCE raises ValueError.
    """
    value = float(pce_value)
    if math.isnan(value):
        raise ValueError(f"pce must be a number, got {pce_value!r}")
    return 0.5 * math.erfc(math.sqrt(max(value, 0.0)) / math.sqrt(2.0))


def _around(center: int, n: int, radius: int) -> np.ndarray:
    """Indices within ``radius`` of ``center`` on a circular axis of ``n``: all of a short axis, each once."""
    if 2 * radius + 1 >= n:
        return np.arange(n)
    return (center + np.arange(-radius, radius + 1)) % n


def _check_exclusion(shape) -> None:
    """ValueError unless the exclusion block fits in a ``shape`` surface with room to spare."""
    h, w = shape
    if h * w <= _SIDE * _SIDE:
        raise ValueError(f"surface {w}x{h} not larger than the {_SIDE}x{_SIDE} exclusion zone")


def _score(peak_value: float, block: np.ndarray, total: float, px: int, py: int, shape) -> PceScore:
    """The signed PCE of ``peak_value`` at index (py, px) of a ``shape`` surface whose squares
    sum to ``total``; the off-peak energy is the total less the exclusion ``block``'s, per value."""
    if not math.isfinite(total):
        raise DegenerateInputError("non-finite correlation energy: a plane holds a non-finite value")
    h, w = shape
    energy = (total - float(np.sum(block * block))) / (h * w - block.size)
    if energy <= 0.0:  # zero off-peak values, or a total that rounding left no larger than its block
        raise DegenerateInputError("off-peak correlation energy is not positive")
    value = math.copysign(peak_value * peak_value / energy, peak_value)
    if peak_value == 0.0:
        value = 0.0
    return PceScore(pce=value, peak_value=peak_value, peak=(signed_shift(px, w), signed_shift(py, h)))


def pce(surface) -> PceScore:
    """Peak-to-correlation-energy of a correlation surface.

    The peak is the maximum-|value| entry; its sign is carried into the
    PCE. The off-peak energy excludes the 11x11 circular neighborhood
    around the peak, or the whole of an axis no longer than 11.
    """
    s = as_plane(surface)
    _check_exclusion(s.shape)
    h, w = s.shape
    py, px = (int(v) for v in np.unravel_index(int(np.argmax(np.abs(s))), s.shape))
    block = s[np.ix_(_around(py, h, EXCLUSION_RADIUS), _around(px, w, EXCLUSION_RADIUS))]
    return _score(float(s[py, px]), block, float(np.sum(s * s)), px, py, s.shape)


def _pinned_pce(p: np.ndarray, shape, peak: tuple) -> PceScore:
    """:func:`pce`'s score, pinned at ``peak`` (dx, dy), of the ``shape`` (h, w) surface whose
    :func:`_cross_power` spectrum is ``p``, computed without forming the surface.

    Parseval gives the total energy from the spectrum, and only the block's
    columns of the surface are formed, by :func:`_surface`; an axis no longer
    than the block is taken whole. It overwrites ``p``.
    """
    r, (h, w) = EXCLUSION_RADIUS, shape
    px, py = int(peak[0]) % w, int(peak[1]) % h
    block = _surface(p, h, _around(px, w, r))[_around(py, h, r)]
    # |p|^2 in place; the rows between DC and Nyquist stand for their mirror rows too.
    sq = p.view(np.float64)
    np.multiply(sq, sq, out=sq)
    rows = sq.sum(axis=1)
    rows[1 : (h + 1) // 2] *= 2.0
    total = float(rows.sum()) / (h * w)
    peak_value = float(block[r if _SIDE < h else py, r if _SIDE < w else px])
    return _score(peak_value, block, total, px, py, shape)


def align(fa, fb, max_shift: int = DEFAULT_MAX_SHIFT):
    """Find the shift of ``fb``'s content relative to ``fa``.

    Planes of different sizes, such as a cropped pipeline's fingerprint and
    an uncropped one, are compared over the top-left rectangle they share,
    and ``max_shift`` must be under half its smaller side. Searches the
    cross-correlation surface over signed shifts within +-max_shift, inverting
    only that box of it, and returns ``((dx, dy), correlation)`` where
    correlation is the NCC of the overlapping regions after undoing the
    shift. Ties are broken by smallest |dx| + |dy|, then smallest signed dy,
    then smallest signed dx.
    """
    pa, pb = common_crop_planes([as_plane(fa), as_plane(fb)])
    h, w = pa.shape
    _config.check_int("max_shift", max_shift)
    if not 0 <= max_shift < min(h, w) / 2:
        raise ValueError(f"max_shift {max_shift} must be in [0, {min(h, w)}/2)")
    rows, cols = _around(0, h, max_shift), _around(0, w, max_shift)
    box = _surface(_cross_power(np.fft.rfft(pa, axis=0), np.fft.rfft(pb, axis=0)), h, cols)[rows]
    best = box.max()
    if not np.isfinite(best):
        raise DegenerateInputError("plane holds a non-finite value")
    iy, ix = np.nonzero(box == best)
    dy, dx = signed_shift(rows[iy], h), signed_shift(cols[ix], w)
    pick = np.lexsort((dx, dy, np.abs(dx) + np.abs(dy)))[0]
    sx, sy = int(dx[pick]), int(dy[pick])

    a_rows = slice(max(0, -sy), h - max(0, sy))
    a_cols = slice(max(0, -sx), w - max(0, sx))
    b_rows = slice(max(0, sy), h - max(0, -sy))
    b_cols = slice(max(0, sx), w - max(0, -sx))
    corr = ncc(pa[a_rows, a_cols], pb[b_rows, b_cols])
    return (sx, sy), corr


def match_patch(test_image, test_residual, fingerprint) -> PceScore:
    """:func:`match_windows`' score of the one window that covers the planes."""
    img = as_plane(test_image)
    return match_windows(img, test_residual, fingerprint, img.shape, [(0, 0)])[0]


def window_origins(shape, size: int, stride: int | None = None) -> list:
    """Row-major (x, y) corners of every size x size window at multiples of ``stride``.

    ``stride=None`` means ``size``: non-overlapping tiles anchored at (0, 0).
    Windows that would cross the bottom or right edge are left out. A size
    whose window is no larger than the 11x11 exclusion block raises
    ValueError, as :func:`match_windows` could not score it.
    """
    h, w = shape
    stride = size if stride is None else stride
    _config.check_int("window size", size)
    _config.check_int("stride", stride)
    if size < 1:
        raise ValueError(f"window size must be >= 1, got {size}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if size > min(h, w):
        raise ValueError(f"window size {size} larger than image {w}x{h}")
    _check_exclusion((size, size))
    return [(x, y) for y in range(0, h - size + 1, stride) for x in range(0, w - size + 1, stride)]


def match_windows(
    test_image,
    test_residual,
    fingerprint,
    size,
    origins,
    peak: tuple | None = None,
) -> list:
    """The PCE of the ``size`` window at each of ``origins``: searched, or pinned at a given ``peak`` (dx, dy).

    ``size`` is the windows' (h, w), or an int for a square, as in numpy's
    ``sliding_window_view``. The three planes share one shape (else
    ShapeError); a window's residual is correlated against test_image * k,
    as a matching residual carries I * k plus noise. An origin is a window's
    top-left (x, y) corner, as :func:`window_origins` lays
    them out; a window that leaves the planes, or one no larger than the
    11x11 exclusion block, raises ValueError before any is scored. The axis-0
    spectra of the residual and of the template are taken once per band of
    rows; columns transform independently, so the columns a window slices out
    of them are the bits of its own spectra. A pinned score is taken from the
    window's spectrum (:func:`_pinned_pce`); its peak and peak value are the
    surface's bits, and its PCE may differ from :func:`pce`'s by rounding.
    """
    img, res = _pair(test_image, test_residual)
    _, k = _pair(img, fingerprint)
    shape = tuple(size) if isinstance(size, (tuple, list)) else (size, size)
    for n in shape:
        _config.check_int("size", n)
    if len(shape) != 2 or min(shape) < 1:
        raise ValueError(f"size must be an int or an (h, w) pair of ints >= 1, got {size!r}")
    (sh, sw), (h, w) = shape, img.shape
    for x, y in origins:
        if x < 0 or y < 0 or x + sw > w or y + sh > h:
            raise ValueError(f"patch {sw}x{sh} at ({x},{y}) outside {w}x{h} image")
    _check_exclusion(shape)
    scores, band = [], None
    for x, y in origins:
        if band != y:
            band, rows = y, slice(y, y + sh)
            fres = np.fft.rfft(res[rows], axis=0)
            ftpl = np.fft.rfft(img[rows] * k[rows], axis=0)
        cols = slice(x, x + sw)
        if peak is None:
            scores.append(pce(_surface(_cross_power(fres[:, cols], ftpl[:, cols]), sh)))
        else:
            scores.append(_pinned_pce(_cross_power(fres[:, cols], ftpl[:, cols]), shape, peak))
    return scores
