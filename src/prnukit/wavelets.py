"""Separable orthogonal wavelet transform used by the residual extractor.

Daubechies 8-tap filters with symmetric boundary extension. Each level
extends its input by filter_length - 1 samples per side and keeps exactly
the n = (L - 9) // 2 + 1 downsampled coefficients of the L extended samples
whose filter support lies fully inside them. That set is a few coefficients
larger than the critically-sampled size, which makes the inverse exact on the
original samples: every basis function overlapping them is retained, and no
partially-supported (tapered) coefficient enters the reconstruction.

Both directions run as lifting steps (Daubechies & Sweldens, J. Fourier Anal.
Appl. 1998) on the phases x_o[m] = ext[2m + 1] and x_e[m] = ext[2m + 2] of a
line: x_e[m] += a x_o[m]; x_o[m] += b0 x_e[m] + b1 x_e[m + 1];
x_e[m] += c2 x_o[m - 2] + c1 x_o[m - 1]; x_o[m] += d2 x_e[m + 2] + d3 x_e[m + 3];
x_e[m] += e3 x_o[m - 3]. Then lo[j] = K x_o[j] and hi[j] = x_e[j + 3] / K are,
in exact arithmetic, the filter pair's sum_t f[t] ext[2j + 8 - t]: 8 products
and 2 scalings per pair where the filters take 16 products, and no BLAS.
Synthesis scales back, undoes the steps in reverse order and interleaves.

Each step runs in place over all lines of a plane as one flat line (one row
is the offset unit along columns), leaving out a term read past either end
as if zero-padded. Reads that leave a line reach only coefficients outside
the kept set, so each kept one equals the filter form up to rounding.

The constants are the Euclidean factorization of the polyphase matrix of the
exactly orthonormal taps (unit norm, three zero shifts and four vanishing
moments, solved by Newton's method at 50 digits from the float64 filter,
which is up to 9.6e-16 off them), rounded once to float64: they multiply out
to taps within 9.4e-16 of the float64 filter's, 1.9e-15 if factored from it.
"""

from __future__ import annotations

import numpy as np

# (updated phase: 0 is x_o, 1 is x_e; its (offset, constant) terms read from the other phase)
_STEPS = (
    (1, ((0, -3.102931485830326),)),
    (0, ((0, 0.29195312600347534), (1, -0.07630008657308227))),
    (1, ((-2, -1.662528352909184), (-1, 5.199491573072546))),
    (0, ((2, 0.03789274812795148), (3, -0.0067223726330793735))),
    (1, ((-3, 0.3141064933959557),)),
)
_K, _INV_K = 2.613118369777005, 0.38268453950110826
_PAD = 7  # filter length - 1
_REACH = 3  # hi[j] sits at x_e[j + 3]


def _lift(phases, sign: int) -> None:
    """Run the steps (sign 1) or undo them in reverse order (sign -1) in place
    on two phase buffers that are contiguous in memory, along their last axis."""
    unit = phases[0].strides[-1] // phases[0].itemsize
    lines = [p.ravel(order="K") for p in phases]
    scratch = np.empty(lines[0].size)
    for dst, terms in _STEPS[::sign]:
        for offset, c in terms:
            k = offset * unit
            lo, hi = max(0, -k), lines[0].size - max(0, k)
            term = np.multiply(lines[1 - dst][lo + k : hi + k], sign * c, out=scratch[: hi - lo])
            np.add(lines[dst][lo:hi], term, out=lines[dst][lo:hi])


def _analyze(planes: list, axis: int):
    """Lowpass and highpass coefficients along ``axis`` of the extended plane
    popped from ``planes``: views into the two phase buffers, which are the
    subbands once scaled in place. Taking the plane from a list, as
    :func:`_synthesize` does its inputs, lets a caller's temporary go before
    the steps run."""
    ext = np.swapaxes(planes.pop(), axis, -1)
    n = (ext.shape[-1] - 9) // 2 + 1
    phases = [ext[..., start : start + 2 * (n + _REACH) : 2].copy(order="K") for start in (1, 2)]
    del ext
    _lift(phases, 1)
    lo, hi = phases[0][..., :n], phases[1][..., _REACH:]
    lo *= _K
    hi *= _INV_K
    return np.swapaxes(lo, axis, -1), np.swapaxes(hi, axis, -1)


def _synthesize(bands: list, axis: int, n: int) -> np.ndarray:
    """Invert one analysis step along ``axis`` on the ``n`` original samples,
    which sit at x_o[3], x_e[3], x_o[4], ... of the recovered phases.

    Pops the lowpass and highpass planes from ``bands``: a caller that hands
    over its only references has them freed before the steps run, on every
    interpreter (before 3.11, a caller's stack keeps its own arguments alive).
    """
    hi = np.swapaxes(bands.pop(), axis, -1)
    lo = np.swapaxes(bands.pop(), axis, -1)
    phases = [np.zeros_like(lo, shape=lo.shape[:-1] + (lo.shape[-1] + _REACH,)) for _ in range(2)]
    np.multiply(lo, _INV_K, out=phases[0][..., : lo.shape[-1]])
    np.multiply(hi, _K, out=phases[1][..., _REACH:])
    del lo, hi
    _lift(phases, -1)
    out = np.empty_like(phases[0], shape=phases[0].shape[:-1] + (n,))
    out[..., 0::2] = phases[0][..., _REACH : _REACH + (n + 1) // 2]
    out[..., 1::2] = phases[1][..., _REACH : _REACH + n // 2]
    return np.swapaxes(out, axis, -1)


def decompose(plane: np.ndarray, levels: int):
    """Multi-level 2-D decomposition.

    Returns ``(approx, details, shapes)`` where ``details`` holds one
    ``(lh, hl, hh)`` tuple of subband planes per level (finest first) and
    ``shapes`` records each level's input shape for reconstruction.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    cur = np.asarray(plane, dtype=np.float64)
    details, shapes = [], []
    for _ in range(levels):
        shapes.append(cur.shape)
        rows = _analyze([np.pad(cur, _PAD, mode="symmetric")], -1)  # row lowpass, row highpass
        cur, hl = _analyze([rows[0]], -2)
        lh, hh = _analyze([rows[1]], -2)
        details.append((lh, hl, hh))
    return cur, details, shapes


def reconstruct(approx: np.ndarray, details, shapes) -> np.ndarray:
    """Invert :func:`decompose` exactly (up to float rounding).

    Consumes ``details``, which it leaves empty: each level is popped, coarsest
    first, and its planes are handed to :func:`_synthesize` as their only
    references, so each is freed before the steps that read it run.
    """
    cur = approx
    for h, w in reversed(shapes):
        lh, hl, hh = details.pop()
        low, high = [cur, hl], [lh, hh]
        del cur, lh, hl, hh
        cur = _synthesize([_synthesize(low, -2, h), _synthesize(high, -2, h)], -1, w)
    return cur
