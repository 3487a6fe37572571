"""Sliding-window PCE maps and their no-match tail-probability maps.

Localization assumes the image is geometrically aligned with the
fingerprint, so ``pce_map`` scores each window with ``match_windows`` at
zero shift rather than via a peak search; a peak search would reward
spurious matches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import _pool
from .denoise import DenoiserSpec
from .errors import FormatError, ShapeError
from .fingerprint import residual
from .imaging import as_plane, save_image
from .matching import match_windows, p_value, window_origins

DEFAULT_WINDOW = 128
DEFAULT_STRIDE = 64


@dataclass(frozen=True)
class HeatMap:
    """Grid of per-window statistics over an image.

    Entry (i, j) describes the window whose top-left corner sits at image
    coordinates (j * stride, i * stride).
    """

    grid: np.ndarray
    window: int
    stride: int

    def origin(self, i: int, j: int):
        return (j * self.stride, i * self.stride)

    @property
    def shape(self):
        return self.grid.shape


def pce_map(
    image,
    fingerprint,
    window: int = DEFAULT_WINDOW,
    stride: int = DEFAULT_STRIDE,
    denoiser: DenoiserSpec = DenoiserSpec(),
) -> HeatMap:
    """PCE at zero shift of every window against the co-located fingerprint region.

    The residual is computed once, after :func:`~prnukit.matching.window_origins`
    has accepted the geometry; ``match_windows`` scores one contiguous
    row-major chunk of those origins per usable core, in parallel.
    """
    img, k = as_plane(image), as_plane(fingerprint)
    if img.shape != k.shape:
        raise ShapeError(f"image {img.shape} and fingerprint {k.shape} dimensions differ")
    origins = window_origins(img.shape, window, stride)  # rejects a bad or unscorable window before the residual
    res = residual(img, denoiser)
    score = partial(match_windows, img, res, k, window, peak=(0, 0))
    pces = [s.pce for chunk in _pool.ordered_map(score, _pool.split(origins)) for s in chunk]
    cols = sum(1 for x, y in origins if y == 0)  # windows in the first row
    return HeatMap(np.array(pces).reshape(-1, cols), window, stride)


def probability_map(pmap: HeatMap) -> HeatMap:
    """Per-window no-match tail probability: the :func:`~prnukit.matching.p_value` of each pinned PCE.

    A pointwise monotone non-increasing transform of the PCE: zero or
    negative PCE maps to 0.5, large PCE to ~0, so matching regions go dark.
    It is not a probability of tampering: a window the fingerprint does not
    match gets a value spread over (0, 0.5], not one near 1.
    """
    probs = np.vectorize(p_value, otypes=[float])(pmap.grid)
    return HeatMap(probs, pmap.window, pmap.stride)


def render_map(hmap: HeatMap, path, postprocess: str = "none") -> None:
    """Write the map as an 8-bit grayscale image (PGM, or PNG by extension).

    Values are clipped to [0, 1] and scaled to [0, 255] with round-half-up;
    ``median3`` applies a 3x3 median filter first.
    """
    if postprocess not in ("none", "median3"):
        raise ValueError(f"unknown postprocess {postprocess!r}")
    g = hmap.grid
    if postprocess == "median3":  # edges repeat the nearest cell
        windows = np.lib.stride_tricks.sliding_window_view(np.pad(g, 1, mode="edge"), (3, 3))
        g = np.median(windows, axis=(2, 3))
    q = np.floor(np.clip(g, 0.0, 1.0) * 255.0 + 0.5)
    save_image(q / 255.0, path, bit_depth=8)  # q / 255 * 255 rounds back to q


def save_map_json(hmap: HeatMap, path) -> None:
    """Write the map as JSON, making ``path``'s parent directory if need be."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows, cols = hmap.grid.shape
    obj = {
        "rows": rows,
        "cols": cols,
        "window": hmap.window,
        "stride": hmap.stride,
        "values": [float(v) for v in hmap.grid.ravel()],
    }
    path.write_text(json.dumps(obj) + "\n")


def load_map_json(path) -> HeatMap:
    """The map ``save_map_json`` wrote; a malformed file raises FormatError naming ``path``."""
    try:
        obj = json.loads(Path(path).read_text())
        for key in ("rows", "cols", "window", "stride"):
            if type(obj[key]) is not int or obj[key] < 1:  # bool is not int here
                raise ValueError(f"{key} must be an integer >= 1, got {obj[key]!r}")
        values = obj["values"]
        if type(values) is not list or not all(type(v) in (int, float) for v in values):  # nor bool, nor nested
            raise ValueError("values must be a flat list of numbers")
        grid = np.array(values, dtype=np.float64).reshape(obj["rows"], obj["cols"])
        hmap = HeatMap(grid, obj["window"], obj["stride"])
    except (KeyError, TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise FormatError(f"{path}: {type(exc).__name__}: {exc}") from None
    if not np.isfinite(grid).all():
        raise FormatError(f"{path}: non-finite map value")
    return hmap
