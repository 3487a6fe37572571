"""Sliding-window PCE maps and tampering-probability maps.

Localization assumes the image is geometrically aligned with the
fingerprint, so each window's PCE is evaluated at zero shift rather than
via a peak search; a peak search would reward spurious matches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from scipy.ndimage import median_filter

from . import _pool
from .denoise import DenoiserSpec
from .errors import ShapeError
from .fingerprint import Fingerprint, residual
from .imaging import as_plane, save_image, window_origins
from .matching import DEFAULT_EXCLUSION_RADIUS, match_patch, p_value

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
    fp: Fingerprint,
    window: int = DEFAULT_WINDOW,
    stride: int = DEFAULT_STRIDE,
    denoiser: DenoiserSpec = DenoiserSpec(),
    exclusion_radius: int = DEFAULT_EXCLUSION_RADIUS,
) -> HeatMap:
    """Zero-shift ``match_patch`` PCE of every window against the co-located fingerprint region.

    The residual is computed once; the windows are split into one contiguous
    row-major chunk per usable core and scored in parallel.
    """
    img = as_plane(image)
    if img.shape != fp.plane.shape:
        raise ShapeError(
            f"image {img.shape} and fingerprint {fp.plane.shape} dimensions differ"
        )
    origins = window_origins(img.shape, window, stride)  # rejects a bad geometry before the residual
    res = residual(img, denoiser)
    score = partial(_window_pces, img, res, fp, window, exclusion_radius)
    pces = [v for chunk in _pool.ordered_map(score, _pool.split(origins)) for v in chunk]
    cols = sum(1 for x, y in origins if y == 0)  # windows in the first row
    return HeatMap(np.array(pces).reshape(-1, cols), window, stride)


def _window_pces(img, res, fp: Fingerprint, window: int, exclusion_radius: int, origins) -> list:
    """Zero-shift PCE of each ``window``-sized window at ``origins``."""
    pces = []
    for x, y in origins:
        win = (slice(y, y + window), slice(x, x + window))
        pces.append(match_patch(img[win], res[win], fp, (x, y), exclusion_radius, peak=(0, 0)).pce)
    return pces


def probability_map(pmap: HeatMap) -> HeatMap:
    """Per-window tampering probability: the :func:`~prnukit.matching.p_value` of each PCE.

    A pointwise monotone non-increasing transform of the PCE: zero PCE maps
    to 0.5, large PCE to ~0, so authentic regions go dark and mismatched
    regions stay bright.
    """
    probs = np.vectorize(p_value, otypes=[float])(pmap.grid, pmap.window**2)
    return HeatMap(probs, pmap.window, pmap.stride)


def render_map(hmap: HeatMap, path, postprocess: str = "none") -> None:
    """Write the map as an 8-bit grayscale image (PGM, or PNG by extension).

    Values are clipped to [0, 1] and scaled to [0, 255] with round-half-up;
    ``median3`` applies a 3x3 median filter first.
    """
    if postprocess not in ("none", "median3"):
        raise ValueError(f"unknown postprocess {postprocess!r}")
    g = hmap.grid
    if postprocess == "median3":
        g = median_filter(g, size=3, mode="nearest")
    q = np.floor(np.clip(g, 0.0, 1.0) * 255.0 + 0.5)
    save_image(q / 255.0, path, bit_depth=8)  # q / 255 * 255 rounds back to q


def save_map_json(hmap: HeatMap, path) -> None:
    rows, cols = hmap.grid.shape
    obj = {
        "rows": rows,
        "cols": cols,
        "window": hmap.window,
        "stride": hmap.stride,
        "values": [float(v) for v in hmap.grid.ravel()],
    }
    Path(path).write_text(json.dumps(obj) + "\n")


def load_map_json(path) -> HeatMap:
    obj = json.loads(Path(path).read_text())
    grid = np.array(obj["values"], dtype=np.float64).reshape(
        obj["rows"], obj["cols"]
    )
    return HeatMap(grid, int(obj["window"]), int(obj["stride"]))
