"""Synthetic sensor and configurable imaging pipelines.

A sensor carries a planted multiplicative per-pixel gain pattern (the
ground-truth fingerprint). Captures sample a scene through an RGGB Bayer
mosaic, apply the gain, add signal-proportional shot noise plus read noise,
and clip to [0, 1]. Development runs a declarative pipeline: demosaic,
white balance, tone curve, optional denoise, optional unsharp, and an
optional crop offset that de-synchronizes the output geometry.

Everything is deterministic given the seeds, so batch generation can be
parallelized with per-image seed streams without changing outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _config
from .denoise import DenoiserSpec, apply_denoiser, gaussian_denoise
from .errors import DegenerateInputError, ShapeError
from .imaging import as_plane


@dataclass(frozen=True)
class ToneCurve:
    """Pointwise tone mapping: gamma(g) is v ** (1/g); scurve(s) blends v
    toward the smoothstep 3v^2 - 2v^3 with weight s."""

    KIND_PARAM = {"gamma": "gamma", "scurve": "strength"}

    kind: str = "gamma"
    gamma: float = 2.2
    strength: float = 1.0

    def __post_init__(self):
        if self.kind not in self.KIND_PARAM:
            raise ValueError(f"unknown tone curve {self.kind!r}")
        if not 0.0 < self.gamma < np.inf:  # NaN fails too
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError("scurve strength must be in [0, 1]")

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "gamma":
            return np.power(x, 1.0 / self.gamma)
        return x + self.strength * (x * x * (3.0 - 2.0 * x) - x)

    to_json = _config.to_json
    from_json = classmethod(_config.from_json)


@dataclass(frozen=True)
class PipelineConfig:
    """Declarative description of one simulated imaging pipeline."""

    id: str
    demosaic: str = "bilinear"
    white_balance: tuple[float, float] = (1.0, 1.0)  # (r_gain, b_gain); green is unity
    tone: ToneCurve = field(default_factory=ToneCurve)
    denoise: Optional[DenoiserSpec] = None
    sharpen: Optional[float] = None  # unsharp amount, sigma fixed at 1.0
    crop_offset: tuple[int, int] = (0, 0)

    def __post_init__(self):
        _config.check_id("pipeline", self.id)
        if self.demosaic not in DEMOSAIC_KINDS:
            raise ValueError(f"unknown demosaic {self.demosaic!r}")
        for name in ("white_balance", "crop_offset"):
            if np.shape(getattr(self, name)) != (2,):  # the JSON codec checks lengths; Python callers skip it
                raise ValueError(f"{name} must be a pair, got {getattr(self, name)!r}")
        for value in self.crop_offset:
            _config.check_int("crop_offset", value)
        if not all(0.0 < gain < np.inf for gain in self.white_balance):
            raise ValueError(f"white_balance gains must be finite and > 0, got {self.white_balance}")
        if self.sharpen is not None and not np.isfinite(self.sharpen):
            raise ValueError(f"sharpen must be finite, got {self.sharpen}")
        if min(self.crop_offset) < 0:
            raise ValueError("crop_offset must be >= (0, 0)")

    to_json = _config.to_json
    from_json = classmethod(_config.from_json)


@dataclass(frozen=True)
class SensorSpec:
    """Sensor geometry, gain-pattern strength (std of K) and noise parameters."""

    width: int = 256
    height: int = 256
    strength: float = 0.02
    read_noise_std: float = 0.002
    shot_noise_scale: float = 1.0e-4

    def __post_init__(self):
        for name in ("width", "height"):
            value = getattr(self, name)
            _config.check_int(name, value)
            if value < 64 or value % 2:
                raise ValueError(f"{name} must be even (full Bayer quads) and >= 64, got {value}")
        if not 0.0 < self.strength <= 0.1:
            raise ValueError(f"strength must be in (0, 0.1], got {self.strength}")
        for name in ("read_noise_std", "shot_noise_scale"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(eq=False)
class SensorProfile:
    """A sensor description and its planted gain pattern K."""

    spec: SensorSpec
    prnu: np.ndarray


def synth_sensor(
    width: int,
    height: int,
    strength: float = SensorSpec.strength,
    read_noise_std: float = SensorSpec.read_noise_std,
    shot_noise_scale: float = SensorSpec.shot_noise_scale,
    seed: int = 0,
) -> SensorProfile:
    """Draw a zero-mean Gaussian gain pattern with std = strength."""
    spec = SensorSpec(width, height, strength, read_noise_std, shot_noise_scale)
    rng = np.random.default_rng(seed)
    prnu = rng.normal(0.0, strength, size=(height, width))
    prnu -= prnu.mean()
    return SensorProfile(spec, prnu)


def synth_scene(
    width: int, height: int, kind: str = "flat", seed: int = 0, level: float = 0.5
) -> np.ndarray:
    """Generate an (H, W, 3) test scene: flat(level), gradient, or texture(seed)."""
    if width < 64 or height < 64:
        raise ValueError(f"scene dimensions must be >= 64, got {width}x{height}")
    level = float(level)
    if not np.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    if kind == "flat":
        return np.full((height, width, 3), level)
    if kind == "gradient":
        xx = np.arange(width)[None, :]
        yy = np.arange(height)[:, None]
        ramp = (xx + yy) / float((width - 1) + (height - 1))
        plane = 0.1 + 0.8 * ramp
        return np.repeat(plane[:, :, None], 3, axis=2)
    if kind == "texture":
        rng = np.random.default_rng(seed)
        base = gaussian_denoise(rng.standard_normal((height, width)), 4.0)
        out = np.empty((height, width, 3))
        for c in range(3):
            detail = gaussian_denoise(rng.standard_normal((height, width)), 4.0)
            ch = 0.75 * base + 0.35 * detail
            lo, hi = ch.min(), ch.max()
            out[:, :, c] = 0.1 + 0.8 * (ch - lo) / (hi - lo)
        return out
    raise ValueError(f"unknown scene kind {kind!r}")


def capture(scene, sensor: SensorProfile, seed: int = 0) -> np.ndarray:
    """Expose a scene through the RGGB mosaic of ``sensor``.

    raw = bayer * (1 + k) + shot + read, clipped to [0, 1]; shot noise
    variance is bayer * shot_noise_scale. Non-finite scene samples raise
    :class:`DegenerateInputError`.
    """
    sc = np.asarray(scene, dtype=np.float64)
    if sc.ndim != 3 or sc.shape[2] != 3:
        raise ShapeError(f"scene must be (H, W, 3), got {sc.shape}")
    h, w = sc.shape[:2]
    spec = sensor.spec
    if (w, h) != (spec.width, spec.height):
        raise ShapeError(f"scene {w}x{h} does not match sensor {spec.width}x{spec.height}")
    if not np.isfinite(sc).all():
        raise DegenerateInputError("scene has non-finite samples")
    # RGGB: green everywhere, then red and blue over their sites.
    bayer = sc[:, :, 1].copy()
    bayer[0::2, 0::2] = sc[0::2, 0::2, 0]
    bayer[1::2, 1::2] = sc[1::2, 1::2, 2]
    signal = np.add(sensor.prnu, 1.0)
    signal *= bayer
    # In place, in the order of bayer * (1 + k) + (normal * shot_sd + normal * read_noise_std);
    # the second normal is drawn into shot_sd's buffer once shot_sd is spent.
    rng = np.random.default_rng(seed)
    shot_sd = np.clip(bayer, 0.0, None, out=bayer)
    shot_sd *= spec.shot_noise_scale
    np.sqrt(shot_sd, out=shot_sd)
    noise = rng.standard_normal((h, w))
    noise *= shot_sd
    read = rng.standard_normal(out=shot_sd)
    read *= spec.read_noise_std
    noise += read
    signal += noise
    return np.clip(signal, 0.0, 1.0, out=signal)


def _average(out: np.ndarray, *terms) -> None:
    """Write the mean of one, two or four ``terms`` into ``out``: summed in order onto +0.0 in a
    contiguous buffer, then scaled. The 3x3 correlation of a masked plane sums the same samples
    in the same order onto zeros, and its taps and its /4 are powers of two, so the two agree
    bit for bit."""
    acc = np.add(terms[0], 0.0)
    for term in terms[1:]:
        acc += term
    np.multiply(acc, 1.0 / len(terms), out=out)


def _spread(out: np.ndarray, q: np.ndarray, own: int) -> None:
    """Fill ``out`` with red (``own`` 0) or blue (``own`` 1) from ``q``, that colour's (h/2 + 1,
    w/2 + 1) samples: one more row and column below and right of red's, above and left of blue's.
    A site reads, on each axis, its own line of ``q`` if it has the colour's parity and the two
    either side if not, averaged in the [1 2 1] kernel's row-major tap order."""
    h, w = out.shape
    rows = (slice(0, h // 2), slice(1, h // 2 + 1))
    cols = (slice(0, w // 2), slice(1, w // 2 + 1))
    for i in (0, 1):
        for j in (0, 1):
            near_rows = rows[own : own + 1] if i == own else rows
            near_cols = cols[own : own + 1] if j == own else cols
            _average(out[i::2, j::2], *(q[r, c] for r in near_rows for c in near_cols))


def _demosaic_bilinear(raw: np.ndarray) -> tuple:
    """Bilinear demosaic from the four Bayer quarter planes, equal bit for bit to correlating
    each masked colour plane of the "reflect"-padded raw with the [1 2 1] (red, blue) or cross
    (green) kernel, over 4. The reflect pad makes a missing neighbour the same-colour sample one
    Bayer step inward, the quarter plane's own edge, so each quarter plane gets one
    edge-replicated row and column where its neighbours run off the sensor. Its ``top``/``bot``
    rows and ``lft``/``rgt`` columns then give each site's same-colour neighbours on either side.
    """
    h, w = raw.shape
    top, bot = slice(0, h // 2), slice(1, h // 2 + 1)
    lft, rgt = slice(0, w // 2), slice(1, w // 2 + 1)
    g1 = np.pad(raw[0::2, 1::2], ((0, 1), (1, 0)), mode="edge")
    g2 = np.pad(raw[1::2, 0::2], ((1, 0), (0, 1)), mode="edge")
    red, green, blue = np.empty((3, h, w))
    _spread(red, np.pad(raw[0::2, 0::2], ((0, 1), (0, 1)), mode="edge"), 0)
    _spread(blue, np.pad(raw[1::2, 1::2], ((1, 0), (1, 0)), mode="edge"), 1)
    # Site classes: R at (even, even), G1 at (even, odd), G2 at (odd, even), B at (odd, odd).
    # The cross kernel's row-major tap order: up, left, right, down.
    _average(green[0::2, 0::2], g2[top, lft], g1[top, lft], g1[top, rgt], g2[bot, lft])
    _average(green[0::2, 1::2], g1[top, rgt])
    _average(green[1::2, 0::2], g2[bot, lft])
    _average(green[1::2, 1::2], g1[top, rgt], g2[bot, lft], g2[bot, rgt], g1[bot, rgt])
    return red, green, blue


def _demosaic_nearest(raw: np.ndarray) -> tuple:
    r = np.repeat(np.repeat(raw[0::2, 0::2], 2, axis=0), 2, axis=1)
    b = np.repeat(np.repeat(raw[1::2, 1::2], 2, axis=0), 2, axis=1)
    g = raw.copy()
    g[0::2, 0::2] = raw[0::2, 1::2]  # R sites take the G to their right
    g[1::2, 1::2] = raw[1::2, 0::2]  # B sites take the G to their left
    return r, g, b


def _demosaic_edge(raw: np.ndarray) -> tuple:
    """Gradient-corrected edge-directed interpolation.

    Green at R/B sites picks the horizontal or vertical neighbor average by
    the smaller gradient and adds a same-color second-difference correction,
    so the green plane carries genuine cross-channel terms. Chroma is
    reconstructed by difference interpolation: the bilinear red/blue fill of
    colour minus green, plus green.
    """
    h, w = raw.shape
    # Green is estimated on the raw and the 1-px ring that chroma reads. The ring's two-away taps
    # wrap round the 2-px reflect pad to its far side: the recorded ed_* outputs pin those ring
    # pixels, and ROADMAP item 6 has the reflect-only fix.
    pad = np.pad(np.pad(raw, 2, mode="reflect"), 1, mode="wrap")

    def at(dy, dx):
        return pad[2 + dy : h + 4 + dy, 2 + dx : w + 4 + dx]

    mid, left, right, up, down = at(0, 0), at(0, -1), at(0, 1), at(-1, 0), at(1, 0)
    dh = np.abs(left - right)
    dv = np.abs(up - down)
    est_h = 0.5 * (left + right) + 0.25 * (2.0 * mid - at(0, -2) - at(0, 2))
    est_v = 0.5 * (up + down) + 0.25 * (2.0 * mid - at(-2, 0) - at(2, 0))
    green = np.where(dh < dv, est_h, np.where(dv < dh, est_v, 0.5 * (est_h + est_v)))
    # The ring puts the raw's G sites at green's (even, odd) and (odd, even), and lays out red's and
    # blue's quarters as _spread reads them.
    green[0::2, 1::2] = mid[0::2, 1::2]
    green[1::2, 0::2] = mid[1::2, 0::2]
    red, blue = np.empty((2, h, w))
    _spread(red, mid[1::2, 1::2] - green[1::2, 1::2], 0)
    _spread(blue, mid[0::2, 0::2] - green[0::2, 0::2], 1)
    green = green[1:-1, 1:-1]
    red += green
    blue += green
    return red, green, blue


_DEMOSAICERS = {
    "bilinear": _demosaic_bilinear,
    "edge_directed": _demosaic_edge,
    "nearest": _demosaic_nearest,
}
DEMOSAIC_KINDS = tuple(_DEMOSAICERS)


def develop(raw, config: PipelineConfig) -> np.ndarray:
    """Run one pipeline over a mosaiced plane; returns an (H', W', 3) image.

    A nonzero crop offset shrinks the output (even dimensions maintained).
    Non-finite samples raise :class:`DegenerateInputError`.
    """
    return next(develop_each(raw, (config,)))


def develop_each(raw, configs):
    """Yield ``develop(raw, config)`` for each of ``configs`` in order,
    demosaicing ``raw`` once per demosaic kind."""
    p = as_plane(raw)
    h, w = p.shape
    if h % 2 or w % 2:
        raise ShapeError("mosaiced plane must have even dimensions")
    if not np.isfinite(p).all():
        raise DegenerateInputError("mosaiced plane has non-finite samples")
    demosaiced = {}
    for config in configs:
        if config.demosaic not in demosaiced:
            demosaiced[config.demosaic] = _DEMOSAICERS[config.demosaic](p)
        yield _render(demosaiced[config.demosaic], config)


def output_shape(config: PipelineConfig, shape) -> tuple:
    """The (h, w) of ``config``'s output from an (h, w) ``shape`` sensor: the plane from
    ``crop_offset`` on, trimmed to even sides. ValueError when that leaves no pixel."""
    h, w = shape
    dx, dy = config.crop_offset
    out_h, out_w = (h - dy) - (h - dy) % 2, (w - dx) - (w - dx) % 2
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"crop_offset must be at most [{w - 2}, {h - 2}] on the {w}x{h} sensor, got {list(config.crop_offset)}"
            f" in {config.id!r}"
        )
    return out_h, out_w


def _render(planes, config: PipelineConfig) -> np.ndarray:
    """Every step of ``config`` after the demosaic on each (r, g, b) plane, left unchanged; one (H', W', 3) stack."""
    out_h, out_w = output_shape(config, planes[0].shape)
    dx, dy = config.crop_offset
    out = []
    for plane, gain in zip(planes, (config.white_balance[0], 1.0, config.white_balance[1])):
        plane = config.tone.apply(np.clip(plane * gain, 0.0, 1.0))
        if config.denoise is not None:
            plane = apply_denoiser(plane, config.denoise)
        if config.sharpen is not None:
            plane = plane + config.sharpen * (plane - gaussian_denoise(plane, 1.0))
        out.append(plane[dy : dy + out_h, dx : dx + out_w])
    rgb = np.stack(out, axis=2)
    return np.clip(rgb, 0.0, 1.0, out=rgb)


DEFAULT_PIPELINES = (
    PipelineConfig("bl_gamma", demosaic="bilinear"),
    PipelineConfig(
        "bl_scurve_dn",
        demosaic="bilinear",
        white_balance=(1.25, 0.8),
        tone=ToneCurve("scurve", strength=1.0),
        denoise=DenoiserSpec("gaussian", sigma=1.1),
    ),
    PipelineConfig("ed_gamma_sharp", demosaic="edge_directed", sharpen=1.2),
    PipelineConfig(
        "ed_scurve_dn",
        demosaic="edge_directed",
        white_balance=(1.25, 0.8),
        tone=ToneCurve("scurve", strength=1.0),
        denoise=DenoiserSpec("wavelet", noise_variance=(5.0 / 255.0) ** 2),
    ),
    PipelineConfig("nn_gamma", demosaic="nearest"),
    PipelineConfig(
        "nn_scurve_crop",
        demosaic="nearest",
        white_balance=(1.25, 0.8),
        tone=ToneCurve("scurve", strength=1.0),
        denoise=DenoiserSpec("gaussian", sigma=1.1),
        crop_offset=(4, 4),
    ),
)
