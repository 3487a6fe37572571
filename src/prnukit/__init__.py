"""Camera-fingerprint forensics toolkit with a synthetic sensor/ISP testbed."""

__version__ = "0.1.0"

from .denoise import DenoiserSpec, apply_denoiser, gaussian_denoise, wavelet_denoise
from .errors import DegenerateInputError, FormatError, ShapeError
from .fingerprint import (
    SATURATION_THRESHOLD,
    Fingerprint,
    FingerprintAccumulator,
    clean_fingerprint,
    estimate_fingerprint,
    load_fingerprint,
    residual,
    save_fingerprint,
    whiten_plane,
)
from .imaging import load_image, save_image, to_luminance
from .ispsim import (
    DEFAULT_PIPELINES,
    PipelineConfig,
    SensorProfile,
    SensorSpec,
    ToneCurve,
    capture,
    develop,
    synth_scene,
    synth_sensor,
)
from .localization import HeatMap, pce_map, probability_map, render_map
from .matching import (
    PceScore,
    align,
    cross_correlate,
    match_patch,
    match_windows,
    ncc,
    p_value,
    pce,
    window_origins,
)

__all__ = [
    "DEFAULT_PIPELINES",
    "DegenerateInputError",
    "DenoiserSpec",
    "Fingerprint",
    "FingerprintAccumulator",
    "FormatError",
    "HeatMap",
    "PceScore",
    "PipelineConfig",
    "SATURATION_THRESHOLD",
    "SensorProfile",
    "SensorSpec",
    "ShapeError",
    "ToneCurve",
    "align",
    "apply_denoiser",
    "capture",
    "clean_fingerprint",
    "cross_correlate",
    "develop",
    "estimate_fingerprint",
    "gaussian_denoise",
    "load_fingerprint",
    "load_image",
    "match_patch",
    "match_windows",
    "ncc",
    "p_value",
    "pce",
    "pce_map",
    "probability_map",
    "render_map",
    "residual",
    "save_fingerprint",
    "save_image",
    "synth_scene",
    "synth_sensor",
    "to_luminance",
    "wavelet_denoise",
    "whiten_plane",
    "window_origins",
]
