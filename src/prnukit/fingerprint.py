"""Noise-residual extraction and maximum-likelihood fingerprint estimation.

The residual of an image is R = I - D(I) for a denoising filter D. A camera
fingerprint is the per-pixel weighted aggregate

    k = sum_i(R_i * I_i) / sum_i(I_i^2)

over the input images, with pixels whose denominator is zero set to 0.
Cleanup subtracts row means then column means, removing linear gradients
the imaging pipeline tends to share across cameras.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import _pool
from .denoise import DenoiserSpec, apply_denoiser, local_signal_variance
from .errors import DegenerateInputError, FormatError, ShapeError
from .imaging import as_plane, load_image, to_luminance

# Normalized-intensity level at and above which a sample is treated as
# saturated (254 on the 8-bit scale). Saturated pixels carry no usable
# multiplicative signal.
SATURATION_THRESHOLD = 254.0 / 255.0

_MAGIC = b"PRNU1\n"
_HEADER_KEYS = ("width", "height", "camera", "pipeline", "n")


@dataclass(eq=False)
class Fingerprint:
    """A fingerprint plane plus its provenance."""

    plane: np.ndarray
    camera_id: str = ""
    pipeline_id: str = ""
    n_sources: int = 1


def residual(image, denoiser: DenoiserSpec) -> np.ndarray:
    """Noise residual R = I - D(I). Pure; parallelizes across images.

    Non-finite samples raise :class:`DegenerateInputError`, since one would
    spread through the denoiser into every score the residual takes part in.
    """
    p = as_plane(image)
    if not np.isfinite(p).all():
        raise DegenerateInputError("image has non-finite samples")
    return p - apply_denoiser(p, denoiser)


class FingerprintAccumulator:
    """Streaming form of the estimator: the two running sums of k.

    Feed (image, residual) pairs one at a time with :meth:`add`; memory stays
    at two H x W planes however many images are added. When
    ``saturation_threshold`` is given, samples at or above it are excluded
    from both sums on a per-image basis.
    """

    def __init__(self, saturation_threshold: float | None = None):
        self.saturation_threshold = saturation_threshold
        self.n = 0
        self._num = None
        self._den = None

    def add(self, image, residual) -> None:
        """Add one image and its residual to the sums.

        The first call fixes the plane shape; a later mismatch raises
        :class:`ShapeError`. Non-finite samples raise
        :class:`DegenerateInputError`, since one would poison the estimate.
        """
        im, r = as_plane(image), as_plane(residual)
        shape = im.shape if self._num is None else self._num.shape
        for arr in (im, r):
            if arr.shape != shape:
                raise ShapeError(f"plane shape {arr.shape} differs from {shape}")
        if not (np.isfinite(im).all() and np.isfinite(r).all()):
            raise DegenerateInputError("image or residual has non-finite samples")
        if self._num is None:
            self._num = np.zeros(shape)
            self._den = np.zeros(shape)
        # No threshold is a cut at inf, which keeps every (finite) sample.
        keep = im < (np.inf if self.saturation_threshold is None else self.saturation_threshold)
        self._num += np.where(keep, r * im, 0.0)
        self._den += np.where(keep, im * im, 0.0)
        self.n += 1

    def finish(self, camera_id: str = "", pipeline_id: str = "") -> Fingerprint:
        """The uncleaned estimate over everything added so far."""
        if self.n == 0:
            raise ValueError("need at least one image and one residual")
        if not (self._den > 0).any():  # k would be all zeros, which no match can score
            raise DegenerateInputError(f"no sample below the saturation threshold {self.saturation_threshold} carries signal")
        k = np.divide(
            self._num, self._den, out=np.zeros(self._num.shape), where=self._den > 0
        )
        return Fingerprint(k, camera_id, pipeline_id, self.n)


def load_residual(denoiser: DenoiserSpec, path):
    """The luminance plane of the image file ``path`` and its residual."""
    im = to_luminance(load_image(path))
    return im, residual(im, denoiser)


def estimate_from_files(paths, denoiser, saturation_threshold, camera_id, pipeline_id) -> Fingerprint:
    """Uncleaned estimate from the image files ``paths``, summed in their order; ShapeError names the file."""
    acc = FingerprintAccumulator(saturation_threshold)
    with closing(_pool.ordered_map(partial(load_residual, denoiser), paths)) as pairs:
        for p, (im, res) in zip(paths, pairs):
            try:
                acc.add(im, res)
            except ShapeError as exc:
                raise ShapeError(f"{p}: {exc}") from None
    return acc.finish(camera_id, pipeline_id)


def estimate_fingerprint(images, residuals) -> Fingerprint:
    """Aggregate residuals into a fingerprint estimate, with no saturation cut.

    ``images`` and ``residuals`` are equal-length lists of same-size planes;
    see :class:`FingerprintAccumulator` for the sums and their checks.
    """
    if len(images) != len(residuals):
        raise ValueError(
            f"got {len(images)} images but {len(residuals)} residuals"
        )
    acc = FingerprintAccumulator()
    for im, r in zip(images, residuals):
        acc.add(im, r)
    return acc.finish()


def zero_mean_rows_cols(plane: np.ndarray) -> np.ndarray:
    """Subtract each row's mean, then each column's mean."""
    p = as_plane(plane)
    p = p - p.mean(axis=1, keepdims=True)
    return p - p.mean(axis=0, keepdims=True)


def clean_fingerprint(fp: Fingerprint, whiten: bool = False) -> Fingerprint:
    """Zero out row and column means; optionally whiten the spectrum after."""
    plane = zero_mean_rows_cols(fp.plane)
    if whiten:
        plane = whiten_plane(plane)
    return replace(fp, plane=plane)


def whiten_plane(plane: np.ndarray) -> np.ndarray:
    """Wiener filter on the Fourier magnitude that removes the spectrum's peaks:
    each bin is scaled by sigma^2 / (s2 + sigma^2), with sigma the plane's std and
    s2 the local signal variance of the DFT magnitude. The flat part, which holds
    the PRNU, passes nearly unchanged. Off the default estimation path."""
    p = as_plane(plane)
    h, w = p.shape
    std = p.std(ddof=1)
    if std <= 0:
        return p.copy()
    spec = np.fft.fft2(p)
    mag = np.abs(spec) / np.sqrt(h * w)
    s2 = local_signal_variance(mag, std**2)
    gain = std**2 / (s2 + std**2)
    out = np.fft.ifft2(spec * gain).real
    return out


def check_header_id(label: str, value: str) -> None:
    """ValueError unless ``value`` can go into a fingerprint file's header: ASCII without newlines."""
    if "\n" in value or not value.isascii():
        raise ValueError(f"{label} id {value!r} must be ASCII without newlines")


def save_fingerprint(fp: Fingerprint, path) -> None:
    """Write the binary fingerprint file (magic, ASCII header, float64 LE payload)."""
    plane = as_plane(fp.plane)
    if not np.isfinite(plane).all():  # load_fingerprint would refuse the file
        raise DegenerateInputError(f"{path}: fingerprint plane has non-finite values")
    if fp.n_sources < 1:
        raise ValueError(f"n_sources must be >= 1, got {fp.n_sources}")
    check_header_id("camera", fp.camera_id)
    check_header_id("pipeline", fp.pipeline_id)
    h, w = plane.shape
    header = (
        f"width={w}\nheight={h}\ncamera={fp.camera_id}\n"
        f"pipeline={fp.pipeline_id}\nn={fp.n_sources}\n--\n"
    ).encode("ascii")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(header)
        fh.write(plane.astype("<f8").tobytes())


def load_fingerprint(path) -> Fingerprint:
    """Read a fingerprint file written by :func:`save_fingerprint`."""
    data = Path(path).read_bytes()
    if not data.startswith(_MAGIC):
        raise FormatError(f"{path}: bad magic bytes")
    sep = data.find(b"\n--\n", len(_MAGIC) - 1)
    if sep < 0:
        raise FormatError(f"{path}: missing header separator")
    try:
        header_text = data[len(_MAGIC) : sep].decode("ascii")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: non-ASCII header") from None
    fields = {}
    for line in header_text.split("\n"):
        key, eq, value = line.partition("=")
        if not eq:
            raise FormatError(f"{path}: malformed header line {line!r}")
        fields[key] = value
    if tuple(fields) != _HEADER_KEYS:
        raise FormatError(f"{path}: header keys {tuple(fields)} != {_HEADER_KEYS}")
    try:
        w = int(fields["width"])
        h = int(fields["height"])
        n = int(fields["n"])
    except ValueError:
        raise FormatError(f"{path}: non-integer header value") from None
    if w < 1 or h < 1 or n < 1:
        raise FormatError(f"{path}: invalid header values")
    payload = len(data) - (sep + 4)
    if payload != w * h * 8:
        raise FormatError(
            f"{path}: payload is {payload} bytes, header implies {w * h * 8}"
        )
    # one copy: the float64 plane, converted straight from the file's bytes
    plane = np.frombuffer(data, dtype="<f8", count=w * h, offset=sep + 4).astype(np.float64).reshape(h, w)
    if not np.isfinite(plane).all():
        raise FormatError(f"{path}: payload has non-finite values")
    return Fingerprint(plane, fields["camera"], fields["pipeline"], n)
