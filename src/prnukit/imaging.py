"""Image planes, file I/O, luminance conversion and common cropping.

A plane is a plain 2-D float64 array with intensities nominally in [0, 1];
a color image is an (H, W, 3) array. All operations here are pure and never
mutate their inputs, so arrays can be shared freely across workers.

Supported file formats: binary PGM (P5) and PPM (P6) with 8-bit or 16-bit
big-endian samples, plus PNG when Pillow is installed (8-bit planes only
on output).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, FormatError, ShapeError

# ITU-R BT.601 luma weights.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)

_PNM_SUFFIXES = {".pgm", ".ppm", ".pnm"}


def as_plane(arr) -> np.ndarray:
    """Validate ``arr`` as a 2-D plane and return it as float64."""
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D plane, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError("plane must have at least one row and one column")
    return a


def _read_pnm(data: bytes, name: str):
    if data[:1] != b"P" or data[1:2] not in (b"5", b"6"):
        raise FormatError(f"{name}: not a binary PGM/PPM file")
    channels = 1 if data[1:2] == b"5" else 3
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise FormatError(f"{name}: truncated header")
        c = data[pos : pos + 1]
        if c == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif c.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            try:
                fields.append(int(data[start:pos]))
            except ValueError:
                raise FormatError(f"{name}: malformed header token") from None
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"{name}: zero-dimension image")
    if not 0 < maxval < 65536:
        raise FormatError(f"{name}: invalid maxval {maxval}")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height * channels
    if len(data) - pos < count * dtype.itemsize:
        raise FormatError(f"{name}: truncated pixel data")
    arr = np.frombuffer(data, dtype=dtype, count=count, offset=pos).astype(np.float64)
    arr /= maxval
    shape = (height, width) if channels == 1 else (height, width, 3)
    return arr.reshape(shape)


def _read_png(path: Path):
    from PIL import Image  # check_image_path found it

    with Image.open(path) as im:
        mode = im.mode
        arr = np.asarray(im)
    if arr.ndim == 2 and arr.size and min(arr.shape) >= 1:
        maxval = 65535.0 if mode in ("I", "I;16") else 255.0
        return arr.astype(np.float64) / maxval
    if arr.ndim == 3 and arr.shape[2] == 3 and mode == "RGB":
        return arr.astype(np.float64) / 255.0
    raise FormatError(f"{path}: unsupported PNG mode {mode}")


def _suffix(path: Path) -> str:
    """The lower-case suffix of ``path``; FormatError unless it names a format :func:`load_image` reads."""
    suffix = path.suffix.lower()
    if suffix not in _PNM_SUFFIXES and suffix != ".png":
        raise FormatError(f"{path}: unsupported image format {suffix!r}")
    return suffix


def check_image_path(path) -> str:
    """The lower-case suffix of ``path``; FormatError unless :func:`load_image` can read
    and :func:`save_image` write the file: PGM/PPM, or PNG where Pillow is installed."""
    suffix = _suffix(Path(path))
    if suffix == ".png":
        try:
            import PIL.Image  # noqa: F401
        except ImportError:
            raise FormatError(f"{path}: PNG support requires Pillow") from None
    return suffix


def load_image(path) -> np.ndarray:
    """Load an image, scaled to [0, 1] by the format's maximum sample value.

    Returns an (H, W) plane for grayscale files and an (H, W, 3) array for
    color files.
    """
    path = Path(path)
    if check_image_path(path) == ".png":
        return _read_png(path)
    return _read_pnm(path.read_bytes(), str(path))


def save_image(img, path, bit_depth: int = 16) -> None:
    """Write a plane as PGM or an (H, W, 3) image as PPM (binary, big-endian).

    A ``.png`` path takes an 8-bit plane and needs Pillow; a suffix that
    :func:`load_image` cannot read raises :class:`FormatError`. An array with
    no pixels raises :class:`ShapeError`, and a non-finite sample
    :class:`DegenerateInputError`; none of them writes anything.
    """
    path = Path(path)
    png = _suffix(path) == ".png"
    a = np.asarray(img, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[2:] not in ((), (3,)) or 0 in a.shape:
        raise ShapeError(f"cannot save array of shape {a.shape}")
    magic = b"P5" if a.ndim == 2 else b"P6"
    if bit_depth not in (8, 16):
        raise ValueError(f"bit_depth must be 8 or 16, got {bit_depth}")
    if not np.isfinite(a).all():
        raise DegenerateInputError(f"{path}: image has non-finite samples")
    if png:
        if magic != b"P5" or bit_depth != 8:
            raise FormatError(f"{path}: PNG output takes an 8-bit plane")
        check_image_path(path)  # Pillow, before any directory is made
    maxval = (1 << bit_depth) - 1
    q = np.rint(np.clip(a, 0.0, 1.0) * maxval)
    dtype = np.dtype(">u2") if bit_depth == 16 else np.dtype("u1")
    h, w = a.shape[:2]
    path.parent.mkdir(parents=True, exist_ok=True)
    if png:
        from PIL import Image

        Image.fromarray(q.astype(dtype)).save(path)
        return
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(q.astype(dtype).tobytes())


def to_luminance(img) -> np.ndarray:
    """Reduce an (H, W, 3) image to one plane with BT.601 weights.

    A plane passes through unchanged (already single-channel).
    """
    a = np.asarray(img, dtype=np.float64)
    if a.ndim == 2:
        return a.copy()
    if a.ndim == 3 and a.shape[2] == 3:
        wr, wg, wb = LUMA_WEIGHTS
        return wr * a[:, :, 0] + wg * a[:, :, 1] + wb * a[:, :, 2]
    raise ShapeError(f"expected (H, W) or (H, W, 3), got shape {a.shape}")


def common_crop_planes(planes):
    """Crop every plane to the top-left rectangle they all share."""
    h = min(p.shape[0] for p in planes)
    w = min(p.shape[1] for p in planes)
    return [p[:h, :w] for p in planes]
