import re
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from prnukit.errors import DegenerateInputError, FormatError, ShapeError
from prnukit.imaging import as_plane, load_image, save_image, to_luminance


def test_load_8bit_gray_normalization(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    plane = load_image(path)
    assert plane.shape == (2, 2)
    assert np.array_equal(plane, np.array([[0.0, 128 / 255], [1.0, 64 / 255]]))


def test_load_16bit_max_sample_is_one(tmp_path):
    path = tmp_path / "tiny16.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n" + (65535).to_bytes(2, "big"))
    assert load_image(path)[0, 0] == 1.0


def test_save_load_roundtrip_16bit_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.random((13, 9, 3))
    p1 = tmp_path / "a.ppm"
    save_image(img, p1, bit_depth=16)
    loaded = load_image(p1)
    p2 = tmp_path / "b.ppm"
    save_image(loaded, p2, bit_depth=16)
    # byte-compare oracle: a second save of the loaded image reproduces the file
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(load_image(p2), loaded)


def test_load_save_load_idempotent_8bit(tmp_path):
    rng = np.random.default_rng(4)
    img = rng.random((7, 5))
    save_image(img, tmp_path / "a.pgm", bit_depth=8)
    once = load_image(tmp_path / "a.pgm")
    save_image(once, tmp_path / "b.pgm", bit_depth=8)
    assert np.array_equal(load_image(tmp_path / "b.pgm"), once)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(4, 5), (4, 5, 3)])
def test_save_rejects_non_finite_samples(tmp_path, shape, bad):
    # A NaN would be written as 0 and an inf clipped to full scale or to 0.
    img = np.full(shape, 0.5)
    img[2, 3] = bad
    path = tmp_path / ("out.pgm" if len(shape) == 2 else "out.ppm")
    with pytest.raises(DegenerateInputError, match=f"^{re.escape(str(path))}: image has non-finite samples$"):
        save_image(img, path)
    assert not path.exists()


@pytest.mark.parametrize("shape", [(0, 5), (4, 0), (0, 5, 3), (4, 0, 3)])
def test_save_rejects_an_array_without_pixels(tmp_path, shape):
    # A P6 "0 64" header would be written that load_image refuses.
    path = tmp_path / ("out.pgm" if len(shape) == 2 else "out.ppm")
    with pytest.raises(ShapeError, match="cannot save array of shape"):
        save_image(np.zeros(shape), path)
    assert not path.exists()


def test_pnm_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # comment\n# another\n 2\t1 \n255\n" + bytes([7, 9]))
    plane = load_image(path)
    assert plane.shape == (1, 2)


def test_load_errors(tmp_path):
    with pytest.raises(OSError):
        load_image(tmp_path / "missing.pgm")
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P7\n1 1\n255\n\x00")
    with pytest.raises(FormatError):
        load_image(bad)
    trunc = tmp_path / "trunc.pgm"
    trunc.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(FormatError):
        load_image(trunc)
    zero = tmp_path / "zero.pgm"
    zero.write_bytes(b"P5\n0 2\n255\n")
    with pytest.raises(FormatError):
        load_image(zero)
    other = tmp_path / "file.bmp"
    other.write_bytes(b"BM")
    with pytest.raises(FormatError):
        load_image(other)


def test_png_16bit_load(tmp_path):
    pil = pytest.importorskip("PIL.Image")
    arr = np.array([[0, 32768], [65535, 1]], dtype=np.uint16)
    path = tmp_path / "x.png"
    pil.fromarray(arr).save(path)
    plane = load_image(path)
    assert plane[1, 0] == 1.0
    assert abs(plane[0, 1] - 32768 / 65535) < 1e-12


def test_png_save_takes_8bit_planes_only(tmp_path):
    # checked before Pillow is imported, so these fail the same way with or without it,
    # and before the missing directories are made
    path = tmp_path / "new" / "sub" / "x.png"
    with pytest.raises(FormatError, match="8-bit plane"):
        save_image(np.zeros((4, 4)), path)  # 16-bit by default
    with pytest.raises(FormatError, match="8-bit plane"):
        save_image(np.zeros((4, 4, 3)), path, bit_depth=8)
    assert not (tmp_path / "new").exists()


def test_png_save_without_pillow_makes_no_directory(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "PIL", None)  # import PIL raises ImportError
    with pytest.raises(FormatError, match="requires Pillow"):
        save_image(np.zeros((4, 4)), tmp_path / "new" / "x.png", bit_depth=8)
    assert not (tmp_path / "new").exists()


def test_luminance_weights():
    const = np.full((4, 4, 3), 0.37)
    assert np.allclose(to_luminance(const), 0.37, atol=1e-12)
    red = np.zeros((2, 2, 3))
    red[..., 0] = 1.0
    assert np.allclose(to_luminance(red), 0.299, atol=1e-12)


def test_luminance_matches_scalar_loop_oracle():
    rng = np.random.default_rng(11)
    img = rng.random((6, 8, 3))
    lum = to_luminance(img)
    for y in range(6):
        for x in range(8):
            expect = 0.299 * img[y, x, 0] + 0.587 * img[y, x, 1] + 0.114 * img[y, x, 2]
            assert abs(lum[y, x] - expect) < 1e-12


@given(
    st.floats(-2, 2),
    st.floats(-2, 2),
    st.integers(1, 20),
    st.integers(1, 20),
)
def test_luminance_linear(alpha, beta, h, w):
    rng = np.random.default_rng(h * 31 + w)
    a = rng.random((h, w, 3))
    b = rng.random((h, w, 3))
    lhs = to_luminance(alpha * a + beta * b)
    rhs = alpha * to_luminance(a) + beta * to_luminance(b)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_as_plane_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        to_luminance(np.zeros((2, 2, 4)))
    with pytest.raises(ShapeError):
        as_plane(np.zeros(5))
