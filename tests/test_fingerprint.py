import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prnukit import wavelets
from prnukit.denoise import DenoiserSpec, apply_denoiser
from prnukit.errors import DegenerateInputError, FormatError, ShapeError
from prnukit.fingerprint import (
    SATURATION_THRESHOLD,
    Fingerprint,
    FingerprintAccumulator,
    clean_fingerprint,
    estimate_fingerprint,
    estimate_from_files,
    load_fingerprint,
    residual,
    save_fingerprint,
    whiten_plane,
    zero_mean_rows_cols,
)
from prnukit.ispsim import DEFAULT_PIPELINES, capture, develop, synth_scene, synth_sensor
from prnukit.imaging import load_image, save_image, to_luminance
from prnukit.matching import match_patch, ncc


def test_single_image_ratio():
    img = np.full((4, 4), 0.8)
    res = np.full((4, 4), 0.2)
    fp = estimate_fingerprint([img], [res])
    assert np.allclose(fp.plane, 0.25)
    assert fp.n_sources == 1


def test_two_image_weighted_ratio():
    imgs = [np.full((2, 2), 0.5), np.full((2, 2), 0.5)]
    res = [np.full((2, 2), 0.1), np.full((2, 2), 0.2)]
    fp = estimate_fingerprint(imgs, res)
    assert np.allclose(fp.plane, 0.3)


def test_zero_denominator_pixels_are_zero():
    img = np.full((4, 4), 0.5)
    img[:, 2] = 0.0  # fully dark column
    res = np.full((4, 4), 0.05)
    fp = estimate_fingerprint([img], [res])
    assert np.all(fp.plane[:, 2] == 0.0)
    assert np.allclose(fp.plane[:, 0], 0.1)


def test_saturation_exclusion():
    bright = np.full((4, 4), 1.0)
    bright[0, 0] = 0.5
    res = np.full((4, 4), 0.2)
    acc = FingerprintAccumulator()
    acc.add(bright, res)
    fp = acc.finish()
    assert fp.plane[0, 0] == pytest.approx(0.4)
    assert np.all(fp.plane.ravel()[1:] == 0.0)  # saturated pixels excluded -> zero


@pytest.mark.parametrize(
    "image", [np.full((4, 4), SATURATION_THRESHOLD), np.ones((4, 4)), np.zeros((4, 4))], ids=["at-the-cut", "saturated", "dark"]
)
def test_finish_refuses_an_estimate_no_sample_contributes_to(image):
    acc = FingerprintAccumulator()
    acc.add(image, np.full((4, 4), 0.1))
    acc.add(image, np.full((4, 4), 0.2))
    with pytest.raises(DegenerateInputError, match=f"saturation threshold {SATURATION_THRESHOLD} carries"):
        acc.finish()


def test_argument_errors():
    with pytest.raises(ValueError):
        estimate_fingerprint([], [])
    with pytest.raises(ValueError):
        estimate_fingerprint([np.ones((2, 2))], [])
    with pytest.raises(ShapeError):
        estimate_fingerprint([np.ones((2, 2))], [np.ones((3, 2))])


def test_accumulator_errors():
    acc = FingerprintAccumulator()
    with pytest.raises(ValueError):
        acc.finish()
    with pytest.raises(ShapeError):
        acc.add(np.ones((2, 2)), np.ones((3, 2)))
    acc.add(np.full((2, 2), 0.5), np.ones((2, 2)))
    with pytest.raises(ShapeError):
        acc.add(np.full((2, 3), 0.5), np.ones((2, 3)))
    assert acc.finish("c", "p").n_sources == 1


@pytest.mark.parametrize("saturated", [False, True])
def test_accumulator_splits_match_estimate_fingerprint(saturated):
    rng = np.random.default_rng(7)
    imgs = np.array([rng.random((12, 10)) for _ in range(7)])
    res = np.array([rng.standard_normal((12, 10)) for _ in range(7)])
    if saturated:
        imgs[:, 0, :3] = 1.0  # at or above the cut in every image
    full = FingerprintAccumulator()
    halves = (FingerprintAccumulator(), FingerprintAccumulator())
    for i, (im, r) in enumerate(zip(imgs, res)):
        full.add(im, r)
        halves[i % 2].add(im, r)
    splits = ((full, slice(None)), (halves[0], slice(0, None, 2)), (halves[1], slice(1, None, 2)))
    for acc, idx in splits:
        got = acc.finish("c", "p")
        # the estimator written out: k = sum(R * I * keep) / sum(I^2 * keep), 0 where nothing is kept
        keep = imgs[idx] < SATURATION_THRESHOLD
        num = np.sum(res[idx] * imgs[idx] * keep, axis=0)
        den = np.sum(imgs[idx] ** 2 * keep, axis=0)
        want = np.divide(num, den, out=np.zeros(den.shape), where=den > 0)
        np.testing.assert_allclose(got.plane, want, rtol=1e-12, atol=0)
        assert (got.plane == 0.0).sum() == (den == 0.0).sum() == (3 if saturated else 0)
        assert (got.camera_id, got.pipeline_id, got.n_sources) == ("c", "p", len(imgs[idx]))
    # estimate_fingerprint is the list form of the same accumulator, cut included
    assert np.array_equal(full.finish().plane, estimate_fingerprint(list(imgs), list(res)).plane)


def test_estimate_from_files_sums_only_below_the_saturation_cut(tmp_path):
    # 8-bit PGMs, so 254 and 255 load as exactly 254/255 (the cut) and 1.0
    rng = np.random.default_rng(17)
    levels = rng.integers(1, 254, (4, 12, 10))
    levels[:, 0, :3] = 255  # saturated in every image: k is 0 there
    levels[0, 1, :] = 254  # at the cut in one image only
    levels[2, 2, 4:] = 255
    paths = [tmp_path / f"img_{i}.pgm" for i in range(len(levels))]
    for path, lv in zip(paths, levels):
        save_image(lv / 255.0, path, bit_depth=8)
    denoiser = DenoiserSpec("gaussian", sigma=1.0)
    got = estimate_from_files(paths, denoiser, "c", "p")
    imgs = np.array([load_image(p) for p in paths])
    res = np.array([residual(im, denoiser) for im in imgs])
    # the estimator written out, with the cut: k = sum(R * I * keep) / sum(I^2 * keep), 0 where nothing is kept
    keep = imgs < SATURATION_THRESHOLD
    num = np.sum(res * imgs * keep, axis=0)
    den = np.sum(imgs**2 * keep, axis=0)
    want = np.divide(num, den, out=np.zeros(den.shape), where=den > 0)
    np.testing.assert_allclose(got.plane, want, rtol=1e-12, atol=0)
    assert (den == 0.0).sum() == 3 and np.all(got.plane[0, :3] == 0.0)
    assert (got.camera_id, got.pipeline_id, got.n_sources) == ("c", "p", 4)
    # the list form over the same planes and residuals is the same estimate, bit for bit
    assert np.array_equal(estimate_fingerprint(list(imgs), list(res)).plane, got.plane)


@settings(max_examples=100)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.data(),
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.booleans(),
)
def test_non_finite_input_is_rejected(h, w, data, bad, in_image):
    rng = np.random.default_rng(h * 7 + w)
    img = rng.random((h, w))
    res = rng.standard_normal((h, w))
    y = data.draw(st.integers(0, h - 1))
    x = data.draw(st.integers(0, w - 1))
    (img if in_image else res)[y, x] = bad
    with pytest.raises(DegenerateInputError):
        FingerprintAccumulator().add(img, res)
    with pytest.raises(DegenerateInputError):
        estimate_fingerprint([np.full((h, w), 0.5), img], [np.zeros((h, w)), res])
    with pytest.raises(DegenerateInputError):
        residual(img if in_image else res, DenoiserSpec("gaussian"))


def test_residual_identity_gaussian():
    rng = np.random.default_rng(0)
    img = rng.random((32, 32))
    spec = DenoiserSpec("gaussian", sigma=1.0)
    res = residual(img, spec)
    assert np.allclose(res + apply_denoiser(img, spec), img, atol=0)


@pytest.mark.parametrize("spec", [DenoiserSpec("gaussian", sigma=1.1), DenoiserSpec()], ids=["gaussian", "wavelet"])
def test_residual_is_the_plain_difference_bit_for_bit(spec):
    # The blur returns a view of a wider buffer; the residual is formed in place in it.
    img = np.random.default_rng(17).random((64, 48))
    assert residual(img, spec).tobytes() == (img - apply_denoiser(img, spec)).tobytes()


def _callers_hold_arguments(monkeypatch):
    """Wrap the transform steps so that each call's arguments stay alive until it returns,
    as a caller's stack keeps them before CPython 3.11."""
    for name in ("_analyze", "_synthesize"):
        step = getattr(wavelets, name)
        monkeypatch.setattr(wavelets, name, lambda *args, step=step: step(*args))


@pytest.mark.parametrize(
    "shape, held", [((512, 512), False), ((1536, 2048), False), ((512, 512), True)],
    ids=["512x512", "1536x2048", "512x512-held-arguments"],
)
def test_residual_peak_memory(shape, held, monkeypatch):
    # Each wavelet level is freed as it is synthesized and R = I - D(I) reuses D's buffer,
    # on every interpreter: the steps pop their inputs from lists rather than rely on argument lifetimes.
    if held:
        _callers_hold_arguments(monkeypatch)
    plane = 0.5 + 0.05 * np.random.default_rng(15).standard_normal(shape)
    tracemalloc.start()
    try:
        residual(plane, DenoiserSpec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * plane.nbytes, peak


def test_residual_correlates_with_multiplicative_pattern():
    rng = np.random.default_rng(1)
    k = rng.normal(0, 0.02, (128, 128))
    img = 0.5 * (1.0 + k)
    res = residual(img, DenoiserSpec("wavelet"))
    assert ncc(res, k) > 0.5


def test_estimate_recovers_planted_pattern_from_captures():
    sensor = synth_sensor(128, 128, strength=0.02, seed=21)
    spec = DenoiserSpec()
    imgs, res = [], []
    for i in range(15):
        raw = capture(synth_scene(128, 128, "flat", level=0.5), sensor, seed=300 + i)
        imgs.append(raw)
        res.append(residual(raw, spec))
    fp = clean_fingerprint(estimate_fingerprint(imgs, res))
    assert ncc(fp.plane, sensor.prnu) > 0.8


def test_scaling_residuals_scales_fingerprint_exactly():
    rng = np.random.default_rng(2)
    imgs = [rng.random((8, 8)) + 0.1 for _ in range(3)]
    res = [rng.standard_normal((8, 8)) for _ in range(3)]
    base = estimate_fingerprint(imgs, res).plane
    scaled = estimate_fingerprint(imgs, [2.0 * r for r in res]).plane
    assert np.array_equal(scaled, 2.0 * base)


def test_identical_images_match_single_image():
    rng = np.random.default_rng(3)
    img = rng.random((8, 8)) + 0.1
    res = rng.standard_normal((8, 8))
    one = estimate_fingerprint([img], [res]).plane
    four = estimate_fingerprint([img] * 4, [res] * 4).plane
    assert np.allclose(four, one, rtol=1e-14, atol=0)


@settings(max_examples=100)
@given(st.integers(2, 8), st.integers(0, 2**31))
def test_permutation_invariance(n, seed):
    rng = np.random.default_rng(seed)
    imgs = [rng.random((6, 6)) + 0.05 for _ in range(n)]
    res = [rng.standard_normal((6, 6)) for _ in range(n)]
    a = estimate_fingerprint(imgs, res).plane
    order = rng.permutation(n)
    b = estimate_fingerprint([imgs[i] for i in order], [res[i] for i in order]).plane
    assert np.allclose(a, b, rtol=1e-9, atol=1e-15)


def test_clean_removes_constant_rows():
    plane = np.array([[1.0] * 4, [2.0] * 4, [3.0] * 4])
    fp = clean_fingerprint(Fingerprint(plane))
    assert np.allclose(fp.plane, 0.0, atol=1e-15)


def test_clean_row_col_means_zero():
    rng = np.random.default_rng(4)
    fp = clean_fingerprint(Fingerprint(rng.random((17, 23))))
    assert np.abs(fp.plane.mean(axis=0)).max() < 1e-9
    assert np.abs(fp.plane.mean(axis=1)).max() < 1e-9


@settings(max_examples=100)
@given(st.integers(2, 20), st.integers(2, 20), st.integers(0, 2**31))
def test_clean_idempotent(h, w, seed):
    plane = np.random.default_rng(seed).standard_normal((h, w))
    once = zero_mean_rows_cols(plane)
    twice = zero_mean_rows_cols(once)
    assert np.abs(twice - once).max() < 1e-12


def test_whiten_runs_and_preserves_shape():
    rng = np.random.default_rng(5)
    plane = zero_mean_rows_cols(rng.standard_normal((64, 64)))
    out = whiten_plane(plane)
    assert out.shape == plane.shape
    assert np.isfinite(out).all()
    flagged = clean_fingerprint(Fingerprint(plane), whiten=True)
    assert flagged.plane.shape == plane.shape


def test_whiten_passes_white_noise_nearly_unchanged():
    plane = np.random.default_rng(11).standard_normal((256, 256))
    out = whiten_plane(plane)
    assert (out**2).sum() >= 0.9 * (plane**2).sum()
    assert ncc(out, plane) >= 0.99


def test_whiten_lowers_a_periodic_grid_peak():
    n = 256
    on_grid = np.arange(n) % 8 == 0
    grid = (on_grid[:, None] | on_grid[None, :]).astype(float)
    plane = np.random.default_rng(12).standard_normal((n, n)) + 0.5 * (grid - grid.mean())

    def peak_over_median(p):
        mag = np.abs(np.fft.fft2(p))
        return mag[0, n // 8] / np.median(mag)

    assert peak_over_median(whiten_plane(plane)) < peak_over_median(plane)


def test_whiten_keeps_same_camera_pce():
    size = 128
    sensor = synth_sensor(size, size, seed=3)
    pipe = DEFAULT_PIPELINES[0]
    denoiser = DenoiserSpec()

    def luminance(scene, seed):
        return to_luminance(develop(capture(scene, sensor, seed=seed), pipe))

    flats = [luminance(synth_scene(size, size, "flat", level=0.4 + 0.02 * i), 100 + i) for i in range(20)]
    fp = estimate_fingerprint(flats, [residual(f, denoiser) for f in flats])
    plain, whitened = clean_fingerprint(fp), clean_fingerprint(fp, whiten=True)
    for i in range(5):
        probe = luminance(synth_scene(size, size, "texture", seed=200 + i), 300 + i)
        res = residual(probe, denoiser)
        assert match_patch(probe, res, whitened.plane).pce >= match_patch(probe, res, plain.plane).pce


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    fp = Fingerprint(rng.standard_normal((9, 13)), "camX", "pipeY", 42)
    path = tmp_path / "fp.bin"
    save_fingerprint(fp, path)
    loaded = load_fingerprint(path)
    assert np.array_equal(loaded.plane, fp.plane)
    assert (loaded.camera_id, loaded.pipeline_id, loaded.n_sources) == ("camX", "pipeY", 42)


@pytest.mark.parametrize("name", ["plane.fp", "plane.ppm"])
def test_readers_hold_only_the_file_and_the_plane(tmp_path, name):
    # The payload converts straight from the file's bytes, with no copy of them in between.
    rng = np.random.default_rng(16)
    path = tmp_path / name
    fingerprint = name.endswith(".fp")
    if fingerprint:
        save_fingerprint(Fingerprint(rng.normal(0, 0.02, (512, 512)), "c", "p", 1), path)
    else:
        save_image(rng.random((512, 512, 3)), path, bit_depth=16)
    tracemalloc.start()
    try:
        plane = load_fingerprint(path).plane if fingerprint else load_image(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= path.stat().st_size + plane.nbytes + 2**19, peak


def test_file_layout(tmp_path):
    fp = Fingerprint(np.zeros((2, 3)), "c", "p", 5)
    path = tmp_path / "fp.bin"
    save_fingerprint(fp, path)
    data = path.read_bytes()
    assert data.startswith(b"PRNU1\nwidth=3\nheight=2\ncamera=c\npipeline=p\nn=5")
    assert b"\n--\n" in data
    assert len(data.split(b"\n--\n", 1)[1]) == 2 * 3 * 8


def test_load_rejects_corruption(tmp_path):
    fp = Fingerprint(np.zeros((4, 4)), "c", "p", 1)
    good = tmp_path / "good.bin"
    save_fingerprint(fp, good)
    raw = good.read_bytes()

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError):
        load_fingerprint(bad_magic)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(FormatError):
        load_fingerprint(truncated)

    inconsistent = tmp_path / "dims.bin"
    inconsistent.write_bytes(raw.replace(b"width=4", b"width=5"))
    with pytest.raises(FormatError):
        load_fingerprint(inconsistent)

    header = raw[: -4 * 4 * 8]
    for bad in (np.nan, np.inf, -np.inf):
        plane = np.zeros((4, 4))
        plane[1, 2] = bad
        non_finite = tmp_path / "non_finite.bin"
        non_finite.write_bytes(header + plane.astype("<f8").tobytes())
        with pytest.raises(FormatError, match="non-finite"):
            load_fingerprint(non_finite)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_refuses_a_plane_the_reader_would_refuse(tmp_path, bad):
    plane = np.zeros((4, 4))
    plane[1, 2] = bad
    path = tmp_path / "sub" / "bad.fp"
    with pytest.raises(DegenerateInputError, match="non-finite"):
        save_fingerprint(Fingerprint(plane), path)
    assert not path.parent.exists()


@pytest.mark.parametrize("field", ["camera_id", "pipeline_id"])
def test_save_refuses_a_non_ascii_id(tmp_path, field):
    path = tmp_path / "sub" / "x.fp"
    with pytest.raises(ValueError, match="café"):
        save_fingerprint(Fingerprint(np.zeros((2, 2)), **{field: "café"}), path)
    assert not path.parent.exists()


@pytest.mark.parametrize("field, value", [("n_sources", 2.5), ("n_sources", True), ("camera_id", 5)])
def test_save_refuses_a_header_the_reader_would_refuse(tmp_path, field, value):
    # load_fingerprint reads n as an integer and each id as ASCII text
    path = tmp_path / "sub" / "x.fp"
    with pytest.raises(ValueError, match=f"^{field.removesuffix('_id')} .*{value!r}"):
        save_fingerprint(Fingerprint(np.zeros((2, 2)), **{field: value}), path)
    assert not path.parent.exists()


def test_save_validation(tmp_path):
    with pytest.raises(ValueError):
        save_fingerprint(Fingerprint(np.zeros((2, 2)), n_sources=0), tmp_path / "x")
    with pytest.raises(ValueError):
        save_fingerprint(Fingerprint(np.zeros((2, 2)), camera_id="a\nb"), tmp_path / "x")
