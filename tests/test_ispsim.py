import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from oracles import demosaic_bilinear_direct, demosaic_edge_direct
from prnukit import ispsim
from prnukit.denoise import DenoiserSpec
from prnukit.errors import DegenerateInputError, ShapeError
from prnukit.fingerprint import clean_fingerprint, estimate_fingerprint, residual
from prnukit.ispsim import (
    DEFAULT_PIPELINES,
    DEMOSAIC_KINDS,
    PipelineConfig,
    SensorProfile,
    SensorSpec,
    ToneCurve,
    capture,
    develop,
    develop_each,
    output_shape,
    synth_scene,
    synth_sensor,
)
from prnukit.matching import align, ncc


def test_sensor_determinism_and_stats():
    a = synth_sensor(256, 256, strength=0.02, seed=9)
    b = synth_sensor(256, 256, strength=0.02, seed=9)
    assert np.array_equal(a.prnu, b.prnu)
    assert abs(a.prnu.mean()) < 1e-3
    assert 0.019 <= a.prnu.std() <= 0.021
    c = synth_sensor(256, 256, strength=0.02, seed=10)
    assert abs(ncc(a.prnu, c.prnu)) < 0.05


def test_sensor_validation():
    with pytest.raises(ValueError):
        synth_sensor(32, 256)
    with pytest.raises(ValueError):
        synth_sensor(256, 256, strength=0.0)
    with pytest.raises(ValueError):
        synth_sensor(256, 256, strength=0.2)
    with pytest.raises(ValueError):
        synth_sensor(65, 64)
    for name, value in (("read_noise_std", -1e-3), ("shot_noise_scale", -1e-6), ("read_noise_std", float("nan"))):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
            synth_sensor(64, 64, **{name: value})


def test_scene_kinds():
    flat = synth_scene(64, 64, "flat", level=0.5)
    assert np.all(flat == 0.5)
    grad = synth_scene(96, 64, "gradient")
    lum = grad[:, :, 0]
    assert lum[0, 0] == lum.min() and lum[-1, -1] == lum.max()
    tex = synth_scene(64, 64, "texture", seed=3)
    assert tex.min() >= 0.1 - 1e-12 and tex.max() <= 0.9 + 1e-12
    assert np.array_equal(tex, synth_scene(64, 64, "texture", seed=3))
    with pytest.raises(ValueError):
        synth_scene(64, 64, "checker")
    with pytest.raises(ValueError):
        synth_scene(32, 64, "flat")


def test_capture_zero_model_collapse():
    scene = synth_scene(64, 64, "flat", level=0.5)
    zero = SensorProfile(SensorSpec(64, 64, read_noise_std=0.0, shot_noise_scale=0.0), np.zeros((64, 64)))
    raw = capture(scene, zero, seed=1)
    assert np.array_equal(raw, np.full((64, 64), 0.5))


def test_capture_algebraic_inversion():
    sensor = synth_sensor(96, 96, strength=0.02, read_noise_std=0.0, shot_noise_scale=0.0, seed=2)
    raw = capture(synth_scene(96, 96, "flat", level=0.5), sensor, seed=0)
    assert np.abs(raw / 0.5 - 1.0 - sensor.prnu).max() < 1e-12


def test_capture_shape_checks():
    sensor = synth_sensor(64, 64, seed=1)
    with pytest.raises(ShapeError):
        capture(synth_scene(64, 96, "flat"), sensor)
    with pytest.raises(ShapeError):
        capture(np.zeros((64, 64)), sensor)


# Exact 0.0 and 1.0, signed zeros, subnormals and negative samples; develop takes any finite plane.
_EDGE_SAMPLES = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 0.3, -0.7, 1.5])


@pytest.mark.parametrize("h, w", [(64, 64), (66, 130), (130, 66), (256, 256)])
def test_capture_matches_the_mask_reference(h, w):
    rng = np.random.default_rng(h * w)
    scenes = (
        synth_scene(w, h, "texture", seed=1),
        rng.uniform(-0.5, 1.5, (h, w, 3)),  # both clips act
        _EDGE_SAMPLES[rng.integers(0, _EDGE_SAMPLES.size, (h, w, 3))],
    )
    for read_noise_std, shot_noise_scale in ((0.002, 1e-4), (0.0, 0.0), (0.01, 0.0), (0.0, 1e-3)):
        sensor = synth_sensor(w, h, read_noise_std=read_noise_std, shot_noise_scale=shot_noise_scale, seed=2)
        for i, scene in enumerate(scenes):
            want = oracles.capture(scene, sensor, seed=3)
            assert capture(scene, sensor, seed=3).tobytes() == want.tobytes(), (read_noise_std, shot_noise_scale, i)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_capture_refuses_a_non_finite_scene(bad):
    sensor = synth_sensor(64, 64, seed=1)
    scene = synth_scene(64, 64, "texture", seed=2)
    scene[5, 6, 1] = bad
    with pytest.raises(DegenerateInputError, match="^scene has non-finite samples"):
        capture(scene, sensor)


@pytest.mark.parametrize("kind", ["flat", "gradient", "texture"])
@pytest.mark.parametrize("level", [float("nan"), float("inf")])
def test_synth_scene_refuses_a_non_finite_level(kind, level):
    with pytest.raises(ValueError, match="^level must be finite"):
        synth_scene(64, 64, kind, level=level)


def test_capture_averaging_recovers_pattern():
    sensor = synth_sensor(128, 128, strength=0.02, seed=3)
    acc = np.zeros((128, 128))
    scene = synth_scene(128, 128, "flat", level=0.5)
    n = 100
    for i in range(n):
        acc += capture(scene, sensor, seed=i) / 0.5 - 1.0
    assert ncc(acc / n, sensor.prnu) > 0.95


def test_develop_uniform_preserved():
    raw = np.full((64, 64), 0.37)
    for cfg in DEFAULT_PIPELINES:
        out = develop(raw, cfg)
        for c in range(3):
            assert np.ptp(out[:, :, c]) < 1e-12, cfg.id


def test_develop_nearest_keeps_green_sites():
    sensor = synth_sensor(64, 64, seed=4)
    raw = capture(synth_scene(64, 64, "texture", seed=5), sensor, seed=6)
    cfg = PipelineConfig("ident", demosaic="nearest", tone=ToneCurve("gamma", gamma=1.0))
    g = develop(raw, cfg)[:, :, 1]
    assert np.array_equal(g[0::2, 1::2], raw[0::2, 1::2])
    assert np.array_equal(g[1::2, 0::2], raw[1::2, 0::2])


def test_demosaicers_differ_on_texture():
    sensor = synth_sensor(64, 64, seed=7)
    raw = capture(synth_scene(64, 64, "texture", seed=8), sensor, seed=9)
    outs = [
        develop(raw, PipelineConfig(d, demosaic=d))
        for d in ("bilinear", "edge_directed", "nearest")
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.abs(outs[i] - outs[j]).max() > 0


_NON_FINITE_FIELDS = {
    "white_balance": lambda v: PipelineConfig("p", white_balance=(v, 1.0)),
    "sharpen": lambda v: PipelineConfig("p", sharpen=v),
    "gamma": lambda v: ToneCurve(gamma=v),
    "noise_variance": lambda v: DenoiserSpec("wavelet", noise_variance=v),
    "sigma": lambda v: DenoiserSpec("gaussian", sigma=v),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", sorted(_NON_FINITE_FIELDS))
def test_specs_refuse_a_non_finite_field(field, value):
    # Built from Python, not through the JSON codec, which refuses non-finite floats itself.
    with pytest.raises(ValueError, match=f"^{field} .*must be finite"):
        _NON_FINITE_FIELDS[field](value)


def _demosaic_raws(h, w, seed):
    sensor = synth_sensor(w, h, seed=seed)
    for scene in (synth_scene(w, h, "texture", seed=seed), synth_scene(w, h, "flat", level=0.98)):
        yield capture(scene, sensor, seed=seed)
    rng = np.random.default_rng(seed)
    raw = _EDGE_SAMPLES[rng.integers(0, _EDGE_SAMPLES.size, (h, w))]
    # Every 3x3 neighbourhood of a -0.0 block sums to -0.0 unless the sum starts from +0.0.
    raw[:8, :8] = -0.0
    raw[-6:, -10:] = -0.0
    yield raw


@pytest.mark.parametrize("h, w", [(64, 64), (66, 130), (130, 66), (256, 256), (512, 512)])
def test_demosaic_matches_direct_convolution(monkeypatch, h, w):
    direct = {"bilinear": demosaic_bilinear_direct, "edge_directed": demosaic_edge_direct}
    for seed in range(3 if h * w < 512 * 512 else 1):  # one seed at 512² keeps the test near 4 s
        for raw in _demosaic_raws(h, w, seed):
            with monkeypatch.context() as m:
                for kind, demosaic in direct.items():
                    planes = ispsim._DEMOSAICERS[kind](raw)
                    # tobytes: the sign bits of zeros count too
                    assert np.stack(planes, axis=2).tobytes() == demosaic(raw).tobytes(), (kind, seed)
                    m.setitem(ispsim._DEMOSAICERS, kind, lambda plane, d=demosaic: tuple(np.moveaxis(d(plane), 2, 0)))
                want = [develop(raw, cfg) for cfg in DEFAULT_PIPELINES]
            for cfg, out in zip(DEFAULT_PIPELINES, want):
                assert develop(raw, cfg).tobytes() == out.tobytes(), (cfg.id, seed)


@pytest.mark.parametrize("h, w", [(64, 64), (66, 130), (256, 256)])
def test_develop_matches_the_interleaved_reference_render(h, w):
    # The flat 0.98 scene saturates, so both clips act; nn_scurve_crop's crop acts on every size.
    sensor = synth_sensor(w, h, seed=4)
    for scene in (synth_scene(w, h, "texture", seed=5), synth_scene(w, h, "flat", level=0.98)):
        raw = capture(scene, sensor, seed=6)
        for cfg, out in zip(DEFAULT_PIPELINES, develop_each(raw, DEFAULT_PIPELINES)):
            want = oracles.render(np.stack(ispsim._DEMOSAICERS[cfg.demosaic](raw), axis=2), cfg)
            assert out.shape == want.shape == output_shape(cfg, (h, w)) + (3,), cfg.id
            assert np.array_equal(out, want), cfg.id


def test_edge_demosaic_peak_memory_is_at_most_four_outputs():
    raw = np.random.default_rng(0).random((512, 512))
    tracemalloc.start()
    try:
        planes = ispsim._demosaic_edge(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(p.nbytes for p in planes)  # 6.3 MB
    assert peak <= 4 * output, peak / output


def test_develop_deterministic():
    sensor = synth_sensor(64, 64, seed=10)
    raw = capture(synth_scene(64, 64, "texture", seed=11), sensor, seed=12)
    cfg = DEFAULT_PIPELINES[1]
    assert np.array_equal(develop(raw, cfg), develop(raw, cfg))


def test_develop_each_demosaics_once_per_kind(monkeypatch):
    sensor = synth_sensor(64, 64, seed=13)
    raw = capture(synth_scene(64, 64, "texture", seed=14), sensor, seed=15)
    want = [develop(raw, cfg) for cfg in DEFAULT_PIPELINES]
    calls = []

    def counted(kind, demosaic):
        def run(plane):
            calls.append(kind)
            return demosaic(plane)

        return run

    for kind, demosaic in list(ispsim._DEMOSAICERS.items()):
        monkeypatch.setitem(ispsim._DEMOSAICERS, kind, counted(kind, demosaic))
    got = list(develop_each(raw, DEFAULT_PIPELINES))
    assert sorted(calls) == sorted(DEMOSAIC_KINDS)
    for cfg, a, b in zip(DEFAULT_PIPELINES, got, want):
        assert np.array_equal(a, b), cfg.id


def test_develop_crop_shrinks_to_even_dims():
    raw = np.full((64, 64), 0.5)
    cfg = PipelineConfig("crop", demosaic="bilinear", crop_offset=(4, 4))
    assert develop(raw, cfg).shape == (60, 60, 3)
    odd = PipelineConfig("crop3", demosaic="bilinear", crop_offset=(3, 5))
    assert develop(raw, odd).shape == (58, 60, 3)


def test_develop_validation():
    with pytest.raises(ShapeError):
        develop(np.zeros((63, 64)), DEFAULT_PIPELINES[0])
    with pytest.raises(ValueError):
        PipelineConfig("bad", demosaic="vng")
    with pytest.raises(ValueError):
        PipelineConfig("bad", white_balance=(0.0, 1.0))
    with pytest.raises(ValueError):
        PipelineConfig("bad", crop_offset=(-1, 0))
    # Built from Python, not through the JSON codec, which checks the length itself.
    for field, value in [("white_balance", (1.0,)), ("white_balance", (1.0, 1.0, 2.0)), ("crop_offset", (1, 2, 3))]:
        with pytest.raises(ValueError, match=rf"^{field} must be a pair, got {re.escape(repr(value))}$"):
            PipelineConfig("bad", **{field: value})
    for offset in ((63, 0), (0, 64), (100, 100)):  # a crop that leaves one column, or none, of a 64x64 sensor
        with pytest.raises(ValueError, match=r"^crop_offset must be at most \[62, 62\] on the 64x64 sensor"):
            develop(np.zeros((64, 64)), PipelineConfig("crop", crop_offset=offset))
        with pytest.raises(ValueError, match="crop_offset"):
            output_shape(PipelineConfig("crop", crop_offset=offset), (64, 64))
    assert output_shape(PipelineConfig("crop", crop_offset=(62, 1)), (64, 64)) == (62, 2)
    with pytest.raises(ValueError):
        ToneCurve("gamma", gamma=0.0)
    with pytest.raises(ValueError):
        ToneCurve("log")


@given(
    st.integers(8, 16),
    st.integers(8, 16),
    st.data(),
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.sampled_from(DEFAULT_PIPELINES),
)
def test_develop_rejects_non_finite_plane(h, w, data, bad, cfg):
    raw = np.full((2 * h, 2 * w), 0.5)
    raw[data.draw(st.integers(0, 2 * h - 1)), data.draw(st.integers(0, 2 * w - 1))] = bad
    with pytest.raises(DegenerateInputError):
        develop(raw, cfg)


def test_pipeline_config_json_roundtrip():
    for cfg in DEFAULT_PIPELINES:
        assert PipelineConfig.from_json(cfg.to_json()) == cfg


_denoisers = st.one_of(
    st.builds(DenoiserSpec, st.just("wavelet"), noise_variance=st.floats(1e-9, 1.0)),
    st.builds(DenoiserSpec, st.just("gaussian"), sigma=st.floats(1e-3, 10.0)),
)
_tones = st.one_of(
    st.builds(ToneCurve, st.just("gamma"), gamma=st.floats(0.1, 5.0)),
    st.builds(ToneCurve, st.just("scurve"), strength=st.floats(0.0, 1.0)),
)
_pipelines = st.builds(
    PipelineConfig,
    st.text("abcxyz_-.0123456789", min_size=3, max_size=8),
    demosaic=st.sampled_from(DEMOSAIC_KINDS),
    white_balance=st.tuples(st.floats(0.1, 4.0), st.floats(0.1, 4.0)),
    tone=_tones,
    denoise=st.none() | _denoisers,
    sharpen=st.none() | st.floats(-2.0, 2.0),
    crop_offset=st.tuples(st.integers(0, 8), st.integers(0, 8)),
)


@given(st.one_of(_denoisers, _tones, _pipelines))
def test_config_json_roundtrip_property(cfg):
    assert type(cfg).from_json(json.loads(json.dumps(cfg.to_json()))) == cfg


def _pipeline_fingerprint(raws, cfg, denoiser, indices):
    imgs = []
    res = []
    for i in indices:
        lum = develop(raws[i], cfg).mean(axis=2)  # equal-weight reduce is fine here
        imgs.append(lum)
        res.append(residual(lum, denoiser))
    return clean_fingerprint(estimate_fingerprint(imgs, res)).plane


def test_crop_offset_desync_restored_by_align():
    # A pipeline differing from its base only by a crop offset de-synchronizes
    # the fingerprint; alignment restores it to the same-config level.
    sensor = synth_sensor(192, 192, strength=0.02, seed=14)
    denoiser = DenoiserSpec()
    raws = [
        capture(synth_scene(192, 192, "flat", level=0.4 + 0.03 * (i % 5)), sensor, seed=100 + i)
        for i in range(16)
    ]
    base = PipelineConfig("base", demosaic="bilinear")
    cropped = PipelineConfig("cropped", demosaic="bilinear", crop_offset=(4, 4))
    fp_base_a = _pipeline_fingerprint(raws, base, denoiser, range(0, 16, 2))
    fp_base_b = _pipeline_fingerprint(raws, base, denoiser, range(1, 16, 2))
    fp_crop_b = _pipeline_fingerprint(raws, cropped, denoiser, range(1, 16, 2))

    h, w = fp_crop_b.shape
    baseline = ncc(fp_base_a, fp_base_b)
    unaligned = ncc(fp_base_a[:h, :w], fp_crop_b)
    shift, aligned = align(fp_base_a[:h, :w], fp_crop_b, max_shift=8)
    assert unaligned < 0.1
    assert (abs(shift[0]), abs(shift[1])) == (4, 4)
    assert aligned >= baseline - 0.05
