import hashlib
import json
import multiprocessing
import tracemalloc

import numpy as np
import pytest

from prnukit import _pool, cli, localization
from prnukit.cli import build_parser, main
from prnukit.denoise import DenoiserSpec
from prnukit.evalharness import ExperimentConfig, read_score_records, write_score_records
from prnukit.fingerprint import Fingerprint, load_fingerprint, save_fingerprint
from prnukit.imaging import save_image
from prnukit.ispsim import PipelineConfig, SensorSpec, ToneCurve, capture, synth_scene, synth_sensor
from prnukit.localization import load_map_json
from test_evalharness import _pin_cores


@pytest.fixture()
def flat_captures(tmp_path):
    sensor = synth_sensor(64, 64, strength=0.02, seed=30)
    scene = synth_scene(64, 64, "flat", level=0.5)
    paths = []
    for i in range(60):
        raw = capture(scene, sensor, seed=500 + i)
        path = tmp_path / f"img_{i:03d}.pgm"
        save_image(raw, path, bit_depth=16)
        paths.append(path)
    return sensor, paths


def test_estimate_sixty_images(tmp_path, flat_captures, capsys, monkeypatch):
    _, paths = flat_captures
    fp_bytes = {}
    for cores in (1, 2):
        forked = _pin_cores(monkeypatch, cores)
        out = tmp_path / f"cam{cores}.fp"
        rc = main(
            [
                "estimate",
                "--images",
                str(tmp_path / "img_*.pgm"),
                "--out",
                str(out),
                "--camera",
                "cam0",
            ]
        )
        assert rc == 0
        assert len(forked) == (0 if cores == 1 else 2)
        fp = load_fingerprint(out)
        assert fp.n_sources == 60
        assert fp.plane.shape == (64, 64)
        assert "60 images" in capsys.readouterr().out
        fp_bytes[cores] = out.read_bytes()
    assert fp_bytes[1] == fp_bytes[2]


def test_estimate_single_image(tmp_path, flat_captures):
    _, paths = flat_captures
    out = tmp_path / "one.fp"
    rc = main(["estimate", "--images", str(paths[0]), "--out", str(out)])
    assert rc == 0
    assert load_fingerprint(out).n_sources == 1


def test_estimate_counts_each_image_once(tmp_path, flat_captures, capsys):
    _, paths = flat_captures
    once, twice = tmp_path / "once.fp", tmp_path / "twice.fp"
    pattern = str(tmp_path / "img_00?.pgm")
    assert main(["estimate", "--images", pattern, "--out", str(once)]) == 0
    assert main(["estimate", "--images", str(paths[3]), pattern, str(tmp_path / "." / "img_001.pgm"),
                 "--out", str(twice)]) == 0
    assert capsys.readouterr().out.count("from 10 images") == 2
    assert once.read_bytes() == twice.read_bytes()


def test_estimate_memory_does_not_grow_with_image_count(tmp_path, monkeypatch):
    sensor = synth_sensor(128, 128, strength=0.02, seed=32)
    scene = synth_scene(128, 128, "flat", level=0.5)
    for i in range(40):
        save_image(capture(scene, sensor, seed=700 + i), tmp_path / f"img_{i:03d}.pgm")

    def peak(pattern):
        args = ["estimate", "--images", str(tmp_path / pattern), "--out", str(tmp_path / "x.fp")]
        tracemalloc.start()
        try:
            assert main(args) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("img_000.pgm")  # warm-up: lazy imports and caches
    for cores in (1, 2):
        _pin_cores(monkeypatch, cores)
        ten, forty = peak("img_00?.pgm"), peak("img_0*.pgm")
        assert forty <= 1.1 * ten, (cores, ten, forty)


def test_estimate_zero_matches_is_usage_error(tmp_path):
    rc = main(["estimate", "--images", str(tmp_path / "nope_*.pgm"), "--out", str(tmp_path / "x.fp")])
    assert rc == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_estimate_non_finite_saturation_is_usage_error(tmp_path, capsys, value):
    save_image(np.full((64, 64), 0.5), tmp_path / "a.pgm")
    argv = ["estimate", "--images", str(tmp_path / "a.pgm"), "--out", str(tmp_path / "x.fp")]
    assert build_parser().parse_args([*argv, "--saturation-threshold", "none"]).saturation_threshold is None
    assert build_parser().parse_args([*argv, "--saturation-threshold", "0.9"]).saturation_threshold == 0.9
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--saturation-threshold", value])
    assert exc.value.code == 2
    assert "--saturation-threshold" in capsys.readouterr().err
    assert not (tmp_path / "x.fp").exists()


def test_estimate_mixed_dims_is_domain_error(tmp_path, capsys):
    save_image(np.full((64, 64), 0.5), tmp_path / "a.pgm")
    save_image(np.full((32, 64), 0.5), tmp_path / "b.pgm")
    rc = main(["estimate", "--images", str(tmp_path / "?.pgm"), "--out", str(tmp_path / "x.fp")])
    assert rc == 1
    assert "shape" in capsys.readouterr().err


def test_estimate_truncated_file_reports_the_same_error_at_any_core_count(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(38)
    paths = [tmp_path / f"img_{i}.ppm" for i in range(6)]
    for path in paths:
        save_image(rng.random((64, 64, 3)), path, bit_depth=16)
    paths[3].write_bytes(paths[3].read_bytes()[:-7])
    argv = ["estimate", "--images", str(tmp_path / "img_*.ppm"), "--out", str(tmp_path / "x.fp")]
    errors = {}
    for cores in (1, 2):
        _pin_cores(monkeypatch, cores)
        assert main(argv) == 1
        errors[cores] = capsys.readouterr().err
        assert multiprocessing.active_children() == []
    assert errors[1] == errors[2]
    assert errors[2].startswith("error: ") and errors[2].count("\n") == 1, errors[2]
    assert str(paths[3]) in errors[2] and "truncated pixel data" in errors[2]
    assert not (tmp_path / "x.fp").exists()


def test_match_reports_pce(tmp_path, capsys):
    rng = np.random.default_rng(31)
    k = rng.normal(0, 0.02, (128, 128))
    save_fingerprint(Fingerprint(k, "cam", "pipe", 10), tmp_path / "cam.fp")
    img = np.clip(0.5 * (1.0 + k) + rng.normal(0, 0.002, k.shape), 0, 1)
    save_image(img, tmp_path / "test.pgm", bit_depth=16)

    rc = main(["match", "--image", str(tmp_path / "test.pgm"), "--fingerprint", str(tmp_path / "cam.fp")])
    out = capsys.readouterr().out
    assert rc == 0
    pce_value = float(out.split("pce ")[1].split()[0])
    assert pce_value > 50.0

    # mismatched content still exits 0
    other = rng.random((128, 128))
    save_image(other, tmp_path / "other.pgm", bit_depth=16)
    assert main(["match", "--image", str(tmp_path / "other.pgm"), "--fingerprint", str(tmp_path / "cam.fp")]) == 0

    assert main(["match", "--image", str(tmp_path / "missing.pgm"), "--fingerprint", str(tmp_path / "cam.fp")]) == 1
    capsys.readouterr()
    argv = ["match", "--image", str(tmp_path / "test.pgm"), "--fingerprint", str(tmp_path / "cam.fp")]
    assert main([*argv, "--exclusion-radius", "-1"]) == 1
    assert "exclusion_radius" in capsys.readouterr().err


def test_match_json_roundtrips_through_reader(tmp_path, capsys):
    rng = np.random.default_rng(32)
    k = rng.normal(0, 0.02, (64, 64))
    save_fingerprint(Fingerprint(k, "cam", "pipe", 5), tmp_path / "cam.fp")
    img = np.clip(0.5 * (1.0 + k), 0, 1)
    save_image(img, tmp_path / "t.pgm", bit_depth=16)
    rc = main(
        [
            "match",
            "--image",
            str(tmp_path / "t.pgm"),
            "--fingerprint",
            str(tmp_path / "cam.fp"),
            "--patch",
            "32",
            "--json",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    path = tmp_path / "records.jsonl"
    path.write_text(out)
    records = read_score_records(path)
    assert len(records) == 4
    assert {r.origin for r in records} == {(0, 0), (32, 0), (0, 32), (32, 32)}
    assert all(r.camera_fp == "cam" and r.pipeline_est == "pipe" for r in records)
    # the printed lines are the lines of a records file
    write_score_records(records, tmp_path / "written.jsonl")
    assert (tmp_path / "written.jsonl").read_text() == out


def test_align_identical_files(tmp_path, capsys):
    rng = np.random.default_rng(33)
    fp = Fingerprint(rng.standard_normal((64, 64)), "c", "p", 1)
    save_fingerprint(fp, tmp_path / "a.fp")
    rc = main(["align", "--a", str(tmp_path / "a.fp"), "--b", str(tmp_path / "a.fp")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "shift 0 0, ncc 1.0"


def test_align_recovers_shift(tmp_path, capsys):
    rng = np.random.default_rng(34)
    plane = rng.standard_normal((64, 64))
    shifted = np.roll(np.roll(plane, 3, axis=0), -2, axis=1)
    save_fingerprint(Fingerprint(plane, "c", "p", 1), tmp_path / "a.fp")
    save_fingerprint(Fingerprint(shifted, "c", "p", 1), tmp_path / "b.fp")
    rc = main(["align", "--a", str(tmp_path / "a.fp"), "--b", str(tmp_path / "b.fp"), "--max-shift", "8"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("shift -2 3,")


def test_localize_writes_maps(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(35)
    k = rng.normal(0, 0.02, (128, 128))
    save_fingerprint(Fingerprint(k, "c", "p", 1), tmp_path / "c.fp")
    img = np.clip(0.5 * (1.0 + k) + rng.normal(0, 0.002, k.shape), 0, 1)
    save_image(img, tmp_path / "img.pgm", bit_depth=16)
    maps = {}
    for cores in (1, 2):
        forked = _pin_cores(monkeypatch, cores)
        out = tmp_path / f"cores{cores}"
        out.mkdir()
        rc = main(
            [
                "localize",
                "--image",
                str(tmp_path / "img.pgm"),
                "--fingerprint",
                str(tmp_path / "c.fp"),
                "--window",
                "64",
                "--stride",
                "32",
                "--out-map",
                str(out / "map.pgm"),
                "--json-map",
                str(out / "map.json"),
            ]
        )
        assert rc == 0
        # the residual stays in-process; the windows go to one pool of two workers
        assert len(forked) == (0 if cores == 1 else 2)
        hm = load_map_json(out / "map.json")
        assert hm.shape == (3, 3)
        assert np.all((hm.grid >= 0) & (hm.grid <= 1))
        maps[cores] = ((out / "map.pgm").read_bytes(), (out / "map.json").read_bytes())
    assert maps[1] == maps[2]


def _never_denoised(*args, **kw):
    raise AssertionError("the residual was computed before the window was checked")


def test_localize_bad_window_exits_1_naming_the_window(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(localization, "residual", _never_denoised)
    rng = np.random.default_rng(36)
    save_fingerprint(Fingerprint(rng.normal(0, 0.02, (64, 64)), "c", "p", 1), tmp_path / "c.fp")
    save_image(rng.random((64, 64)), tmp_path / "img.pgm", bit_depth=16)
    argv = ["localize", "--image", str(tmp_path / "img.pgm"), "--fingerprint", str(tmp_path / "c.fp")]
    rc = main(argv + ["--window", "0", "--out-map", str(tmp_path / "map.pgm")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "window" in err, err
    assert not (tmp_path / "map.pgm").exists()


def test_match_bad_patch_exits_1_before_the_residual(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "residual", _never_denoised)
    rng = np.random.default_rng(37)
    save_fingerprint(Fingerprint(rng.normal(0, 0.02, (64, 64)), "c", "p", 1), tmp_path / "c.fp")
    save_image(rng.random((64, 64)), tmp_path / "img.pgm", bit_depth=16)
    argv = ["match", "--image", str(tmp_path / "img.pgm"), "--fingerprint", str(tmp_path / "c.fp")]
    assert main(argv + ["--patch", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: window size must be >= 1, got -3\n"


def _tiny_experiment(tmp_path):
    pipes = (
        PipelineConfig("p_a", demosaic="bilinear"),
        PipelineConfig("p_b", demosaic="nearest", tone=ToneCurve("scurve", strength=0.8)),
    )
    cfg = ExperimentConfig(
        seed=9,
        sensor=SensorSpec(64, 64),
        cameras=("c0", "c1"),
        pipelines=pipes,
        n_estimation=3,
        n_test=2,
        patch_sizes=(32,),
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_json()))
    return path


def _tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def test_simulate_deterministic(tmp_path, capsys):
    cfg_path = _tiny_experiment(tmp_path)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "d1")]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "d2")]) == 0
    assert _tree_digest(tmp_path / "d1") == _tree_digest(tmp_path / "d2")


def test_evaluate_emits_reports(tmp_path, capsys):
    cfg_path = _tiny_experiment(tmp_path)
    rc = main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "median_pce" in out
    report_dir = tmp_path / "run" / "report"
    for name in (
        "correlation.csv",
        "pce_summary.csv",
        "roc_points.csv",
        "summary.json",
        "run_metadata.json",
        "score_records.jsonl",
        "alignment_shifts.csv",
    ):
        assert (report_dir / name).exists(), name


def test_evaluate_worker_error_exits_1_without_leftover_children(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(_pool, "_usable_cores", lambda: 2)
    cfg_path = _tiny_experiment(tmp_path)
    blocker = tmp_path / "run" / "dataset" / "images" / "c1"
    blocker.parent.mkdir(parents=True)
    blocker.write_text("")  # camera c1's worker cannot make its image directory
    assert main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(blocker) in err, err
    assert multiprocessing.active_children() == []


# Malformed configs by the key their error must name.
_MALFORMED = {
    "pipelines[1].demosiac": lambda c: c["pipelines"][1].update(demosiac="nearest"),
    "pipelines[0].tone.gama": lambda c: c["pipelines"][0]["tone"].update(gama=2.0),
    "denoiser.noise_varaince": lambda c: c["denoiser"].update(noise_varaince=1e-4),
    "sensor": lambda c: c.update(sensor=5),
    "cameras": lambda c: c.update(cameras="cam0"),
    "pipelines": lambda c: c.update(pipelines="defualt"),
    "pipelines[0].id": lambda c: c["pipelines"][0].pop("id"),
    "sensor.width": lambda c: c["sensor"].update(width="abc"),
    # sensor values fail when the config loads, before any output exists
    "sensor: width must be even (full Bayer quads) and >= 64, got 65": lambda c: c["sensor"].update(width=65),
    "sensor: width must be even (full Bayer quads) and >= 64, got 62": lambda c: c["sensor"].update(width=62),
    "sensor: strength must be in (0, 0.1], got 0.0": lambda c: c["sensor"].update(strength=0),
    "sensor: strength must be in (0, 0.1], got 0.2": lambda c: c["sensor"].update(strength=0.2),
    "sensor: read_noise_std must be finite and >= 0, got -0.5": lambda c: c["sensor"].update(read_noise_std=-0.5),
    "sensor: shot_noise_scale must be finite and >= 0, got -1.0": lambda c: c["sensor"].update(shot_noise_scale=-1),
    # non-finite numbers fail when the config loads, as JSON strings or as the NaN literal
    "pipelines[0].white_balance[0]: expected a finite number, got 'nan'":
        lambda c: c["pipelines"][0].update(white_balance=["nan", 1]),
    "pipelines[0].white_balance[0]: expected a finite number, got 'inf'":
        lambda c: c["pipelines"][0].update(white_balance=["inf", 1]),
    "pipelines[0].white_balance[0]: expected a finite number, got nan":
        lambda c: c["pipelines"][0].update(white_balance=[float("nan"), 1]),
    "pipelines[0].tone.gamma: expected a finite number, got 'nan'": lambda c: c["pipelines"][0]["tone"].update(gamma="nan"),
    "pipelines[0].sharpen: expected a finite number, got 'nan'": lambda c: c["pipelines"][0].update(sharpen="nan"),
    "saturation_threshold: expected a finite number, got 'nan'": lambda c: c.update(saturation_threshold="nan"),
    "denoiser.noise_variance: expected a finite number, got 'nan'": lambda c: c["denoiser"].update(noise_variance="nan"),
}


@pytest.mark.parametrize("named", list(_MALFORMED))
def test_evaluate_rejects_malformed_config(tmp_path, capsys, named):
    cfg = json.loads(_tiny_experiment(tmp_path).read_text())
    _MALFORMED[named](cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("spec", ["median", "median:3", "wavelet:abc", "gaussian:-1"])
def test_bad_denoiser_is_usage_error(tmp_path, capsys, spec):
    argv = ["match", "--image", str(tmp_path / "missing.pgm"), "--fingerprint", str(tmp_path / "missing.fp")]
    assert build_parser().parse_args(argv).denoiser == DenoiserSpec()
    parsed = build_parser().parse_args([*argv, "--denoiser", "gaussian:1.5"])
    assert parsed.denoiser == DenoiserSpec("gaussian", sigma=1.5)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--denoiser", spec])  # exits before the missing image is opened
    assert exc.value.code == 2
    assert "--denoiser" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["match"])  # missing required flags
    assert exc.value.code == 2
