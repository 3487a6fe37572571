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
from prnukit.fingerprint import Fingerprint, load_fingerprint, residual, save_fingerprint
from prnukit.imaging import common_crop_planes, load_image, save_image, to_luminance
from prnukit.ispsim import PipelineConfig, SensorSpec, ToneCurve, capture, synth_scene, synth_sensor
from prnukit.localization import load_map_json
from prnukit.matching import PceScore, match_patch, match_windows, p_value
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


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "abc"])  # at or below 0, no sample would be kept; abc is no number
def test_estimate_non_finite_saturation_is_usage_error(tmp_path, capsys, value):
    save_image(np.full((64, 64), 0.5), tmp_path / "a.pgm")
    argv = ["estimate", "--images", str(tmp_path / "a.pgm"), "--out", str(tmp_path / "x.fp")]
    assert build_parser().parse_args([*argv, "--saturation-threshold", "none"]).saturation_threshold is None
    assert build_parser().parse_args([*argv, "--saturation-threshold", "0.9"]).saturation_threshold == 0.9
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--saturation-threshold", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--saturation-threshold" in err and f"{value!r}: expected a finite number > 0 or 'none'" in err, err
    assert not (tmp_path / "x.fp").exists()


@pytest.mark.parametrize("threshold", ["0.1", "0.5"])
def test_estimate_with_no_sample_under_the_threshold_exits_1(tmp_path, capsys, threshold):
    save_image(np.full((64, 64), 0.5), tmp_path / "a.pgm")
    argv = ["estimate", "--images", str(tmp_path / "a.pgm"), "--out", str(tmp_path / "x.fp")]
    assert main([*argv, "--saturation-threshold", threshold]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"saturation threshold {threshold} " in err, err
    assert not (tmp_path / "x.fp").exists()


def _never_loaded(*args, **kw):
    raise AssertionError("the images were loaded before the ids were checked")


@pytest.mark.parametrize("flag, value", [("--camera", "café"), ("--pipeline", "pipe\nline")])
def test_estimate_bad_header_id_is_usage_error_before_any_image_loads(tmp_path, capsys, monkeypatch, flag, value):
    monkeypatch.setattr(cli, "estimate_from_files", _never_loaded)
    save_image(np.full((64, 64), 0.5), tmp_path / "a.pgm")
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--images", str(tmp_path / "a.pgm"), "--out", str(tmp_path / "x.fp"), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and f"{value!r} must be ASCII without newlines" in err, err
    assert [p.name for p in tmp_path.iterdir()] == ["a.pgm"]


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
    with pytest.raises(SystemExit) as exc:  # the 11x11 exclusion block is fixed
        main([*argv, "--exclusion-radius", "5"])
    assert exc.value.code == 2
    assert "--exclusion-radius" in capsys.readouterr().err


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


def test_match_crops_an_image_larger_than_its_fingerprint(tmp_path, capsys):
    # Scored over the top-left 60x64 rectangle the two share, as the sweep scores them.
    rng = np.random.default_rng(38)
    sensor = rng.normal(0, 0.02, (72, 80))
    save_fingerprint(Fingerprint(sensor[:60, :64], "cam", "pipe", 5), tmp_path / "cam.fp")
    probe = np.clip(0.5 * (1.0 + sensor) + rng.normal(0, 0.002, sensor.shape), 0, 1)
    save_image(probe, tmp_path / "t.pgm", bit_depth=16)
    img = to_luminance(load_image(tmp_path / "t.pgm"))
    img, res, k = common_crop_planes([img, residual(img, DenoiserSpec()), load_fingerprint(tmp_path / "cam.fp").plane])
    argv = ["match", "--image", str(tmp_path / "t.pgm"), "--fingerprint", str(tmp_path / "cam.fp"), "--json"]
    for patch, expected in (
        (0, {(0, 0): match_patch(img, res, k)}),
        (32, dict(zip([(0, 0), (32, 0)], match_windows(img, res, k, 32, [(0, 0), (32, 0)])))),
    ):
        assert main([*argv, "--patch", str(patch)]) == 0
        (tmp_path / "records.jsonl").write_text(capsys.readouterr().out)
        records = read_score_records(tmp_path / "records.jsonl")
        assert {r.origin: PceScore(r.pce, r.peak_value, r.peak) for r in records} == expected
        assert all(r.p_value == p_value(r.pce) for r in records)
        assert {r.patch_size for r in records} == {patch}
        assert min(score.pce for score in expected.values()) > 50.0


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


def test_align_accepts_a_cropped_fingerprint(tmp_path, capsys):
    # fa[4:, 4:] is what a pipeline that crops by (4, 4) keeps of the sensor
    fa = np.random.default_rng(35).standard_normal((64, 64))
    save_fingerprint(Fingerprint(fa, "c", "p", 1), tmp_path / "a.fp")
    save_fingerprint(Fingerprint(fa[4:, 4:], "c", "crop", 1), tmp_path / "b.fp")
    rc = main(["align", "--a", str(tmp_path / "a.fp"), "--b", str(tmp_path / "b.fp")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "shift -4 -4, ncc 1.0"


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


def test_localize_makes_the_directories_of_both_maps(tmp_path, capsys):
    rng = np.random.default_rng(40)
    k = rng.normal(0, 0.02, (64, 64))
    save_fingerprint(Fingerprint(k, "c", "p", 1), tmp_path / "c.fp")
    save_image(np.clip(0.5 * (1.0 + k), 0, 1), tmp_path / "img.pgm", bit_depth=16)
    argv = ["localize", "--image", str(tmp_path / "img.pgm"), "--fingerprint", str(tmp_path / "c.fp"), "--window", "32"]
    argv += ["--stride", "32"]
    out_map, json_map = tmp_path / "a" / "m.pgm", tmp_path / "b" / "m.json"
    assert main([*argv, "--out-map", str(out_map), "--json-map", str(json_map)]) == 0
    assert load_image(out_map).shape == load_map_json(json_map).shape == (2, 2)


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


@pytest.mark.parametrize("name", ["map.txt", "map.jpg", "map"])
def test_localize_to_a_format_load_image_cannot_read_exits_1_writing_nothing(tmp_path, capsys, name):
    rng = np.random.default_rng(39)
    save_fingerprint(Fingerprint(rng.normal(0, 0.02, (64, 64)), "c", "p", 1), tmp_path / "c.fp")
    save_image(rng.random((64, 64)), tmp_path / "img.pgm", bit_depth=16)
    out = tmp_path / "out"
    argv = ["localize", "--image", str(tmp_path / "img.pgm"), "--fingerprint", str(tmp_path / "c.fp"), "--window", "32"]
    assert main([*argv, "--out-map", str(out / name), "--json-map", str(out / "map.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "unsupported image format" in err, err
    assert not out.exists()


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


@pytest.mark.parametrize("size", [8, 11])
@pytest.mark.parametrize("command,flag", [("localize", "--window"), ("match", "--patch")])
def test_window_within_the_exclusion_block_exits_1_before_the_residual(tmp_path, capsys, monkeypatch, size, command, flag):
    monkeypatch.setattr(localization, "residual", _never_denoised)
    monkeypatch.setattr(cli, "residual", _never_denoised)
    rng = np.random.default_rng(41)
    save_fingerprint(Fingerprint(rng.normal(0, 0.02, (64, 64)), "c", "p", 1), tmp_path / "c.fp")
    save_image(rng.random((64, 64)), tmp_path / "img.pgm", bit_depth=16)
    argv = [command, "--image", str(tmp_path / "img.pgm"), "--fingerprint", str(tmp_path / "c.fp"), flag, str(size)]
    if command == "localize":
        argv += ["--stride", "4", "--out-map", str(tmp_path / "maps" / "map.pgm")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: surface {size}x{size} not larger than the 11x11 exclusion zone\n"
    assert not (tmp_path / "maps").exists()


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


def test_evaluate_with_no_sample_under_the_threshold_names_it(tmp_path, capsys):
    cfg = json.loads(_tiny_experiment(tmp_path).read_text())
    path = tmp_path / "dark.json"
    path.write_text(json.dumps({**cfg, "saturation_threshold": 0.05}))
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "saturation threshold 0.05 " in err, err


def test_match_scores_a_dataset_image_as_the_sweep_does(tmp_path, capsys):
    # p_b crops 4 px off each leading edge: its 60x60 test images hold one 32x32
    # window of the rectangle they share with a 64x64 fingerprint, p_a's four.
    cfg = json.loads(_tiny_experiment(tmp_path).read_text())
    cfg["pipelines"][1].update(crop_offset=[4, 4])
    path = tmp_path / "crop.json"
    path.write_text(json.dumps(cfg))
    root = tmp_path / "run" / "dataset"
    assert main(["evaluate", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    sweep = read_score_records(tmp_path / "run" / "report" / "score_records.jsonl")
    fields = ("pce", "peak_value", "peak", "p_value", "origin", "patch_size")
    for cam in ("c0", "c1"):
        fp = tmp_path / f"{cam}.fp"  # as the sweep estimates it, from the estimation pipeline p_a
        assert main(["estimate", "--images", str(root / "images" / cam / "p_a" / "estimation_*.ppm"), "--out", str(fp)]) == 0
        for rel, n_windows in (("images/c0/p_a/test_000.ppm", 4), ("images/c1/p_b/test_001.ppm", 1)):
            capsys.readouterr()
            assert main(["match", "--image", str(root / rel), "--fingerprint", str(fp), "--patch", "32", "--json"]) == 0
            (tmp_path / "match.jsonl").write_text(capsys.readouterr().out)
            matched = read_score_records(tmp_path / "match.jsonl")
            expected = [r for r in sweep if r.image == rel and r.camera_fp == cam]
            assert len(matched) == len(expected) == n_windows
            assert [[getattr(r, f) for f in fields] for r in matched] == [[getattr(r, f) for f in fields] for r in expected]


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
    # ids name directories and go into ASCII fingerprint headers
    "camera id 'câm0' must be a non-empty printable ASCII name": lambda c: c.update(cameras=["câm0", "c1"]),
    "camera id 'c\\nm0' must be a non-empty printable ASCII name": lambda c: c.update(cameras=["c\nm0", "c1"]),
    "pipelines[0]: pipeline id 'pïpe' must be a non-empty printable ASCII name": lambda c: c["pipelines"][0].update(id="pïpe"),
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


# Geometry that no pipeline can run or score, on _tiny_experiment's 64x64 sensor.
_BAD_GEOMETRY = {
    # p_b's crop leaves 60x60, so align could search at most 29 px
    "max_shift must be in [0, 60/2)": lambda c: (c.update(max_shift=30), c["pipelines"][1].update(crop_offset=[4, 4])),
    "patch_sizes must be scorable windows of the estimation output, got [100]: window size 100 larger than image 64x64":
        lambda c: c.update(patch_sizes=[100]),
    # no larger than the 11x11 block the PCE leaves out around its peak
    "patch_sizes must be scorable windows of the estimation output, got [11]: "
    "surface 11x11 not larger than the 11x11 exclusion zone": lambda c: c.update(patch_sizes=[11]),
    "patch_sizes must be scorable windows of the estimation output, got [8]: "
    "surface 8x8 not larger than the 11x11 exclusion zone": lambda c: c.update(patch_sizes=[8]),
    "crop_offset must be at most [62, 62] on the 64x64 sensor, got [64, 0] in 'p_b'":
        lambda c: c["pipelines"][1].update(crop_offset=[64, 0]),
    "crop_offset must be at most [62, 62] on the 64x64 sensor, got [63, 0] in 'p_b'":
        lambda c: c["pipelines"][1].update(crop_offset=[63, 0]),
    # and values no run can use: numpy's seeding refuses a negative seed, and no sample lies under a threshold <= 0
    "seed must be >= 0, got -1": lambda c: c.update(seed=-1),
    "saturation_threshold must be > 0 or null, got 0.0": lambda c: c.update(saturation_threshold=0),
    "saturation_threshold must be > 0 or null, got -1.0": lambda c: c.update(saturation_threshold=-1),
}


@pytest.mark.parametrize("command", ["simulate", "evaluate"])
@pytest.mark.parametrize("named", list(_BAD_GEOMETRY))
def test_bad_geometry_exits_1_before_anything_is_written(tmp_path, capsys, command, named):
    cfg = json.loads(_tiny_experiment(tmp_path).read_text())
    _BAD_GEOMETRY[named](cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err
    assert not (tmp_path / "run").exists()


# an empty VALUE is refused too, not read as the default parameter
@pytest.mark.parametrize("spec", ["median", "median:3", "wavelet:abc", "gaussian:-1", "gaussian:", "wavelet:"])
def test_bad_denoiser_is_usage_error(tmp_path, capsys, spec):
    argv = ["match", "--image", str(tmp_path / "missing.pgm"), "--fingerprint", str(tmp_path / "missing.fp")]
    assert build_parser().parse_args(argv).denoiser == DenoiserSpec()
    parsed = build_parser().parse_args([*argv, "--denoiser", "gaussian:1.5"])
    assert parsed.denoiser == DenoiserSpec("gaussian", sigma=1.5)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--denoiser", spec])  # exits before the missing image is opened
    assert exc.value.code == 2
    err = capsys.readouterr().err
    kind = spec.partition(":")[0]
    assert "--denoiser" in err and DenoiserSpec.KIND_PARAM.get(kind, kind) in err, err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["match"])  # missing required flags
    assert exc.value.code == 2
