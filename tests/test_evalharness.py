import csv
import ctypes
import json
import multiprocessing
import os
import re
import resource
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prnukit import _pool, cli, evalharness
from prnukit.denoise import DenoiserSpec, wavelet_denoise
from prnukit.errors import FormatError, ShapeError
from prnukit.fingerprint import SATURATION_THRESHOLD, Fingerprint, load_fingerprint
from prnukit.imaging import common_crop_planes, load_image, save_image, to_luminance
from prnukit.evalharness import (
    CorrelationMatrix,
    DatasetManifest,
    ExperimentConfig,
    build_dataset,
    correlation_matrix,
    estimate_fingerprint_sets,
    pce_sweep,
    read_score_records,
    report,
    roc,
    run_evaluation,
    summarize,
    tpr_at_fpr,
    write_score_records,
)
from prnukit.ispsim import PipelineConfig, SensorSpec, ToneCurve

_TINY_PIPES = (
    PipelineConfig("p_a", demosaic="bilinear"),
    PipelineConfig("p_b", demosaic="nearest", tone=ToneCurve("scurve", strength=0.8)),
)


def _tiny_config(seed=5, **kw):
    base = dict(
        seed=seed,
        sensor=SensorSpec(64, 64),
        cameras=("camX",),
        pipelines=_TINY_PIPES,
        n_estimation=2,
        n_test=2,
        patch_sizes=(32,),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_build_dataset_counts_and_layout(tmp_path):
    manifest = build_dataset(_tiny_config(), tmp_path / "ds")
    files = sorted((tmp_path / "ds" / "images").rglob("*.ppm"))
    assert len(files) == 1 * 2 * (2 + 2)
    for pid in ("p_a", "p_b"):
        assert len(manifest.image_paths("camX", pid, "estimation")) == 2
        assert len(manifest.image_paths("camX", pid, "test")) == 2
        for p in manifest.image_paths("camX", pid, "estimation"):
            assert p.exists()
    gt = load_fingerprint(manifest.groundtruth_path("camX"))
    assert gt.pipeline_id == "groundtruth"
    assert gt.camera_id == "camX"
    assert gt.plane.shape == (64, 64)


def test_build_dataset_deterministic(tmp_path):
    m1 = build_dataset(_tiny_config(), tmp_path / "a")
    m2 = build_dataset(_tiny_config(), tmp_path / "b")
    assert m1.sha256() == m2.sha256()
    f1 = sorted((tmp_path / "a").rglob("*.ppm"))
    f2 = sorted((tmp_path / "b").rglob("*.ppm"))
    for a, b in zip(f1, f2):
        assert a.read_bytes() == b.read_bytes()
    m3 = build_dataset(_tiny_config(seed=6), tmp_path / "c")
    assert m3.sha256() != m1.sha256()


def test_estimation_captures_shared_across_pipelines(tmp_path):
    manifest = build_dataset(_tiny_config(), tmp_path / "ds")
    ids = manifest.capture_ids("camX", "estimation")
    assert len(ids) == 2
    # the same capture ids feed every pipeline's estimation split
    assert manifest.data["capture_ids"]["camX"]["estimation"] == ids
    a = manifest.image_paths("camX", "p_a", "estimation")
    b = manifest.image_paths("camX", "p_b", "estimation")
    assert [p.name for p in a] == [p.name for p in b]


def test_manifest_reload(tmp_path):
    manifest = build_dataset(_tiny_config(), tmp_path / "ds")
    again = DatasetManifest.load(tmp_path / "ds")
    assert again.sha256() == manifest.sha256()
    assert again.pipeline_ids == ["p_a", "p_b"]


def test_correlation_matrix_contract(ci_manifest, ci_sets, ci_config):
    cam = ci_manifest.cameras[0]
    fps = [ci_sets[(cam, pid)][0] for pid in ci_manifest.pipeline_ids]
    matrix = correlation_matrix(fps, ci_config.max_shift)
    n = len(fps)
    assert matrix.ids == ci_manifest.pipeline_ids
    assert np.array_equal(np.diag(matrix.ncc), np.ones(n))
    assert np.abs(matrix.ncc - matrix.ncc.T).max() < 1e-9
    assert np.array_equal(matrix.shifts, -matrix.shifts.transpose(1, 0, 2))
    crop_idx = ci_manifest.pipeline_ids.index("nn_scurve_crop")
    for j in range(n):
        if j != crop_idx:
            assert tuple(np.abs(matrix.shifts[crop_idx, j])) == (4, 4)


def test_correlation_matrix_same_config_exceeds_cross(ci_manifest, ci_sets, ci_config):
    # split-half entries against full cross-config entries, all aligned
    cam = ci_manifest.cameras[0]
    pids = ci_manifest.pipeline_ids
    planes = common_crop_planes([half.plane for pid in pids for half in ci_sets[(cam, pid)][1:]])
    fps = [Fingerprint(p, cam, f"{pids[i // 2]}:{'ab'[i % 2]}", 1) for i, p in enumerate(planes)]
    matrix = correlation_matrix(fps, ci_config.max_shift)
    n = len(pids)
    same = [matrix.ncc[2 * i, 2 * i + 1] for i in range(n)]
    cross = [
        matrix.ncc[2 * i + a, 2 * j + b]
        for i in range(n)
        for j in range(n)
        if i != j
        for a in (0, 1)
        for b in (0, 1)
    ]
    assert min(same) > max(cross)


def test_correlation_matrix_validation():
    with pytest.raises(ValueError):
        correlation_matrix([Fingerprint(np.zeros((8, 8)))])
    # fingerprints of different shapes are all cropped to the one rectangle they share
    rng = np.random.default_rng(9)
    planes = [rng.standard_normal(shape) for shape in ((40, 40), (36, 40), (40, 38))]
    got = correlation_matrix([Fingerprint(p, "c", f"p{i}") for i, p in enumerate(planes)], 4)
    want = correlation_matrix(
        [Fingerprint(p, "c", f"p{i}") for i, p in enumerate(common_crop_planes(planes))], 4
    )
    assert got.ids == want.ids == ["p0", "p1", "p2"]
    assert np.array_equal(got.ncc, want.ncc)
    assert np.array_equal(got.shifts, want.shifts)


def test_pce_sweep_record_count(tmp_path):
    cfg = _tiny_config()
    manifest = build_dataset(cfg, tmp_path / "ds")
    fps = estimate_fingerprint_sets(manifest, [("camX", "p_a")], cfg.denoiser)
    records = pce_sweep(manifest, fps, "p_a", (32, 16), cfg.denoiser)
    for pid in ("p_a", "p_b"):
        for size in (32, 16):
            count = sum(
                1 for r in records if r.pipeline_test == pid and r.patch_size == size
            )
            assert count == cfg.n_test * (64 // size) ** 2
    assert all(r.label == "positive" for r in records)  # single camera
    assert all(r.pipeline_est == "p_a" for r in records)


def test_score_records_roundtrip(tmp_path, patch_records):
    path = tmp_path / "records.jsonl"
    subset = patch_records[:50]
    write_score_records(subset, path)
    back = read_score_records(path)
    assert back == list(subset)
    good = json.loads(path.read_text().splitlines()[0])
    missing = {key: value for key, value in good.items() if key != "pce"}
    for bad in ("{not json", json.dumps({**good, "extra": 1}), json.dumps(missing), "[]"):
        path.write_text(json.dumps(good) + "\n" + bad + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: "):
            read_score_records(path)


def test_roc_separable():
    curve = roc([10.0, 20.0], [1.0, 2.0])
    assert curve.auc == 1.0
    assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
    assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0


def test_roc_identical_distributions():
    scores = [1.0, 2.0, 2.0, 5.0]
    assert roc(scores, scores).auc == pytest.approx(0.5, abs=1e-15)


def test_roc_validation():
    with pytest.raises(ValueError):
        roc([], [1.0])
    with pytest.raises(ValueError):
        roc([1.0], [])


def _mann_whitney(pos, neg):
    pos = np.asarray(pos)[:, None]
    neg = np.asarray(neg)[None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return wins / (pos.size * neg.size)


@settings(max_examples=100)
@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=40),
    st.lists(st.integers(0, 30), min_size=1, max_size=40),
)
def test_roc_auc_matches_mann_whitney(pos, neg):
    pos = [float(x) for x in pos]
    neg = [float(x) for x in neg]
    assert roc(pos, neg).auc == pytest.approx(_mann_whitney(pos, neg), abs=1e-9)


@settings(max_examples=100)
@given(st.integers(0, 2**31))
def test_roc_monotone(seed):
    rng = np.random.default_rng(seed)
    curve = roc(rng.normal(1, 1, 30), rng.normal(0, 1, 30))
    assert np.all(np.diff(curve.fpr) >= 0)
    assert np.all(np.diff(curve.tpr) >= 0)
    assert 0.0 <= curve.auc <= 1.0


def test_tpr_at_fpr_conventions():
    curve = roc([3.0, 4.0], [0.0, 1.0])
    assert tpr_at_fpr(curve, 0.005) == 1.0
    # hand-built staircase: fpr jumps 0 -> 0.5; target below first nonzero step
    curve2 = roc([2.0, 0.5], [1.0, 1.0])
    assert tpr_at_fpr(curve2, 0.25) == 0.5  # TPR at the FPR=0 point
    with pytest.raises(ValueError):
        tpr_at_fpr(curve, 0.0)
    with pytest.raises(ValueError):
        tpr_at_fpr(curve, 1.0)


def test_summary_and_report(tmp_path, patch_manifest, patch_records, patch_config, patch_sets):
    summary = summarize(patch_records, patch_config.estimation_pipeline)
    cam = patch_manifest.cameras[0]
    fps = [patch_sets[(cam, pid)] for pid in patch_manifest.pipeline_ids]
    matrix = correlation_matrix(fps, patch_config.max_shift)
    out = tmp_path / "report"
    report(out, patch_manifest, matrix, patch_records, summary, patch_config)

    with open(out / "correlation.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [""] + patch_manifest.pipeline_ids
    assert [r[0] for r in rows[1:]] == patch_manifest.pipeline_ids
    assert [[float(v) for v in r[1:]] for r in rows[1:]] == matrix.ncc.tolist()

    loaded_summary = json.loads((out / "summary.json").read_text())
    assert loaded_summary["estimation_pipeline"] == patch_config.estimation_pipeline
    with open(out / "pce_summary.csv") as fh:
        entries = list(csv.DictReader(fh))
    assert len(entries) == len(loaded_summary["per_pipeline"])
    # recompute-oracle: the summary CSV carries the values of summary.json, and
    # both equal a fresh computation from the raw records file
    raw = read_score_records(out / "score_records.jsonl")
    for e, want in zip(entries, loaded_summary["per_pipeline"]):
        scores = [
            r.pce
            for r in raw
            if r.label == "positive"
            and r.pipeline_test == e["pipeline_test"]
            and r.patch_size == int(e["patch_size"])
        ]
        fresh = {"median": np.median(scores), "q25": np.percentile(scores, 25), "q75": np.percentile(scores, 75)}
        for key, value in fresh.items():
            assert float(e[key]) == want[key] == value, (e, key)
        assert int(e["n"]) == want["n"] == len(scores)

    # the ROC points are roc() of each group's records: same-pipeline or cross
    # positives, against the negatives of their patch size
    est = patch_config.estimation_pipeline
    want_rows = []
    for size in sorted({r.patch_size for r in raw}):
        neg = [r.pce for r in raw if r.label == "negative" and r.patch_size == size]
        for group in ("same", "cross"):
            pos = [
                r.pce
                for r in raw
                if r.label == "positive" and r.patch_size == size and (r.pipeline_test == est) == (group == "same")
            ]
            if pos and neg:
                curve = roc(pos, neg)
                want_rows += [[group, size, *point] for point in zip(curve.thresholds, curve.fpr, curve.tpr)]
    with open(out / "roc_points.csv") as fh:
        points = list(csv.DictReader(fh))
    got_rows = [
        [p["group"], int(p["patch_size"]), float(p["threshold"]), float(p["fpr"]), float(p["tpr"])] for p in points
    ]
    assert want_rows and got_rows == want_rows

    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["manifest_sha256"] == patch_manifest.sha256()
    assert meta["seed"] == patch_manifest.seed
    assert meta["config"] == patch_config.to_json() and "saturation_threshold" not in meta["config"]
    assert (out / "alignment_shifts.csv").exists()


def test_report_rerun_byte_identical(tmp_path, patch_manifest, patch_records, patch_config):
    summary = summarize(patch_records, patch_config.estimation_pipeline)
    matrix = CorrelationMatrix(["a", "b"], np.array([[1.0, 0.25], [0.25, 1.0]]), np.zeros((2, 2, 2), dtype=np.int64))
    report(tmp_path / "r1", patch_manifest, matrix, patch_records, summary, patch_config)
    report(tmp_path / "r2", patch_manifest, matrix, patch_records, summary, patch_config)
    names = ("correlation.csv", "alignment_shifts.csv", "pce_summary.csv", "roc_points.csv",
             "summary.json", "run_metadata.json", "score_records.jsonl")
    for name in names:
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def _pin_cores(monkeypatch, n):
    """Run the package on ``n`` usable cores; returns the worker processes it forks."""
    forked = []
    fork = multiprocessing.get_context("fork")

    class CountingProcess(fork.Process):
        def start(self):
            forked.append(self)
            super().start()

    monkeypatch.setattr(_pool, "_usable_cores", lambda: n)
    monkeypatch.setattr(fork, "Process", CountingProcess)
    return forked


def _file_tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_parallel_run_is_byte_identical_to_serial(tmp_path, monkeypatch):
    cfg = _tiny_config(cameras=("camX", "camY"))
    runs = {}
    for cores in (1, 2):
        forked = _pin_cores(monkeypatch, cores)
        run_evaluation(cfg, tmp_path / f"cores{cores}")
        # build, estimation and sweep each fork a pool of two only when parallel
        assert len(forked) == (0 if cores == 1 else 6)
        manifest = DatasetManifest.load(tmp_path / f"cores{cores}" / "dataset")
        runs[cores] = (manifest.sha256(), _file_tree(tmp_path / f"cores{cores}"))
    assert runs[1][0] == runs[2][0]
    assert runs[1][1].keys() == runs[2][1].keys()
    for rel, data in runs[1][1].items():
        assert runs[2][1][rel] == data, rel


def test_evaluation_estimates_only_the_fingerprints_it_reads(tmp_path, monkeypatch):
    asked = []
    estimate = evalharness.estimate_fingerprint_sets

    def recording(manifest, keys, *args, **kwargs):
        asked.extend(keys)
        return estimate(manifest, keys, *args, **kwargs)

    monkeypatch.setattr(evalharness, "estimate_fingerprint_sets", recording)
    _pin_cores(monkeypatch, 1)
    run_evaluation(_tiny_config(cameras=("camX", "camY")), tmp_path / "run")
    # the first camera under every pipeline for the matrix, the others under
    # the estimation pipeline for the sweep
    assert asked == [("camX", "p_a"), ("camX", "p_b"), ("camY", "p_a")]


def _denoise_faults(seed):
    """Minor page faults of this process over 10 warm 256x256 wavelet_denoise calls."""
    plane = np.random.default_rng(seed).random((256, 256))
    for _ in range(3):
        wavelet_denoise(plane)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        wavelet_denoise(plane)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def _libc_has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
def test_workers_keep_their_heap(monkeypatch):
    # Under glibc's dynamic thresholds each warm call re-faults about 1,250 pages.
    _pin_cores(monkeypatch, 2)
    faults = list(_pool.ordered_map(_denoise_faults, [0, 1]))
    assert all(n < 1000 for n in faults), faults


def test_heap_setting_runs_only_in_forked_workers(tmp_path, monkeypatch):
    def record():  # a file per calling process, since workers share no memory
        (tmp_path / str(os.getpid())).touch()

    monkeypatch.setattr(_pool, "_keep_worker_heap", record)
    for cores in (1, 2):
        _pin_cores(monkeypatch, cores)
        assert list(_pool.ordered_map(abs, [-1, -2, -3])) == [1, 2, 3]
        if cores == 1:
            assert list(tmp_path.iterdir()) == []
    callers = {int(p.name) for p in tmp_path.iterdir()}
    assert callers and os.getpid() not in callers


def _exit_on_three(n):
    if n == 3:
        os._exit(7)  # dies without reporting an error
    return n


def test_pool_stops_its_workers_on_early_close_and_on_a_dead_worker(monkeypatch):
    _pin_cores(monkeypatch, 2)
    results = _pool.ordered_map(_exit_on_three, [0, 1, 2, 4, 5, 6])
    assert next(results) == 0
    results.close()
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError, match="exited with code 7"):
        list(_pool.ordered_map(_exit_on_three, [0, 1, 2, 3, 4, 5]))
    assert multiprocessing.active_children() == []


def _libc_without_mallopt(name):
    return types.SimpleNamespace()


def _no_libc(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("libc", [_libc_without_mallopt, _no_libc], ids=["no-mallopt", "no-libc"])
def test_parallel_run_without_mallopt_matches_serial(tmp_path, monkeypatch, libc):
    monkeypatch.setattr(ctypes, "CDLL", libc)
    assert _pool._keep_worker_heap() is None
    cfg = _tiny_config(cameras=("camX", "camY"))
    trees = {}
    for cores in (1, 2):
        _pin_cores(monkeypatch, cores)
        run_evaluation(cfg, tmp_path / f"cores{cores}")
        trees[cores] = _file_tree(tmp_path / f"cores{cores}")
    assert trees[1] == trees[2]


def test_worker_error_matches_serial_error(tmp_path, monkeypatch):
    cfg = _tiny_config(cameras=("camX", "camY"))
    manifest = build_dataset(cfg, tmp_path / "ds")
    # two bad files in two units: the first in submission order must win
    for cam, pid in (("camX", "p_b"), ("camY", "p_a")):
        path = manifest.image_paths(cam, pid, "estimation")[1]
        path.write_bytes(path.read_bytes()[:-7])
    keys = [("camX", "p_a"), ("camX", "p_b"), ("camY", "p_a")]
    errors = {}
    for cores in (1, 2):
        _pin_cores(monkeypatch, cores)
        with pytest.raises(FormatError) as exc:
            estimate_fingerprint_sets(manifest, keys, cfg.denoiser)
        errors[cores] = (type(exc.value), str(exc.value))
    assert errors[1] == errors[2]
    assert str(manifest.image_paths("camX", "p_b", "estimation")[1]) in errors[2][1]
    assert "truncated pixel data" in errors[2][1]


def test_mis_sized_estimation_image_is_named_at_any_core_count(tmp_path, monkeypatch):
    cfg = _tiny_config(cameras=("camX", "camY"))
    manifest = build_dataset(cfg, tmp_path / "ds")
    bad = manifest.image_paths("camX", "p_b", "estimation")[1]
    save_image(np.full((32, 64, 3), 0.5), bad, bit_depth=16)
    message = f"^{re.escape(str(bad))}: plane shape \\(32, 64\\) differs from \\(64, 64\\)$"
    # one key: its images split over the workers; three keys: one key per worker
    for keys in ([("camX", "p_b")], [("camX", "p_a"), ("camX", "p_b"), ("camY", "p_a")]):
        for cores in (1, 2):
            _pin_cores(monkeypatch, cores)
            with pytest.raises(ShapeError, match=message):
                estimate_fingerprint_sets(manifest, keys, cfg.denoiser)


def test_cli_estimate_matches_the_harness_fingerprint(tmp_path):
    # p_b's gains and sharpening push a few samples to the saturation cut, so both estimates make it
    bright = PipelineConfig("p_b", demosaic="nearest", tone=ToneCurve("scurve", strength=0.8), white_balance=(1.5, 1.5), sharpen=2.0)
    manifest = build_dataset(_tiny_config(n_estimation=3, pipelines=(_TINY_PIPES[0], bright)), tmp_path / "ds")
    key = ("camX", "p_b")
    paths = [str(p) for p in manifest.image_paths(*key, "estimation")]
    assert any((to_luminance(load_image(p)) >= SATURATION_THRESHOLD).any() for p in paths)
    expected = estimate_fingerprint_sets(manifest, [key], DenoiserSpec("gaussian", sigma=1.5))[key]
    out = tmp_path / "camX.fp"
    argv = ["estimate", "--images", *paths, "--out", str(out), "--denoiser", "gaussian:1.5"]
    assert cli.main(argv) == 0
    got = load_fingerprint(out)
    assert got.n_sources == expected.n_sources == 3
    assert np.array_equal(got.plane, expected.plane)


def test_experiment_config_json_roundtrip():
    cfg = _tiny_config()
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back.to_json() == cfg.to_json()
    default = ExperimentConfig.from_json({"pipelines": "default", "cameras": ["c0", "c1"]})
    assert len(default.pipelines) == 6
    assert default.estimation_pipeline == default.pipelines[0].id
    assert ExperimentConfig.from_json({}).to_json() == ExperimentConfig().to_json()
    assert ExperimentConfig.from_json({"sensor": None}).sensor == SensorSpec()  # null keeps the default


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        _tiny_config(cameras=())
    with pytest.raises(ValueError):
        _tiny_config(pipelines=_TINY_PIPES[:1])
    with pytest.raises(ValueError):
        _tiny_config(estimation_pipeline="nope")
    with pytest.raises(ValueError):
        _tiny_config(n_estimation=0)
    for obj, named in (
        ({"n_estimaton": 60}, "n_estimaton"),
        ({"width": 64}, "width"),
        ({"sensor": {"widht": 64}}, "sensor.widht"),
        # the top-level keys are checked before any nested object's
        ({"seed": 1, "sensor": {"width": 64, "nois": 1}, "extra": 0}, "extra"),
        ({"seed": 1, "sensor": {"width": 64, "nois": 1}}, "sensor.nois"),
        # a kind knows its own parameter only
        ({"denoiser": {"kind": "gaussian", "noise_variance": 1e-4}}, "denoiser.noise_variance"),
        ({"denoiser": {"noise_variance": 1e-4, "sigma": 2.0}}, "denoiser.sigma"),
        ({"pipelines": [{"id": "a", "tone": {"kind": "gamma", "strength": 0.5}}, {"id": "b"}]}, "pipelines\\[0\\].tone.strength"),
    ):
        with pytest.raises(ValueError, match=f"unknown config keys: {named}$"):
            ExperimentConfig.from_json(obj)
    for obj in ({"n_test": 2.5}, {"sensor": {"width": "wide"}}, {"cameras": [1]}, {"patch_sizes": [True]}):
        with pytest.raises(ValueError, match="expected"):
            ExperimentConfig.from_json(obj)
    # rejected when the config is read, before any dataset is written
    for obj, named in (
        ({"patch_sizes": []}, "patch_sizes"),
        ({"patch_sizes": [0]}, "patch_sizes"),
        ({"patch_sizes": [128, -32]}, "patch_sizes"),
        ({"patch_sizes": [32, 32]}, "patch_sizes"),  # would score every window twice
        ({"patch_sizes": [11]}, "patch_sizes"),  # no larger than the 11x11 exclusion block
        ({"patch_sizes": [128, 8]}, "patch_sizes"),
        ({"max_shift": -1}, "max_shift"),
        ({"seed": -1}, "seed"),
        # geometry of the default 256x256 sensor: nn_scurve_crop leaves 252x252,
        # and the estimation pipeline, bl_gamma, all 256x256
        ({"max_shift": 126}, "max_shift"),
        ({"patch_sizes": [128, 257]}, "patch_sizes"),
        ({"pipelines": [{"id": "a"}, {"id": "b", "crop_offset": [255, 0]}]}, "crop_offset"),
    ):
        with pytest.raises(ValueError, match=f"^{named} must be"):
            ExperimentConfig.from_json(obj)
    # The bounds themselves load; 256 is skipped for nn_scurve_crop's 252x252 images, as documented.
    assert ExperimentConfig.from_json({"max_shift": 125, "patch_sizes": [256]}).patch_sizes == (256,)
    # ids name directories of the dataset tree
    for kw in (
        {"cameras": ("cam0", "cam0")},
        {"cameras": ("",)},
        {"cameras": ("a/b",)},
        {"cameras": ("a\\b",)},
        {"cameras": ("..",)},
    ):
        with pytest.raises(ValueError, match="camera"):
            _tiny_config(**kw)
    for bad_id in ("", "p/a", "p\\a", "."):
        with pytest.raises(ValueError, match="pipeline id"):
            PipelineConfig(bad_id)


_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", sorted(p.name for p in _CONFIGS.glob("*.json")))
def test_checked_in_configs_load(name):
    path = _CONFIGS / name
    got = ExperimentConfig.from_json_file(path).to_json()
    for key, value in json.loads(path.read_text()).items():
        if key != "pipelines":  # "default" expands to the roster
            assert got[key] == value, key
