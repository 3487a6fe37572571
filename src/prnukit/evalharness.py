"""Experiment orchestration: dataset generation, per-pipeline fingerprints
(through ``fingerprint.estimate_from_files``, the one estimation loop, which
``prnukit estimate`` also runs), correlation matrices, PCE sweeps, ROC, reports.

All randomness flows from one master seed; per-image RNG streams are derived
from (seed, camera index, image index) so generation order or parallelism
cannot change outputs. Estimation captures are shared across pipelines: each
raw is exposed once, demosaiced once per kind and developed through every
pipeline.

Dataset generation, estimation and the PCE sweep split into independent
units (per camera, per fingerprint the report reads, per (test camera,
pipeline)) that run one process per usable core and are merged in submission
order, so the report and dataset bytes are the same for any core count.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__ as _package_version
from . import _config, _pool
from .denoise import DenoiserSpec
from .errors import FormatError
from .fingerprint import (
    Fingerprint,
    clean_fingerprint,
    estimate_from_files,
    load_residual,
    save_fingerprint,
)
from .imaging import common_crop_planes, save_image
from .ispsim import (
    DEFAULT_PIPELINES,
    PipelineConfig,
    SensorSpec,
    capture,
    develop_each,
    output_shape,
    synth_scene,
    synth_sensor,
)
from .matching import DEFAULT_MAX_SHIFT, align, match_windows, p_value, window_origins

DEFAULT_TARGET_FPR = 0.005
DEFAULT_PATCH_SIZES = (128,)

# Scene kind cycles. Odd length, so the interleaved (even/odd index) halves of
# the estimation split both see every kind; tests/conftest.py forms those
# halves for acceptance criterion 3.
_EST_MIX = (("flat", 0.4), ("texture", 0.0), ("flat", 0.6), ("gradient", 0.0), ("flat", 0.75))
_TEST_MIX = (("texture", 0.0), ("gradient", 0.0), ("texture", 0.0), ("flat", 0.5), ("texture", 0.0))

_STREAM_SENSOR = 0
_STREAM_SCENE = 1
_STREAM_CAPTURE = 2


def derive_seed(*parts) -> int:
    """Deterministic child seed from integer parts."""
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1, np.uint64)[0])


@dataclass
class ExperimentConfig:
    """One experiment: sensors, pipeline roster, dataset sizes, sweep knobs."""

    seed: int = 7
    sensor: SensorSpec = field(default_factory=SensorSpec)
    cameras: tuple[str, ...] = ("cam0", "cam1")
    pipelines: tuple[PipelineConfig, ...] = DEFAULT_PIPELINES
    n_estimation: int = 20
    n_test: int = 20
    patch_sizes: tuple[int, ...] = DEFAULT_PATCH_SIZES
    estimation_pipeline: str = ""
    denoiser: DenoiserSpec = field(default_factory=DenoiserSpec)
    max_shift: int = DEFAULT_MAX_SHIFT
    output_dir: str = ""

    def __post_init__(self):
        for name in ("seed", "n_estimation", "n_test", "max_shift"):
            _config.check_int(name, getattr(self, name))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if len(self.cameras) < 1:
            raise ValueError("need at least one camera")
        for cam in self.cameras:
            _config.check_id("camera", cam)
        if len(set(self.cameras)) != len(self.cameras):
            raise ValueError(f"duplicate camera ids in {list(self.cameras)}")
        if len(self.pipelines) < 2:
            raise ValueError("need at least two pipelines")
        if self.n_estimation < 1 or self.n_test < 1:
            raise ValueError("n_estimation and n_test must be >= 1")
        sizes = list(self.patch_sizes)
        if not sizes or len(set(sizes)) < len(sizes):
            raise ValueError(f"patch_sizes must be a non-empty list of distinct sizes, got {sizes}")
        ids = [p.id for p in self.pipelines]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate pipeline ids in {ids}")
        if not self.estimation_pipeline:
            self.estimation_pipeline = ids[0]
        elif self.estimation_pipeline not in ids:
            raise ValueError(f"estimation pipeline {self.estimation_pipeline!r} not in roster")
        # Geometry, before anything is written: every pipeline leaves an output, align's bound
        # holds on the rectangle all outputs share, and the estimation pipeline's output,
        # which bounds every scored rectangle, holds each window that the PCE can score.
        shapes = {p.id: output_shape(p, (self.sensor.height, self.sensor.width)) for p in self.pipelines}
        side = min(min(shape) for shape in shapes.values())
        if not 0 <= self.max_shift < side / 2:
            raise ValueError(
                f"max_shift must be in [0, {side}/2) for the outputs' shared rectangle, got {self.max_shift}"
            )
        for size in sizes:
            try:
                window_origins(shapes[self.estimation_pipeline], size)
            except ValueError as exc:
                raise ValueError(f"patch_sizes must be scorable windows of the estimation output, got {sizes}: {exc}") from None

    to_json = _config.to_json

    @classmethod
    def from_json(cls, obj) -> "ExperimentConfig":
        """Inverse of :meth:`to_json`; "pipelines": "default" reads as an absent key."""
        obj = _config.json_object(obj, "config")
        if obj.get("pipelines") == "default":
            obj = {key: value for key, value in obj.items() if key != "pipelines"}
        return _config.from_json(cls, obj)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        return cls.from_json(json.loads(Path(path).read_text()))


@dataclass
class DatasetManifest:
    """Index of a generated dataset; all paths are relative to ``root``."""

    root: Path
    data: dict

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def cameras(self):
        return list(self.data["cameras"])

    @property
    def pipeline_ids(self):
        return [p["id"] for p in self.data["pipelines"]]

    def image_paths(self, camera: str, pipeline_id: str, split: str):
        rels = self.data["images"][camera][pipeline_id][split]
        return [self.root / r for r in rels]

    def capture_ids(self, camera: str, split: str):
        return list(self.data["capture_ids"][camera][split])

    def groundtruth_path(self, camera: str) -> Path:
        return self.root / self.data["groundtruth"][camera]

    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("ascii")).hexdigest()

    def save(self) -> None:
        (self.root / "manifest.json").write_text(
            json.dumps(self.data, sort_keys=True, indent=2) + "\n"
        )

    @classmethod
    def load(cls, root) -> "DatasetManifest":
        root = Path(root)
        return cls(root, json.loads((root / "manifest.json").read_text()))


def build_dataset(config: ExperimentConfig, out_dir) -> DatasetManifest:
    """Capture every raw once per camera and develop it through every pipeline.

    Cameras are built in parallel. Re-running with the same config and seed
    produces a byte-identical tree.
    """
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    built = list(_pool.ordered_map(partial(_build_camera, config, root), range(len(config.cameras))))
    config_json = config.to_json()
    data = {key: config_json[key] for key in ("seed", "sensor", "cameras", "pipelines", "n_estimation", "n_test")}
    images, capture_ids, groundtruth = (dict(zip(config.cameras, column)) for column in zip(*built))
    data.update(images=images, capture_ids=capture_ids, groundtruth=groundtruth)
    manifest = DatasetManifest(root, data)
    manifest.save()
    return manifest


def _build_camera(config: ExperimentConfig, root: Path, cam_idx: int):
    """Write one camera's groundtruth and developed images under ``root``.

    Returns the camera's manifest entries: (images, capture ids, groundtruth
    path).
    """
    cam = config.cameras[cam_idx]
    sensor = synth_sensor(**asdict(config.sensor), seed=derive_seed(config.seed, _STREAM_SENSOR, cam_idx))
    gt_rel = f"groundtruth/{cam}.fp"
    save_fingerprint(
        Fingerprint(sensor.prnu, camera_id=cam, pipeline_id="groundtruth", n_sources=1),
        root / gt_rel,
    )
    images = {p.id: {"estimation": [], "test": []} for p in config.pipelines}
    capture_ids = {"estimation": [], "test": []}
    splits = (("estimation", config.n_estimation, _EST_MIX, 0),
              ("test", config.n_test, _TEST_MIX, config.n_estimation))
    for split, count, mix, base in splits:
        for i in range(count):
            img_idx = base + i
            kind, level = mix[i % len(mix)]
            scene = synth_scene(
                config.sensor.width,
                config.sensor.height,
                kind=kind,
                seed=derive_seed(config.seed, _STREAM_SCENE, cam_idx, img_idx),
                level=level,
            )
            raw = capture(
                scene,
                sensor,
                seed=derive_seed(config.seed, _STREAM_CAPTURE, cam_idx, img_idx),
            )
            capture_ids[split].append(f"{cam}/{img_idx:03d}")
            for pipe, developed in zip(config.pipelines, develop_each(raw, config.pipelines)):
                rel = f"images/{cam}/{pipe.id}/{split}_{i:03d}.ppm"
                save_image(developed, root / rel, bit_depth=16)
                images[pipe.id][split].append(rel)
    return images, capture_ids, gt_rel


def estimate_fingerprint_sets(
    manifest: DatasetManifest,
    keys,
    denoiser: DenoiserSpec = DenoiserSpec(),
) -> dict:
    """Fingerprint of each (camera, pipeline id) in ``keys``, from its
    estimation images; one unit per key, merged in the order of ``keys``."""
    fingerprints = _pool.ordered_map(partial(_estimate, manifest, denoiser), keys)
    return dict(zip(keys, list(fingerprints)))


def _estimate(manifest, denoiser: DenoiserSpec, key) -> Fingerprint:
    """Cleaned fingerprint of one (camera, pipeline id) key, from its estimation images."""
    cam, pid = key
    paths = manifest.image_paths(cam, pid, "estimation")
    return clean_fingerprint(estimate_from_files(paths, denoiser, cam, pid))


@dataclass
class CorrelationMatrix:
    ids: list
    ncc: np.ndarray  # (n, n)
    shifts: np.ndarray  # (n, n, 2) as (dx, dy)


def correlation_matrix(fingerprints, max_shift: int = DEFAULT_MAX_SHIFT) -> CorrelationMatrix:
    """Post-alignment NCC between all fingerprint pairs, ids from their pipeline ids.

    Every pair is compared over the one top-left rectangle that all the
    planes share, so each entry covers the same pixels. The matrix is
    symmetric by construction: entry (j, i) mirrors (i, j) with the opposite
    shift. Diagonal entries are 1 at shift (0, 0).
    """
    if len(fingerprints) < 2:
        raise ValueError("need at least two fingerprints")
    n = len(fingerprints)
    planes = common_crop_planes([fp.plane for fp in fingerprints])
    mat = np.eye(n)
    shifts = np.zeros((n, n, 2), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            (dx, dy), corr = align(planes[i], planes[j], max_shift)
            mat[i, j] = mat[j, i] = corr
            shifts[i, j] = (dx, dy)
            shifts[j, i] = (-dx, -dy)
    return CorrelationMatrix([fp.pipeline_id for fp in fingerprints], mat, shifts)


@dataclass(frozen=True)
class ScoreRecord:
    """One PCE measurement of a patch, from the sweep or ``prnukit match``."""

    camera_fp: str
    camera_test: str
    pipeline_est: str
    pipeline_test: str
    patch_size: int
    origin: tuple[int, int]
    image: str
    pce: float
    peak_value: float
    peak: tuple[int, int]
    p_value: float
    label: str  # "positive" (same camera) or "negative"

    def json_line(self) -> str:
        """The record as one line of score_records.jsonl, without the newline."""
        return json.dumps(_config.to_json(self), sort_keys=True)


def write_score_records(records, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(rec.json_line() + "\n")


def read_score_records(path):
    """Records of a score_records.jsonl file; a bad line raises FormatError
    naming ``path:lineno``."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    records.append(_config.from_json(ScoreRecord, json.loads(line)))
                except ValueError as exc:  # json.JSONDecodeError is a ValueError
                    raise FormatError(f"{path}:{lineno}: {exc}") from None
    return records


def pce_sweep(
    manifest: DatasetManifest,
    fingerprints: dict,
    estimation_pipeline: str,
    patch_sizes=DEFAULT_PATCH_SIZES,
    denoiser: DenoiserSpec = DenoiserSpec(),
):
    """PCE of every non-overlapping patch of every test image against the
    estimation-pipeline fingerprint of every camera.

    ``fingerprints`` maps (camera, pipeline id) -> Fingerprint; only the
    estimation pipeline's entries are used. Patch sizes that do not fit the
    common image/fingerprint area are skipped.
    """
    for cam in manifest.cameras:
        if (cam, estimation_pipeline) not in fingerprints:
            raise KeyError(
                f"no fingerprint for camera {cam!r}, pipeline {estimation_pipeline!r}"
            )
    sweep = partial(
        _sweep_images,
        manifest.root,
        {cam: fingerprints[(cam, estimation_pipeline)].plane for cam in manifest.cameras},
        estimation_pipeline,
        patch_sizes,
        denoiser,
    )
    units = [
        (cam_test, pid, manifest.image_paths(cam_test, pid, "test"))
        for cam_test in manifest.cameras
        for pid in manifest.pipeline_ids
    ]
    return [rec for records in _pool.ordered_map(sweep, units) for rec in records]


def _sweep_images(root, fingerprints, estimation_pipeline, patch_sizes, denoiser, unit):
    """ScoreRecords of one (test camera, pipeline id, test paths) unit.

    ``fingerprints`` maps camera -> estimation-pipeline fingerprint plane, in
    manifest camera order.
    """
    cam_test, pid, paths = unit
    records = []
    for path in paths:
        img, res = load_residual(denoiser, path)
        rel = str(path.relative_to(root))
        for cam_fp, k in fingerprints.items():
            side = min(common_crop_planes([img, k])[0].shape)
            label = "positive" if cam_fp == cam_test else "negative"
            for size in patch_sizes:
                if size <= side:
                    records += score_windows(
                        img, res, k, size, camera_fp=cam_fp, camera_test=cam_test,
                        pipeline_est=estimation_pipeline, pipeline_test=pid, image=rel, label=label,
                    )
    return records


def score_windows(img, res, fingerprint, size: int, **fields) -> list:
    """ScoreRecords, with ``fields``, of the ``size`` windows (0: one window) of the rectangle that a
    test image, its residual and a fingerprint plane share; the sweep and ``prnukit match`` call it.
    Each record's p-value is the :func:`~prnukit.matching.p_value` of its PCE, set here alone."""
    img, res, k = common_crop_planes([img, res, fingerprint])
    origins = window_origins(img.shape, size) if size else [(0, 0)]
    scores = match_windows(img, res, k, size or img.shape, origins)
    return [
        ScoreRecord(**vars(score), p_value=p_value(score.pce), patch_size=size, origin=origin, **fields)
        for origin, score in zip(origins, scores)
    ]


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep over the union of scores (ties grouped).

    ``thresholds`` is descending with a leading +inf, so fpr/tpr start at
    (0, 0) and end at (1, 1); ``auc`` is the trapezoidal integral.
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def roc(pos_scores, neg_scores) -> RocCurve:
    pos = np.asarray(list(pos_scores), dtype=np.float64)
    neg = np.asarray(list(neg_scores), dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both score lists must be non-empty")
    thr = np.unique(np.concatenate([pos, neg]))[::-1]
    pos_sorted = np.sort(pos)
    neg_sorted = np.sort(neg)
    tpr = (pos.size - np.searchsorted(pos_sorted, thr, side="left")) / pos.size
    fpr = (neg.size - np.searchsorted(neg_sorted, thr, side="left")) / neg.size
    tpr = np.concatenate([[0.0], tpr])
    fpr = np.concatenate([[0.0], fpr])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(np.concatenate([[np.inf], thr]), fpr, tpr, auc)


def tpr_at_fpr(curve: RocCurve, target_fpr: float) -> float:
    """TPR at the largest achieved FPR <= target (conservative step reading)."""
    if not 0.0 < target_fpr < 1.0:
        raise ValueError(f"target_fpr must be in (0, 1), got {target_fpr}")
    eligible = curve.fpr <= target_fpr
    best = curve.fpr[eligible].max()
    return float(curve.tpr[eligible & (curve.fpr == best)].max())


def _detection_groups(records, estimation_pipeline: str):
    """Yield (patch_size, group, n_pos, n_neg, RocCurve) for every reported ROC.

    ``group`` is "same" (test pipeline is the estimation pipeline) or
    "cross"; groups lacking positives or negatives are skipped.
    """
    pos, neg = defaultdict(list), defaultdict(list)
    for r in records:
        if r.label == "negative":
            neg[r.patch_size].append(r.pce)
        elif r.label == "positive":
            pos[r.patch_size, "same" if r.pipeline_test == estimation_pipeline else "cross"].append(r.pce)
    for size in sorted(neg):
        for group in ("same", "cross"):
            if pos[size, group]:
                yield size, group, len(pos[size, group]), len(neg[size]), roc(pos[size, group], neg[size])


def summarize(records, estimation_pipeline: str) -> dict:
    """Aggregate sweep records into per-pipeline medians and detection metrics.

    Negatives are pooled across test pipelines: the null is "different
    sensor", whatever pipeline developed the test image.
    """
    records = list(records)
    positives = defaultdict(list)  # (pipeline_test, patch_size) -> PCE list
    for r in records:
        if r.label == "positive":
            positives[r.pipeline_test, r.patch_size].append(r.pce)
    per_pipeline = []
    for (pid, size), scores in sorted(positives.items()):
        arr = np.asarray(scores)
        per_pipeline.append(
            {
                "pipeline_est": estimation_pipeline,
                "pipeline_test": pid,
                "patch_size": size,
                "n": int(arr.size),
                "median": float(np.median(arr)),
                "q25": float(np.percentile(arr, 25)),
                "q75": float(np.percentile(arr, 75)),
            }
        )
    detection = [
        {
            "patch_size": size,
            "group": group,
            "n_pos": n_pos,
            "n_neg": n_neg,
            "auc": curve.auc,
            "tpr_at_target": tpr_at_fpr(curve, DEFAULT_TARGET_FPR),
        }
        for size, group, n_pos, n_neg, curve in _detection_groups(records, estimation_pipeline)
    ]
    return {
        "estimation_pipeline": estimation_pipeline,
        "target_fpr": DEFAULT_TARGET_FPR,
        "per_pipeline": per_pipeline,
        "detection": detection,
    }


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def report(
    out_dir,
    manifest: DatasetManifest,
    matrix: CorrelationMatrix,
    records,
    summary: dict,
    config: ExperimentConfig,
) -> None:
    """Emit the CSV/JSON report tree (deterministic bytes for a fixed seed)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "correlation.csv",
        [""] + matrix.ids,
        [[matrix.ids[i]] + list(matrix.ncc[i]) for i in range(len(matrix.ids))],
    )
    shift_rows = []
    for i in range(len(matrix.ids)):
        for j in range(len(matrix.ids)):
            if i == j:
                continue
            dx, dy = matrix.shifts[i, j]
            shift_rows.append([matrix.ids[i], matrix.ids[j], int(dx), int(dy)])
    _write_csv(
        out / "alignment_shifts.csv",
        ["pipeline_a", "pipeline_b", "dx", "dy"],
        shift_rows,
    )
    _write_csv(
        out / "pce_summary.csv",
        ["pipeline_est", "pipeline_test", "patch_size", "n", "median", "q25", "q75"],
        [
            [e["pipeline_est"], e["pipeline_test"], e["patch_size"], e["n"], e["median"], e["q25"], e["q75"]]
            for e in summary["per_pipeline"]
        ],
    )
    records = list(records)
    roc_rows = [
        [group, size, t, f, tp]
        for size, group, _, _, curve in _detection_groups(records, summary["estimation_pipeline"])
        for t, f, tp in zip(curve.thresholds, curve.fpr, curve.tpr)
    ]
    _write_csv(out / "roc_points.csv", ["group", "patch_size", "threshold", "fpr", "tpr"], roc_rows)
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    write_score_records(records, out / "score_records.jsonl")
    metadata = {
        "package_version": _package_version,
        "seed": manifest.seed,
        "manifest_sha256": manifest.sha256(),
        "config": config.to_json(),
    }
    (out / "run_metadata.json").write_text(json.dumps(metadata, sort_keys=True, indent=2) + "\n")


def run_evaluation(config: ExperimentConfig, out_dir) -> dict:
    """End-to-end run: dataset, fingerprints, matrix, sweep, report; returns the summary.

    Only the fingerprints the report reads are estimated: the first camera's
    under every pipeline, for the matrix, and every other camera's under the
    estimation pipeline, for the sweep.
    """
    out = Path(out_dir)
    manifest = build_dataset(config, out / "dataset")
    cam0, *others = manifest.cameras
    est = config.estimation_pipeline
    keys = [(cam0, pid) for pid in manifest.pipeline_ids] + [(cam, est) for cam in others]
    fingerprints = estimate_fingerprint_sets(manifest, keys, config.denoiser)
    matrix = correlation_matrix([fingerprints[(cam0, pid)] for pid in manifest.pipeline_ids], config.max_shift)
    records = pce_sweep(manifest, fingerprints, est, config.patch_sizes, config.denoiser)
    summary = summarize(records, est)
    report(out / "report", manifest, matrix, records, summary, config)
    return summary
