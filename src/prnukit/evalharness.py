"""Experiment orchestration: dataset generation, per-pipeline fingerprint
estimation, cross-pipeline correlation matrices, PCE sweeps by patch size,
ROC metrics, and report emission.

All randomness flows from one master seed; per-image RNG streams are derived
from (seed, camera index, image index) so generation order or parallelism
cannot change outputs. Estimation captures are shared across pipelines: each
raw is exposed once and developed through every pipeline.

Dataset generation, estimation and the PCE sweep split into independent
units (per camera, per (camera, pipeline), per (test camera, pipeline)) that
run one process per usable core and are merged in submission order, so the
report and dataset bytes are the same for any core count.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__ as _package_version
from . import _config, _pool
from .denoise import DenoiserSpec
from .errors import FormatError, ShapeError
from .fingerprint import (
    SATURATION_THRESHOLD,
    Fingerprint,
    FingerprintAccumulator,
    clean_fingerprint,
    residual,
    save_fingerprint,
)
from .imaging import load_image, save_image, to_luminance
from .ispsim import DEFAULT_PIPELINES, PipelineConfig, SensorSpec, capture, develop, synth_scene, synth_sensor
from .matching import DEFAULT_MAX_SHIFT, PceScore, align, match_windows, ncc

DEFAULT_TARGET_FPR = 0.005
DEFAULT_PATCH_SIZES = (128,)

# Scene kind cycles (odd length, so interleaved split halves see every kind).
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
    saturation_threshold: Optional[float] = SATURATION_THRESHOLD
    output_dir: str = ""

    def __post_init__(self):
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
        ids = [p.id for p in self.pipelines]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate pipeline ids in {ids}")
        if not self.estimation_pipeline:
            self.estimation_pipeline = ids[0]
        elif self.estimation_pipeline not in ids:
            raise ValueError(f"estimation pipeline {self.estimation_pipeline!r} not in roster")

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
            for pipe in config.pipelines:
                developed = develop(raw, pipe)
                rel = f"images/{cam}/{pipe.id}/{split}_{i:03d}.ppm"
                save_image(developed, root / rel, bit_depth=16)
                images[pipe.id][split].append(rel)
    return images, capture_ids, gt_rel


@dataclass
class FingerprintSet:
    """Full-split fingerprint plus interleaved half-split estimates."""

    full: Fingerprint
    half_a: Fingerprint
    half_b: Fingerprint


def estimate_fingerprint_sets(
    manifest: DatasetManifest,
    denoiser: DenoiserSpec = DenoiserSpec(),
    saturation_threshold: Optional[float] = SATURATION_THRESHOLD,
) -> dict:
    """Per (camera, pipeline id): full and half-split fingerprints.

    One pass over the estimation images: each residual is computed once and
    added to the full estimate and to one half; halves interleave even/odd
    estimation indices so both see the same scene mix.
    """
    keys = [(cam, pid) for cam in manifest.cameras for pid in manifest.pipeline_ids]
    units = [(cam, pid, manifest.image_paths(cam, pid, "estimation")) for cam, pid in keys]
    sets = _pool.ordered_map(partial(_estimate_set, denoiser, saturation_threshold), units)
    return dict(zip(keys, list(sets)))


def _estimate_set(denoiser: DenoiserSpec, saturation_threshold: Optional[float], unit) -> FingerprintSet:
    """FingerprintSet of one (camera, pipeline id, estimation paths) unit."""
    cam, pid, paths = unit
    full = FingerprintAccumulator(saturation_threshold)
    halves = (
        FingerprintAccumulator(saturation_threshold),
        FingerprintAccumulator(saturation_threshold),
    )
    for i, path in enumerate(paths):
        img = to_luminance(load_image(path))
        res = residual(img, denoiser)
        full.add(img, res)
        halves[i % 2].add(img, res)
    return FingerprintSet(*(clean_fingerprint(acc.finish(cam, pid)) for acc in (full, *halves)))


def common_crop_planes(planes):
    """Crop every plane to the shared top-left rectangle."""
    h = min(p.shape[0] for p in planes)
    w = min(p.shape[1] for p in planes)
    return [p[:h, :w] for p in planes]


@dataclass
class CorrelationMatrix:
    ids: list
    ncc: np.ndarray  # (n, n)
    shifts: np.ndarray  # (n, n, 2) as (dx, dy)


def correlation_matrix(fingerprints, max_shift: int = DEFAULT_MAX_SHIFT) -> CorrelationMatrix:
    """Post-alignment NCC between all fingerprint pairs.

    The matrix is symmetric by construction: entry (j, i) mirrors (i, j)
    with the opposite shift. Diagonal entries are 1 at shift (0, 0).
    """
    if len(fingerprints) < 2:
        raise ValueError("need at least two fingerprints")
    shapes = {fp.plane.shape for fp in fingerprints}
    if len(shapes) != 1:
        raise ShapeError(f"fingerprints differ in shape: {sorted(shapes)}")
    n = len(fingerprints)
    ids = [fp.pipeline_id or f"fp{i}" for i, fp in enumerate(fingerprints)]
    mat = np.eye(n)
    shifts = np.zeros((n, n, 2), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            (dx, dy), corr = align(fingerprints[i], fingerprints[j], max_shift)
            mat[i, j] = mat[j, i] = corr
            shifts[i, j] = (dx, dy)
            shifts[j, i] = (-dx, -dy)
    return CorrelationMatrix(ids, mat, shifts)


@dataclass
class SplitHalfReport:
    """Half-vs-half fingerprint correlations, per camera.

    ``same``: (camera, pipeline) -> NCC between the two halves.
    ``cross_raw``: (camera, pipe_a, pipe_b) -> un-aligned NCC (half A of a
    vs half B of b), after common-cropping.
    ``cross_aligned``: same keys -> (NCC after alignment, (dx, dy)).
    """

    same: dict
    cross_raw: dict
    cross_aligned: dict


def split_half_correlations(
    manifest: DatasetManifest, sets: dict, max_shift: int = DEFAULT_MAX_SHIFT
) -> SplitHalfReport:
    same = {}
    cross_raw = {}
    cross_aligned = {}
    pids = manifest.pipeline_ids
    for cam in manifest.cameras:
        planes_a = common_crop_planes([sets[(cam, pid)].half_a.plane for pid in pids])
        planes_b = common_crop_planes([sets[(cam, pid)].half_b.plane for pid in pids])
        for i, pid in enumerate(pids):
            same[(cam, pid)] = ncc(planes_a[i], planes_b[i])
        for i in range(len(pids)):
            for j in range(len(pids)):
                if i == j:
                    continue
                key = (cam, pids[i], pids[j])
                cross_raw[key] = ncc(planes_a[i], planes_b[j])
                shift, corr = align(planes_a[i], planes_b[j], max_shift)
                cross_aligned[key] = (corr, shift)
    return SplitHalfReport(same, cross_raw, cross_aligned)


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

    @classmethod
    def from_score(cls, score: PceScore, **context) -> "ScoreRecord":
        """Record of one ``match_patch`` score; ``context`` gives the other fields."""
        return cls(
            pce=score.pce,
            peak_value=score.peak_value,
            peak=score.peak_location,
            p_value=score.p_value,
            **context,
        )

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
        {cam: fingerprints[(cam, estimation_pipeline)] for cam in manifest.cameras},
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

    ``fingerprints`` maps camera -> estimation-pipeline Fingerprint, in
    manifest camera order.
    """
    cam_test, pid, paths = unit
    records = []
    for path in paths:
        img = to_luminance(load_image(path))
        res = residual(img, denoiser)
        rel = str(path.relative_to(root))
        for cam_fp, fp in fingerprints.items():
            cimg, cres, _ = common_crop_planes([img, res, fp.plane])
            label = "positive" if cam_fp == cam_test else "negative"
            for size in patch_sizes:
                if size > min(cimg.shape):
                    continue
                for origin, score in match_windows(cimg, cres, fp, size):
                    records.append(
                        ScoreRecord.from_score(
                            score,
                            camera_fp=cam_fp,
                            camera_test=cam_test,
                            pipeline_est=estimation_pipeline,
                            pipeline_test=pid,
                            patch_size=size,
                            origin=origin,
                            image=rel,
                            label=label,
                        )
                    )
    return records


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


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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


@dataclass
class RunResult:
    manifest: DatasetManifest
    fingerprint_sets: dict
    matrix: CorrelationMatrix
    records: list
    summary: dict


def run_evaluation(config: ExperimentConfig, out_dir) -> RunResult:
    """End-to-end run: dataset, fingerprints, matrix, sweep, report."""
    out = Path(out_dir)
    manifest = build_dataset(config, out / "dataset")
    sets = estimate_fingerprint_sets(
        manifest, config.denoiser, saturation_threshold=config.saturation_threshold
    )
    cam0 = manifest.cameras[0]
    full_planes = common_crop_planes(
        [sets[(cam0, pid)].full.plane for pid in manifest.pipeline_ids]
    )
    full_fps = [
        Fingerprint(plane, cam0, pid, sets[(cam0, pid)].full.n_sources)
        for plane, pid in zip(full_planes, manifest.pipeline_ids)
    ]
    matrix = correlation_matrix(full_fps, config.max_shift)
    fingerprints = {key: s.full for key, s in sets.items()}
    records = pce_sweep(
        manifest,
        fingerprints,
        config.estimation_pipeline,
        config.patch_sizes,
        config.denoiser,
    )
    summary = summarize(records, config.estimation_pipeline)
    report(out / "report", manifest, matrix, records, summary, config)
    return RunResult(manifest, sets, matrix, records, summary)
