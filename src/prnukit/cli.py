"""Command-line front end.

Exit codes: 0 on success, 1 on domain errors (bad data, incompatible
dimensions, unreadable files), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import glob as globlib
import math
import os
import sys
from pathlib import Path

from .denoise import DenoiserSpec
from .evalharness import ExperimentConfig, ScoreRecord, build_dataset, run_evaluation, score_windows
from .fingerprint import (
    SATURATION_THRESHOLD,
    check_header_id,
    clean_fingerprint,
    estimate_from_files,
    load_fingerprint,
    residual,
    save_fingerprint,
)
from .imaging import common_crop_planes, load_image, to_luminance
from .localization import DEFAULT_STRIDE, DEFAULT_WINDOW, pce_map, probability_map, render_map, save_map_json
from .matching import DEFAULT_MAX_SHIFT, align, window_origins


def _parse_denoiser(text: str) -> DenoiserSpec:
    """Parse KIND[:VALUE]; VALUE sets the parameter DenoiserSpec.KIND_PARAM names."""
    kind, sep, value = text.partition(":")
    param = DenoiserSpec.KIND_PARAM.get(kind)
    try:
        return DenoiserSpec.from_json({"kind": kind, param: value} if param and sep else {"kind": kind})
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


def _parse_saturation(text: str):
    if text.lower() == "none":
        return None
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # refused below, with the accepted forms named
    if not (math.isfinite(value) and value > 0):  # at or below 0, no sample would be kept
        raise argparse.ArgumentTypeError(f"{text!r}: expected a finite number > 0 or 'none'")
    return value


def _header_id(label: str):
    """argparse type for an id that ``save_fingerprint`` can write, so a bad one fails before any image loads."""

    def parse(text: str) -> str:
        try:
            check_header_id(label, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text

    return parse


def cmd_estimate(args) -> int:
    # Each file once, in sorted order: the sums, and so the file's bytes, depend on that order.
    paths = sorted({os.path.normpath(p) for pattern in args.images for p in globlib.glob(pattern)})
    if not paths:
        print(f"error: no files match {args.images}", file=sys.stderr)
        return 2
    fp = estimate_from_files(paths, args.denoiser, args.saturation_threshold, args.camera, args.pipeline)
    fp = clean_fingerprint(fp, whiten=args.whiten)
    save_fingerprint(fp, args.out)
    h, w = fp.plane.shape
    print(f"fingerprint {w}x{h} from {fp.n_sources} images -> {args.out}")
    return 0


def _score_line(rec: ScoreRecord, shape) -> str:
    """One text line of ``match``; a record of patch size 0 scores the whole ``shape`` rectangle."""
    dx, dy = rec.peak
    x, y = rec.origin
    window = f"patch {rec.patch_size}" if rec.patch_size else f"image {shape[1]}x{shape[0]}"
    return f"{window} @ ({x},{y}): pce {rec.pce:.4f} peak ({dx},{dy}) p {rec.p_value:.3e}"


def cmd_match(args) -> int:
    img = to_luminance(load_image(args.image))
    fp = load_fingerprint(args.fingerprint)
    shape = common_crop_planes([img, fp.plane])[0].shape  # the rectangle both share, as in the sweep
    if args.patch:
        window_origins(shape, args.patch)  # a bad or unscorable window fails here, before the residual
    records = score_windows(
        img, residual(img, args.denoiser), fp.plane, args.patch,  # patch 0: the whole rectangle
        camera_fp=fp.camera_id, camera_test="", pipeline_est=fp.pipeline_id, pipeline_test="",
        image=str(args.image), label="unlabeled",
    )
    for rec in records:
        print(rec.json_line() if args.json else _score_line(rec, shape))
    return 0


def cmd_align(args) -> int:
    (dx, dy), corr = align(load_fingerprint(args.a).plane, load_fingerprint(args.b).plane, args.max_shift)
    print(f"shift {dx} {dy}, ncc {round(float(corr), 6)}")
    return 0


def cmd_localize(args) -> int:
    img = to_luminance(load_image(args.image))
    pmap = pce_map(img, load_fingerprint(args.fingerprint).plane, args.window, args.stride, args.denoiser)
    prob = probability_map(pmap)
    render_map(prob, args.out_map, postprocess=args.postprocess)
    if args.json_map:
        save_map_json(prob, args.json_map)
    rows, cols = prob.shape
    print(f"probability map {cols}x{rows} (window {args.window}, stride {args.stride}) -> {args.out_map}")
    return 0


def _resolve_out(args, config) -> str:
    out = args.out or config.output_dir
    if not out:
        print("error: no output directory (pass --out or set output_dir in the config)", file=sys.stderr)
        raise SystemExit(2)
    return out


def cmd_simulate(args) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    manifest = build_dataset(config, _resolve_out(args, config))
    n_images = sum(
        len(manifest.image_paths(cam, pid, split))
        for cam in manifest.cameras
        for pid in manifest.pipeline_ids
        for split in ("estimation", "test")
    )
    print(f"dataset: {n_images} images, manifest sha256 {manifest.sha256()}")
    return 0


def cmd_evaluate(args) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    out = _resolve_out(args, config)
    summary = run_evaluation(config, out)
    print(f"estimation pipeline: {config.estimation_pipeline}")
    print("pipeline_test      size   n      median_pce")
    for entry in summary["per_pipeline"]:
        print(
            f"{entry['pipeline_test']:<18} {entry['patch_size']:<6} "
            f"{entry['n']:<6} {entry['median']:.2f}"
        )
    print("group  size   auc      tpr@{:.2%}".format(summary["target_fpr"]))
    for entry in summary["detection"]:
        print(
            f"{entry['group']:<6} {entry['patch_size']:<6} "
            f"{entry['auc']:.4f}   {entry['tpr_at_target']:.4f}"
        )
    print(f"report written to {Path(out) / 'report'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prnukit",
        description="Camera-fingerprint estimation, matching, localization and pipeline simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    denoiser = dict(
        type=_parse_denoiser,
        default=DenoiserSpec(),
        help=" or ".join(f"{kind}[:{param.upper()}]" for kind, param in DenoiserSpec.KIND_PARAM.items()),
    )

    p = sub.add_parser("estimate", help="estimate a fingerprint from images")
    p.add_argument("--images", nargs="+", required=True, help="glob pattern(s)")
    p.add_argument("--out", required=True, help="output fingerprint file")
    p.add_argument("--denoiser", **denoiser)
    p.add_argument("--camera", type=_header_id("camera"), default="", help="camera id stored in the header")
    p.add_argument("--pipeline", type=_header_id("pipeline"), default="", help="pipeline id stored in the header")
    p.add_argument("--whiten", action="store_true", help="spectrum-whiten after cleanup")
    p.add_argument(
        "--saturation-threshold",
        type=_parse_saturation,
        default=SATURATION_THRESHOLD,
        metavar="X",
        help="exclude samples >= X from the sums ('none' disables)",
    )
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("match", help="PCE of an image (or its patches) against a fingerprint")
    p.add_argument("--image", required=True)
    p.add_argument("--fingerprint", required=True)
    p.add_argument("--patch", type=int, default=0, help="patch size (0 = whole image)")
    p.add_argument("--json", action="store_true", help="emit JSON records")
    p.add_argument("--denoiser", **denoiser)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("align", help="recover the relative shift of two fingerprints")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--max-shift", type=int, default=DEFAULT_MAX_SHIFT)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("localize", help="sliding-window map of each window's no-match tail probability")
    p.add_argument("--image", required=True)
    p.add_argument("--fingerprint", required=True)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
    p.add_argument("--out-map", required=True)
    p.add_argument("--json-map", default="", help="also write the raw map as JSON")
    p.add_argument("--postprocess", choices=("none", "median3"), default="none")
    p.add_argument("--denoiser", **denoiser)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("simulate", help="generate a dataset from an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="", help="output directory (default: config output_dir)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="run the full evaluation and write reports")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="", help="output directory (default: config output_dir)")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
