#!/usr/bin/env python3
"""Build a synthetic splice and render its no-match tail-probability maps.

Simulates two cameras, estimates a fingerprint for the first, pastes a
foreign square from the second into one of its test images, and writes the
spliced image plus raw PCE and probability maps (plain and median-filtered)
to the output directory.

Usage:
    python scripts/make_localization_demo.py [out_dir] [--seed N]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from prnukit.denoise import DenoiserSpec  # noqa: E402
from prnukit.fingerprint import FingerprintAccumulator, clean_fingerprint, residual  # noqa: E402
from prnukit.imaging import save_image, to_luminance  # noqa: E402
from prnukit.ispsim import DEFAULT_PIPELINES, capture, develop, synth_scene, synth_sensor  # noqa: E402
from prnukit.localization import pce_map, probability_map, render_map, save_map_json  # noqa: E402


def simulate_camera(seed: int, size: int, pipeline, denoiser, n_est: int):
    sensor = synth_sensor(size, size, strength=0.02, seed=seed)
    acc = FingerprintAccumulator()
    for i in range(n_est):
        scene = synth_scene(size, size, "flat", level=0.4 + 0.05 * (i % 5))
        lum = to_luminance(develop(capture(scene, sensor, seed=seed * 1000 + i), pipeline))
        acc.add(lum, residual(lum, denoiser))
    fp = clean_fingerprint(acc.finish())
    return sensor, fp


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", default="runs/localization_demo")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--size", type=int, default=512)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pipeline = DEFAULT_PIPELINES[0]
    denoiser = DenoiserSpec()

    sensor_a, fp_a = simulate_camera(args.seed, args.size, pipeline, denoiser, n_est=12)
    sensor_b, _ = simulate_camera(args.seed + 1, args.size, pipeline, denoiser, n_est=1)

    scene = synth_scene(args.size, args.size, "texture", seed=args.seed + 2)
    authentic = to_luminance(develop(capture(scene, sensor_a, seed=99), pipeline))
    foreign_scene = synth_scene(args.size, args.size, "texture", seed=args.seed + 3)
    foreign = to_luminance(develop(capture(foreign_scene, sensor_b, seed=98), pipeline))

    quarter = args.size // 4
    half = args.size // 2
    spliced = authentic.copy()
    spliced[quarter : quarter + half, quarter : quarter + half] = foreign[
        quarter : quarter + half, quarter : quarter + half
    ]
    save_image(spliced, out / "spliced.pgm", bit_depth=16)

    pmap = pce_map(spliced, fp_a.plane, window=128, stride=64, denoiser=denoiser)
    prob = probability_map(pmap)
    save_map_json(prob, out / "probability_map.json")
    render_map(prob, out / "probability_map.pgm")
    render_map(prob, out / "probability_map_median3.pgm", postprocess="median3")

    inside = []
    rows, cols = prob.shape
    for i in range(rows):
        for j in range(cols):
            x, y = prob.origin(i, j)
            if x >= quarter and y >= quarter and x + 128 <= quarter + half and y + 128 <= quarter + half:
                inside.append(prob.grid[i, j])
    print(f"spliced square at ({quarter},{quarter}) size {half}")
    print(f"mean probability inside {np.mean(inside):.3f}, whole map {prob.grid.mean():.3f}")
    print(f"outputs in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
