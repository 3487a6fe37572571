"""The benchmark's three workloads: input generation, CLI commands, checks.

Every workload drives the package only through ``prnukit.cli.main``; the
set-up uses the synthetic sensor (``prnukit.ispsim``) to make inputs. Each
workload has a full size, the one the benchmark measures, and a smoke size
that exercises the same code in a second or two.

Inputs come from one of ``N_CASES`` recorded cases, chosen by seed modulo
``N_CASES``, so that every run can be checked against the numbers recorded
in ``references/`` (see ``record_references.py``).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

N_CASES = 8
REFERENCES = Path(__file__).resolve().parent / "references"

# Numbers agree when |got - ref| <= ATOL + RTOL * |ref|. Refactors that only
# reorder floating-point sums move results by ~1e-15 relative.
RTOL = 1e-6
ATOL = 1e-9

# Estimation scene cycle of prnukit's evaluation harness, copied so that a
# change to the harness does not change this benchmark's inputs.
EST_MIX = (("flat", 0.4), ("texture", 0.0), ("flat", 0.6), ("gradient", 0.0), ("flat", 0.75))

# configs/ci.json with the seed taken from the case.
CI_CONFIG = {
    "sensor": {
        "width": 256,
        "height": 256,
        "strength": 0.02,
        "read_noise_std": 0.002,
        "shot_noise_scale": 0.0001,
    },
    "cameras": ["cam0", "cam1"],
    "pipelines": "default",
    "n_estimation": 20,
    "n_test": 20,
    "patch_sizes": [128],
    "estimation_pipeline": "bl_gamma",
    "denoiser": {"kind": "wavelet", "noise_variance": 0.00013840830449826989},
    "max_shift": 16,
    "output_dir": "",
}
CI_SMOKE = {"width": 128, "height": 128, "n": 4, "patch": 64, "max_shift": 8}

REPORT_FILES = (
    "summary.json",
    "correlation.csv",
    "alignment_shifts.csv",
    "pce_summary.csv",
    "roc_points.csv",
    "score_records.jsonl",
    "run_metadata.json",
)


def case_seed(case: int, *parts: int) -> int:
    """Deterministic input seed for one purpose within a case."""
    return int(np.random.SeedSequence((case, *parts)).generate_state(1, np.uint64)[0])


def run_cli(argv) -> tuple:
    """Run ``prnukit.cli.main(argv)`` in-process; returns (exit code, stdout)."""
    import prnukit.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = prnukit.cli.main([str(a) for a in argv])
    return code, out.getvalue()


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def mismatches(label: str, got, ref) -> list:
    """Problems found comparing nested numbers/strings within the tolerance."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(ref):
            return [f"{label}: keys differ"]
        return [p for k in sorted(ref) for p in mismatches(f"{label}.{k}", got[k], ref[k])]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{label}: length {len(got) if isinstance(got, list) else '-'} != {len(ref)}"]
        if ref and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in ref):
            g = np.asarray(got, dtype=np.float64)
            r = np.asarray(ref, dtype=np.float64)
            bad = ~(np.abs(g - r) <= ATOL + RTOL * np.abs(r))
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                return [f"{label}: {int(bad.sum())} values off, first [{i}] {g[i]!r} != {r[i]!r}"]
            return []
        return [p for i, (g, r) in enumerate(zip(got, ref)) for p in mismatches(f"{label}[{i}]", g, r)]
    if isinstance(ref, float):
        return mismatches(label, [got], [ref])
    return [] if got == ref else [f"{label}: {got!r} != {ref!r}"]


class Workload:
    """One set of inputs and the CLI command run on them, repeatedly."""

    name = ""
    why = ""
    # The README's predictions, checked by traced runs: the layer group with
    # the most self time, and bounds on other groups' self-time shares.
    largest = ""
    share_bounds: dict = {}

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def setup(self, inputs: Path, case: int) -> None:
        raise NotImplementedError

    def argv(self, inputs: Path, outputs: Path, i: int) -> list:
        raise NotImplementedError

    @property
    def images_per_command(self) -> int:
        raise NotImplementedError

    def extract(self, outputs: Path, i: int) -> dict:
        """Checked numbers and output digests of command ``i``."""
        raise NotImplementedError

    def reference_key(self, i: int) -> str:
        return "0"

    def extra_problems(self, outputs: Path, i: int, got: dict) -> list:
        return []

    def cleanup(self, outputs: Path, i: int) -> None:
        pass

    def reference(self, case: int) -> dict:
        suffix = "_smoke" if self.smoke else ""
        table = json.loads((REFERENCES / f"{self.name}{suffix}.json").read_text())
        return table["cases"][str(case)]

    def check(self, outputs: Path, i: int, ref_case: dict) -> tuple:
        """(problems, outputs identical) for command ``i``."""
        got = self.extract(outputs, i)
        ref = ref_case[self.reference_key(i)]
        problems = mismatches(self.name, got["values"], ref["values"])
        problems += self.extra_problems(outputs, i, got)
        return problems, got["sha256"] == ref["sha256"]


class EvaluateCI(Workload):
    name = "evaluate_ci"
    why = ("the paper's experiment at desk scale: develop-heavy ispsim, "
           "480 PPM writes and reads, the only run of evalharness and align")
    largest = "ispsim"
    share_bounds = {"denoise+wavelets": (0.15, 0.35), "matching+localization": (0.0, 0.10)}

    def _config(self, case: int) -> dict:
        cfg = json.loads(json.dumps(CI_CONFIG))
        cfg["seed"] = case_seed(case, 0) % (1 << 31)
        if self.smoke:
            cfg["sensor"]["width"] = cfg["sensor"]["height"] = CI_SMOKE["width"]
            cfg["n_estimation"] = cfg["n_test"] = CI_SMOKE["n"]
            cfg["patch_sizes"] = [CI_SMOKE["patch"]]
            cfg["max_shift"] = CI_SMOKE["max_shift"]
        return cfg

    def setup(self, inputs, case):
        inputs.mkdir(parents=True, exist_ok=True)
        (inputs / "config.json").write_text(json.dumps(self._config(case), indent=2) + "\n")

    def argv(self, inputs, outputs, i):
        return ["evaluate", "--config", inputs / "config.json", "--out", outputs / f"run{i}"]

    @property
    def images_per_command(self):
        """Images developed, written and read back by one evaluate."""
        cfg = self._config(0)
        n_pipelines = 6  # "pipelines": "default"
        return len(cfg["cameras"]) * n_pipelines * (cfg["n_estimation"] + cfg["n_test"])

    def extract(self, outputs, i):
        report = outputs / f"run{i}" / "report"
        summary = json.loads((report / "summary.json").read_text())
        with open(report / "correlation.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        with open(report / "score_records.jsonl") as fh:
            pces = [json.loads(line)["pce"] for line in fh if line.strip()]
        digest = hashlib.sha256()
        for name in REPORT_FILES:
            digest.update(name.encode() + b"\0" + (report / name).read_bytes())
        return {
            "values": {
                "summary": summary,
                "correlation": [float(v) for row in rows[1:] for v in row[1:]],
                "score_pce": pces,
            },
            "sha256": digest.hexdigest(),
        }

    def cleanup(self, outputs, i):
        # The 480-image dataset; the report is kept for the check.
        shutil.rmtree(outputs / f"run{i}" / "dataset", ignore_errors=True)


class Estimate512(Workload):
    name = "estimate_512"
    why = ("60 pre-written 512x512 16-bit PPMs folded into one fingerprint: "
           "read-only imaging, denoise/wavelets-bound, all planes held at once")
    largest = "denoise+wavelets"
    share_bounds = {"ispsim": (0.0, 0.01), "matching+localization": (0.0, 0.01),
                    "evalharness": (0.0, 0.01)}

    @property
    def size(self):
        return 128 if self.smoke else 512

    @property
    def count(self):
        return 8 if self.smoke else 60

    def setup(self, inputs, case):
        from prnukit.imaging import save_image
        from prnukit.ispsim import PipelineConfig, capture, develop, synth_scene, synth_sensor

        n = self.size
        sensor = synth_sensor(n, n, seed=case_seed(case, 0))
        pipe = PipelineConfig("nn_gamma", demosaic="nearest")
        for i in range(self.count):
            kind, level = EST_MIX[i % len(EST_MIX)]
            scene = synth_scene(n, n, kind=kind, seed=case_seed(case, 1, i), level=level)
            raw = capture(scene, sensor, seed=case_seed(case, 2, i))
            save_image(develop(raw, pipe), inputs / f"img_{i:03d}.ppm", bit_depth=16)

    def argv(self, inputs, outputs, i):
        return ["estimate", "--images", str(inputs / "*.ppm"), "--camera", "A",
                "--out", outputs / f"est{i}.fp"]

    @property
    def images_per_command(self):
        return self.count

    def extract(self, outputs, i):
        path = outputs / f"est{i}.fp"
        data = path.read_bytes()
        header, _, payload = data.partition(b"\n--\n")
        fields = dict(line.split("=", 1) for line in header.decode("ascii").split("\n")[1:])
        h, w = int(fields["height"]), int(fields["width"])
        plane = np.frombuffer(payload, dtype="<f8").reshape(h, w)
        b = h // 16
        blocks = plane[: b * 16, : b * 16].reshape(16, b, 16, b).mean(axis=(1, 3))
        rng = np.random.default_rng(0)
        ys, xs = rng.integers(0, h, 64), rng.integers(0, w, 64)
        return {
            "values": {
                "shape": [h, w],
                "n_sources": int(fields["n"]),
                "rms": float(np.sqrt(np.mean(plane * plane))),
                "block_means": [float(v) for v in blocks.ravel()],
                "samples": [float(v) for v in plane[ys, xs]],
            },
            "sha256": sha256(path),
        }


class Localize512(Workload):
    name = "localize_512"
    why = ("per-probe sliding-window PCE maps (625 windows) on spliced 512x512 "
           "images: localization/matching-bound, one residual, tiny writes")
    largest = "matching+localization"
    share_bounds = {"denoise+wavelets": (0.0, 0.10), "ispsim": (0.0, 0.01),
                    "evalharness": (0.0, 0.01)}

    @property
    def geometry(self):
        # (image size, window, stride, flats for the fingerprint, probes)
        return (256, 64, 32, 6, 3) if self.smoke else (512, 128, 16, 12, 4)

    def setup(self, inputs, case):
        from prnukit.imaging import save_image, to_luminance
        from prnukit.ispsim import PipelineConfig, capture, develop, synth_scene, synth_sensor

        size, _, _, n_flat, n_probe = self.geometry
        pipe = PipelineConfig("bl_gamma", demosaic="bilinear")
        sensor_a = synth_sensor(size, size, seed=case_seed(case, 0))
        sensor_b = synth_sensor(size, size, seed=case_seed(case, 1))

        def shoot(sensor, kind, scene_seed, capture_seed, level=0.5):
            scene = synth_scene(size, size, kind=kind, seed=scene_seed, level=level)
            return develop(capture(scene, sensor, seed=capture_seed), pipe)

        flats = inputs / "flats"
        for i in range(n_flat):
            img = shoot(sensor_a, "flat", 0, case_seed(case, 2, i), level=0.4 + 0.05 * (i % 5))
            save_image(img, flats / f"flat_{i:02d}.ppm", bit_depth=16)
        code, _ = run_cli(["estimate", "--images", str(flats / "*.ppm"), "--camera", "A",
                           "--out", inputs / "camera_a.fp"])
        if code != 0:
            raise RuntimeError(f"fingerprint estimation for the probes exited {code}")
        foreign = to_luminance(shoot(sensor_b, "texture", case_seed(case, 3), case_seed(case, 4)))
        lo, hi = self.splice
        for p in range(n_probe):
            probe = to_luminance(
                shoot(sensor_a, "texture", case_seed(case, 5, p), case_seed(case, 6, p))
            )
            probe[lo:hi, lo:hi] = foreign[lo:hi, lo:hi]
            save_image(probe, inputs / f"probe_{p}.pgm", bit_depth=16)

    @property
    def splice(self):
        size = self.geometry[0]
        return size // 4, 3 * size // 4

    def reference_key(self, i):
        return str(i % self.geometry[4])

    def argv(self, inputs, outputs, i):
        _, window, stride, _, _ = self.geometry
        return ["localize", "--image", inputs / f"probe_{self.reference_key(i)}.pgm",
                "--fingerprint", inputs / "camera_a.fp",
                "--window", window, "--stride", stride,
                "--out-map", outputs / f"map{i}.pgm", "--json-map", outputs / f"map{i}.json"]

    images_per_command = 1

    def extract(self, outputs, i):
        obj = json.loads((outputs / f"map{i}.json").read_text())
        digest = hashlib.sha256(
            (outputs / f"map{i}.json").read_bytes() + (outputs / f"map{i}.pgm").read_bytes()
        )
        return {
            "values": {
                "rows": obj["rows"],
                "cols": obj["cols"],
                # Authentic windows sit at probabilities far below ATOL.
                "grid": [round(float(v), 12) for v in obj["values"]],
            },
            "sha256": digest.hexdigest(),
        }

    def extra_problems(self, outputs, i, got):
        _, window, stride, _, _ = self.geometry
        lo, hi = self.splice
        vals = got["values"]
        grid = np.asarray(vals["grid"]).reshape(vals["rows"], vals["cols"])
        inside, outside = [], []
        for r in range(grid.shape[0]):
            for c in range(grid.shape[1]):
                y0, x0 = r * stride, c * stride
                y1, x1 = y0 + window, x0 + window
                if lo <= x0 and x1 <= hi and lo <= y0 and y1 <= hi:
                    inside.append(grid[r, c])
                elif x1 <= lo or x0 >= hi or y1 <= lo or y0 >= hi:
                    outside.append(grid[r, c])
        if not np.mean(inside) > np.mean(outside):
            return [f"{self.name}: splice not brighter inside ({np.mean(inside):.3g}) "
                    f"than outside ({np.mean(outside):.3g})"]
        return []


WORKLOADS = {w.name: w for w in (EvaluateCI, Estimate512, Localize512)}
