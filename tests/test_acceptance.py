"""End-to-end acceptance suite.

Each test prints one pass/fail line. Run with ``pytest -v -s
tests/test_acceptance.py`` to see the lines as they complete. The seeded
dataset fixtures in conftest.py are shared with the harness tests.
"""

import time
from contextlib import contextmanager

import numpy as np

import conftest
from oracles import cross_correlate_direct
from prnukit.denoise import DenoiserSpec
from prnukit.fingerprint import clean_fingerprint, estimate_fingerprint, residual
from prnukit.imaging import load_image, to_luminance
from prnukit.ispsim import capture, synth_scene, synth_sensor
from prnukit.localization import pce_map, probability_map
from prnukit.matching import cross_correlate, ncc
from prnukit.evalharness import roc, tpr_at_fpr


@contextmanager
def _criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    print(f"[criterion {number}] {name}: PASS")


def test_criterion_1_fingerprint_recovery():
    with _criterion(1, "planted-pattern recovery from 60 flat captures"):
        t0 = time.time()
        sensor = synth_sensor(256, 256, strength=0.02, seed=101)
        spec = DenoiserSpec()
        scene = synth_scene(256, 256, "flat", level=0.5)
        imgs, res = [], []
        for i in range(60):
            raw = capture(scene, sensor, seed=7000 + i)
            imgs.append(raw)
            res.append(residual(raw, spec))
        fp = clean_fingerprint(estimate_fingerprint(imgs, res))
        corr = ncc(fp.plane, sensor.prnu)
        elapsed = time.time() - t0
        print(f"  ncc(estimate, planted) = {corr:.4f}, {elapsed:.1f}s")
        assert corr > 0.9
        assert elapsed < 120.0


def test_criterion_2_oracle_equivalence():
    with _criterion(2, "frequency-domain and AUC oracles"):
        rng = np.random.default_rng(202)
        worst = 0.0
        for size in (16, 32):
            for _ in range(50):
                a = rng.standard_normal((size, size))
                b = rng.standard_normal((size, size))
                err = np.abs(cross_correlate(a, b) - cross_correlate_direct(a, b)).max()
                worst = max(worst, err)
        print(f"  cross-correlation max |fft - direct| = {worst:.2e}")
        assert worst < 1e-6

        worst_auc = 0.0
        for trial in range(50):
            rng2 = np.random.default_rng(3000 + trial)
            # quantized scores force threshold ties in many sets
            pos = np.round(rng2.normal(1.0, 1.0, 200), 1)
            neg = np.round(rng2.normal(0.0, 1.0, 200), 1)
            auc = roc(pos, neg).auc
            wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
            worst_auc = max(worst_auc, abs(auc - wins / (200 * 200)))
        print(f"  max |auc - pairwise oracle| = {worst_auc:.2e}")
        assert worst_auc < 1e-9


def test_criterion_3_correlation_ordering(ci_manifest, ci_split):
    with _criterion(3, "same-config split-half exceeds cross-config by 0.1"):
        same_min = min(ci_split.same.values())
        cross_max = max(ci_split.cross_raw.values())
        print(f"  min same {same_min:.4f}, max cross {cross_max:.4f}, margin {same_min - cross_max:.4f}")
        assert same_min >= cross_max + 0.1

        crop_id = "nn_scurve_crop"
        for (cam, pa, pb), raw in ci_split.cross_raw.items():
            if crop_id in (pa, pb):
                aligned, shift = ci_split.cross_aligned[(cam, pa, pb)]
                assert raw < 0.1, (cam, pa, pb, raw)
                assert (abs(shift[0]), abs(shift[1])) == (4, 4)
                assert aligned > 0.3
                assert aligned >= raw + 0.25
        print("  crop-offset config de-synchronized (<0.1) and restored by align")


def _positives(records, size, same, est):
    return [
        r.pce
        for r in records
        if r.label == "positive"
        and r.patch_size == size
        and ((r.pipeline_test == est) == same)
    ]


def test_criterion_4_pce_degradation(patch_records, patch_config):
    with _criterion(4, "same-pipeline median PCE exceeds cross-pipeline"):
        est = patch_config.estimation_pipeline
        for size in (128, 256, 512):
            same = np.median(_positives(patch_records, size, True, est))
            cross = np.median(_positives(patch_records, size, False, est))
            print(f"  size {size}: median same {same:.1f} vs cross {cross:.1f}")
            assert same > cross


def test_criterion_5_detection_threshold(patch_records, patch_config):
    with _criterion(5, "PCE threshold 50 separates matched from foreign"):
        est = patch_config.estimation_pipeline
        pos = np.asarray(_positives(patch_records, 512, True, est))
        neg = np.asarray([r.pce for r in patch_records if r.label == "negative" and r.patch_size == 512])
        pos_rate = float(np.mean(pos > 50.0))
        neg_rate = float(np.mean(neg > 50.0))
        print(f"  matched >50: {pos_rate:.3f} (n={pos.size}); foreign >50: {neg_rate:.3f} (n={neg.size})")
        assert pos_rate >= 0.95
        assert neg_rate <= 0.01


def test_criterion_6_tpr_ordering(patch_records, patch_config):
    with _criterion(6, "TPR at 0.5% FPR: same-pipeline >= cross-pipeline"):
        est = patch_config.estimation_pipeline
        for size in (128, 256):
            neg = [r.pce for r in patch_records if r.label == "negative" and r.patch_size == size]
            tpr_same = tpr_at_fpr(roc(_positives(patch_records, size, True, est), neg), 0.005)
            tpr_cross = tpr_at_fpr(roc(_positives(patch_records, size, False, est), neg), 0.005)
            print(f"  size {size}: tpr same {tpr_same:.4f} vs cross {tpr_cross:.4f}")
            assert tpr_same >= tpr_cross


def test_criterion_7_splice_localization(patch_manifest, patch_sets, patch_config):
    with _criterion(7, "spliced region raises no-match tail probability by 0.2"):
        est = patch_config.estimation_pipeline
        cam_a, cam_b = patch_manifest.cameras[:2]
        k = patch_sets[(cam_a, est)].plane
        authentic = to_luminance(load_image(patch_manifest.image_paths(cam_a, est, "test")[0]))
        foreign = to_luminance(load_image(patch_manifest.image_paths(cam_b, est, "test")[0]))

        authentic_map = pce_map(authentic, k, window=128, stride=64, denoiser=patch_config.denoiser)
        frac_high = float(np.mean(authentic_map.grid > 50.0))
        print(f"  authentic image: {frac_high:.3f} of windows above PCE 50")
        assert frac_high >= 0.9

        x0 = y0 = 128
        size = 256
        spliced = authentic.copy()
        spliced[y0 : y0 + size, x0 : x0 + size] = foreign[y0 : y0 + size, x0 : x0 + size]
        prob = probability_map(
            pce_map(spliced, k, window=128, stride=64, denoiser=patch_config.denoiser)
        )
        inside, outside = [], []
        rows, cols = prob.shape
        for i in range(rows):
            for j in range(cols):
                x, y = prob.origin(i, j)
                if x >= x0 and y >= y0 and x + 128 <= x0 + size and y + 128 <= y0 + size:
                    inside.append(prob.grid[i, j])
                elif x + 128 <= x0 or x >= x0 + size or y + 128 <= y0 or y >= y0 + size:
                    outside.append(prob.grid[i, j])
        gap = float(np.mean(inside) - np.mean(outside))
        print(f"  mean probability inside {np.mean(inside):.3f} vs outside {np.mean(outside):.4f} (gap {gap:.3f})")
        assert gap >= 0.2


def test_criterion_8_property_suites_and_budget():
    with _criterion(8, "invariant suites present and CI budget holds"):
        import test_denoise
        import test_evalharness
        import test_fingerprint
        import test_imaging
        import test_localization
        import test_matching

        modules = (
            test_imaging,
            test_denoise,
            test_fingerprint,
            test_matching,
            test_localization,
            test_evalharness,
        )
        property_tests = [
            name
            for mod in modules
            for name in dir(mod)
            if name.startswith("test_") and hasattr(getattr(mod, name), "hypothesis")
        ]
        print(f"  {len(property_tests)} hypothesis property tests across module suites")
        assert len(property_tests) >= 10
        elapsed = time.time() - conftest.SESSION_T0
        print(f"  elapsed at acceptance completion: {elapsed:.0f}s")
        assert elapsed < 600.0
