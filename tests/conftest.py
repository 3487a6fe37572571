"""Shared fixtures: seeded datasets reused across harness and acceptance tests."""

import time
import types
from functools import partial

import pytest
from hypothesis import HealthCheck, settings

from prnukit import _pool
from prnukit.evalharness import (
    ExperimentConfig,
    build_dataset,
    estimate_fingerprint_sets,
    pce_sweep,
)
from prnukit.fingerprint import FingerprintAccumulator, clean_fingerprint, residual
from prnukit.imaging import common_crop_planes, load_image, to_luminance
from prnukit.ispsim import DEFAULT_PIPELINES, SensorSpec
from prnukit.matching import align, ncc

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

SESSION_T0 = time.time()

CI_SEED = 42
PATCH_SEED = 11


@pytest.fixture(scope="session")
def ci_config():
    return ExperimentConfig(
        seed=CI_SEED,
        sensor=SensorSpec(256, 256),
        cameras=("cam0", "cam1"),
        pipelines=DEFAULT_PIPELINES,
        n_estimation=32,
        n_test=4,
        patch_sizes=(128,),
    )


@pytest.fixture(scope="session")
def ci_manifest(ci_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("ci_dataset")
    return build_dataset(ci_config, out)


def _full_and_halves(denoiser, unit):
    """(full, even-index half, odd-index half) fingerprints of one (camera,
    pipeline id, estimation paths) unit, from one residual per image."""
    cam, pid, paths = unit
    full, *halves = (FingerprintAccumulator() for _ in range(3))
    for i, path in enumerate(paths):
        img = to_luminance(load_image(path))
        res = residual(img, denoiser)
        full.add(img, res)
        halves[i % 2].add(img, res)
    return tuple(clean_fingerprint(acc.finish(cam, pid)) for acc in (full, *halves))


@pytest.fixture(scope="session")
def ci_sets(ci_manifest, ci_config):
    """(camera, pipeline id) -> (full, half_a, half_b) fingerprints."""
    keys = [(cam, pid) for cam in ci_manifest.cameras for pid in ci_manifest.pipeline_ids]
    units = [(cam, pid, ci_manifest.image_paths(cam, pid, "estimation")) for cam, pid in keys]
    return dict(zip(keys, list(_pool.ordered_map(partial(_full_and_halves, ci_config.denoiser), units))))


@pytest.fixture(scope="session")
def ci_split(ci_manifest, ci_sets, ci_config):
    """Half-vs-half correlations, per camera.

    ``same``: (camera, pipeline) -> NCC between the two halves.
    ``cross_raw``: (camera, pipe_a, pipe_b) -> un-aligned NCC (half A of a
    vs half B of b), after common-cropping.
    ``cross_aligned``: same keys -> (NCC after alignment, (dx, dy)).
    """
    same, cross_raw, cross_aligned = {}, {}, {}
    pids = ci_manifest.pipeline_ids
    for cam in ci_manifest.cameras:
        planes_a = common_crop_planes([ci_sets[(cam, pid)][1].plane for pid in pids])
        planes_b = common_crop_planes([ci_sets[(cam, pid)][2].plane for pid in pids])
        for i, pa in enumerate(pids):
            same[(cam, pa)] = ncc(planes_a[i], planes_b[i])
            for j, pb in enumerate(pids):
                if i != j:
                    cross_raw[(cam, pa, pb)] = ncc(planes_a[i], planes_b[j])
                    shift, corr = align(planes_a[i], planes_b[j], ci_config.max_shift)
                    cross_aligned[(cam, pa, pb)] = (corr, shift)
    return types.SimpleNamespace(same=same, cross_raw=cross_raw, cross_aligned=cross_aligned)


@pytest.fixture(scope="session")
def patch_config():
    roster = tuple(p for p in DEFAULT_PIPELINES if p.crop_offset == (0, 0))
    return ExperimentConfig(
        seed=PATCH_SEED,
        sensor=SensorSpec(512, 512),
        cameras=("camA", "camB"),
        pipelines=roster,
        n_estimation=10,
        n_test=8,
        patch_sizes=(128, 256, 512),
        estimation_pipeline="bl_gamma",
    )


@pytest.fixture(scope="session")
def patch_manifest(patch_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("patch_dataset")
    return build_dataset(patch_config, out)


@pytest.fixture(scope="session")
def patch_sets(patch_manifest, patch_config):
    """camA's fingerprint under every pipeline and camB's under the estimation pipeline."""
    cam_a, cam_b = patch_manifest.cameras
    keys = [(cam_a, pid) for pid in patch_manifest.pipeline_ids] + [(cam_b, patch_config.estimation_pipeline)]
    return estimate_fingerprint_sets(patch_manifest, keys, patch_config.denoiser)


@pytest.fixture(scope="session")
def patch_records(patch_manifest, patch_sets, patch_config):
    return pce_sweep(
        patch_manifest,
        patch_sets,
        patch_config.estimation_pipeline,
        patch_config.patch_sizes,
        patch_config.denoiser,
    )
