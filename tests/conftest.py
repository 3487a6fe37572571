"""Shared fixtures: seeded datasets reused across harness and acceptance tests."""

import time

import pytest
from hypothesis import HealthCheck, settings

from prnukit.evalharness import (
    ExperimentConfig,
    build_dataset,
    estimate_fingerprint_sets,
    pce_sweep,
    split_half_correlations,
)
from prnukit.ispsim import DEFAULT_PIPELINES, SensorSpec

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


@pytest.fixture(scope="session")
def ci_sets(ci_manifest, ci_config):
    return estimate_fingerprint_sets(ci_manifest, ci_config.denoiser)


@pytest.fixture(scope="session")
def ci_split(ci_manifest, ci_sets, ci_config):
    return split_half_correlations(ci_manifest, ci_sets, ci_config.max_shift)


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
    return estimate_fingerprint_sets(patch_manifest, patch_config.denoiser)


@pytest.fixture(scope="session")
def patch_records(patch_manifest, patch_sets, patch_config):
    fingerprints = {key: s.full for key, s in patch_sets.items()}
    return pce_sweep(
        patch_manifest,
        fingerprints,
        patch_config.estimation_pipeline,
        patch_config.patch_sizes,
        patch_config.denoiser,
    )
