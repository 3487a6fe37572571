import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from oracles import cross_correlate_direct
from prnukit.errors import DegenerateInputError, ShapeError
from prnukit.fingerprint import Fingerprint
from prnukit.matching import (
    align,
    cross_correlate,
    match_patch,
    ncc,
    p_value,
    pce,
)


def _circ_shift(plane, dx, dy):
    return np.roll(np.roll(plane, dy, axis=0), dx, axis=1)


def test_ncc_basics():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 8))
    assert ncc(x, x) == pytest.approx(1.0, abs=1e-12)
    assert ncc(x, -x) == pytest.approx(-1.0, abs=1e-12)
    assert ncc(x, x + 3.7) == pytest.approx(1.0, abs=1e-12)
    assert -1.0 <= ncc(x, rng.standard_normal((8, 8))) <= 1.0


def test_ncc_errors():
    with pytest.raises(DegenerateInputError):
        ncc(np.full((4, 4), 2.0), np.zeros((4, 4)))
    with pytest.raises(ShapeError):
        ncc(np.zeros((4, 4)), np.zeros((4, 5)))


def test_autocorrelation_peak_at_zero():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((16, 16))
    surface = cross_correlate(a, a)
    assert np.unravel_index(np.argmax(surface), surface.shape) == (0, 0)


def test_shift_theorem():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((32, 32))
    surface = cross_correlate(a, _circ_shift(a, 5, 9))
    sy, sx = np.unravel_index(np.argmax(surface), surface.shape)
    assert (sx, sy) == (5, 9)


@settings(max_examples=100)
@given(st.integers(0, 2**31), st.sampled_from([8, 16]))
def test_fft_matches_bruteforce(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    assert np.abs(cross_correlate(a, b) - cross_correlate_direct(a, b)).max() < 1e-6


def test_pce_degenerate_surface():
    surface = np.zeros((32, 32))
    surface[4, 7] = 3.0
    with pytest.raises(DegenerateInputError):
        pce(surface, exclusion_radius=5)


def test_pce_closed_form():
    surface = np.full((64, 64), 0.25)
    surface[10, 20] = 5.0
    score = pce(surface, exclusion_radius=5)
    assert score.pce == pytest.approx((5.0 / 0.25) ** 2, rel=1e-12)
    assert score.peak_value == 5.0
    assert score.peak_location == (20, 10)
    negative = pce(-surface, exclusion_radius=5)
    assert negative.pce == pytest.approx(-400.0, rel=1e-12)
    assert negative.peak_value == -5.0


def test_pce_area_precondition():
    with pytest.raises(ValueError):
        pce(np.ones((8, 8)), exclusion_radius=5)
    noise = np.random.default_rng(10).standard_normal((32, 32))
    for peak in (None, (0, 0)):
        with pytest.raises(ValueError, match="exclusion_radius"):
            pce(noise, exclusion_radius=-1, peak=peak)


@settings(max_examples=100)
@given(st.floats(1e-3, 1e3), st.integers(0, 2**31))
def test_pce_scale_invariant(alpha, seed):
    rng = np.random.default_rng(seed)
    surface = rng.standard_normal((24, 24))
    a = pce(surface, exclusion_radius=3)
    b = pce(alpha * surface, exclusion_radius=3)
    assert b.pce == pytest.approx(a.pce, rel=1e-9)
    assert b.peak_location == a.peak_location


def test_pce_invariant_under_co_shift():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((48, 48))
    b = a + 0.3 * rng.standard_normal((48, 48))
    base = pce(cross_correlate(a, b))
    both = pce(cross_correlate(_circ_shift(a, 7, 4), _circ_shift(b, 7, 4)))
    one = pce(cross_correlate(a, _circ_shift(b, 7, 4)))
    assert both.pce == pytest.approx(base.pce, rel=1e-9)
    assert one.pce == pytest.approx(base.pce, rel=1e-9)
    assert one.peak_location == (7, 4)


def test_p_value_endpoints():
    assert p_value(0.0, 100) == 0.5
    assert p_value(-3.0, 100) == 0.5
    assert p_value(1e12, 100) == 0.0
    assert p_value(4.0, 100) == pytest.approx(0.02275, abs=2e-5)
    # independent oracle: standard-normal survival function
    assert p_value(4.0, 100) == pytest.approx(scipy.stats.norm.sf(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        p_value(1.0, 1)


@settings(max_examples=100)
@given(st.floats(0, 1e6), st.floats(0, 1e6))
def test_p_value_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert p_value(hi, 64) <= p_value(lo, 64)


def test_align_identical():
    rng = np.random.default_rng(4)
    fa = rng.standard_normal((64, 64))
    shift, corr = align(fa, fa, max_shift=10)
    assert shift == (0, 0)
    assert corr == pytest.approx(1.0, abs=1e-12)


def test_align_recovers_circular_shift():
    rng = np.random.default_rng(5)
    fa = rng.standard_normal((96, 96))
    shift, corr = align(fa, _circ_shift(fa, 5, 9), max_shift=16)
    assert shift == (5, 9)
    assert corr == pytest.approx(1.0, abs=1e-12)


def test_align_cropped_re_embedded():
    rng = np.random.default_rng(6)
    fa = rng.standard_normal((80, 80))
    fb = np.zeros_like(fa)
    fb[2:, 3:] = fa[:-2, :-3]  # content re-embedded at offset (3, 2)
    shift, corr = align(fa, fb, max_shift=8)
    assert shift == (3, 2)
    assert corr > 0.99


@settings(max_examples=100)
@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(0, 2**31))
def test_align_recovers_any_planted_shift(dx, dy, seed):
    fa = np.random.default_rng(seed).standard_normal((48, 48))
    shift, _ = align(fa, _circ_shift(fa, dx, dy), max_shift=8)
    assert shift == (dx, dy)


def test_align_validation():
    a = np.zeros((32, 32))
    with pytest.raises(ShapeError):
        align(a, np.zeros((32, 16)), 4)
    with pytest.raises(ValueError):
        align(a, a, max_shift=16)  # not < min(dim)/2


def test_align_accepts_fingerprints():
    rng = np.random.default_rng(7)
    plane = rng.standard_normal((48, 48))
    fa = Fingerprint(plane, "c", "p", 1)
    fb = Fingerprint(_circ_shift(plane, 2, -3), "c", "q", 1)
    shift, _ = align(fa, fb, max_shift=6)
    assert shift == (2, -3)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["a", "b"])
def test_non_finite_plane_is_degenerate(bad, which):
    rng = np.random.default_rng(10)
    a = rng.standard_normal((64, 64))
    b = _circ_shift(a, 1, 2)
    (a if which == "a" else b)[17, 40] = bad
    with pytest.raises(DegenerateInputError, match="non-finite"):
        ncc(a, b)
    with pytest.raises(DegenerateInputError, match="non-finite"):
        align(a, b, max_shift=4)


def test_match_patch_bounds_and_degenerate():
    rng = np.random.default_rng(8)
    fp = Fingerprint(rng.standard_normal((64, 64)))
    img = rng.random((32, 32))
    res = rng.standard_normal((32, 32))
    with pytest.raises(ValueError):
        match_patch(img, res, fp, origin=(40, 0))
    with pytest.raises(DegenerateInputError):
        match_patch(img, res, Fingerprint(np.zeros((64, 64))), origin=(0, 0))


def test_match_patch_detects_planted_pattern():
    rng = np.random.default_rng(9)
    k = rng.normal(0, 0.02, (128, 128))
    fp = Fingerprint(k)
    img = np.full((64, 64), 0.6)
    region = k[32 : 32 + 64, 16 : 16 + 64]
    res = img * region + rng.normal(0, 0.004, (64, 64))
    score = match_patch(img, res, fp, origin=(16, 32))
    assert score.pce > 50.0
    assert score.peak_location == (0, 0)
    wrong = match_patch(img, rng.normal(0, 0.01, (64, 64)), fp, origin=(16, 32))
    assert wrong.pce < score.pce
