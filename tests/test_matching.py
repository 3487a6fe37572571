import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings, strategies as st

from oracles import cross_correlate_direct, pinned_pce
from prnukit.errors import DegenerateInputError, ShapeError
from prnukit.matching import (
    _around,
    _cross_power,
    _surface,
    align,
    cross_correlate,
    match_patch,
    match_windows,
    ncc,
    p_value,
    pce,
    signed_shift,
    window_origins,
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


@pytest.mark.parametrize("shape", [(9, 13), (12, 8), (15, 15), (16, 10)])
@pytest.mark.parametrize("offset", [0.0, 1.0, 100.0, 1e3])
def test_cross_correlate_is_the_mean_removed_circular_sum(shape, offset):
    # The frequency path zeroes a DC bin instead of subtracting the means;
    # planes offset by up to 1e3 must still come out mean-removed.
    rng = np.random.default_rng(shape[0] * shape[1])
    a = rng.standard_normal(shape) + offset
    b = rng.standard_normal(shape) - offset / 2
    want = cross_correlate_direct(a, b)
    assert np.abs(cross_correlate(a, b) - want).max() <= 1e-9 * np.abs(want).max()


def test_pce_degenerate_surface():
    surface = np.zeros((32, 32))
    surface[4, 7] = 3.0
    with pytest.raises(DegenerateInputError):
        pce(surface)


def test_pce_closed_form():
    surface = np.full((64, 64), 0.25)
    surface[10, 20] = 5.0
    score = pce(surface)
    assert score.pce == pytest.approx((5.0 / 0.25) ** 2, rel=1e-12)
    assert score.peak_value == 5.0
    assert score.peak == (20, 10)
    negative = pce(-surface)
    assert negative.pce == pytest.approx(-400.0, rel=1e-12)
    assert negative.peak_value == -5.0


# Odd, even and thin sides around the 11x11 block: an axis of 11 or fewer
# samples is excluded whole, and 2x61 holds one sample more than the block.
SURFACE_SHAPES = [(11, 12), (12, 11), (12, 12), (15, 16), (16, 15), (6, 40), (40, 4), (2, 61)]


@pytest.mark.parametrize("shape", SURFACE_SHAPES)
@pytest.mark.parametrize("corner", [(0, 0), (0, -1), (-1, 0), (-1, -1)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pce_is_the_masked_surface_score_at_every_shape(shape, corner, sign):
    # Peaks whose exclusion block wraps across both edges, and negative peaks.
    h, w = shape
    rng = np.random.default_rng(h * w)
    surface = rng.standard_normal(shape)
    surface[corner] = sign * 8.0
    score = pce(surface)
    want = pinned_pce(surface, 5)
    assert (score.peak, score.peak_value) == (want.peak, want.peak_value) == (corner[::-1], sign * 8.0)
    assert score.pce == pytest.approx(want.pce, rel=1e-12)


@pytest.mark.parametrize("shape", [(11, 11), (8, 8), (3, 40), (40, 3), (1, 121)])
def test_pce_needs_a_surface_larger_than_the_block(shape):
    noise = np.random.default_rng(10).standard_normal(shape)
    with pytest.raises(ValueError, match="not larger than the 11x11 exclusion zone"):
        pce(noise)


@settings(max_examples=100)
@given(st.floats(1e-3, 1e3), st.integers(0, 2**31))
def test_pce_scale_invariant(alpha, seed):
    rng = np.random.default_rng(seed)
    surface = rng.standard_normal((24, 24))
    a = pce(surface)
    b = pce(alpha * surface)
    assert b.pce == pytest.approx(a.pce, rel=1e-9)
    assert b.peak == a.peak


def test_pce_invariant_under_co_shift():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((48, 48))
    b = a + 0.3 * rng.standard_normal((48, 48))
    base = pce(cross_correlate(a, b))
    both = pce(cross_correlate(_circ_shift(a, 7, 4), _circ_shift(b, 7, 4)))
    one = pce(cross_correlate(a, _circ_shift(b, 7, 4)))
    assert both.pce == pytest.approx(base.pce, rel=1e-9)
    assert one.pce == pytest.approx(base.pce, rel=1e-9)
    assert one.peak == (7, 4)


def test_p_value_endpoints():
    assert p_value(0.0) == 0.5
    assert p_value(-3.0) == 0.5
    assert p_value(1e12) == 0.0
    assert p_value(4.0) == pytest.approx(0.02275, abs=2e-5)
    # independent oracle: standard-normal survival function
    assert p_value(4.0) == pytest.approx(scipy.stats.norm.sf(2.0), rel=1e-12)


@settings(max_examples=100)
@given(st.floats(0, 1e6), st.floats(0, 1e6))
def test_p_value_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert p_value(hi) <= p_value(lo)


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
    rng = np.random.default_rng(8)
    a = rng.standard_normal((32, 32))
    b = rng.standard_normal((30, 20))
    # planes of different shapes are compared over their shared top-left rectangle
    assert align(a, b, 4) == align(a[:30, :20], b, 4)
    assert align(b, a, 4) == align(b, a[:30, :20], 4)
    with pytest.raises(ValueError):
        align(a, a, max_shift=16)  # not < min(dim)/2
    with pytest.raises(ValueError):
        align(a, b, max_shift=10)  # the bound comes from the 30x20 rectangle


@pytest.mark.parametrize("shape", [(256, 256), (252, 252), (64, 96), (100, 70), (31, 33)])
def test_align_box_is_the_surface_box(shape):
    # align inverts only the +-m box; its values must be the full surface's bits,
    # for boxes that wrap, m = 0, and the odd side whose box is the whole axis.
    h, w = shape
    rng = np.random.default_rng(h * w)
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    p = _cross_power(np.fft.rfft(a, axis=0), np.fft.rfft(b, axis=0))
    top = (min(h, w) - 1) // 2  # the largest max_shift align allows
    for m in (0, 4, min(16, top), top):
        rows, cols = _around(0, h, m), _around(0, w, m)
        assert np.array_equal(_surface(p, h, cols)[rows], cross_correlate(a, b)[np.ix_(rows, cols)])
        for index, dim in ((rows, h), (cols, w)):
            assert signed_shift(index, dim).tolist() == [signed_shift(int(i), dim) for i in index]
            assert sorted(signed_shift(index, dim).tolist()) == list(range(-m, m + 1))


@pytest.mark.parametrize(
    "roll, want", [((0, 2), (-2, 0)), ((2, 0), (0, -2)), ((2, 2), (-2, -2)), ((1, 2), (-2, 1))]
)
def test_align_breaks_exact_ties_by_taxicab_then_signed_dy_then_dx(roll, want):
    # A plane of period 4 correlates equally at every shift of a multiple of 4 from the roll.
    rng = np.random.default_rng(2)
    a = np.tile(rng.integers(-3, 4, (4, 4)).astype(float), (16, 16))
    b = np.roll(a, roll, axis=(0, 1))
    assert align(a, b, 8)[0] == want


def test_align_breaks_an_exact_diagonal_tie_by_signed_dy_before_dx():
    # A plane periodic along (dx, dy) = (2, -2): (1, -1) and (-1, 1) tie at taxicab 2.
    y, x = np.mgrid[:16, :16]
    a = np.random.default_rng(2).integers(-3, 4, (16, 2)).astype(float)[(x + y) % 16, x % 2]
    assert align(a, np.roll(a, (-1, 1), axis=(0, 1)), 7)[0] == (1, -1)


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
    # The scorers take the plane as a surface, or a and b as the residual and
    # the fingerprint; only the second window holds the bad sample.
    with pytest.raises(DegenerateInputError, match="non-finite"):
        pce(a if which == "a" else b)
    image = np.ones_like(a)
    with pytest.raises(DegenerateInputError, match="non-finite"):
        match_patch(image, a, b)
    for peak in (None, (0, 0)):
        with pytest.raises(DegenerateInputError, match="non-finite"):
            match_windows(image, a, b, 32, [(0, 0), (32, 0)], peak=peak)


def test_match_patch_bounds_and_degenerate():
    rng = np.random.default_rng(8)
    k = rng.standard_normal((64, 64))
    img = rng.random((32, 32))
    res = rng.standard_normal((32, 32))
    with pytest.raises(ShapeError):
        match_patch(img, res, k)
    with pytest.raises(DegenerateInputError):
        match_patch(img, res, np.zeros((32, 32)))


def test_match_patch_detects_planted_pattern():
    rng = np.random.default_rng(9)
    k = rng.normal(0, 0.02, (128, 128))
    img = np.full((64, 64), 0.6)
    region = k[32 : 32 + 64, 16 : 16 + 64]
    res = img * region + rng.normal(0, 0.004, (64, 64))
    score = match_patch(img, res, region)
    assert score.pce > 50.0
    assert score.peak == (0, 0)
    wrong = match_patch(img, rng.normal(0, 0.01, (64, 64)), region)
    assert wrong.pce < score.pce


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**31),
    st.integers(12, 24) | st.tuples(st.integers(2, 34), st.integers(2, 50)),
    st.none() | st.integers(4, 16),
    st.none() | st.sampled_from([(0, 0), (-1, -1), (-1, 0), (0, -1)]) | st.tuples(*[st.integers(-60, 60)] * 2),
    st.sampled_from([1.0, -1.0]),
)
# Sides no longer than the 11x11 block, peaks pinned on the wrap corners, and anti-correlated residuals.
@example(seed=1, size=(5, 40), stride=None, peak=(-1, -1), sign=-1.0)
@example(seed=2, size=(30, 5), stride=7, peak=(0, -1), sign=1.0)
@example(seed=3, size=(11, 12), stride=None, peak=None, sign=-1.0)
@example(seed=4, size=(34, 50), stride=None, peak=(-1, 0), sign=1.0)
def test_match_windows_is_match_patch_per_origin(seed, size, stride, peak, sign):
    sh, sw = (size, size) if isinstance(size, int) else size
    assume(sh * sw > 11 * 11)
    rng = np.random.default_rng(seed)
    k = rng.normal(0, 0.02, (40, 56))
    img = rng.random((34, 50))
    res = sign * img * k[:34, :50] + rng.normal(0, 0.01, img.shape)
    origins = [(x, y) for y in range(0, 35 - sh, stride or sh) for x in range(0, 51 - sw, stride or sw)]
    got = match_windows(img, res, k[:34, :50], size, origins, peak)
    assert len(got) == len(origins)
    if isinstance(size, int):
        assert origins == window_origins(img.shape, size, stride)
        assert got == match_windows(img, res, k[:34, :50], (size, size), origins, peak)
    for (x, y), score in zip(origins, got):
        win = (slice(y, y + sh), slice(x, x + sw))
        surface = cross_correlate(res[win], img[win] * k[win])  # match_patch's body before it called match_windows
        if peak is None:
            assert score == pce(surface)
            assert score == match_patch(img[win], res[win], k[win])
        else:
            _assert_pinned_score(score, pinned_pce(surface, 5, peak))


@pytest.mark.parametrize("size", [2.5, 16.0, "16", None, (16,), (16, 16, 1), (16, 16.0), (0, 16), (16, -1), 0])
def test_match_windows_size_is_an_int_or_a_pair(size):
    rng = np.random.default_rng(13)
    img = rng.random((32, 32))
    with pytest.raises(ValueError, match="^size must be"):
        match_windows(img, rng.normal(0, 0.01, img.shape), rng.normal(0, 0.02, img.shape), size, [(0, 0)])


def _assert_pinned_score(score, want):
    # The pinned scorer takes the total energy by Parseval, so only the PCE may round differently.
    assert (score.peak, score.peak_value) == (want.peak, want.peak_value)
    assert score.pce == pytest.approx(want.pce, rel=1e-12)


@pytest.mark.parametrize("shape", [shape for shape in SURFACE_SHAPES if shape[1] <= 44])
@pytest.mark.parametrize("peak", [(0, 0), (-3, 2), (7, -8)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pinned_match_windows_is_the_surface_score_at_every_shape(shape, peak, sign):
    # Shifts that wrap, and a residual that anti-correlates, giving negative peaks.
    sh, sw = shape
    rng = np.random.default_rng(sh * sw)
    k = rng.normal(0, 0.02, (40, 44))
    img = rng.random(k.shape)
    res = sign * img * k + rng.normal(0, 0.01, k.shape)
    origins = [(x, y) for y in range(0, 41 - sh, 12) for x in range(0, 45 - sw, 12)]
    got = match_windows(img, res, k, shape, origins, peak)
    for (x, y), score in zip(origins, got):
        win = (slice(y, y + sh), slice(x, x + sw))
        want = pinned_pce(cross_correlate(res[win], img[win] * k[win]), 5, peak)
        _assert_pinned_score(score, want)
        if peak == (0, 0):
            assert np.sign(score.peak_value) == sign
    with pytest.raises(ValueError, match="not larger than"):
        match_windows(img, res, k, (11, 11), origins[:1], peak)


@pytest.mark.parametrize("peak", [None, (0, 0)])
def test_match_windows_checks_the_energy(peak):
    rng = np.random.default_rng(12)
    img = rng.random((32, 32))
    res = rng.normal(0, 0.01, img.shape)
    with pytest.raises(DegenerateInputError):
        match_windows(img, res, np.zeros(img.shape), 16, [(0, 0), (16, 16)], peak)


@pytest.mark.parametrize("origin", [(90, 10), (10, 90)])
def test_match_windows_rejects_a_window_leaving_the_image(origin):
    # Across the right or the bottom edge of the 100x100 planes: no score from
    # a window they only partly fill.
    rng = np.random.default_rng(3)
    k = rng.normal(0, 0.02, (100, 100))
    img = rng.random((100, 100))
    res = img * k
    x, y = origin
    with pytest.raises(ValueError, match=rf"^patch 32x32 at \({x},{y}\) outside 100x100 image$"):
        match_windows(img, res, k, 32, [(0, 0), origin])


@pytest.mark.parametrize("odd", ["residual", "fingerprint"])
def test_image_scorers_reject_planes_of_different_shapes(odd):
    rng = np.random.default_rng(4)
    planes = {"image": rng.random((64, 64)), "residual": rng.normal(0, 0.01, (64, 64))}
    planes["fingerprint"] = rng.normal(0, 0.02, (64, 64))
    planes[odd] = planes[odd][:, :60]
    with pytest.raises(ShapeError, match="differ in shape"):
        match_patch(*planes.values())
    with pytest.raises(ShapeError, match="differ in shape"):
        match_windows(*planes.values(), 32, [(0, 0)])


@pytest.mark.parametrize(
    "dims,size,count",
    [
        ((512, 512), 128, 16),
        ((300, 300), 128, 4),
        ((1024, 1024), 1024, 1),
        ((1024, 1024), 512, 4),
        ((1024, 1024), 256, 16),
        ((1024, 1024), 128, 64),
    ],
)
def test_tile_counts(dims, size, count):
    assert len(window_origins(dims, size)) == count


@pytest.mark.parametrize(
    "dims,size,stride,count",
    [
        ((512, 512), 128, 16, 625),
        ((512, 512), 128, 64, 49),
        ((300, 200), 128, 64, 6),
        ((200, 300), 100, 150, 2),
    ],
)
def test_strided_window_counts(dims, size, stride, count):
    assert len(window_origins(dims, size, stride)) == count


def test_tile_errors():
    with pytest.raises(ValueError, match="window size"):
        window_origins((64, 64), 0)
    with pytest.raises(ValueError, match="window size"):
        window_origins((64, 64), -4, 8)
    with pytest.raises(ValueError, match="window size"):
        window_origins((64, 64), 65)
    with pytest.raises(ValueError, match="window size"):
        window_origins((64, 80), 65, 1)
    with pytest.raises(ValueError, match="stride"):
        window_origins((64, 64), 8, 0)
    with pytest.raises(ValueError, match="stride"):
        window_origins((64, 64), 8, -1)
    # the smallest window the 11x11 exclusion block leaves room in is 12x12
    with pytest.raises(ValueError, match="^surface 11x11 not larger than the 11x11 exclusion zone$"):
        window_origins((64, 64), 11, 4)
    assert window_origins((12, 12), 12) == [(0, 0)]


@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 24), st.none() | st.integers(1, 20))
def test_tile_partition_property(h, w, size, stride):
    if size > min(h, w):
        with pytest.raises(ValueError, match="larger than image"):
            window_origins((h, w), size, stride)
        return
    if size <= 11:  # no larger than the 11x11 exclusion block: no PCE can score it
        with pytest.raises(ValueError, match="not larger than the 11x11 exclusion zone"):
            window_origins((h, w), size, stride)
        return
    origins = window_origins((h, w), size, stride)
    step = size if stride is None else stride
    # row-major: every corner on the step lattice whose window fits, nothing else
    fits = [(x, y) for y in range(h) for x in range(w) if x + size <= w and y + size <= h]
    assert origins == [(x, y) for x, y in fits if x % step == 0 and y % step == 0]
    if stride is None:
        # non-overlapping tiles cover the top-left rows x cols block exactly once
        rows, cols = h // size, w // size
        assert len(origins) == rows * cols
        seen = np.zeros((h, w), dtype=int)
        for x, y in origins:
            seen[y : y + size, x : x + size] += 1
        covered = seen[: rows * size, : cols * size]
        assert np.all(covered == 1)
        assert seen.sum() == covered.size
