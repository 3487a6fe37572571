import multiprocessing
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.ndimage import median_filter

from oracles import pinned_pce
from prnukit import _pool
from prnukit.denoise import DenoiserSpec
from prnukit.errors import DegenerateInputError, FormatError, ShapeError
from prnukit.fingerprint import residual
from prnukit.imaging import load_image
from prnukit.localization import (
    HeatMap,
    load_map_json,
    pce_map,
    probability_map,
    render_map,
    save_map_json,
)
from prnukit.matching import cross_correlate, p_value, window_origins


@given(st.integers(16, 300), st.integers(16, 300), st.integers(16, 64), st.integers(1, 40))
def test_grid_shape_formula(h, w, window, stride):
    if window > min(h, w):
        return
    origins = window_origins((h, w), window, stride)
    rows, cols = (h - window) // stride + 1, (w - window) // stride + 1
    assert len(origins) == rows * cols
    # pce_map reshapes the row-major scores into the grid HeatMap.origin indexes
    hm = HeatMap(np.zeros((rows, cols)), window, stride)
    assert origins == [hm.origin(i, j) for i in range(rows) for j in range(cols)]


def test_pce_map_matches_formula_and_detects_pattern():
    rng = np.random.default_rng(0)
    k = rng.normal(0, 0.02, (160, 192))
    image = 0.5 * (1.0 + k) + rng.normal(0, 0.002, k.shape)
    hm = pce_map(image, k, window=64, stride=32, denoiser=DenoiserSpec("gaussian", sigma=1.0))
    assert hm.shape == (4, 5)
    assert hm.origin(1, 2) == (64, 32)
    assert np.median(hm.grid) > 50.0
    # each entry is the PCE of match_patch's surface on that window, pinned at (0, 0);
    # the map takes the total energy by Parseval, so it may round differently
    res = residual(image, DenoiserSpec("gaussian", sigma=1.0))
    rows, cols = hm.shape
    for i, j in np.ndindex(rows, cols):
        x, y = hm.origin(i, j)
        win = (slice(y, y + 64), slice(x, x + 64))
        want = pinned_pce(cross_correlate(res[win], image[win] * k[win]), 5, (0, 0))
        assert hm.grid[i, j] == pytest.approx(want.pce, rel=1e-12)


def _grid(image, k):
    return pce_map(image, k, window=32, stride=16, denoiser=DenoiserSpec("gaussian", sigma=1.0)).grid


def test_pce_map_chunk_boundary_mid_row_keeps_every_bit(monkeypatch):
    # 5 x 5 windows over 2 workers: 13 and 12, so both transform the band of row 2.
    rng = np.random.default_rng(11)
    k = rng.normal(0, 0.02, (96, 96))
    image = 0.5 * (1.0 + k) + rng.normal(0, 0.002, k.shape)
    monkeypatch.setattr(_pool, "_usable_cores", lambda: 2)
    assert [len(chunk) for chunk in _pool.split(window_origins(k.shape, 32, 16))] == [13, 12]
    forked = _grid(image, k)
    monkeypatch.setattr(_pool, "_usable_cores", lambda: 1)
    assert np.array_equal(forked, _grid(image, k))


def test_pce_map_in_a_daemonic_worker_runs_serially(monkeypatch):
    # A daemonic process may not fork: the map must fall back to the in-process loop.
    monkeypatch.setattr(_pool, "_usable_cores", lambda: 2)
    rng = np.random.default_rng(4)
    k = rng.normal(0, 0.02, (96, 96))
    image = 0.5 * (1.0 + k) + rng.normal(0, 0.002, k.shape)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        in_worker = pool.apply_async(_grid, (image, k)).get(timeout=60)
    monkeypatch.setattr(_pool, "_usable_cores", lambda: 1)
    assert np.array_equal(in_worker, _grid(image, k))


def test_pce_map_validation():
    k = np.random.default_rng(1).standard_normal((64, 64))
    img = np.random.default_rng(2).random((64, 64))
    with pytest.raises(ValueError):
        pce_map(img, k, window=128, stride=16)
    with pytest.raises(ValueError):
        pce_map(img, k, window=32, stride=0)
    with pytest.raises(ShapeError):
        pce_map(np.random.default_rng(3).random((32, 64)), k, window=16, stride=16)
    with pytest.raises(ValueError, match="window"):
        pce_map(img, k, window=0, stride=16)
    with pytest.raises(ValueError, match="window"):
        pce_map(img, k, window=-4, stride=16)
    with pytest.raises(ValueError, match="stride"):
        pce_map(img, k, window=32, stride=0)
    with pytest.raises(ValueError, match="exclusion zone"):
        pce_map(img, k, window=11, stride=4)


def test_pce_map_zero_fingerprint_degenerate():
    img = np.random.default_rng(4).random((64, 64))
    with pytest.raises(DegenerateInputError):
        pce_map(img, np.zeros((64, 64)), window=32, stride=32)


def test_probability_endpoints():
    hm = HeatMap(np.array([[0.0, 1e4], [-5.0, 4.0]]), window=32, stride=16)
    prob = probability_map(hm)
    assert prob.grid[0, 0] == 0.5
    assert prob.grid[0, 1] < 1e-6
    assert prob.grid[1, 0] == 0.5  # negative PCE clamps to the null median
    assert np.all((prob.grid >= 0) & (prob.grid <= 1))
    assert (prob.window, prob.stride) == (32, 16)


def test_probability_preserves_ordering():
    rng = np.random.default_rng(5)
    grid = rng.uniform(-10, 1e3, (6, 7))
    prob = probability_map(HeatMap(grid, 32, 16))
    order_pce = np.argsort(-grid.ravel(), kind="stable")
    order_prob = np.argsort(prob.grid.ravel(), kind="stable")
    # ties at p=0.5 (pce <= 0) may permute; compare the strictly positive part
    positive = grid.ravel() > 0
    assert np.array_equal(order_pce[: positive.sum()], order_prob[: positive.sum()])


def test_probability_is_p_value_of_each_window():
    # 1420-1490 is where a vectorized erfc flushes the subnormal tail to 0
    grid = np.concatenate([[-3.0, 0.0], np.random.default_rng(8).uniform(0, 1500, 398)]).reshape(20, 20)
    prob = probability_map(HeatMap(grid, 32, 16))
    assert np.array_equal(prob.grid, [[p_value(v) for v in row] for row in grid])


def test_render_constant_half_is_128(tmp_path):
    hm = HeatMap(np.full((5, 4), 0.5), 32, 16)
    path = tmp_path / "map.pgm"
    render_map(hm, path)
    img = load_image(path)
    assert np.all(img * 255 == 128)


def test_render_median3_removes_outlier(tmp_path):
    grid = np.full((5, 5), 0.2)
    grid[2, 2] = 1.0
    path = tmp_path / "map.pgm"
    render_map(HeatMap(grid, 32, 16), path, postprocess="median3")
    img = load_image(path)
    assert np.all(img == img[0, 0])


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (2, 2), (25, 25)])
def test_render_median3_equals_scipy_median_filter(tmp_path, shape):
    grid = np.random.default_rng(7).integers(0, 256, shape) / 255.0  # each value renders as itself
    render_map(HeatMap(grid, 32, 16), tmp_path / "ours.pgm", postprocess="median3")
    render_map(HeatMap(median_filter(grid, size=3, mode="nearest"), 32, 16), tmp_path / "scipy.pgm")
    assert (tmp_path / "ours.pgm").read_bytes() == (tmp_path / "scipy.pgm").read_bytes()


def test_render_quantization_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    grid = rng.random((9, 11))
    path = tmp_path / "map.pgm"
    render_map(HeatMap(grid, 32, 16), path)
    img = load_image(path)
    assert np.abs(img - grid).max() <= (1.0 / 255.0) / 2 + 1e-12


def test_render_png_matches_pgm(tmp_path):
    hm = HeatMap(np.random.default_rng(9).random((5, 7)), 32, 16)
    try:
        import PIL  # noqa: F401
    except ImportError:
        with pytest.raises(FormatError, match="Pillow"):
            render_map(hm, tmp_path / "m.png")
        assert list(tmp_path.iterdir()) == []
        return
    render_map(hm, tmp_path / "m.png")
    render_map(hm, tmp_path / "m.pgm")
    assert np.array_equal(load_image(tmp_path / "m.png"), load_image(tmp_path / "m.pgm"))


def test_render_rejects_a_non_finite_map(tmp_path):
    grid = np.full((3, 3), 0.25)
    grid[1, 1] = np.nan
    with pytest.raises(DegenerateInputError, match="non-finite"):
        render_map(HeatMap(grid, 32, 16), tmp_path / "map.pgm")
    assert not (tmp_path / "map.pgm").exists()


def test_render_rejects_unknown_postprocess(tmp_path):
    with pytest.raises(ValueError):
        render_map(HeatMap(np.zeros((2, 2)), 8, 4), tmp_path / "x.pgm", postprocess="blur")


def test_map_json_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    hm = HeatMap(rng.standard_normal((3, 4)), window=128, stride=64)
    path = tmp_path / "map.json"
    save_map_json(hm, path)
    loaded = load_map_json(path)
    assert np.array_equal(loaded.grid, hm.grid)
    assert (loaded.window, loaded.stride) == (128, 64)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"rows": 1, "cols": 2, "window": 8, "stride": 4, "values": [0.5,', "Expecting value"),
        ('{"rows": 1, "cols": 2, "window": 8, "stride": 4}', "KeyError: 'values'"),
        ("[0.5, 0.25]", "list indices"),
        ('{"rows": 2, "cols": 2, "window": 8, "stride": 4, "values": [0.5, 0.25]}', "reshape"),
        ('{"rows": 1, "cols": 2, "window": 8, "stride": 4, "values": [0.5, NaN]}', "non-finite"),
        ('{"rows": 1, "cols": 2, "window": 64.9, "stride": 4, "values": [0.5, 0.25]}', "window must be an integer >= 1, got 64.9"),
        ('{"rows": 1, "cols": 2, "window": 8, "stride": -4, "values": [0.5, 0.25]}', "stride must be an integer >= 1, got -4"),
        ('{"rows": 1, "cols": 2, "window": true, "stride": 4, "values": [0.5, 0.25]}', "window must be an integer >= 1, got True"),
        ('{"rows": -1, "cols": 2, "window": 8, "stride": 4, "values": [0.5, 0.25]}', "rows must be an integer >= 1, got -1"),
        ('{"rows": 0, "cols": 0, "window": 8, "stride": 4, "values": []}', "rows must be an integer >= 1, got 0"),
        ('{"rows": 1, "cols": "2", "window": 8, "stride": 4, "values": [0.5, 0.25]}', "cols must be an integer >= 1, got '2'"),
        ('{"rows": 1, "cols": 2, "window": 8, "stride": 4, "values": [[0.1, 0.5]]}', "values must be a flat list of numbers"),
        ('{"rows": 1, "cols": 2, "window": 8, "stride": 4, "values": [true, 0.5]}', "values must be a flat list of numbers"),
    ],
    ids=["truncated", "no-values", "top-level-list", "wrong-size", "nan", "fractional-window", "negative-stride",
         "bool-window", "negative-rows", "empty", "string-cols", "nested-values", "bool-value"],
)
def test_load_map_json_names_the_file_of_a_malformed_map(tmp_path, text, message):
    path = tmp_path / "map.json"
    path.write_text(text)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
        load_map_json(path)


def test_localization_demo_script_runs(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_localization_demo.py"
    proc = subprocess.run(
        [sys.executable, str(script), str(tmp_path), "--size", "256"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    outputs = ("spliced.pgm", "probability_map.json", "probability_map.pgm", "probability_map_median3.pgm")
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0
    inside, whole = re.search(r"mean probability inside ([\d.]+), whole map ([\d.]+)", proc.stdout).groups()
    assert float(inside) > float(whole), proc.stdout
