"""Unit tests for feature extraction and separability-based selection.

Tests cover:
- raw order-statistic features
- image-grid features (cell stats plus globals) against plain loops and,
  bit for bit, against the per-pixel oracle
- the block ImageGrid kernel, row by row against extract_image
- extractor results as fresh arrays, and SelectionModel validation
- fit_selection scoring and tie-breaking
"""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from dnt.errors import InvalidArgumentError
from dnt.features import (
    EXTRACTOR_IDS,
    IMAGE_GRID_LENGTH,
    SelectionModel,
    _image_grid_rows,
    extract_image,
    extract_raw,
    fit_selection,
)
from dnt.qq import RASTER_SIZE, QQRaster, _render_rows, qq_points, rasterize
from dnt.sampling import _z_scores, case_spec, sample
from test_qq import EDGE_BLOCK, benchmark_block, lit_block


class TestExtractRaw:
    """Sorted standardized order statistics, and what every extractor returns."""

    def test_length_matches_sample_size(self) -> None:
        vec = extract_raw(sample(case_spec(15), 100, 1))
        assert vec.dtype == np.float64
        assert vec.shape == (100,)

    def test_values_sorted_and_standardized(self) -> None:
        vec = extract_raw(sample(case_spec(11), 50, 2))
        assert np.all(np.diff(vec) >= 0)
        assert float(vec.mean()) == pytest.approx(0.0, abs=1e-12)
        assert float(vec.std()) == pytest.approx(1.0, abs=1e-12)

    def test_affine_invariant(self) -> None:
        """Raw features ignore location and scale."""
        x = sample(case_spec(7), 30, 3)
        a = extract_raw(x)
        b = extract_raw(10.0 * x.values + 5.0)
        assert np.allclose(a, b, atol=1e-12)

    def test_extractors_return_fresh_arrays(self) -> None:
        """Writing into features changes neither the sample nor the next raster's features."""
        arr = sample(case_spec(11), 40, 9).values.copy()
        before = arr.tobytes()
        extract_raw(arr)[:] = 7.0
        assert arr.tobytes() == before
        raster = rasterize(qq_points(arr))
        image = extract_image(raster)
        before = image.tobytes()
        image[:] = -1.0
        assert extract_image(raster).tobytes() == before

    def test_extractor_ids_frozen(self) -> None:
        assert EXTRACTOR_IDS == ("RawOrder", "ImageGrid")


class TestExtractImage:
    """Grid-cell statistics plus global summaries."""

    def test_length_is_196(self) -> None:
        raster = rasterize(qq_points(sample(case_spec(15), 100, 4)))
        vec = extract_image(raster)
        assert vec.dtype == np.float64
        assert vec.shape == (IMAGE_GRID_LENGTH,) == (196,)

    def test_cell_statistics_match_plain_loops(self) -> None:
        """Each cell's mean and diff means agree with direct computation."""
        raster = rasterize(qq_points(sample(case_spec(13), 100, 5)))
        vec = extract_image(raster)
        pixels = raster.pixels
        idx = 0
        for gr in range(8):
            for gc in range(8):
                cell = pixels[gr * 16 : (gr + 1) * 16, gc * 16 : (gc + 1) * 16]
                hdiff = np.abs(np.diff(cell, axis=1)).mean()
                vdiff = np.abs(np.diff(cell, axis=0)).mean()
                base = 3 * (gr * 8 + gc)
                assert vec[base + 0] == pytest.approx(cell.mean(), abs=1e-12)
                assert vec[base + 1] == pytest.approx(hdiff, abs=1e-12)
                assert vec[base + 2] == pytest.approx(vdiff, abs=1e-12)
                idx += 3

    def test_global_statistics(self) -> None:
        """Tail entries are image mean, sd, and mean point-pixel row/col."""
        raster = rasterize(qq_points(sample(case_spec(5), 100, 6)))
        vec = extract_image(raster)
        pixels = raster.pixels
        rows, cols = np.where(pixels == 1.0)
        assert vec[-4] == pytest.approx(pixels.mean(), abs=1e-12)
        assert vec[-3] == pytest.approx(pixels.std(), abs=1e-12)
        assert vec[-2] == pytest.approx(rows.mean(), abs=1e-12)
        assert vec[-1] == pytest.approx(cols.mean(), abs=1e-12)

    def test_point_free_raster_zeroes_position_features(self) -> None:
        """With no point-level pixels the mean row/col default to 0."""
        raster = QQRaster(np.ones((RASTER_SIZE, RASTER_SIZE), dtype=np.uint8), (0.0, 1.0))
        vec = extract_image(raster)
        assert vec[-2] == 0.0
        assert vec[-1] == 0.0


class TestExtractImageOracle:
    """extract_image against the per-pixel oracle."""

    @pytest.mark.parametrize("n", [5, 10, 11, 100, 500])
    @pytest.mark.parametrize("case", range(1, 16))
    def test_benchmark_rasters_match_bit_for_bit(self, case: int, n: int) -> None:
        """Raster pixels are 0, 0.5 or 1, so block sums and loop sums agree exactly."""
        raster = rasterize(qq_points(sample(case_spec(case), n, 40 + case)))
        expected = np.array(oracles.oracle_extract_image(raster.pixels.tolist()))
        assert extract_image(raster).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param(np.concatenate([np.zeros(99), [1e6]]), id="extreme-outlier"),
            pytest.param(np.repeat(np.arange(5.0), 20), id="integer-ties"),
        ],
    )
    def test_edge_rasters_match_bit_for_bit(self, values: np.ndarray) -> None:
        raster = rasterize(qq_points(values))
        expected = np.array(oracles.oracle_extract_image(raster.pixels.tolist()))
        assert extract_image(raster).tobytes() == expected.tobytes()

    def test_random_levels_match_bit_for_bit(self) -> None:
        """A dense image of random levels, about two thirds of its pixels lit."""
        levels = np.random.default_rng(8).integers(0, 3, (RASTER_SIZE, RASTER_SIZE))
        raster = QQRaster(levels, (-1.0, 1.0))
        expected = np.array(oracles.oracle_extract_image(raster.pixels.tolist()))
        assert extract_image(raster).tobytes() == expected.tobytes()


class TestImageGridRows:
    """_image_grid_rows over rendered levels, row by row against extract_image."""

    @staticmethod
    def assert_rows_match(samples: np.ndarray) -> None:
        rendered = _render_rows(_z_scores(samples, ascending=True))
        block = _image_grid_rows(rendered)
        assert block.shape == (len(samples), IMAGE_GRID_LENGTH)
        assert block.tobytes() == oracles.frozen_image_grid_rows(rendered.levels).tobytes()
        for i, x in enumerate(samples):
            raster = rasterize(qq_points(x))
            assert block[i].tobytes() == extract_image(raster).tobytes()
            # The block's levels as a raster of their own, with another value range.
            assert block[i].tobytes() == extract_image(QQRaster(rendered.levels[i], (0.0, 1.0))).tobytes()

    @pytest.mark.parametrize("n", [3, 5, 10, 11, 100, 500])
    def test_benchmark_rows_match_byte_for_byte(self, n: int) -> None:
        self.assert_rows_match(benchmark_block(n))

    def test_edge_rows_match_byte_for_byte(self) -> None:
        self.assert_rows_match(EDGE_BLOCK)

    def test_point_free_levels_zero_the_position_features(self) -> None:
        """A row with no point-level pixel gives 0.0, not a division by zero."""
        levels = np.zeros((2, RASTER_SIZE, RASTER_SIZE), dtype=np.uint8)
        levels[1, 5, 7] = 2
        block = _image_grid_rows(lit_block(levels))
        assert block[0, -2:].tolist() == [0.0, 0.0]
        assert block[1, -2:].tolist() == [5.0, 7.0]


class TestFitSelection:
    """Welch-style separability ranking."""

    def test_selects_planted_informative_dimensions(self) -> None:
        """Dimensions with a planted mean gap outrank pure-noise ones."""
        rng = np.random.default_rng(10)
        h0 = rng.normal(0.0, 1.0, size=(200, 12))
        h1 = rng.normal(0.0, 1.0, size=(200, 12))
        h1[:, 3] += 3.0
        h1[:, 8] -= 3.0
        model = fit_selection(h0, h1, d=2)
        assert list(model.mask) == [3, 8]
        assert model.d == 2
        assert model.m == 12

    def test_scores_match_direct_formula(self) -> None:
        """Score is |mean gap| / sqrt(var0/n0 + var1/n1 + eps)."""
        rng = np.random.default_rng(11)
        h0 = rng.normal(size=(50, 5))
        h1 = rng.normal(size=(60, 5)) + 0.4
        model = fit_selection(h0, h1, d=5)
        gap = np.abs(h0.mean(axis=0) - h1.mean(axis=0))
        pooled = h0.var(axis=0, ddof=1) / 50 + h1.var(axis=0, ddof=1) / 60 + 1e-12
        assert np.allclose(model.scores, gap / np.sqrt(pooled), atol=1e-12)

    def test_ties_prefer_lower_index(self) -> None:
        """Exactly tied scores keep the earlier feature."""
        h0 = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        h1 = h0 + 5.0
        model = fit_selection(h0, h1, d=2)
        assert list(model.mask) == [0, 1]

    def test_mask_sorted_ascending(self) -> None:
        rng = np.random.default_rng(12)
        h0 = rng.normal(size=(80, 20))
        h1 = rng.normal(size=(80, 20)) + rng.uniform(0.0, 1.0, size=20)
        model = fit_selection(h0, h1, d=7)
        assert np.all(np.diff(model.mask) > 0)

    def test_rejects_bad_d(self) -> None:
        h0 = np.zeros((5, 4))
        h1 = np.ones((5, 4))
        with pytest.raises(InvalidArgumentError):
            fit_selection(h0, h1, d=0)
        with pytest.raises(InvalidArgumentError):
            fit_selection(h0, h1, d=5)


class TestSelectionModel:
    """Scores and the retained index mask."""

    def test_selection_model_validation(self) -> None:
        with pytest.raises(InvalidArgumentError):
            SelectionModel(np.array([-1.0, 2.0]), np.array([0]))
        with pytest.raises(InvalidArgumentError):
            SelectionModel(np.ones(4), np.array([3, 1]))
        with pytest.raises(InvalidArgumentError):
            SelectionModel(np.ones(4), np.array([2, 7]))
        with pytest.raises(InvalidArgumentError):  # a float index is not truncated
            SelectionModel(np.ones(4), np.array([0.9, 1.7]))
