"""Unit tests for feature extraction and separability-based selection.

Tests cover:
- raw order-statistic features
- image-grid features (cell stats plus globals) against plain loops and,
  bit for bit, against the per-pixel oracle
- FeatureVector / SelectionModel validation
- fit_selection scoring, tie-breaking, and apply_selection
"""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from dnt.errors import InvalidArgumentError
from dnt.features import (
    EXTRACTOR_IDS,
    IMAGE_GRID_LENGTH,
    FeatureVector,
    SelectionModel,
    apply_selection,
    extract_image,
    extract_raw,
    fit_selection,
)
from dnt.qq import RASTER_SIZE, QQRaster, qq_points, rasterize
from dnt.sampling import case_spec, sample


class TestExtractRaw:
    """Sorted standardized order statistics."""

    def test_length_matches_sample_size(self) -> None:
        vec = extract_raw(sample(case_spec(15), 100, 1))
        assert len(vec) == 100
        assert vec.extractor_id == "RawOrder"

    def test_values_sorted_and_standardized(self) -> None:
        vec = extract_raw(sample(case_spec(11), 50, 2))
        assert np.all(np.diff(vec.values) >= 0)
        assert float(vec.values.mean()) == pytest.approx(0.0, abs=1e-12)
        assert float(vec.values.std()) == pytest.approx(1.0, abs=1e-12)

    def test_affine_invariant(self) -> None:
        """Raw features ignore location and scale."""
        x = sample(case_spec(7), 30, 3)
        a = extract_raw(x)
        b = extract_raw(10.0 * x.values + 5.0)
        assert np.allclose(a.values, b.values, atol=1e-12)


class TestExtractImage:
    """Grid-cell statistics plus global summaries."""

    def test_length_is_196(self) -> None:
        raster = rasterize(qq_points(sample(case_spec(15), 100, 4)))
        vec = extract_image(raster)
        assert len(vec) == IMAGE_GRID_LENGTH == 196
        assert vec.extractor_id == "ImageGrid"

    def test_cell_statistics_match_plain_loops(self) -> None:
        """Each cell's mean and diff means agree with direct computation."""
        raster = rasterize(qq_points(sample(case_spec(13), 100, 5)))
        vec = extract_image(raster).values
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
        vec = extract_image(raster).values
        pixels = raster.pixels
        rows, cols = np.where(pixels == 1.0)
        assert vec[-4] == pytest.approx(pixels.mean(), abs=1e-12)
        assert vec[-3] == pytest.approx(pixels.std(), abs=1e-12)
        assert vec[-2] == pytest.approx(rows.mean(), abs=1e-12)
        assert vec[-1] == pytest.approx(cols.mean(), abs=1e-12)

    def test_point_free_raster_zeroes_position_features(self) -> None:
        """With no full-intensity pixels the mean row/col default to 0."""
        from dnt.qq import QQRaster, RASTER_SIZE

        raster = QQRaster(np.full((RASTER_SIZE, RASTER_SIZE), 0.25), (0.0, 1.0))
        vec = extract_image(raster).values
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
        assert extract_image(raster).values.tobytes() == expected.tobytes()

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
        assert extract_image(raster).values.tobytes() == expected.tobytes()

    def test_non_dyadic_raster_matches_to_rounding(self) -> None:
        """Arbitrary intensities round differently by summation order, never by more."""
        pixels = np.random.default_rng(8).uniform(0.0, 1.0, (RASTER_SIZE, RASTER_SIZE))
        pixels[10:20, 30:40] = 1.0
        pixels[64:, :] = 0.3
        raster = QQRaster(pixels, (-1.0, 1.0))
        expected = oracles.oracle_extract_image(raster.pixels.tolist())
        assert np.allclose(extract_image(raster).values, expected, rtol=0.0, atol=1e-12)


class TestFeatureVector:
    """Container validation."""

    def test_rejects_unknown_extractor(self) -> None:
        with pytest.raises(InvalidArgumentError):
            FeatureVector(np.ones(4), "DeepNet")

    def test_rejects_nonfinite_values(self) -> None:
        with pytest.raises(InvalidArgumentError):
            FeatureVector(np.array([1.0, np.inf]), "RawOrder")

    def test_selected_mask_must_be_increasing_and_match_length(self) -> None:
        with pytest.raises(InvalidArgumentError):
            FeatureVector(np.ones(3), "RawOrder", selected=np.array([2, 1, 0]))
        with pytest.raises(InvalidArgumentError):
            FeatureVector(np.ones(3), "RawOrder", selected=np.array([0, 1]))

    def test_values_read_only(self) -> None:
        vec = FeatureVector(np.ones(3), "RawOrder")
        with pytest.raises(ValueError):
            vec.values[0] = 2.0

    def test_extractor_ids_frozen(self) -> None:
        assert EXTRACTOR_IDS == ("RawOrder", "ImageGrid")


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

    def test_accepts_feature_vector_lists(self) -> None:
        """Lists of FeatureVector are equivalent to stacked matrices."""
        rng = np.random.default_rng(13)
        m0 = rng.normal(size=(30, 6))
        m1 = rng.normal(size=(30, 6)) + 1.0
        as_vectors = fit_selection(
            [FeatureVector(row, "RawOrder") for row in m0],
            [FeatureVector(row, "RawOrder") for row in m1],
            d=3,
        )
        as_matrix = fit_selection(m0, m1, d=3)
        assert np.array_equal(as_vectors.mask, as_matrix.mask)

    def test_rejects_mixed_extractors(self) -> None:
        a = FeatureVector(np.zeros(196), "ImageGrid")
        b = FeatureVector(np.ones(196), "RawOrder")
        with pytest.raises(InvalidArgumentError):
            fit_selection([a, b], [a, a], d=2)


class TestApplySelection:
    """Projection onto the retained indices."""

    def test_projects_and_tags(self) -> None:
        model = SelectionModel(np.array([3.0, 1.0, 2.0, 0.5]), np.array([0, 2]))
        vec = FeatureVector(np.array([10.0, 20.0, 30.0, 40.0]), "RawOrder")
        out = apply_selection(vec, model)
        assert np.array_equal(out.values, [10.0, 30.0])
        assert np.array_equal(out.selected, [0, 2])
        assert out.extractor_id == "RawOrder"

    def test_rejects_length_mismatch(self) -> None:
        model = SelectionModel(np.ones(4), np.array([1, 3]))
        with pytest.raises(InvalidArgumentError):
            apply_selection(FeatureVector(np.ones(5), "RawOrder"), model)

    def test_selection_model_validation(self) -> None:
        with pytest.raises(InvalidArgumentError):
            SelectionModel(np.array([-1.0, 2.0]), np.array([0]))
        with pytest.raises(InvalidArgumentError):
            SelectionModel(np.ones(4), np.array([3, 1]))
        with pytest.raises(InvalidArgumentError):
            SelectionModel(np.ones(4), np.array([2, 7]))
