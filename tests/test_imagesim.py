"""Unit tests for PSNR/SSIM and the similarity normality statistic.

Tests cover:
- identity and symmetry of both metrics
- agreement with naive sliding-window oracles on a random image pair
- the precomputed reference fast path
- the negated-similarity statistic of a sample, through power.null_statistic,
  and its direction
- SimilarityScore validation
- the sparse SSIM filter against a frozen copy of the dense one, byte for byte
- argument checks: non-raster arguments and a non-integer n
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from dnt.errors import ConfigError, InvalidArgumentError
from dnt.imagesim import (
    _SSIM_BLOCK,
    METRIC_NAMES,
    SimilarityReference,
    SimilarityScore,
    psnr,
    ssim,
)
from dnt.power import null_statistic
from dnt.qq import (
    _LEVELS,
    _POINT_LEVEL,
    RASTER_SIZE,
    QQRaster,
    _Rendered,
    _render_rows,
    ideal_points,
    qq_points,
    rasterize,
)
from dnt.sampling import _z_scores, case_spec, sample


def _random_raster(seed: int) -> QQRaster:
    """A dense image of random levels: about two thirds of its pixels lit, unlike any Q-Q raster."""
    rng = np.random.default_rng(seed)
    return QQRaster(rng.integers(0, _POINT_LEVEL + 1, size=(RASTER_SIZE, RASTER_SIZE)), (0.0, 1.0))


class TestMetricBasics:
    """Identity, symmetry, and ranges."""

    def test_self_similarity(self) -> None:
        """SSIM(a, a) = 1 and PSNR(a, a) = +inf."""
        raster = rasterize(ideal_points(60))
        assert ssim(raster, raster).value == pytest.approx(1.0, abs=1e-12)
        assert psnr(raster, raster).value == math.inf

    def test_symmetry(self) -> None:
        """Both metrics are symmetric in their arguments."""
        a = _random_raster(1)
        b = _random_raster(2)
        assert ssim(a, b).value == pytest.approx(ssim(b, a).value, abs=1e-12)
        assert psnr(a, b).value == pytest.approx(psnr(b, a).value, abs=1e-12)

    def test_ssim_below_one_for_different_images(self) -> None:
        a = _random_raster(3)
        b = _random_raster(4)
        assert ssim(a, b).value < 1.0

    def test_metric_labels(self) -> None:
        a = _random_raster(5)
        assert ssim(a, a).metric == "SSIM"
        assert psnr(a, a).metric == "PSNR"


class TestOracleAgreement:
    """Vectorized filtering vs the quadruple-loop reference."""

    def test_psnr_matches_oracle(self) -> None:
        a = _random_raster(10)
        b = _random_raster(11)
        want = oracles.oracle_psnr(a.pixels.tolist(), b.pixels.tolist())
        assert psnr(a, b).value == pytest.approx(want, abs=1e-10)

    def test_ssim_matches_oracle(self) -> None:
        """Full-size SSIM agrees with the naive implementation to 1e-9."""
        a = _random_raster(12)
        b = _random_raster(13)
        want = oracles.oracle_ssim(a.pixels.tolist(), b.pixels.tolist())
        assert ssim(a, b).value == pytest.approx(want, abs=1e-9)

    def test_gaussian_window_normalized(self) -> None:
        """The reference window itself sums to one (sanity on the oracle)."""
        window = oracles.oracle_gaussian_window()
        assert sum(sum(row) for row in window) == pytest.approx(1.0, abs=1e-12)


class TestSimilarityReference:
    """Cached-reference fast path."""

    def test_matches_direct_metrics(self) -> None:
        """The statistic is the negated two-argument metric call, bit for bit."""
        reference = SimilarityReference.ideal(80)
        candidate = rasterize(qq_points(sample(case_spec(7), 80, 21)))
        for metric, score in (("SSIM", ssim), ("PSNR", psnr)):
            want = -score(candidate, reference.raster).value
            assert np.float64(reference.statistic(candidate, metric)).tobytes() == (
                np.float64(want).tobytes()
            )

    def test_statistic_is_negated_similarity(self) -> None:
        reference = SimilarityReference.ideal(50)
        candidate = rasterize(qq_points(sample(case_spec(5), 50, 22)))
        want_ssim = oracles.frozen_ssim(candidate.pixels, reference.raster.pixels)
        want_psnr = oracles.oracle_psnr(candidate.pixels.tolist(), reference.raster.pixels.tolist())
        assert reference.statistic(candidate, "SSIM") == -want_ssim
        assert reference.statistic(candidate, "PSNR") == pytest.approx(-want_psnr, abs=1e-12)

    def test_statistic_rejects_unknown_metric(self) -> None:
        reference = SimilarityReference.ideal(30)
        with pytest.raises(InvalidArgumentError):
            reference.statistic(reference.raster, "VGG")


class TestSimilarityTestStatistic:
    """The statistic of a sample: null_statistic(metric, n, reference)(x)."""

    def test_deterministic(self) -> None:
        x = sample(case_spec(13), 100, 31)
        assert null_statistic("SSIM", 100)(x) == null_statistic("SSIM", 100)(x)

    def test_default_reference_is_ideal_raster(self) -> None:
        """Omitting the reference matches passing the ideal raster."""
        x = sample(case_spec(9), 100, 32)
        ideal = SimilarityReference(rasterize(ideal_points(100)))
        for metric in METRIC_NAMES:
            assert null_statistic(metric, 100)(x) == pytest.approx(
                null_statistic(metric, 100, ideal)(x), abs=1e-12
            )

    def test_larger_for_clearly_non_normal_samples(self) -> None:
        """A skewed sample scores farther from the ideal than a null sample."""
        null_sample = sample(case_spec(15), 100, 33)
        skewed = sample(case_spec(13), 100, 33)
        for metric in METRIC_NAMES:
            statistic = null_statistic(metric, 100)
            assert statistic(skewed) > statistic(null_sample)

    def test_rejects_unknown_metric(self) -> None:
        with pytest.raises(ConfigError):
            null_statistic("MSE", 50)


class TestSimilarityScore:
    """Value container validation."""

    def test_accepts_valid_scores(self) -> None:
        assert SimilarityScore("SSIM", 0.93).value == 0.93
        assert SimilarityScore("PSNR", math.inf).value == math.inf

    def test_rejects_ssim_outside_unit_band(self) -> None:
        with pytest.raises(InvalidArgumentError):
            SimilarityScore("SSIM", 1.5)

    def test_rejects_nan_psnr(self) -> None:
        with pytest.raises(InvalidArgumentError):
            SimilarityScore("PSNR", math.nan)

    def test_rejects_unknown_metric(self) -> None:
        with pytest.raises(InvalidArgumentError):
            SimilarityScore("MSE", 0.1)


def _levels(case: int, n: int, rows: int) -> _Rendered:
    """The rendered block of rows replicates of a case, as a power-study chunk."""
    block = np.stack([sample(case_spec(case), n, seed).values for seed in range(rows)])
    return _render_rows(_z_scores(block, ascending=True))


def _frozen_statistics(reference: SimilarityReference, images) -> np.ndarray:
    return np.array([-oracles.frozen_ssim(pixels, reference.raster.pixels) for pixels in images])


def _edge_raster() -> QQRaster:
    """The anchor line plus points on rows and columns 0 and 127, corners included."""
    levels = _LEVELS.copy()
    last = RASTER_SIZE - 1
    corners = [(0, 0), (0, last), (last, 0), (last, last)]
    for r, c in corners + [(0, 40), (90, 0), (last, 70), (20, last)]:
        levels[r, c] = _POINT_LEVEL
    levels[last, 1:4] = _POINT_LEVEL
    levels[50:53, last] = _POINT_LEVEL
    return QQRaster(levels, (0.0, 1.0))


class TestSparseFilter:
    """The sparse SSIM kernel against a frozen copy of the dense filter, by bytes."""

    @pytest.mark.parametrize("case", range(1, 16))
    def test_level_block_matches_the_dense_filter(self, case) -> None:
        """An 81-row chunk (n=100), so the last sub-block is short."""
        reference = SimilarityReference.ideal(100)
        rendered = _levels(case, 100, 81)
        got = reference._level_statistics(rendered, "SSIM")
        want = _frozen_statistics(reference, rendered.levels / _POINT_LEVEL)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", range(1, 2 * _SSIM_BLOCK + 2))
    def test_every_sub_block_split_matches(self, rows) -> None:
        reference = SimilarityReference.ideal(40)
        rendered = _levels(13, 40, rows)
        got = reference._level_statistics(rendered, "SSIM")
        assert got.tobytes() == _frozen_statistics(reference, rendered.levels / _POINT_LEVEL).tobytes()

    def test_points_on_the_border_match(self) -> None:
        """Points on rows and columns 0 and 127, as candidate and as reference."""
        edge = _edge_raster()
        ideal = SimilarityReference.ideal(100)
        got = ideal.statistic(edge, "SSIM")
        assert np.float64(got).tobytes() == _frozen_statistics(ideal, [edge.pixels]).tobytes()
        candidate = rasterize(qq_points(sample(case_spec(3), 100, 5)))
        got = SimilarityReference(edge).statistic(candidate, "SSIM")
        want = -oracles.frozen_ssim(candidate.pixels, edge.pixels)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("n", [3, 11, 100])
    def test_ideal_raster_scores_exactly_minus_one(self, n) -> None:
        reference = SimilarityReference.ideal(n)
        assert reference.statistic(reference.raster, "SSIM") == -1.0

    @pytest.mark.parametrize("seed", range(20, 24))
    def test_dense_random_rasters_match(self, seed) -> None:
        """About two thirds of the pixels lit, against two references."""
        candidate = _random_raster(seed)
        other = SimilarityReference(_random_raster(seed + 100))
        for reference in (SimilarityReference.ideal(100), other):
            got = reference.statistic(candidate, "SSIM")
            want = -oracles.frozen_ssim(candidate.pixels, reference.raster.pixels)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("seed", range(20, 24))
    def test_public_ssim_matches_in_both_orders(self, seed) -> None:
        """ssim(a, b) is the dense filter's value with b as reference, bit for bit."""
        a, b = _random_raster(seed), _random_raster(seed + 100)
        for x, y in ((a, b), (b, a)):
            want = oracles.frozen_ssim(x.pixels, y.pixels)
            assert np.float64(ssim(x, y).value).tobytes() == np.float64(want).tobytes()

    def test_reference_window_statistics_match(self) -> None:
        raster = _random_raster(30)
        pixels = raster.pixels
        reference = SimilarityReference(raster)
        mu = oracles.frozen_filter_valid(pixels)
        assert reference._mu.tobytes() == mu.tobytes()
        var = oracles.frozen_filter_valid(pixels * pixels) - mu**2
        assert reference._var.tobytes() == var.tobytes()

    def test_one_raster_is_its_row_of_a_block(self) -> None:
        reference = SimilarityReference.ideal(60)
        rendered = _levels(9, 60, 2 * _SSIM_BLOCK + 1)
        block = reference._level_statistics(rendered, "SSIM")
        for row, image in zip(block, rendered.levels):
            candidate = QQRaster(image, (0.0, 1.0))
            assert np.float64(reference.statistic(candidate, "SSIM")).tobytes() == row.tobytes()


class TestArgumentChecks:
    """Non-raster arguments and a non-integer n are refused as InvalidArgumentError."""

    @pytest.mark.parametrize("n", [10.5, 100.0, True], ids=["fraction", "whole-float", "bool"])
    def test_ideal_rejects_a_non_integer_n(self, n) -> None:
        SimilarityReference.ideal(100)
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            SimilarityReference.ideal(n)

    @pytest.mark.parametrize(
        "call",
        [
            lambda r, x: SimilarityReference(x),
            lambda r, x: ssim(x, r),
            lambda r, x: ssim(r, x),
            lambda r, x: psnr(x, r),
            lambda r, x: psnr(r, x),
            lambda r, x: null_statistic("SSIM", 50, SimilarityReference(x))(sample(case_spec(15), 50, 1)),
            lambda r, x: SimilarityReference(r).statistic(x, "SSIM"),
            lambda r, x: SimilarityReference(r).statistic(x, "PSNR"),
        ],
        ids=[
            "reference",
            "ssim-a",
            "ssim-b",
            "psnr-a",
            "psnr-b",
            "test-statistic-reference",
            "statistic-ssim",
            "statistic-psnr",
        ],
    )
    def test_rejects_a_non_raster(self, call) -> None:
        raster = rasterize(ideal_points(50))
        with pytest.raises(InvalidArgumentError, match="must be a QQRaster, got ndarray"):
            call(raster, raster.pixels)
