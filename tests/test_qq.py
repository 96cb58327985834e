"""Unit tests for Q-Q point construction and rasterization.

Tests cover:
- plotting positions for small and large n
- qq_points standardization and ordering
- ideal point sets
- raster geometry: anchor line, point discs, orientation, value range
- rasters bit-identical to a per-pixel oracle, and pinned by digest
- PGM encoding
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import oracles
from dnt.errors import InvalidArgumentError
from dnt.features import extract_image
from dnt.qq import (
    RASTER_SIZE,
    QQPoints,
    QQRaster,
    ideal_points,
    plotting_positions,
    qq_points,
    rasterize,
    to_pgm,
)
from dnt.sampling import case_spec, sample


class TestPlottingPositions:
    """The (i - a)/(n + 1 - 2a) rule with the small-sample offset."""

    def test_small_n_uses_three_eighths(self) -> None:
        """n <= 10 uses a = 3/8."""
        p = plotting_positions(5)
        assert p[0] == pytest.approx((1 - 0.375) / (5 + 1 - 0.75))
        assert p[-1] == pytest.approx((5 - 0.375) / (5 + 1 - 0.75))

    def test_large_n_uses_one_half(self) -> None:
        """n > 10 uses a = 1/2, so p_i = (i - 0.5)/n."""
        p = plotting_positions(20)
        assert np.allclose(p, (np.arange(1, 21) - 0.5) / 20.0)

    def test_strictly_increasing_inside_unit_interval(self) -> None:
        for n in (3, 10, 11, 100):
            p = plotting_positions(n)
            assert np.all(np.diff(p) > 0)
            assert 0.0 < p[0] and p[-1] < 1.0

    def test_symmetric_about_half(self) -> None:
        """p_i + p_{n+1-i} = 1 for both offset regimes."""
        for n in (7, 64):
            p = plotting_positions(n)
            assert np.allclose(p + p[::-1], 1.0)

    def test_rejects_nonpositive_n(self) -> None:
        with pytest.raises(InvalidArgumentError):
            plotting_positions(0)


class TestQQPoints:
    """Point-set construction."""

    def test_empirical_is_sorted_standardized_sample(self) -> None:
        """Empirical quantiles are the order statistics after standardizing."""
        x = sample(case_spec(13), 40, 3)
        points = qq_points(x)
        z = (x.values - x.values.mean()) / x.values.std()
        assert np.allclose(points.empirical, np.sort(z), atol=1e-12)

    def test_theoretical_matches_quantile_oracle(self) -> None:
        """Theoretical quantiles invert the plotting positions."""
        points = qq_points(sample(case_spec(15), 12, 5))
        expected = [oracles.oracle_normal_quantile(p) for p in plotting_positions(12)]
        assert np.allclose(points.theoretical, expected, atol=1e-10)

    def test_ideal_points_lie_on_the_diagonal(self) -> None:
        """Ideal construction duplicates theoretical into empirical."""
        points = ideal_points(30)
        assert np.array_equal(points.theoretical, points.empirical)

    def test_location_scale_invariance(self) -> None:
        """qq_points are unchanged by positive affine maps of the sample."""
        x = sample(case_spec(7), 60, 8)
        a = qq_points(x)
        b = qq_points(3.5 * x.values - 2.0)
        assert np.allclose(a.empirical, b.empirical, atol=1e-12)

    def test_rejects_mismatched_lengths(self) -> None:
        with pytest.raises(InvalidArgumentError):
            QQPoints(np.zeros(3), np.zeros(4))


class TestRasterize:
    """Geometry of the rendered canvas."""

    def test_canvas_shape_and_levels(self) -> None:
        """Raster is 128x128 with only background/line/point intensities."""
        raster = rasterize(qq_points(sample(case_spec(15), 100, 1)))
        assert raster.pixels.shape == (RASTER_SIZE, RASTER_SIZE)
        assert set(np.unique(raster.pixels)) <= {0.0, 0.5, 1.0}

    def test_anchor_line_runs_corner_to_corner(self) -> None:
        """The y=x line touches bottom-left and top-right pixels."""
        raster = rasterize(ideal_points(50))
        last = RASTER_SIZE - 1
        assert raster.pixels[last, 0] > 0.0
        assert raster.pixels[0, last] > 0.0

    def test_value_range_pads_five_percent(self) -> None:
        """The shared axis range is min/max padded by 5% of the spread."""
        points = qq_points(sample(case_spec(5), 64, 2))
        raster = rasterize(points)
        coords = np.concatenate([points.theoretical, points.empirical])
        spread = coords.max() - coords.min()
        assert raster.value_range[0] == pytest.approx(coords.min() - 0.05 * spread)
        assert raster.value_range[1] == pytest.approx(coords.max() + 0.05 * spread)

    def test_points_overwrite_line(self) -> None:
        """Ideal points sit on the diagonal and paint it to full intensity."""
        raster = rasterize(ideal_points(40))
        diag = np.diag(np.fliplr(raster.pixels))
        assert diag.max() == 1.0

    def test_disc_radius_paints_neighbors(self) -> None:
        """Every point paints a disc, so full-intensity pixels outnumber n."""
        n = 20
        raster = rasterize(ideal_points(n))
        assert int((raster.pixels == 1.0).sum()) > n

    def test_empirical_increases_upward(self) -> None:
        """An outlier with a large empirical value lands near the top rows."""
        values = np.concatenate([np.linspace(-1.0, 1.0, 30), [9.0]])
        raster = rasterize(qq_points(values))
        point_rows = np.where(raster.pixels == 1.0)[0]
        # The outlier sits inside the 5% padding band plus the disc radius.
        assert point_rows.min() <= 8
        assert point_rows.max() > RASTER_SIZE // 2

    def test_deterministic(self) -> None:
        """Rendering the same points twice gives identical pixels."""
        points = qq_points(sample(case_spec(1), 100, 4))
        assert np.array_equal(rasterize(points).pixels, rasterize(points).pixels)

    def test_rejects_too_few_points(self) -> None:
        with pytest.raises(InvalidArgumentError):
            rasterize(QQPoints(np.array([0.0, 1.0]), np.array([0.0, 1.0])))


def _oracle_raster(points: QQPoints) -> tuple[np.ndarray, tuple[float, float]]:
    pixels, value_range = oracles.oracle_rasterize(
        points.theoretical.tolist(), points.empirical.tolist()
    )
    return np.array(pixels), value_range


class TestRasterOracle:
    """rasterize against the per-point, per-pixel oracle, bit for bit."""

    @pytest.mark.parametrize("n", [5, 10, 11, 100, 500])
    @pytest.mark.parametrize("case", range(1, 16))
    def test_benchmark_cases_match(self, case: int, n: int) -> None:
        """Every benchmark law, on both sides of the n <= 10 plotting-position switch."""
        points = qq_points(sample(case_spec(case), n, 40 + case))
        raster = rasterize(points)
        pixels, value_range = _oracle_raster(points)
        assert raster.pixels.tobytes() == pixels.tobytes()
        assert raster.value_range == value_range

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param(np.concatenate([np.zeros(99), [1e6]]), id="extreme-outlier"),
            pytest.param(np.repeat(np.arange(5.0), 20), id="integer-ties"),
            pytest.param(np.array([2.0, 2.0, 2.0, 2.0, 7.0]), id="four-tied-one-apart"),
        ],
    )
    def test_edge_samples_match(self, values: np.ndarray) -> None:
        """Stacked ties and a lone outlier at the edge of the axis range.

        The 5% padding keeps every disc center at least 127 * 0.05 / 1.1,
        about 5.8 px, inside the canvas, so the outlier's disc is the
        nearest to an edge that a Q-Q raster can draw.
        """
        points = qq_points(values)
        raster = rasterize(points)
        pixels, value_range = _oracle_raster(points)
        assert raster.pixels.tobytes() == pixels.tobytes()
        assert raster.value_range == value_range

    def test_pixels_exactly_on_the_disc_boundary_are_painted(self) -> None:
        """A center at (row 66.5, column 40) is exactly 1.5 px from rows 65 and 68.

        Coordinates 0 and 4 fix the range to [-0.2, 4.2]; the middle
        point was chosen so that both mappings are exact in floating point.
        """
        points = QQPoints(
            np.array([0.0, 1.1858267716535436, 4.0]), np.array([0.0, 1.8960629921259844, 4.0])
        )
        raster = rasterize(points)
        pixels, _ = _oracle_raster(points)
        assert raster.pixels.tobytes() == pixels.tobytes()
        assert raster.pixels[65, 40] == raster.pixels[68, 40] == 1.0
        assert raster.pixels[65, 39] == raster.pixels[68, 41] == 0.0


class TestGoldenRasters:
    """SHA-256 pins of pixels and ImageGrid features for fixed inputs.

    The digests were computed at the parent commit of the loop-free
    rasterizer, so that rewrite moved no bit. A change to rendering or
    to the features must update these pins and say which bits moved.
    """

    PINS = {
        (1, 7, 20): (
            "adf0d7e211d6d82866317032d85406016815be1334813e28af41d16aee1cec2f",
            "3d1aa1e8cbbc06c46bcd7c1255ece6956f5ddfd2ec3da550c469fca527b9c9dc",
        ),
        (5, 11, 100): (
            "c1d6a1b640d11f49c9aacdd025a318dde65b973ceebe8c1c3479291f4ad95502",
            "1db5804969225e0770de93b96841434db8116d0a79964e979208e9a6b7f0aa2e",
        ),
        (9, 3, 10): (
            "aee302c5ceab39995c94f004d6cb1cae3821199f89f4eba2ed585dddb6e3a667",
            "634452682415ecd44723ec56a383bd04dbff6815ef346e3d02c5aa778fe85953",
        ),
        (13, 21, 500): (
            "50793f057cd8a14e464ce29677e2ba61cc081ca4fda2c89badaec9dbb70bed85",
            "6eec6b00f34383d99ecfcf0563d6cb8a31e73c54811bd3b4b6fa528f9d087026",
        ),
    }

    @pytest.mark.parametrize("case, seed, n", sorted(PINS))
    def test_digests(self, case: int, seed: int, n: int) -> None:
        raster = rasterize(qq_points(sample(case_spec(case), n, seed)))
        features = extract_image(raster).values
        digests = (
            hashlib.sha256(raster.pixels.tobytes()).hexdigest(),
            hashlib.sha256(features.tobytes()).hexdigest(),
        )
        assert digests == self.PINS[(case, seed, n)]


class TestToPgm:
    """Binary PGM encoding."""

    def test_header_and_payload_size(self) -> None:
        raster = rasterize(ideal_points(25))
        data = to_pgm(raster)
        header = f"P5\n{RASTER_SIZE} {RASTER_SIZE}\n255\n".encode("ascii")
        assert data.startswith(header)
        assert len(data) == len(header) + RASTER_SIZE * RASTER_SIZE

    def test_intensity_mapping_rounds_half_up(self) -> None:
        """Levels are floor(v*255 + 0.5): 0 -> 0, 0.5 -> 128, 1 -> 255."""
        pixels = np.zeros((RASTER_SIZE, RASTER_SIZE))
        pixels[0, 0] = 0.5
        pixels[0, 1] = 1.0
        raster = QQRaster(pixels, (0.0, 1.0))
        payload = to_pgm(raster)[-RASTER_SIZE * RASTER_SIZE :]
        assert payload[0] == 128
        assert payload[1] == 255
        assert payload[2] == 0
