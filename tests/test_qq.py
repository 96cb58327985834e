"""Unit tests for Q-Q point construction and rasterization.

Tests cover:
- plotting positions for small and large n
- qq_points standardization and ordering
- ideal point sets
- raster geometry: anchor line, point discs, orientation, value range
- rasters bit-identical to a per-pixel oracle, and pinned by digest
- the block renderer, row by row against rasterize
- the QQRaster constructor: levels 0, 1 and 2 stored as uint8, anything else refused
- PGM encoding
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import oracles
from dnt.errors import InvalidArgumentError
from dnt.features import extract_image
from dnt.imagesim import psnr, ssim
from dnt.qq import (
    _LEVELS,
    RASTER_SIZE,
    QQPoints,
    QQRaster,
    _Rendered,
    _render_rows,
    ideal_points,
    plotting_positions,
    qq_points,
    rasterize,
    to_pgm,
)
from dnt.sampling import _z_scores, case_spec, sample

# Axis values near 2**52, one ulp apart at most: the 5% padding rounds
# away, so the first and last discs are centred on canvas corners and
# the bounds mask clips them.
CORNER_AXIS = np.array([2.0**52, 2.0**52 + 2, 2.0**52 + 4])


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

    @pytest.mark.parametrize("n", [2.5, True], ids=["float", "bool"])
    def test_rejects_a_non_integer_n(self, n) -> None:
        """Not truncated or counted as 1: the scalar rule that sample() applies."""
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            plotting_positions(n)


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

    @pytest.mark.parametrize("n", [10.5, 100.0], ids=["fraction", "whole-float"])
    def test_ideal_points_rejects_a_non_integer_n(self, n) -> None:
        """100.0 is refused even after ideal_points(100) filled the score cache."""
        ideal_points(100)
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            ideal_points(n)

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


def benchmark_block(n: int) -> np.ndarray:
    """One (45, n) block: every benchmark case at seeds 0, 1 and 2."""
    return np.stack([
        sample(case_spec(case), n, seed).values for case in range(1, 16) for seed in range(3)
    ])


def lit_block(levels: np.ndarray) -> _Rendered:
    """The rendered form of hand-made (rows, 128, 128) uint8 level images.

    Its lit list is their nonzero pixels, each once, in ascending order,
    as ``_render_rows`` lists a block it renders.
    """
    lit = np.flatnonzero(levels)
    lo = np.zeros((len(levels), 1))
    return _Rendered(levels, lo, lo + 1.0, lit, levels.reshape(-1)[lit])


EDGE_BLOCK = np.stack([
    np.concatenate([np.zeros(99), [1e6]]),  # extreme outlier
    np.repeat(np.arange(5.0), 20),  # integer ties
])


class TestRenderRows:
    """_render_rows: each row of a block renders as rasterize renders it alone."""

    @staticmethod
    def assert_rows_match(samples: np.ndarray) -> None:
        levels, lo, hi, lit, lit_levels = _render_rows(_z_scores(samples, ascending=True))
        assert levels.dtype == np.uint8 and levels.shape == (len(samples), 128, 128)
        # The lit list is the block's nonzero pixels, each once, in order, with their levels.
        assert lit.tobytes() == np.flatnonzero(levels).astype(lit.dtype).tobytes()
        assert lit_levels.tobytes() == levels.reshape(-1)[lit].tobytes()
        for i, x in enumerate(samples):
            raster = rasterize(qq_points(x))
            assert (levels[i] / 2).tobytes() == raster.pixels.tobytes()
            assert (lo[i, 0], hi[i, 0]) == raster.value_range

    @pytest.mark.parametrize("n", [3, 5, 10, 11, 100, 500])
    def test_benchmark_rows_match_byte_for_byte(self, n: int) -> None:
        self.assert_rows_match(benchmark_block(n))

    def test_edge_rows_match_byte_for_byte(self) -> None:
        self.assert_rows_match(EDGE_BLOCK)

    def test_discs_clipped_at_the_corners_stay_in_their_own_image(self) -> None:
        """Off-canvas candidates are dropped, not wrapped into a neighbouring row or image."""
        block = np.stack([CORNER_AXIS, CORNER_AXIS[[0, 0, 2]]])
        levels = _render_rows(block, CORNER_AXIS).levels
        for i, empirical in enumerate(block):
            pixels, _ = _oracle_raster(QQPoints(CORNER_AXIS, empirical))
            assert rasterize(QQPoints(CORNER_AXIS, empirical)).pixels.tobytes() == pixels.tobytes()
            assert (levels[i] / 2).tobytes() == pixels.tobytes()
        corners = levels[:, [0, 0, -1, -1], [0, -1, 0, -1]]
        assert corners.tolist() == [[0, 2, 2, 0], [0, 2, 2, 0]]

    def test_rows_do_not_depend_on_their_neighbours(self) -> None:
        """Reversing the block reverses its images, ranges and lit lists."""
        z = _z_scores(benchmark_block(11), ascending=True)
        forward = _render_rows(z)
        backward = _render_rows(z[::-1].copy())
        for a, b in zip(forward[:3], backward[:3]):
            assert a.tobytes() == b[::-1].tobytes()
        rows = len(z)
        for i in range(rows):
            mine = forward.lit // (128 * 128) == i
            theirs = backward.lit // (128 * 128) == rows - 1 - i
            assert (forward.lit[mine] % (128 * 128)).tobytes() == (backward.lit[theirs] % (128 * 128)).tobytes()
            assert forward.lit_levels[mine].tobytes() == backward.lit_levels[theirs].tobytes()

    def test_rejects_too_few_points_and_zero_spread(self) -> None:
        with pytest.raises(InvalidArgumentError):
            _render_rows(np.zeros((4, 2)))
        with pytest.raises(InvalidArgumentError):
            _render_rows(np.zeros((2, 3)), np.zeros(3))


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
        features = extract_image(raster)
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
        levels = np.zeros((RASTER_SIZE, RASTER_SIZE), dtype=np.uint8)
        levels[0, 0] = 1
        levels[0, 1] = 2
        raster = QQRaster(levels, (0.0, 1.0))
        payload = to_pgm(raster)[-RASTER_SIZE * RASTER_SIZE :]
        assert payload[0] == 128
        assert payload[1] == 255
        assert payload[2] == 0


def _with(value, at=(5, 7), dtype=np.int64) -> np.ndarray:
    """The anchor-line levels as dtype, with value at one pixel."""
    levels = _LEVELS.astype(dtype)
    levels[at] = value
    return levels


class TestQQRaster:
    """The constructor stores levels 0, 1 and 2 as a read-only uint8 copy and refuses anything else.

    numpy 1.x and 2.x cast and compare integers by different rules (NEP 50),
    so CI also runs this class at the oldest numpy that pyproject.toml allows.
    """

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.int8, np.uint64, bool])
    def test_integer_and_bool_levels_are_stored_as_uint8(self, dtype) -> None:
        given = _LEVELS.astype(dtype)
        raster = QQRaster(given, (0.0, 1.0))
        assert raster.levels.dtype == np.uint8 and not raster.levels.flags.writeable
        assert raster.levels.tobytes() == _LEVELS.tobytes()
        assert not np.shares_memory(raster.levels, given)
        assert raster.pixels.tobytes() == (_LEVELS / 2).tobytes() and not raster.pixels.flags.writeable

    @pytest.mark.parametrize(
        "levels, value_range, reason",
        [
            pytest.param(_LEVELS.astype(float), (0.0, 1.0), "integers", id="float-levels"),
            pytest.param(
                np.full((RASTER_SIZE, RASTER_SIZE), 0.25), (0.0, 1.0), "integers", id="quarter-intensity"
            ),
            pytest.param(
                np.random.default_rng(8).uniform(0.0, 1.0, (RASTER_SIZE, RASTER_SIZE)),
                (-1.0, 1.0),
                "integers",
                id="non-dyadic-pixels",
            ),
            pytest.param(_with(np.nan, dtype=float), (0.0, 1.0), "integers", id="nan-pixel"),
            pytest.param(_with(3), (0.0, 1.0), "0, 1 or 2", id="level-3"),
            # A uint8 cast would wrap these to 2, 255 and 255.
            pytest.param(_with(258), (0.0, 1.0), "0, 1 or 2", id="level-258"),
            pytest.param(_with(-1, dtype=np.int8), (0.0, 1.0), "0, 1 or 2", id="level-minus-1"),
            pytest.param(_with(2**64 - 1, dtype=np.uint64), (0.0, 1.0), "0, 1 or 2", id="level-uint64-max"),
            pytest.param(_LEVELS[1:], (0.0, 1.0), "128x128", id="127-rows"),
            pytest.param(_LEVELS.reshape(-1), (0.0, 1.0), "2-D", id="flat"),
            pytest.param(np.zeros((0, 0), dtype=np.uint8), (0.0, 1.0), "128x128", id="empty"),
            pytest.param(_LEVELS, (1.0, 0.0), "value_range", id="reversed-range"),
            pytest.param(_LEVELS, (0.0, 0.0), "value_range", id="empty-range"),
            pytest.param(_LEVELS, (0.0, np.inf), "value_range", id="infinite-range"),
            pytest.param(_LEVELS, (np.nan, 1.0), "value_range", id="nan-range"),
        ],
    )
    def test_refuses_a_non_level_raster(self, levels, value_range, reason) -> None:
        with pytest.raises(InvalidArgumentError, match=reason):
            QQRaster(levels, value_range)

    @pytest.mark.parametrize("case, seed, n", [(5, 11, 100), (9, 3, 10)])
    def test_a_raster_rebuilt_from_its_levels_scores_the_same(self, case, seed, n) -> None:
        """QQRaster(r.levels, r.value_range) of a rendered r: same features, PSNR, SSIM and PGM bytes."""
        raster = rasterize(qq_points(sample(case_spec(case), n, seed)))
        rebuilt = QQRaster(raster.levels, raster.value_range)
        reference = rasterize(ideal_points(n))
        assert extract_image(rebuilt).tobytes() == extract_image(raster).tobytes()
        for score in (psnr, ssim):
            got = [score(rebuilt, reference).value, score(reference, rebuilt).value]
            want = [score(raster, reference).value, score(reference, raster).value]
            assert np.array(got).tobytes() == np.array(want).tobytes()
        assert to_pgm(rebuilt) == to_pgm(raster)
