"""The point-list kernels against frozen dense copies, byte for byte.

``qq._render_rows`` lists each rendered block's lit pixels, and the
ImageGrid, PSNR and SSIM kernels work from that list. Every test here
compares their bytes with the dense kernels they replaced, kept frozen
in oracles.py (``frozen_image_grid_rows``, ``frozen_psnr`` and
``frozen_ssim``):

- an 81-row chunk (n=100) of every benchmark case, as the power study
  scores it;
- the golden rasters of test_qq, through the one-row public calls;
- overlapping discs, points on the anchor line, and points on rows and
  columns 0 and 127, rendered and hand-made, against the ideal
  reference, against references of their own and against a reference
  of random levels.

SSIM's column pass is a BLAS product, so CI also runs this file at two
BLAS threads, and at the oldest numpy that pyproject.toml allows.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracles
import test_qq
from dnt.engine import _chunks
from dnt.features import _image_grid_rows, extract_image
from dnt.imagesim import SimilarityReference
from dnt.qq import (
    _LEVELS,
    _POINT_LEVEL,
    RASTER_SIZE,
    QQRaster,
    _normal_scores,
    _render_rows,
    qq_points,
    rasterize,
)
from dnt.sampling import SeedScheme, _z_scores, case_spec, sample
from test_qq import CORNER_AXIS, EDGE_BLOCK, lit_block

LAST = RASTER_SIZE - 1


def assert_lit_list(rendered) -> None:
    """The list holds each nonzero pixel once, in ascending order, with its level."""
    assert np.all(np.diff(rendered.lit) > 0)
    assert rendered.lit.tobytes() == np.flatnonzero(rendered.levels).astype(rendered.lit.dtype).tobytes()
    assert rendered.lit_levels.tobytes() == rendered.levels.reshape(-1)[rendered.lit].tobytes()


def assert_kernels_match(rendered, reference: SimilarityReference) -> None:
    """ImageGrid, PSNR and SSIM of a rendered block against the frozen dense kernels."""
    levels = rendered.levels
    grid = _image_grid_rows(rendered)
    assert grid.tobytes() == oracles.frozen_image_grid_rows(levels).tobytes()
    pb = reference.raster.pixels
    psnr = reference._level_statistics(rendered, "PSNR")
    want = np.array([-oracles.frozen_psnr(image, pb, _POINT_LEVEL) for image in levels])
    assert psnr.tobytes() == want.tobytes()
    ssim = reference._level_statistics(rendered, "SSIM")
    want = np.array([-oracles.frozen_ssim(image / _POINT_LEVEL, pb) for image in levels])
    assert ssim.tobytes() == want.tobytes()


def assert_one_row_calls_match(raster: QQRaster, reference: SimilarityReference) -> None:
    """extract_image and statistic on a raster, against the dense kernels on its pixels."""
    pb = reference.raster.pixels
    want_grid = oracles.frozen_image_grid_rows(raster.pixels[np.newaxis], 1.0)[0]
    want = {"PSNR": -oracles.frozen_psnr(raster.pixels, pb), "SSIM": -oracles.frozen_ssim(raster.pixels, pb)}
    assert extract_image(raster).tobytes() == want_grid.tobytes()
    for metric, value in want.items():
        got = reference.statistic(raster, metric)
        assert np.float64(got).tobytes() == np.float64(value).tobytes(), metric


def _hand_made() -> np.ndarray:
    """Level images: points on the anchor line, on the border, and overlapping."""
    images = np.stack([_LEVELS] * 4)
    # A point on the anchor line, alone, and a run of them along it.
    images[0, 60, LAST - 60] = _POINT_LEVEL
    for r in range(10, 14):
        images[0, r, LAST - r] = _POINT_LEVEL
    # Points on rows and columns 0 and 127, corners included.
    for r, c in [(0, 0), (0, LAST), (LAST, 0), (LAST, LAST), (0, 40), (90, 0), (LAST, 70), (20, LAST)]:
        images[1, r, c] = _POINT_LEVEL
    images[1, LAST, 1:4] = _POINT_LEVEL
    images[1, 50:53, LAST] = _POINT_LEVEL
    # Two overlapping 3x3 patches straddling a cell edge, and one across the anchor.
    images[2, 14:17, 14:17] = _POINT_LEVEL
    images[2, 15:18, 15:18] = _POINT_LEVEL
    images[2, 62:66, 62:66] = _POINT_LEVEL
    # No anchor at all: a lone point, and a lone anchor-level pixel.
    images[3] = 0
    images[3, 31, 32] = _POINT_LEVEL
    images[3, 100, 5] = 1
    return images


class TestRenderedChunks:
    """The power study's block path: one 81-row chunk of each case."""

    @pytest.mark.parametrize("case", range(1, 16))
    def test_a_chunk_of_every_case(self, case) -> None:
        _, block = next(_chunks(case_spec(case), 81, 100, SeedScheme(28), "test"))
        assert block.shape == (81, 100)
        rendered = _render_rows(_z_scores(block, ascending=True))
        assert_lit_list(rendered)
        assert_kernels_match(rendered, SimilarityReference.ideal(100))


class TestGoldenRasters:
    """The one-row calls on the golden rasters of test_qq."""

    @pytest.mark.parametrize("case, seed, n", sorted(test_qq.TestGoldenRasters.PINS))
    def test_one_row_calls(self, case, seed, n) -> None:
        raster = rasterize(qq_points(sample(case_spec(case), n, seed)))
        assert_lit_list(raster._block)
        assert_one_row_calls_match(raster, SimilarityReference.ideal(n))


class TestEdgeConfigurations:
    """Overlapping discs, points on the anchor line, and points on the border."""

    def test_overlapping_discs_of_tied_and_extreme_samples(self) -> None:
        """Twenty coincident points per value, and an outlier that squeezes the rest."""
        rendered = _render_rows(_z_scores(EDGE_BLOCK, ascending=True))
        assert_lit_list(rendered)
        assert_kernels_match(rendered, SimilarityReference.ideal(100))

    def test_points_on_the_anchor_line(self) -> None:
        """The ideal point set covers the anchor line wherever its discs reach it."""
        scores = _normal_scores(100)
        rendered = _render_rows(np.stack([scores, scores[::-1] * -1.0]))
        assert_lit_list(rendered)
        assert np.count_nonzero(rendered.levels[0][::-1].diagonal() == _POINT_LEVEL) > 0
        assert_kernels_match(rendered, SimilarityReference.ideal(100))
        assert_kernels_match(rendered, SimilarityReference.ideal(40))

    def test_discs_clipped_at_the_corners(self) -> None:
        """Points on the corners of the canvas: rows and columns 0 and 127."""
        rendered = _render_rows(np.stack([CORNER_AXIS, CORNER_AXIS[[0, 0, 2]]]), CORNER_AXIS)
        assert_lit_list(rendered)
        assert rendered.levels[:, [0, LAST], [LAST, 0]].tolist() == [[2, 2], [2, 2]]
        assert_kernels_match(rendered, SimilarityReference.ideal(3))

    def test_hand_made_levels(self) -> None:
        rendered = lit_block(_hand_made())
        assert_kernels_match(rendered, SimilarityReference.ideal(100))

    @pytest.mark.parametrize("image", range(4))
    def test_hand_made_levels_as_the_reference(self, image) -> None:
        """A reference of points on the border or the anchor, against a rendered chunk."""
        reference = SimilarityReference(QQRaster(_hand_made()[image], (0.0, 1.0)))
        _, block = next(_chunks(case_spec(3), 20, 100, SeedScheme(28), "test"))
        assert_kernels_match(_render_rows(_z_scores(block, ascending=True)), reference)
        assert_kernels_match(lit_block(_hand_made()), reference)

    def test_a_reference_of_random_levels(self) -> None:
        """A reference lit at about two thirds of its pixels, far beyond any Q-Q raster."""
        levels = np.random.default_rng(28).integers(0, 3, (RASTER_SIZE, RASTER_SIZE))
        reference = SimilarityReference(QQRaster(levels, (0.0, 1.0)))
        _, block = next(_chunks(case_spec(8), 9, 100, SeedScheme(28), "test"))
        assert_kernels_match(_render_rows(_z_scores(block, ascending=True)), reference)
        assert_one_row_calls_match(rasterize(qq_points(block[0])), reference)
