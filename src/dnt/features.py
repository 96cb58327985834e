"""Feature extraction from samples or rasters, and separability selection.

Two extractors: RawOrder (the sorted standardized sample itself) and
ImageGrid (cell statistics of the 128x128 raster plus four global
summaries, 196 features). Its kernel, ``_image_grid_rows``, scores a
rendered block from its lit pixels (``qq._render_rows``), and
``extract_image`` is its one-row call on a raster's block. Every
statistic of a raster is an integer sum of levels divided once: a
cell's pixel sum and inner absolute differences, the level total, and
the point count, rows and columns. Integer sums are exact in any
order, so the lit-pixel sums give the dense planes' values bit for
bit. A difference is nonzero only on an edge with a lit end; each lit
pixel adds the edge to its next pixel, and the edge from its previous
pixel when that one is dark, so each edge is added once.

Selection keeps the d features with the largest Welch-style
separation between a null and an alternative class; it is closed-form
and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .qq import _POINT_LEVEL, _SIZE, RASTER_SIZE, QQRaster, _Rendered
from .sampling import Sample, _array, _as_values, _frozen, _z_scores

__all__ = [
    "EXTRACTOR_IDS",
    "IMAGE_GRID_LENGTH",
    "SelectionModel",
    "extract_raw",
    "extract_image",
    "fit_selection",
]

EXTRACTOR_IDS = ("RawOrder", "ImageGrid")

_CELL = 16
_GRID = RASTER_SIZE // _CELL
IMAGE_GRID_LENGTH = _GRID * _GRID * 3 + 4
# Values behind each cell statistic: pixels, then inner differences across and down.
_CELL_COUNTS = np.array([_CELL * _CELL, _CELL * (_CELL - 1), _CELL * (_CELL - 1)])
# Each level sum's divisor, in feature order: the point level times the count.
_CELL_DIVISORS = np.tile(_POINT_LEVEL * _CELL_COUNTS, _GRID * _GRID)
# The cell of each flat pixel index of an image: (row // 16) * 8 + column // 16.
_CELL_OF = (np.arange(_SIZE) >> 11) * _GRID + (np.arange(_SIZE) >> 4) % _GRID


@dataclass(frozen=True)
class SelectionModel:
    """Per-feature separability scores and the retained top-d index mask."""

    scores: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        scores = _frozen(self, "scores", _array(self.scores, "scores"))
        mask = _frozen(self, "mask", _array(self.mask, "mask", int))
        if np.any(scores < 0):
            raise InvalidArgumentError("scores must be finite and nonnegative")
        if mask.size == 0 or mask.size > scores.size:
            raise InvalidArgumentError("mask size must be in 1..len(scores)")
        if mask.min() < 0 or mask.max() >= scores.size:
            raise InvalidArgumentError("mask indices out of bounds")
        if np.any(np.diff(mask) <= 0):
            raise InvalidArgumentError("mask must be strictly increasing")

    @property
    def d(self) -> int:
        return int(self.mask.size)

    @property
    def m(self) -> int:
        return int(self.scores.size)


def extract_raw(x: Sample | np.ndarray) -> np.ndarray:
    """Sorted standardized sample as a fresh feature vector (length n)."""
    return _z_scores(_as_values(x), ascending=True)


def extract_image(r: QQRaster) -> np.ndarray:
    """Grid-cell and global raster statistics as a fresh vector (length 196).

    Per 16x16 cell: mean intensity, mean absolute horizontal forward
    difference, mean absolute vertical forward difference. Global:
    mean, population sd, and the mean row and column index of the
    point-level (intensity 1.0) pixels, 0.0 when there are none.
    """
    return _image_grid_rows(r._block)[0]


def _image_grid_rows(rendered: _Rendered) -> np.ndarray:
    """ImageGrid vector of each image of a rendered block, from its lit pixels.

    Each cell statistic is the sum of one of three level planes over
    the cell (the image, and its absolute forward differences across
    and down, inside the cell), divided once by _POINT_LEVEL times its
    count; the global ones come from the level total and the point
    count, rows and columns. The three plane sums of a cell are at most
    512 each, so one ``bincount`` adds them packed in one integer, at
    bits 0, 10 and 20, and every partial sum stays exact. See the module
    docstring for why the sums are the dense planes' sums bit for bit.
    """
    levels, lit = rendered.levels.reshape(-1), rendered.lit
    rows = rendered.levels.shape[0]
    value = rendered.lit_levels.view(np.int8)
    packed = value.astype(np.int64)
    # A flat index is image << 14 | row << 7 | column. Across, the next
    # pixel is one on and the place in the cell is the column's low 4
    # bits; down, 128 on and the row's.
    for step, place, shift in ((1, lit & (_CELL - 1), 10), (RASTER_SIZE, (lit >> 7) & (_CELL - 1), 20)):
        after = levels.take(lit + step, mode="clip").view(np.int8)
        before = levels.take(lit - step, mode="clip")
        edges = np.abs(after - value) * (place != _CELL - 1) + value * ((place != 0) & (before == 0))
        packed += edges.astype(np.int64) << shift
    image = lit >> 14
    sums = np.bincount(image * (_GRID * _GRID) + _CELL_OF[lit & (_SIZE - 1)], packed, minlength=rows * _GRID * _GRID)
    sums = sums.astype(np.int64)[..., None] >> np.array([0, 10, 20]) & 1023
    per_cell = sums.reshape(rows, -1) / _CELL_DIVISORS

    top, size = _POINT_LEVEL, _SIZE
    total = sums[:, 0].reshape(rows, -1).sum(axis=1)
    point = value == _POINT_LEVEL
    points, point_image = np.compress(point, lit), np.compress(point, image)
    count = np.bincount(point_image, minlength=rows)
    # levels 0, 1, 2 square to level + 2 * [level == 2]
    var = (size * (total + 2 * count) - total * total) / (size * size * top * top)
    row_mean, col_mean = (
        np.divide(np.bincount(point_image, at, minlength=rows), count, out=np.zeros(rows), where=count > 0)
        for at in ((points >> 7) & (RASTER_SIZE - 1), points & (RASTER_SIZE - 1))
    )
    global_stats = np.stack([total / (top * size), np.sqrt(var), row_mean, col_mean], axis=1)
    return np.concatenate([per_cell, global_stats], axis=1)


def _as_matrix(x, what: str) -> np.ndarray:
    """x as a finite (rows >= 2, features) float matrix."""
    matrix = _array(x, what, ndim=2)
    if matrix.shape[0] < 2:
        raise InvalidArgumentError(f"{what} needs a 2-D matrix with at least 2 rows")
    return matrix


def fit_selection(h0: np.ndarray, h1: np.ndarray, d: int) -> SelectionModel:
    """Rank features by |mean gap| / pooled standard error, keep the top d.

    score_j = |mean_h0 - mean_h1| / sqrt(var_h0/n0 + var_h1/n1 + 1e-12)
    with unbiased (1/(n-1)) variances. Ties rank the lower index first.
    """
    m0 = _as_matrix(h0, "fit_selection h0")
    m1 = _as_matrix(h1, "fit_selection h1")
    if m0.shape[1] != m1.shape[1]:
        raise InvalidArgumentError("h0 and h1 feature lengths differ")
    m = m0.shape[1]
    if not 1 <= d <= m:
        raise InvalidArgumentError(f"d must be in 1..{m}")
    gap = np.abs(m0.mean(axis=0) - m1.mean(axis=0))
    se = np.sqrt(
        m0.var(axis=0, ddof=1) / m0.shape[0]
        + m1.var(axis=0, ddof=1) / m1.shape[0]
        + 1e-12
    )
    scores = gap / se
    return SelectionModel(scores, _top_d(scores, d))


def _top_d(scores: np.ndarray, d: int) -> np.ndarray:
    """The indices of the d largest scores, ascending; ties rank the lower index first."""
    return np.sort(np.argsort(-scores, kind="stable")[:d])
