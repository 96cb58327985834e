"""Feature extraction from samples or rasters, and separability selection.

Two extractors: RawOrder (the sorted standardized sample itself) and
ImageGrid (cell statistics of the 128x128 raster plus four global
summaries, 196 features); its one kernel, ``_image_grid_rows``, takes
a block of rendered levels or of float rasters, and ``extract_image``
is its one-row call. Selection keeps the d features with the largest
Welch-style separation between a null and an alternative class; it is
closed-form and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .qq import _POINT_LEVEL, RASTER_SIZE, QQRaster
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
_INDEX = np.arange(RASTER_SIZE)
# Values behind each cell statistic: pixels, then inner differences across and down.
_CELL_COUNTS = np.array([_CELL * _CELL, _CELL * (_CELL - 1), _CELL * (_CELL - 1)])


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
    return _image_grid_rows(r.pixels[np.newaxis], 1.0)[0]


def _image_grid_rows(images: np.ndarray, top=_POINT_LEVEL) -> np.ndarray:
    """ImageGrid vector of each image of a (rows, 128, 128) block.

    A pixel's intensity is its image value divided by top: 1.0 for float
    rasters, and by default the point level 2 of rendered uint8 levels
    (``qq._render_rows``). Each cell statistic is a block sum over one
    of three planes (the image, and its absolute forward differences
    across and down, zeroed across cell edges), divided once by top
    times its count. Rendered pixels are multiples of 0.5, so every sum
    is exact in any order, and levels give their pixels' vector bit for
    bit. Level sums fit int8 down a cell's 16 rows (at most 32) and
    int16 across its columns (at most 512).
    """
    rows = images.shape[0]
    exact = images.dtype.kind != "f"
    if exact:  # signed, so differences do not wrap
        images = images.view(np.int8)
    planes = np.empty((3, *images.shape), dtype=images.dtype)  # every entry is written
    planes[0] = images
    np.subtract(images[:, :, 1:], images[:, :, :-1], out=planes[1, :, :, :-1])
    np.subtract(images[:, 1:], images[:, :-1], out=planes[2, :, :-1])
    np.abs(planes[1:], out=planes[1:])
    planes[1, :, :, _CELL - 1 :: _CELL] = 0
    planes[2, :, _CELL - 1 :: _CELL] = 0
    narrow, wide = (np.int8, np.int16) if exact else (None, None)
    by_cell_row = planes.reshape(3, rows, _GRID, _CELL, RASTER_SIZE)
    columns = np.add.reduce(by_cell_row, axis=3, dtype=narrow)
    sums = np.add.reduce(columns.reshape(3, rows, _GRID, _GRID, _CELL), axis=4, dtype=wide)
    per_cell = (np.moveaxis(sums, 0, -1) / (top * _CELL_COUNTS)).reshape(rows, -1)

    size = RASTER_SIZE * RASTER_SIZE
    total = sums[0].sum(axis=(1, 2))
    point = (images == top).view(np.int8)
    row_count = np.add.reduce(point, axis=2, dtype=np.int16)
    col_count = np.add.reduce(point, axis=1, dtype=np.int16)
    count = row_count.sum(axis=1)
    if exact:  # levels 0, 1, 2 square to level + 2 * [level == 2]
        var = (size * (total + 2 * count) - total * total) / (size * size * top * top)
    else:
        centered = (images - (total / size)[:, None, None]).reshape(rows, 1, size)
        var = (centered @ centered.transpose(0, 2, 1)).reshape(rows) / size
    row_mean = np.divide(row_count @ _INDEX, count, out=np.zeros(rows), where=count > 0)
    col_mean = np.divide(col_count @ _INDEX, count, out=np.zeros(rows), where=count > 0)
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
    top = np.argsort(-scores, kind="stable")[:d]
    return SelectionModel(scores, np.sort(top))
