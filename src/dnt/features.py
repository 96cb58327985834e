"""Feature extraction from samples or rasters, and separability selection.

Two extractors: RawOrder (the sorted standardized sample itself) and
ImageGrid (cell statistics of the 128x128 raster plus four global
summaries, 196 features). Selection keeps the d features with the
largest Welch-style separation between a null and an alternative
class; it is closed-form and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .qq import RASTER_SIZE, QQRaster
from .sampling import Sample, _array, _as_values, _frozen, _z_scores

__all__ = [
    "EXTRACTOR_IDS",
    "IMAGE_GRID_LENGTH",
    "FeatureVector",
    "SelectionModel",
    "extract_raw",
    "extract_image",
    "fit_selection",
    "apply_selection",
]

EXTRACTOR_IDS = ("RawOrder", "ImageGrid")

_CELL = 16
_GRID = RASTER_SIZE // _CELL
IMAGE_GRID_LENGTH = _GRID * _GRID * 3 + 4
_INDEX = np.arange(RASTER_SIZE)
# _BLOCK[g, i] is 1 when pixel row/column i lies in cell g; _INNER[g, j]
# is 1 when forward difference j lies inside cell g.
_BLOCK = (np.arange(_GRID)[:, None] == _INDEX // _CELL).astype(float)
_INNER = _BLOCK[:, :-1] * (_INDEX[:-1] % _CELL != _CELL - 1)


@dataclass(frozen=True)
class FeatureVector:
    """A finite numeric vector tagged with the extractor that made it."""

    values: np.ndarray
    extractor_id: str
    selected: np.ndarray | None = None

    def __post_init__(self) -> None:
        values = _frozen(self, "values", _array(self.values, "feature values"))
        if values.size == 0:
            raise InvalidArgumentError("feature values must be a nonempty 1-D vector")
        if self.extractor_id not in EXTRACTOR_IDS:
            raise InvalidArgumentError(f"unknown extractor {self.extractor_id!r}")
        if self.selected is not None:
            mask = _frozen(self, "selected", _array(self.selected, "selected mask", int))
            if mask.size != values.size:
                raise InvalidArgumentError("selected mask must list one source index per value")
            if np.any(np.diff(mask) <= 0):
                raise InvalidArgumentError("selected mask must be strictly increasing")

    def __len__(self) -> int:
        return int(self.values.size)


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


def extract_raw(x: Sample | np.ndarray) -> FeatureVector:
    """Sorted standardized sample as the feature vector (length n)."""
    return FeatureVector(_z_scores(_as_values(x), ascending=True), "RawOrder")


def extract_image(r: QQRaster) -> FeatureVector:
    """Grid-cell and global raster statistics (length 196).

    Per 16x16 cell: mean intensity, mean absolute horizontal forward
    difference, mean absolute vertical forward difference. Global:
    mean, population sd, and the mean row and column index of the
    point-level (intensity 1.0) pixels, 0.0 when there are none.

    Cell sums are block sums ``_BLOCK @ X @ _BLOCK.T``; ``_INNER`` drops
    the differences across cell boundaries. Raster pixels are 0, 0.5 or
    1, so every sum is exact and each mean is one rounding of it.
    """
    pixels = r.pixels
    cell_mean = _BLOCK @ pixels @ _BLOCK.T / (_CELL * _CELL)
    hdiff = _BLOCK @ np.abs(pixels[:, 1:] - pixels[:, :-1]) @ _INNER.T / (_CELL * (_CELL - 1))
    vdiff = _INNER @ np.abs(pixels[1:] - pixels[:-1]) @ _BLOCK.T / (_CELL * (_CELL - 1))
    per_cell = np.stack([cell_mean, hdiff, vdiff], axis=2).reshape(-1)

    point = pixels == 1.0
    count = point.sum()
    row_mean = float(point.sum(axis=1) @ _INDEX / count) if count else 0.0
    col_mean = float(point.sum(axis=0) @ _INDEX / count) if count else 0.0
    global_stats = np.array([pixels.mean(), pixels.std(), row_mean, col_mean])
    return FeatureVector(np.concatenate([per_cell, global_stats]), "ImageGrid")


def _as_matrix(vectors: list[FeatureVector] | np.ndarray, what: str) -> tuple[np.ndarray, str | None]:
    """A finite (rows >= 2, features) matrix and the vectors' extractor (None for a matrix)."""
    if isinstance(vectors, np.ndarray):
        matrix, extractor = _array(vectors, what, ndim=2), None
    else:
        if len(vectors) < 2:
            raise InvalidArgumentError(f"{what} needs at least 2 vectors")
        extractor = vectors[0].extractor_id
        length = len(vectors[0])
        for v in vectors:
            if v.extractor_id != extractor or len(v) != length:
                raise InvalidArgumentError(f"{what} vectors must share extractor and length")
        matrix = np.stack([v.values for v in vectors])
    if matrix.shape[0] < 2:
        raise InvalidArgumentError(f"{what} needs a 2-D matrix with at least 2 rows")
    return matrix, extractor


def fit_selection(
    h0: list[FeatureVector] | np.ndarray,
    h1: list[FeatureVector] | np.ndarray,
    d: int,
) -> SelectionModel:
    """Rank features by |mean gap| / pooled standard error, keep the top d.

    score_j = |mean_h0 - mean_h1| / sqrt(var_h0/n0 + var_h1/n1 + 1e-12)
    with unbiased (1/(n-1)) variances. Ties rank the lower index first.
    """
    m0, ex0 = _as_matrix(h0, "fit_selection h0")
    m1, ex1 = _as_matrix(h1, "fit_selection h1")
    if m0.shape[1] != m1.shape[1]:
        raise InvalidArgumentError("h0 and h1 feature lengths differ")
    if ex0 is not None and ex1 is not None and ex0 != ex1:
        raise InvalidArgumentError("h0 and h1 extractors differ")
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


def apply_selection(v: FeatureVector, s: SelectionModel) -> FeatureVector:
    """Project a full-length vector onto the model's retained indices."""
    if len(v) != s.m:
        raise InvalidArgumentError(
            f"vector length {len(v)} does not match selection over {s.m} features"
        )
    return FeatureVector(v.values[s.mask], v.extractor_id, selected=s.mask)
