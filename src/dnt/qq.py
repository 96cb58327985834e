"""Q-Q point sets against the standard normal, and their rasterization.

A Q-Q plot here is the sorted standardized sample (vertical axis)
against normal quantiles at conventional plotting positions
(horizontal axis). Rasters are 128x128 grayscale with exactly three
intensities: 0.0 background, 0.5 anchor line y=x, 1.0 data points.
The anchor line is drawn once into a read-only canvas that each call
copies. One index write then paints, for all points at once, those of
each point's 4x4 candidate pixels that lie within the radius; every
such pixel gets 1.0, so identical inputs give bit-identical images.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .normal import normal_quantile
from .sampling import Sample, _array, _as_values, _frozen, _z_scores

__all__ = [
    "RASTER_SIZE",
    "QQPoints",
    "QQRaster",
    "plotting_positions",
    "qq_points",
    "ideal_points",
    "rasterize",
    "to_pgm",
]

RASTER_SIZE = 128
_POINT_RADIUS = 1.5
_LINE_LEVEL = 0.5
_POINT_LEVEL = 1.0

# The anchor line: pixel (last - i, i), bottom-left to top-right corner.
_CANVAS = np.zeros((RASTER_SIZE, RASTER_SIZE))
_CANVAS[np.arange(RASTER_SIZE)[::-1], np.arange(RASTER_SIZE)] = _LINE_LEVEL
_CANVAS.flags.writeable = False
# A pixel within 1.5 px of a center c lies at floor(c) + k with
# k - frac(c) in [-1.5, 1.5], so k is in -1..2 along each axis.
_OFFSETS = np.arange(-1, 3)


@dataclass(frozen=True)
class QQPoints:
    """Paired ascending quantile vectors of equal length."""

    theoretical: np.ndarray
    empirical: np.ndarray

    def __post_init__(self) -> None:
        theo = _frozen(self, "theoretical", _array(self.theoretical, "quantile vectors"))
        emp = _frozen(self, "empirical", _array(self.empirical, "quantile vectors"))
        if theo.size != emp.size:
            raise InvalidArgumentError("quantile vectors must be 1-D and equal length")
        if np.any(np.diff(theo) < 0) or np.any(np.diff(emp) < 0):
            raise InvalidArgumentError("quantile vectors must be ascending")

    @property
    def n(self) -> int:
        return int(self.theoretical.size)


@dataclass(frozen=True)
class QQRaster:
    """Grayscale intensity grid plus the shared axis range it renders."""

    pixels: np.ndarray
    value_range: tuple[float, float]

    def __post_init__(self) -> None:
        pixels = _frozen(self, "pixels", _array(self.pixels, "raster pixels", ndim=2))
        if pixels.shape != (RASTER_SIZE, RASTER_SIZE):
            raise InvalidArgumentError(
                f"raster must be {RASTER_SIZE}x{RASTER_SIZE}, got {pixels.shape}"
            )
        lo, hi = (float(v) for v in self.value_range)
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise InvalidArgumentError("value_range must be finite with lo < hi")
        if pixels.min() < 0.0 or pixels.max() > 1.0:
            raise InvalidArgumentError("pixel intensities must lie in [0, 1]")
        object.__setattr__(self, "value_range", (lo, hi))


def plotting_positions(n: int) -> np.ndarray:
    """p_i = (i - a)/(n + 1 - 2a), a = 3/8 for n <= 10 and 1/2 above."""
    if n < 1:
        raise InvalidArgumentError("n must be at least 1")
    a = 0.375 if n <= 10 else 0.5
    i = np.arange(1, n + 1, dtype=float)
    return (i - a) / (n + 1.0 - 2.0 * a)


@functools.lru_cache(maxsize=64)
def _normal_scores(n: int) -> np.ndarray:
    """Read-only normal quantiles at the n plotting positions."""
    scores = normal_quantile(plotting_positions(n))
    scores.flags.writeable = False
    return scores


def qq_points(x: Sample | np.ndarray) -> QQPoints:
    """Sorted standardized sample against normal quantiles."""
    empirical = _z_scores(_as_values(x), ascending=True)
    return QQPoints(_normal_scores(empirical.size), empirical)


def ideal_points(n: int) -> QQPoints:
    """The perfect-fit point set: empirical equals theoretical."""
    theoretical = _normal_scores(n)
    return QQPoints(theoretical, theoretical)


def rasterize(points: QQPoints) -> QQRaster:
    """Render points and the y=x anchor line onto the fixed canvas.

    Both axes share one value range: the min/max over all coordinates
    padded by 5% of the spread on each side, so the anchor line is the
    corner-to-corner main diagonal. Row 0 is the top of the image and
    empirical values increase upward. Each point paints every pixel
    whose center lies within 1.5 px of its mapped location.
    """
    if points.n < 3:
        raise InvalidArgumentError("need at least 3 points to rasterize")
    coords = np.concatenate([points.theoretical, points.empirical])
    m = float(coords.min())
    big = float(coords.max())
    spread = big - m
    if spread <= 0.0:
        raise InvalidArgumentError("zero coordinate spread; nothing to render")
    lo = m - 0.05 * spread
    hi = big + 0.05 * spread

    last = RASTER_SIZE - 1
    scale = last / (hi - lo)
    col_center = ((points.theoretical - lo) * scale)[:, None]
    row_center = (last - (points.empirical - lo) * scale)[:, None]
    rr = np.floor(row_center).astype(int) + _OFFSETS
    cc = np.floor(col_center).astype(int) + _OFFSETS
    dist_sq = ((rr - row_center) ** 2)[:, :, None] + ((cc - col_center) ** 2)[:, None, :]
    ok = (
        (dist_sq <= _POINT_RADIUS * _POINT_RADIUS)
        & ((rr >= 0) & (rr <= last))[:, :, None]
        & ((cc >= 0) & (cc <= last))[:, None, :]
    )
    pixels = _CANVAS.copy()
    pixels.reshape(-1)[(rr[:, :, None] * RASTER_SIZE + cc[:, None, :])[ok]] = _POINT_LEVEL
    return QQRaster(pixels, (lo, hi))


def to_pgm(raster: QQRaster) -> bytes:
    """8-bit binary PGM; intensity maps to floor(v*255 + 0.5)."""
    levels = np.floor(raster.pixels * 255.0 + 0.5).astype(np.uint8)
    header = f"P5\n{RASTER_SIZE} {RASTER_SIZE}\n255\n".encode("ascii")
    return header + levels.tobytes()
