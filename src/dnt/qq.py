"""Q-Q point sets against the standard normal, and their rasterization.

A Q-Q plot here is the sorted standardized sample (vertical axis)
against normal quantiles at conventional plotting positions
(horizontal axis). A raster is a 128x128 image of three levels: 0
background, 1 anchor line y=x, 2 data points. Its intensities, level
/ 2 (0.0, 0.5 and 1.0), are exact in floating point.

One kernel, ``_render_rows``, renders a (rows, n) block as uint8
levels; ``rasterize`` is its one-row call. The anchor line is drawn
once into a read-only canvas that the kernel copies per row. One index
write then paints, for every point of every row at once, those of each
point's 4x4 candidate pixels that lie on the canvas and within the
radius, so identical inputs give bit-identical images.

The kernel also lists each block's lit pixels: every point pixel and
every anchor pixel that no point covers, once each, in ascending flat
order, with its level. A raster has about 364 point pixels and 128
anchor pixels of 16,384, so the image kernels (``features`` ImageGrid,
``imagesim`` PSNR and SSIM) work from this list. It comes from one
sort of the candidate keys, 2 * pixel for a point and 2 * pixel + 1
for an anchor pixel: a pixel's first key is its only entry, and a
point key sorts before the anchor key of the same pixel. So no pixel
is listed twice, though overlapping discs paint it more than once, and
a covered anchor pixel is listed at the point level. A ``QQRaster``
derives the same list, its nonzero pixels in order, as its one-row
block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError
from .normal import normal_quantile
from .sampling import Sample, _array, _as_values, _frozen, _integer, _z_scores

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
# Rendered levels: 0 background, 1 anchor line, 2 point; a pixel's
# intensity is its level / _POINT_LEVEL.
_POINT_LEVEL = 2

# The anchor line as levels: pixel (last - i, i), bottom-left to
# top-right corner.
_LEVELS = np.zeros((RASTER_SIZE, RASTER_SIZE), dtype=np.uint8)
_LEVELS[np.arange(RASTER_SIZE)[::-1], np.arange(RASTER_SIZE)] = 1
_LEVELS.flags.writeable = False
_SIZE = RASTER_SIZE * RASTER_SIZE
_ANCHOR = np.flatnonzero(_LEVELS)
# A pixel within 1.5 px of a center c lies at floor(c) + k with
# k - frac(c) in [-1.5, 1.5], so k is in -1..2 along each axis.
_OFFSETS = np.arange(-1, 3)[:, np.newaxis, np.newaxis]
# Each level's PGM gray value.
_PGM_GRAY = np.array([0, 128, 255], dtype=np.uint8)


class _Rendered(NamedTuple):
    """A rendered (rows, n) block; see the module docstring for its lit pixels."""

    levels: np.ndarray  # (rows, 128, 128) uint8
    lo: np.ndarray  # (rows, 1) axis range
    hi: np.ndarray
    lit: np.ndarray  # ascending flat indices into levels, each lit pixel once
    lit_levels: np.ndarray  # uint8 level of each lit pixel


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
    """A 128x128 image of levels 0, 1 and 2 plus the shared axis range it renders."""

    levels: np.ndarray
    value_range: tuple[float, float]
    # The raster as a one-row block with its lit pixels, for the image kernels.
    _block: _Rendered = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        levels = np.asarray(self.levels)
        # Checked before the uint8 cast, which would wrap 258 to 2 and -1 to 255.
        if levels.dtype.kind in "biu" and levels.size:
            if levels.min() < 0 or levels.max() > _POINT_LEVEL:
                raise InvalidArgumentError(f"raster levels must be 0, 1 or {_POINT_LEVEL}")
        levels = _frozen(self, "levels", _array(levels, "raster levels", np.uint8, ndim=2))
        if levels.shape != (RASTER_SIZE, RASTER_SIZE):
            raise InvalidArgumentError(
                f"raster must be {RASTER_SIZE}x{RASTER_SIZE}, got {levels.shape}"
            )
        lo, hi = (float(v) for v in self.value_range)
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise InvalidArgumentError("value_range must be finite with lo < hi")
        object.__setattr__(self, "value_range", (lo, hi))
        lit = np.flatnonzero(levels != 0)  # 6 us; 30 on the uint8 levels themselves
        bounds = np.array([[lo], [hi]])
        block = _Rendered(levels[np.newaxis], bounds[:1], bounds[1:], lit, levels.reshape(-1)[lit])
        for array in block:
            array.flags.writeable = False
        object.__setattr__(self, "_block", block)

    @property
    def pixels(self) -> np.ndarray:
        """The intensities, level / 2, as a read-only float array."""
        pixels = self.levels / _POINT_LEVEL
        pixels.flags.writeable = False
        return pixels


def plotting_positions(n: int) -> np.ndarray:
    """p_i = (i - a)/(n + 1 - 2a), a = 3/8 for n <= 10 and 1/2 above."""
    n = _integer(n, "n")
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
    # Checked here too: _normal_scores' cache would serve 100.0 as 100.
    theoretical = _normal_scores(_integer(n, "n"))
    return QQPoints(theoretical, theoretical)


def rasterize(points: QQPoints) -> QQRaster:
    """Render points and the y=x anchor line onto the fixed canvas.

    Both axes share one value range: the min/max over all coordinates
    padded by 5% of the spread on each side, so the anchor line is the
    corner-to-corner main diagonal. Row 0 is the top of the image and
    empirical values increase upward. Each point paints every pixel
    whose center lies within 1.5 px of its mapped location.
    """
    rendered = _render_rows(points.empirical[np.newaxis], points.theoretical)
    return QQRaster(rendered.levels[0], (rendered.lo[0, 0], rendered.hi[0, 0]))


def _render_rows(empirical: np.ndarray, theoretical: np.ndarray | None = None) -> _Rendered:
    """``rasterize`` of each row of an ascending (rows, n) empirical block.

    Every row shares the theoretical vector, by default the normal
    scores, so sorted z-score rows render as their ``qq_points``.
    Returns the (rows, 128, 128) level images, each the anchor line
    with _POINT_LEVEL painted where ``rasterize`` paints 1.0, each
    row's lo and hi as (rows, 1) arrays, and the block's lit pixels.
    Each step is elementwise, so a row's image does not depend on the
    other rows.
    """
    rows, n = empirical.shape
    if n < 3:
        raise InvalidArgumentError("need at least 3 points to rasterize")
    if theoretical is None:
        theoretical = _normal_scores(n)
    m = np.minimum(theoretical[0], empirical[:, :1])
    big = np.maximum(theoretical[-1], empirical[:, -1:])
    spread = big - m  # never negative
    if not spread.all():
        raise InvalidArgumentError("zero coordinate spread; nothing to render")
    pad = 0.05 * spread
    lo = m - pad
    hi = big + pad

    last = RASTER_SIZE - 1
    scale = last / (hi - lo)
    # Disc centers, [0] row and [1] column, and each one's candidate
    # pixel indices along that axis (offset k - 1 at [:, k]) with their
    # squared offsets; a candidate off the canvas gets an infinite
    # offset. Offsets lead, so each operation runs over rows x n.
    centers = np.empty((2, 1, rows, n))
    centers[0, 0] = last - (empirical - lo) * scale
    centers[1, 0] = (theoretical - lo) * scale
    # Flat indices fit int32 below 2**16 rows, which sorts twice as fast.
    itype = np.int32 if rows < 1 << 16 else np.int64
    index = np.floor(centers).astype(itype) + _OFFSETS.astype(itype)
    offset_sq = (index - centers) ** 2
    offset_sq[(index < 0) | (index > last)] = np.inf
    ok = offset_sq[0][:, None] + offset_sq[1] <= _POINT_RADIUS * _POINT_RADIUS
    # Row r's image starts at flat index r * 128 * 128.
    image_start = np.arange(0, rows * _SIZE, _SIZE, dtype=itype)[:, None]
    flat = (index[0] * RASTER_SIZE + image_start)[:, None] + index[1]
    points = np.compress(ok.reshape(-1), flat)  # far faster than flat[ok]
    images = np.empty((rows, RASTER_SIZE, RASTER_SIZE), dtype=np.uint8)
    images[:] = _LEVELS
    images.reshape(-1)[points] = _POINT_LEVEL
    keys = np.concatenate([points << 1, (image_start + _ANCHOR.astype(itype)).reshape(-1) << 1 | 1])
    keys.sort()
    pixel = keys >> 1
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(pixel[1:], pixel[:-1], out=first[1:])
    level = _POINT_LEVEL - (np.compress(first, keys) & 1).astype(np.uint8)
    return _Rendered(images, lo, hi, np.compress(first, pixel), level)


def to_pgm(raster: QQRaster) -> bytes:
    """8-bit binary PGM; intensity maps to floor(v*255 + 0.5): levels 0, 1, 2 to 0, 128, 255."""
    header = f"P5\n{RASTER_SIZE} {RASTER_SIZE}\n255\n".encode("ascii")
    return header + _PGM_GRAY[raster.levels].tobytes()
