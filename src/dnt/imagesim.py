"""PSNR and SSIM over Q-Q rasters, and the similarity normality statistic.

The statistic compares a sample's raster against the ideal raster for
the same n (points exactly on the anchor line) and negates the
similarity, so larger values mean less normal. SSIM follows the
classic construction: 11x11 Gaussian window (sigma 1.5), stride 1,
valid placements only, constants C1=0.01^2 and C2=0.03^2 at dynamic
range 1, mean pooling. A SimilarityReference computes the window
statistics of its raster once, because power studies evaluate thousands
of rasters against the same reference. Its one block method,
``_level_statistics``, scores a block of images under either metric;
``statistic`` is its one-row call, and ``ssim`` negates that.

One kernel, ``_window_sums``, filters a block of images: the window
sums of pa, pa*pa and pa*pb, where pb is the reference. It takes pa as
its lit pixels, each once, with their intensities: a block's list
(``qq._render_rows``, or a raster's own; about 490 of 16,384 pixels a
raster). It gives the dense separable filter bit for bit:

- The dense row pass (a strided matmul, which numpy does not hand to
  BLAS) sums pixel * tap from a zero start, tap 0 to 10 in order. The
  kernel adds the same products into a zeroed buffer with ``add.at``,
  which adds in index order, and its index runs by tap, then by pixel:
  so each output adds its terms tap by tap from tap 0. One output takes
  one pixel per tap, so the pixel order does not matter, but a pixel
  listed twice would add twice: the list must hold each pixel once. A
  zero pixel would add +0.0, which leaves a partial sum unchanged,
  since intensities are never negative.
- The column pass is left as it was: one BLAS gemv per output row.
  Its rounding is whatever the BLAS kernel does; neither a plain nor
  a fused sequential sum reproduces it, and one gemv per image changes
  the bits of nearly every image. So it is the same strided matmul,
  here over a (3, rows, 128, 118) view.

The SSIM map then runs in place, at a quarter of its value. Scaling by
a power of two is exact, and it commutes with rounding while no value
is subnormal or overflows, which holds here: nonzero window sums and
the constants lie far above the subnormal range. So 2*mu_a*mu_b + C1
is twice mu_a*mu_b + C1/2, and 2*cov + C2 twice cov + C2/2 (cov is
prod - mu_a*mu_b); their product is four times the product of the
halves, the map four times their ratio, and the mean four times the
mean of the quarters, so -4.0 * mean gives the dense formula's bits.
mu_a*mu_b is formed once, and the reference's mu_b*mu_b once.

PSNR counts levels. Every squared error is a multiple of 0.25, so the
sum over the 16,384 pixels is S * 0.25 for an integer S, the sum of
(La - Lb)^2 over the levels, and np.mean's value is exactly
(S * 0.25) / 16384. S is the reference's own sum plus an integer
correction at the candidate's lit pixels.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgumentError
from .qq import (
    _POINT_LEVEL, _SIZE, RASTER_SIZE, QQRaster, _Rendered, _render_rows, ideal_points, qq_points,
    rasterize,
)
from .sampling import Sample, _z_scores

__all__ = [
    "METRIC_NAMES",
    "SimilarityScore",
    "psnr",
    "ssim",
    "SimilarityReference",
]

METRIC_NAMES = ("PSNR", "SSIM")

_WINDOW = 11
_SIGMA = 1.5
_C1 = 0.01**2
_C2 = 0.03**2


@dataclass(frozen=True)
class SimilarityScore:
    """A named similarity value: PSNR in dB (possibly +inf), SSIM in [-1, 1]."""

    metric: str
    value: float

    def __post_init__(self) -> None:
        if self.metric not in METRIC_NAMES:
            raise InvalidArgumentError(f"unknown metric {self.metric!r}")
        if self.metric == "SSIM" and not -1.0 - 1e-9 <= self.value <= 1.0 + 1e-9:
            raise InvalidArgumentError("SSIM value must lie in [-1, 1]")
        if self.metric == "PSNR" and math.isnan(self.value):
            raise InvalidArgumentError("PSNR value must not be NaN")


def _kernel() -> np.ndarray:
    """The 11 normalised Gaussian taps, each exp taken by ``math.exp``.

    numpy's vectorised ``np.exp`` rounds with the SIMD path it dispatches to.
    """
    offsets = [float(k - _WINDOW // 2) for k in range(_WINDOW)]
    g = np.array([math.exp(-(k * k) / (2.0 * _SIGMA**2)) for k in offsets])
    return g / g.sum()


_G = _kernel()
# The row pass's buffer rows: a left pad of _PAD columns, then one image row.
_PAD = _WINDOW - 1
_TAPS = np.arange(_WINDOW)[:, np.newaxis]
# Images per call of the SSIM kernel, and the valid placements along each axis.
_SSIM_BLOCK = 4
_VALID = RASTER_SIZE - _WINDOW + 1
# A level's intensity, level / _POINT_LEVEL.
_INTENSITY = np.arange(_POINT_LEVEL + 1) / _POINT_LEVEL
# Each thread's SSIM buffers (_scratch): about 3.5 MB, kept for the thread's life.
_SCRATCH = threading.local()


def _scratch() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's SSIM buffers for _SSIM_BLOCK images, made on first use.

    The row pass's padded buffer, the window sums, and the map. They
    carry no value from one call to the next: each call writes what it
    reads, zeroing the part of the row buffer that it uses first. Fresh
    buffers of this size come as fresh pages on each call; a one-row
    SSIM statistic took 670 us with them and 270 us with these.
    """
    buffers = getattr(_SCRATCH, "buffers", None)
    if buffers is None:
        buffers = _SCRATCH.buffers = (
            np.empty((3, _SSIM_BLOCK, RASTER_SIZE, _PAD + RASTER_SIZE)),
            np.empty((3, _SSIM_BLOCK, _VALID, _VALID)),
            np.empty((_SSIM_BLOCK, _VALID, _VALID)),
        )
    return buffers


def _window_sums(lit: np.ndarray, a: np.ndarray, pb: np.ndarray, count: int) -> np.ndarray:
    """Gaussian window sums of pa, pa*pa and pa*pb at every valid placement.

    pa is a block of count (at most _SSIM_BLOCK) 128x128 images, zero
    but at its lit pixels: lit, their flat indices into the block, each
    once, and a, their intensities. pb is one 128x128 image. Returns the
    (3, count, 118, 118) sums, plane by plane, as a view of this
    thread's scratch, which the next call overwrites. The row pass adds
    each lit pixel, times each tap in ascending order, into the zeroed
    buffer; the column pass is one strided matmul per output row. See
    the module docstring for why this is the dense separable filter bit
    for bit.
    """
    row, sums, _ = _scratch()
    values = np.stack([a, a * a, a * pb.reshape(-1)[lit % _SIZE]])
    # Pixel (r, c) of the block sits at buffer column c + _PAD of buffer
    # row r, and tap k adds it to output column c - k, which the left
    # pad keeps inside that row. Index order is (plane, tap, pixel).
    size = row[0].size
    target = lit + _PAD * (lit // RASTER_SIZE + 1)
    index = np.arange(0, 3 * size, size)[:, None, None] + (target - _TAPS)
    terms = values[:, None, :] * _G[:, None]
    used = row[:, :count]
    used[...] = 0.0
    np.add.at(row.reshape(-1), index.reshape(-1), terms.reshape(-1))
    valid = used[..., _PAD:RASTER_SIZE]
    return np.matmul(sliding_window_view(valid, _WINDOW, axis=-2), _G, out=sums[:, :count])


def _decibels(mse: float) -> float:
    return math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse)


def _psnr_rows(rendered: _Rendered, reference: QQRaster) -> np.ndarray:
    """PSNR of each image of a rendered block against reference, by level counts.

    See the module docstring for why this is np.mean's value bit for bit.
    """
    rows, lit = rendered.levels.shape[0], rendered.lit
    own = reference._block.lit_levels.astype(np.int64)
    b = reference.levels.reshape(-1)[lit % _SIZE].astype(np.int64)
    d = rendered.lit_levels - b
    counts = int(own @ own) + np.bincount(lit // _SIZE, d * d - b * b, minlength=rows)
    return np.array([_decibels(s * 0.25 / _SIZE) for s in counts.tolist()])


def _raster(value, what: str) -> QQRaster:
    """value, refused with InvalidArgumentError unless it is a QQRaster."""
    if not isinstance(value, QQRaster):
        raise InvalidArgumentError(f"{what} must be a QQRaster, got {type(value).__name__}")
    return value


def psnr(a: QQRaster, b: QQRaster) -> SimilarityScore:
    """10 log10(1/MSE) on [0,1] intensities; identical images give +inf."""
    return SimilarityScore("PSNR", float(_psnr_rows(_raster(a, "a")._block, _raster(b, "b"))[0]))


def ssim(a: QQRaster, b: QQRaster) -> SimilarityScore:
    """Mean structural similarity over sliding Gaussian windows."""
    return SimilarityScore("SSIM", -SimilarityReference(b).statistic(a, "SSIM"))


class SimilarityReference:
    """A fixed reference raster with precomputed SSIM window statistics."""

    def __init__(self, reference: QQRaster):
        self.raster = _raster(reference, "reference")
        self._pixels = reference.pixels
        block = reference._block
        sums = _window_sums(block.lit, _INTENSITY[block.lit_levels], self._pixels, 1)[:, 0]
        self._mu = sums[0].copy()
        self._mu_sq = self._mu * self._mu
        self._var = sums[1] - self._mu_sq

    @classmethod
    def ideal(cls, n: int) -> "SimilarityReference":
        """Reference for samples of size n: points exactly on the line."""
        return cls(rasterize(ideal_points(n)))

    def statistic(self, candidate: QQRaster, metric: str) -> float:
        """Negated similarity to the reference; larger means less normal.

        The candidate is scored as a one-row block.
        """
        return float(self._level_statistics(_raster(candidate, "candidate")._block, metric)[0])

    def _level_statistics(self, rendered: _Rendered, metric: str) -> np.ndarray:
        """The statistic of each image of a rendered block (``qq._render_rows``).

        Each value depends on its own image alone, so a value does not
        depend on the block it is in. SSIM takes _SSIM_BLOCK images per
        kernel call.
        """
        if _metric(metric) == "SSIM":
            return self._ssim_rows(rendered)
        return -_psnr_rows(rendered, self.raster)

    def _ssim_rows(self, rendered: _Rendered) -> np.ndarray:
        """Negated mean SSIM of each image of a rendered block, from its lit pixels.

        The map runs in place on the window sums, in this thread's
        scratch, at a quarter of its value (see the module docstring).
        """
        rows, lit, a = rendered.levels.shape[0], rendered.lit, _INTENSITY[rendered.lit_levels]
        starts = range(0, rows, _SSIM_BLOCK)
        bounds = np.searchsorted(lit, np.array([*starts, rows]) * _SIZE)
        quarter = _scratch()[2]
        out = np.empty(rows)
        for start, begin, end in zip(starts, bounds, bounds[1:]):
            count = min(_SSIM_BLOCK, rows - start)
            mu_a, sq_a, prod = _window_sums(lit[begin:end] - start * _SIZE, a[begin:end], self._pixels, count)
            q = np.multiply(mu_a, self._mu, out=quarter[:count])  # mu_a*mu_b
            prod -= q
            prod += _C2 / 2
            q += _C1 / 2
            q *= prod  # a quarter of the numerator
            mu_a *= mu_a
            sq_a -= mu_a
            sq_a += self._var
            sq_a += _C2
            mu_a += self._mu_sq
            mu_a += _C1
            mu_a *= sq_a  # the denominator
            q /= mu_a
            out[start : start + count] = -4.0 * q.reshape(count, -1).mean(axis=1)
        return out


def _metric(metric: str) -> str:
    if metric not in METRIC_NAMES:
        raise InvalidArgumentError(f"unknown metric {metric!r}")
    return metric


@dataclass(frozen=True)
class _SimilarityStatistic:
    """Negated PSNR or SSIM of a sample's raster against reference, one or a block."""

    reference: SimilarityReference
    metric: str

    def __call__(self, x: Sample) -> float:
        return self.reference.statistic(rasterize(qq_points(x)), self.metric)

    def calibration_rows(self, samples: np.ndarray) -> np.ndarray:
        """The statistic of each row of a (rows, n) sample block.

        The block gets one z-score pass and one render; no QQPoints or
        QQRaster is built, and each value is the one-sample value bit
        for bit.
        """
        rendered = _render_rows(_z_scores(samples, ascending=True))
        return self.reference._level_statistics(rendered, self.metric)
