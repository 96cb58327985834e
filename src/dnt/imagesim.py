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
sums of pa, pa*pa and pa*pb, where pb is the reference. A rendered
raster has about 450 nonzero pixels of 16,384, so its row pass works
on those alone, and it gives the dense separable filter bit for bit:

- The dense row pass (a strided matmul, which numpy does not hand to
  BLAS) sums pixel * tap from a zero start, tap 0 to 10 in order. The
  kernel adds the same products in the same order, skipping only the
  zero pixels. A zero pixel adds +0.0, which leaves a partial sum
  unchanged, since intensities are never negative.
- The column pass is left as it was: one BLAS gemv per output row.
  Its rounding is whatever the BLAS kernel does; neither a plain nor
  a fused sequential sum reproduces it, and one gemv per image changes
  the bits of nearly every image. So it is the same strided matmul,
  here over a (3, rows, 128, 118) view.

A dense image takes the same path, about five times slower than the
dense filter; the rasters this package renders are never dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgumentError
from .qq import _POINT_LEVEL, QQRaster, _render_rows, ideal_points, qq_points, rasterize
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
# Images per call of the SSIM kernel; the float copy of a level block
# is made one sub-block at a time.
_SSIM_BLOCK = 4


def _window_sums(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Gaussian window sums of pa, pa*pa and pa*pb at every valid placement.

    pa is a (rows, h, w) block of intensities and pb one h x w image;
    returns the (3, rows, h - 10, w - 10) sums, plane by plane. The
    row pass adds each nonzero pixel of pa, times each tap in ascending
    order, into a zeroed buffer; the column pass is one strided matmul
    per output row. See the module docstring for why this is the dense
    separable filter bit for bit.
    """
    rows, height, width = pa.shape
    nz = np.flatnonzero(pa)
    a = pa.reshape(-1)[nz]
    values = np.stack([a, a * a, a * pb.reshape(-1)[nz % pb.size]])
    # Pixel (r, c) of the block sits at buffer column c + _PAD of buffer
    # row r, and tap k adds it to output column c - k, which the left
    # pad keeps inside that row. Index order is (plane, tap, pixel), so
    # bincount adds each output's terms tap by tap, from tap 0.
    size = rows * height * (_PAD + width)
    target = nz + _PAD * (nz // width + 1)
    index = np.arange(0, 3 * size, size)[:, None, None] + (target - _TAPS)
    terms = values[:, None, :] * _G[:, None]
    flat = np.bincount(index.reshape(-1), terms.reshape(-1), minlength=3 * size)
    valid = flat.reshape(3, rows, height, _PAD + width)[..., _PAD:width]
    return sliding_window_view(valid, _WINDOW, axis=-2) @ _G


def _psnr(a: np.ndarray, b: np.ndarray, top=1.0) -> float:
    """PSNR of intensities a / top against b, through one temporary."""
    diff = a / top
    diff -= b
    mse = float(np.mean(np.square(diff, out=diff)))
    return math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse)


def _raster(value, what: str) -> QQRaster:
    """value, refused with InvalidArgumentError unless it is a QQRaster."""
    if not isinstance(value, QQRaster):
        raise InvalidArgumentError(f"{what} must be a QQRaster, got {type(value).__name__}")
    return value


def psnr(a: QQRaster, b: QQRaster) -> SimilarityScore:
    """10 log10(1/MSE) on [0,1] intensities; identical images give +inf."""
    return SimilarityScore("PSNR", _psnr(_raster(a, "a").pixels, _raster(b, "b").pixels))


def ssim(a: QQRaster, b: QQRaster) -> SimilarityScore:
    """Mean structural similarity over sliding Gaussian windows."""
    return SimilarityScore("SSIM", -SimilarityReference(b).statistic(a, "SSIM"))


class SimilarityReference:
    """A fixed reference raster with precomputed SSIM window statistics."""

    def __init__(self, reference: QQRaster):
        self.raster = _raster(reference, "reference")
        self._pixels = reference.pixels
        sums = _window_sums(self._pixels[np.newaxis], self._pixels)[:, 0]
        self._mu = sums[0]
        self._var = sums[1] - self._mu**2

    @classmethod
    def ideal(cls, n: int) -> "SimilarityReference":
        """Reference for samples of size n: points exactly on the line."""
        return cls(rasterize(ideal_points(n)))

    def statistic(self, candidate: QQRaster, metric: str) -> float:
        """Negated similarity to the reference; larger means less normal."""
        pixels = _raster(candidate, "candidate").pixels
        return float(self._level_statistics(pixels[np.newaxis], metric, 1.0)[0])

    def _level_statistics(self, images: np.ndarray, metric: str, top=_POINT_LEVEL) -> np.ndarray:
        """The statistic of each image of a (rows, 128, 128) block.

        A pixel's intensity is its image value divided by top: 1.0 for
        float rasters, and by default the point level 2 of rendered
        levels (``qq._render_rows``), which halve to their rasters'
        pixels exactly. So a value does not depend on the block it is
        in. SSIM takes _SSIM_BLOCK images per kernel call.
        """
        if metric == "PSNR":
            return np.array([-_psnr(image, self._pixels, top) for image in images])
        if metric != "SSIM":
            raise InvalidArgumentError(f"unknown metric {metric!r}")
        mu_b, var_b = self._mu, self._var
        out = np.empty(images.shape[0])
        for start in range(0, out.size, _SSIM_BLOCK):
            pa = images[start : start + _SSIM_BLOCK] / top
            mu_a, sq_a, prod = _window_sums(pa, self._pixels)
            mu_a_sq = mu_a**2
            num = (2.0 * mu_a * mu_b + _C1) * (2.0 * (prod - mu_a * mu_b) + _C2)
            den = (mu_a_sq + mu_b**2 + _C1) * (sq_a - mu_a_sq + var_b + _C2)
            out[start : start + _SSIM_BLOCK] = -(num / den).reshape(pa.shape[0], -1).mean(axis=1)
        return out


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
        levels, _, _ = _render_rows(_z_scores(samples, ascending=True))
        return self.reference._level_statistics(levels, self.metric)
