"""PSNR and SSIM over Q-Q rasters, and the similarity normality statistic.

The statistic compares a sample's raster against the ideal raster for
the same n (points exactly on the anchor line) and negates the
similarity, so larger values mean less normal. SSIM follows the
classic construction: 11x11 Gaussian window (sigma 1.5), stride 1,
valid placements only, constants C1=0.01^2 and C2=0.03^2 at dynamic
range 1, mean pooling. A SimilarityReference computes the window
statistics of its raster once, because power studies evaluate thousands
of rasters against the same reference.
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
    "similarity_test_statistic",
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
    offsets = np.arange(_WINDOW, dtype=float) - (_WINDOW // 2)
    g = np.exp(-(offsets**2) / (2.0 * _SIGMA**2))
    return g / g.sum()


_G = _kernel()


def _filter_valid(img: np.ndarray) -> np.ndarray:
    """Separable Gaussian window sum over all fully-inside placements."""
    rows = sliding_window_view(img, _WINDOW, axis=1) @ _G
    return sliding_window_view(rows, _WINDOW, axis=0) @ _G


def _psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = float(np.mean((a - b) ** 2))
    return math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse)


def psnr(a: QQRaster, b: QQRaster) -> SimilarityScore:
    """10 log10(1/MSE) on [0,1] intensities; identical images give +inf."""
    return SimilarityScore("PSNR", _psnr(a.pixels, b.pixels))


def ssim(a: QQRaster, b: QQRaster) -> SimilarityScore:
    """Mean structural similarity over sliding Gaussian windows."""
    return SimilarityScore("SSIM", SimilarityReference(b).ssim_against(a))


class SimilarityReference:
    """A fixed reference raster with precomputed SSIM window statistics."""

    def __init__(self, reference: QQRaster):
        self.raster = reference
        self._pixels = reference.pixels
        self._mu = _filter_valid(self._pixels)
        self._var = _filter_valid(self._pixels * self._pixels) - self._mu**2

    @classmethod
    def ideal(cls, n: int) -> "SimilarityReference":
        """Reference for samples of size n: points exactly on the line."""
        return cls(rasterize(ideal_points(n)))

    def ssim_against(self, candidate: QQRaster) -> float:
        """Mean SSIM of candidate against the reference."""
        return self._ssim(candidate.pixels)

    def _ssim(self, pa: np.ndarray) -> float:
        pb = self._pixels
        mu_a = _filter_valid(pa)
        var_a = _filter_valid(pa * pa) - mu_a**2
        mu_b, var_b = self._mu, self._var
        cov = _filter_valid(pa * pb) - mu_a * mu_b
        num = (2.0 * mu_a * mu_b + _C1) * (2.0 * cov + _C2)
        den = (mu_a**2 + mu_b**2 + _C1) * (var_a + var_b + _C2)
        return float(np.mean(num / den))

    def psnr_against(self, candidate: QQRaster) -> float:
        return _psnr(candidate.pixels, self._pixels)

    def statistic(self, candidate: QQRaster, metric: str) -> float:
        """Negated similarity to the reference; larger means less normal."""
        return self._statistic(candidate.pixels, metric)

    def _statistic(self, pixels: np.ndarray, metric: str) -> float:
        if metric == "SSIM":
            return -self._ssim(pixels)
        if metric == "PSNR":
            return -_psnr(pixels, self._pixels)
        raise InvalidArgumentError(f"unknown metric {metric!r}")


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
        QQRaster is built. Level images halve to the rasters' pixels
        exactly, so each value is the one-sample value bit for bit.
        """
        levels, _, _ = _render_rows(_z_scores(samples, ascending=True))
        return np.array(
            [self.reference._statistic(image / _POINT_LEVEL, self.metric) for image in levels]
        )


def similarity_test_statistic(
    x: Sample | np.ndarray,
    metric: str = "SSIM",
    reference: QQRaster | None = None,
) -> float:
    """Normality statistic: negated similarity of x's raster to a reference.

    The reference defaults to the ideal raster for len(x).
    """
    points = qq_points(x)
    if reference is None:
        ref = SimilarityReference.ideal(points.n)
    else:
        ref = SimilarityReference(reference)
    return ref.statistic(rasterize(points), metric)
