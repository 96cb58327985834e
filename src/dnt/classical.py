"""Six classical normality-test statistics, computed row-wise.

Each statistic is location-scale invariant: the sample is first fitted
by its mean and population (1/n) standard deviation, and the EDF-based
statistics work on u_i = Phi(z_(i)) of the sorted z-scores. Rejection
decisions are not made here; cutoffs come from Monte-Carlo calibration
elsewhere. KS, AD, and GLB also accept a raw u-vector directly (the
"_from_u" forms) so their formulas can be exercised without building
samples.

Every statistic has one implementation: a kernel over an (rows, n)
array that works along the last axis. ``ks_statistic`` and its
siblings run it on one validated sample as a one-row array, and each
carries it (on |value| for two-sided BS) as its ``calibration_rows``
attribute, which ``calibrate_cutoff`` runs on chunks of null draws and
``functools.wraps`` copies onto any wrapper. ``_statistic`` registers
each statistic once, at its definition. A row's value never
depends on the rows beside it: rows are summed with ``np.add.reduce``
along the contiguous last axis, pairwise exactly as a 1-D vector is
(the z-score and moment kernels are ``sampling``'s).

No value depends on the CPU's SIMD features. numpy's vectorised
``**``, ``log`` and ``exp`` round with the SIMD path numpy dispatches
to at run time, so the same input can give other bits with and without
AVX-512. So the kernels never call them. Central moments are products:
``sq = c * c`` once per kernel, then ``sq * c`` and ``sq * sq``. IEEE
multiplication is correctly rounded, so these bits are the same on
every CPU, and two multiplications are also much faster than numpy's
``pow``. The JB, GG and BS tails, which take fractional powers and
logarithms, run in Python floats, and so do the logarithms of the
``_from_u`` forms.

Tail terms use log Phi computed directly (never log(1 - Phi(z))), so
extreme observations cannot underflow to log(0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InsufficientDataError, InvalidArgumentError
from .normal import normal_cdf
from .sampling import Sample, _array, _as_values, _central_moment, _centered, _moments, _z_scores

__all__ = [
    "TestStatistic",
    "STATISTIC_NAMES",
    "ks_statistic",
    "ad_statistic",
    "jb_statistic",
    "glb_statistic",
    "gg_statistic",
    "bs_statistic",
    "ks_from_u",
    "ad_from_u",
    "glb_from_u",
    "statistic_fn",
]


@dataclass(frozen=True)
class TestStatistic:
    """A named statistic value; the name fixes the direction in which it rejects."""

    name: str
    value: float

    def __post_init__(self) -> None:
        if self.name not in STATISTIC_NAMES:
            raise InvalidArgumentError(f"unknown statistic name {self.name!r}")
        if not math.isfinite(self.value):
            raise InvalidArgumentError("statistic value must be finite")

    @property
    def direction(self) -> str:
        """Read from the name: "reject-two-sided" for BS, else "reject-large"."""
        return _STATISTICS[self.name][1]

    @property
    def calibration_value(self) -> float:
        """The value whose null quantile sets the cutoff (abs for two-sided)."""
        return abs(self.value) if self.direction == "reject-two-sided" else self.value


@functools.lru_cache(maxsize=64)
def _rank_weights(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only i/n, (i-1)/n, 2i-1 and 2n+1-2i for the ranks i = 1..n."""
    i = np.arange(1, n + 1, dtype=float)
    weights = (i / n, (i - 1) / n, 2.0 * i - 1.0, 2.0 * n + 1.0 - 2.0 * i)
    for w in weights:
        w.flags.writeable = False
    return weights


def _ks_from_u_rows(u: np.ndarray) -> np.ndarray:
    above, below, _, _ = _rank_weights(u.shape[-1])
    return np.maximum(above - u, u - below).max(axis=-1)


def _ad_from_logs(log_u: np.ndarray, log_1mu: np.ndarray) -> np.ndarray:
    n = log_u.shape[-1]
    _, _, lower, _ = _rank_weights(n)
    return -n - np.add.reduce(lower * (log_u + log_1mu[..., ::-1]), axis=-1) / n


def _glb_from_logs(log_u: np.ndarray, log_1mu: np.ndarray) -> np.ndarray:
    n = log_u.shape[-1]
    _, _, lower, upper = _rank_weights(n)
    return -n - np.add.reduce(lower * log_u + upper * log_1mu, axis=-1) / n


def _ks_rows(x: np.ndarray) -> np.ndarray:
    return _ks_from_u_rows(normal_cdf(_z_scores(x, ascending=True)))


def _log_tails(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log Phi(z) and log(1 - Phi(z)) of each row's sorted z-scores."""
    z = _z_scores(x, ascending=True)
    return special.log_ndtr(z), special.log_ndtr(-z)


def _ad_rows(x: np.ndarray) -> np.ndarray:
    return _ad_from_logs(*_log_tails(x))


def _glb_rows(x: np.ndarray) -> np.ndarray:
    return _glb_from_logs(*_log_tails(x))


def _per_row(tail, *columns: np.ndarray) -> np.ndarray:
    """tail applied to each row's entries of columns, in Python floats.

    Python floats raise where numpy gives inf or nan (GG's ``j**3``
    overflows near 1e300 and reaches 0 near 1e-310): such rows are refused.
    """
    try:
        return np.array([tail(*row) for row in zip(*(c.tolist() for c in columns))])
    except (OverflowError, ZeroDivisionError):
        raise InvalidArgumentError("statistic value must be finite") from None


def _jb_rows(x: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    return _per_row(
        lambda c2, c3, c4: (n / 6.0) * ((c3 / c2**1.5) ** 2 + (c4 / c2**2 - 3.0) ** 2 / 4.0),
        *_moments(x),
    )


def _median(x: np.ndarray) -> np.ndarray:
    """Each row's median as an (rows, 1) column, as ``np.median`` computes it."""
    half = x.shape[-1] // 2
    if x.shape[-1] % 2:
        return np.partition(x, half, axis=-1)[..., half : half + 1]
    middle = np.partition(x, (half - 1, half), axis=-1)
    return (middle[..., half - 1 : half] + middle[..., half : half + 1]) / 2


def _gg_rows(x: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    deviation = np.abs(x - _median(x))
    spread = math.sqrt(math.pi / 2.0) * (np.add.reduce(deviation, axis=-1) / n)
    if (spread == 0.0).any():
        raise InsufficientDataError("degenerate sample: zero robust spread")
    centered = _centered(x)
    sq = centered * centered
    return _per_row(
        lambda j, c3, c4: (n / 6.0) * (c3 / j**3) ** 2 + (n / 64.0) * (c4 / j**4 - 3.0) ** 2,
        spread, _central_moment(sq * centered), _central_moment(sq * sq),
    )


def _bs_rows(x: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    centered = _centered(x)
    sigma = np.sqrt(_central_moment(centered * centered))
    tau = np.add.reduce(np.abs(centered), axis=-1) / n
    if (sigma == 0.0).any() or (tau == 0.0).any():
        raise InsufficientDataError("degenerate sample: zero spread")
    root = math.sqrt(n + 2.0)
    return _per_row(
        lambda s, t: root * (13.29 * (math.log(s) - math.log(t)) - 3.0) / 3.54, sigma, tau
    )


# The registry, filled by ``_statistic`` as each public function is
# defined: name -> (row kernel, rejection direction), and name -> function.
_STATISTICS: dict[str, tuple] = {}
_BY_NAME: dict[str, object] = {}


def _single(name: str, x: Sample | np.ndarray) -> TestStatistic:
    """One sample's statistic: validate, run the kernel on one row, wrap."""
    kernel = _STATISTICS[name][0]
    return TestStatistic(name, float(kernel(_as_values(x)[np.newaxis, :])[0]))


def _statistic(name: str, kernel, direction: str = "reject-large"):
    """Decorator registering statistic name's row kernel, direction and public function.

    It attaches ``calibration_rows``, each row's ``calibration_value`` under name;
    a bad row raises what the one-sample statistic raises: InsufficientDataError on
    zero spread, InvalidArgumentError on a non-finite value.
    """

    def calibration_rows(rows: np.ndarray) -> np.ndarray:
        values = _array(kernel(rows), "statistic value")
        return np.abs(values) if direction == "reject-two-sided" else values

    def register(fn):
        fn.calibration_rows = calibration_rows
        _STATISTICS[name] = (kernel, direction)
        _BY_NAME[name] = fn
        return fn

    return register


def _check_u(u: np.ndarray) -> np.ndarray:
    u = _array(u, "u")
    if u.size < 1:
        raise InvalidArgumentError("u must be a nonempty 1-D vector")
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise InvalidArgumentError("u values must lie strictly inside (0, 1)")
    if np.any(np.diff(u) < 0):
        raise InvalidArgumentError("u must be ascending (order statistics)")
    return u


def _u_logs(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln u and ln(1 - u) of each checked entry, taken in Python floats."""
    values = _check_u(u).tolist()
    return np.array([math.log(v) for v in values]), np.array([math.log1p(-v) for v in values])


def ks_from_u(u: np.ndarray) -> float:
    """D = max_i max(i/n - u_i, u_i - (i-1)/n) for ascending u."""
    return float(_ks_from_u_rows(_check_u(u)))


def ad_from_u(u: np.ndarray) -> float:
    """A^2 = -n - (1/n) sum (2i-1)[ln u_i + ln(1 - u_{n+1-i})]."""
    return float(_ad_from_logs(*_u_logs(u)))


def glb_from_u(u: np.ndarray) -> float:
    """P_s = -n - (1/n) sum [(2i-1) ln u_i + (2n+1-2i) ln(1 - u_i)].

    The rank weights pair the lower tail of each u with its rank and
    the upper tail with the mirrored rank (ascending order statistics).
    """
    return float(_glb_from_logs(*_u_logs(u)))


@_statistic("KS", _ks_rows)
def ks_statistic(x: Sample | np.ndarray) -> TestStatistic:
    """Largest vertical gap between the fitted normal CDF and the EDF."""
    return _single("KS", x)


@_statistic("AD", _ad_rows)
def ad_statistic(x: Sample | np.ndarray) -> TestStatistic:
    """Quadratic EDF statistic with extra weight in the tails."""
    return _single("AD", x)


@_statistic("JB", _jb_rows)
def jb_statistic(x: Sample | np.ndarray) -> TestStatistic:
    """Moment statistic (n/6)(S^2 + (K-3)^2/4) from 1/n moments."""
    return _single("JB", x)


@_statistic("GLB", _glb_rows)
def glb_statistic(x: Sample | np.ndarray) -> TestStatistic:
    """Order-statistics statistic weighting both CDF tails per rank.

    Its rank-weight expansion equals the Anderson-Darling sum term by
    term after reindexing, so it has the same value as AD up to
    rounding.
    """
    return _single("GLB", x)


@_statistic("GG", _gg_rows)
def gg_statistic(x: Sample | np.ndarray) -> TestStatistic:
    """Moment statistic scaled by a robust spread estimate.

    RJB = (n/6)(m3/J^3)^2 + (n/64)(m4/J^4 - 3)^2 with
    J = sqrt(pi/2) * mean |x - median|.
    """
    return _single("GG", x)


@_statistic("BS", _bs_rows, "reject-two-sided")
def bs_statistic(x: Sample | np.ndarray) -> TestStatistic:
    """Kurtosis z-statistic from the log ratio of sd to mean deviation.

    z = sqrt(n+2) (w - 3)/3.54 with w = 13.29 (ln sigma - ln tau),
    sigma the population sd and tau the mean absolute deviation.
    """
    return _single("BS", x)


STATISTIC_NAMES = tuple(_BY_NAME)


def statistic_fn(name: str):
    """Look up a statistic function by its short name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown statistic {name!r}; expected one of {', '.join(STATISTIC_NAMES)}"
        ) from None

