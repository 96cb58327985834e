"""Standard normal CDF and quantile helpers.

These wrap ``scipy.special`` so the rest of the package has a single
place that fixes numerical conventions: vectorised evaluation and
strict domain checks for the quantile.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .errors import InvalidArgumentError

__all__ = ["normal_cdf", "normal_quantile"]


def normal_cdf(z: np.ndarray | float) -> np.ndarray | float:
    """Return Phi(z), the standard normal CDF, elementwise."""
    return special.ndtr(z)


def normal_quantile(p: np.ndarray | float) -> np.ndarray | float:
    """Return Phi^-1(p) elementwise.

    Raises
    ------
    InvalidArgumentError
        If any p lies outside the open interval (0, 1).
    """
    arr = np.asarray(p, dtype=float)
    if arr.size and not np.all((arr > 0.0) & (arr < 1.0)):
        raise InvalidArgumentError("quantile probabilities must lie in (0, 1)")
    out = special.ndtri(arr)
    return float(out) if np.isscalar(p) or arr.ndim == 0 else out

