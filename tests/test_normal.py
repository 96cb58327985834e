"""Unit tests for the standard-normal primitives.

Tests cover:
- CDF and quantile agreement with high-precision oracles
- quantile/CDF round-trips
- domain validation
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from dnt.errors import InvalidArgumentError
from dnt.normal import normal_cdf, normal_quantile


class TestNormalCdf:
    """Dense CDF checks against two independent oracles."""

    def test_matches_quadrature_oracle(self) -> None:
        """CDF matches numeric integration of the density to 1e-13."""
        for z in (-8.0, -3.5, -1.0, -0.1, 0.0, 0.4, 1.0, 2.5, 6.0):
            assert abs(normal_cdf(z) - oracles.oracle_normal_cdf(z)) < 1e-13

    def test_matches_erf_oracle_on_grid(self) -> None:
        """CDF matches the erf formulation on a fine grid."""
        grid = np.linspace(-10.0, 10.0, 401)
        worst = max(
            abs(normal_cdf(float(z)) - oracles.oracle_normal_cdf_erf(float(z)))
            for z in grid
        )
        assert worst < 1e-14

    def test_symmetry(self) -> None:
        """Phi(-z) = 1 - Phi(z)."""
        for z in (0.3, 1.7, 4.2):
            assert normal_cdf(-z) == pytest.approx(1.0 - normal_cdf(z), abs=1e-15)

    def test_vectorized(self) -> None:
        """Array input gives elementwise CDF values."""
        values = normal_cdf(np.array([-1.0, 0.0, 1.0]))
        assert values.shape == (3,)
        assert values[1] == pytest.approx(0.5)


class TestNormalQuantile:
    """Inverse CDF behaviour and validation."""

    def test_matches_bisection_oracle(self) -> None:
        """Quantiles match a bisection oracle to 1e-12."""
        for p in (1e-6, 0.025, 0.5, 0.975, 1.0 - 1e-6):
            assert abs(normal_quantile(p) - oracles.oracle_normal_quantile(p)) < 1e-12

    def test_round_trip(self) -> None:
        """quantile(cdf(z)) recovers z in the usable range."""
        for z in np.linspace(-5.0, 5.0, 41):
            assert normal_quantile(normal_cdf(float(z))) == pytest.approx(
                float(z), abs=1e-10
            )

    def test_median(self) -> None:
        """The median of the standard normal is zero."""
        assert normal_quantile(0.5) == 0.0

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3, math.nan])
    def test_rejects_probabilities_outside_open_interval(self, p: float) -> None:
        """Quantile requires p strictly inside (0, 1)."""
        with pytest.raises(InvalidArgumentError):
            normal_quantile(p)

