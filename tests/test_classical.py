"""Unit tests for the six classical normality statistics.

Tests cover:
- frozen values computed once with the straight-from-formula oracles
- the u-level seam functions and their validation
- invariance properties (affine maps, permutations)
- TestStatistic direction handling and the registry
"""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from dnt.classical import (
    STATISTIC_NAMES,
    TestStatistic,
    ad_from_u,
    ad_statistic,
    bs_statistic,
    gg_statistic,
    glb_from_u,
    glb_statistic,
    jb_statistic,
    ks_from_u,
    ks_statistic,
    statistic_fn,
)
from dnt.errors import InsufficientDataError, InvalidArgumentError
from dnt.sampling import Sample, case_spec, sample

X3 = np.array([-1.0, 0.0, 1.0])
X8 = np.array([-1.5, -0.8, -0.3, 0.1, 0.4, 0.9, 1.3, 2.1])

# Frozen oracle outputs (computed once from tests/oracles.py).
FROZEN = {
    "KS": {"x3": 0.22299765237340996, "x8": 0.09232140152929535},
    "AD": {"x3": 0.24548316113197544, "x8": 0.11135195436938616},
    "GLB": {"x3": 0.24548316113197544, "x8": 0.11135195436938616},
    "JB": {"x8": 0.2582134869307169},
    "GG": {"x8": 0.17201616459598346},
    "BS": {"x8": -0.43714905706040763},
}
STATS = {
    "KS": (ks_statistic, oracles.oracle_ks),
    "AD": (ad_statistic, oracles.oracle_ad),
    "JB": (jb_statistic, oracles.oracle_jb),
    "GLB": (glb_statistic, oracles.oracle_glb),
    "GG": (gg_statistic, oracles.oracle_gg),
    "BS": (bs_statistic, oracles.oracle_bs),
}


class TestFrozenValues:
    """Hand-checked statistic values on two fixed samples."""

    @pytest.mark.parametrize("name", ["KS", "AD", "GLB"])
    def test_three_point_sample(self, name: str) -> None:
        """The tiny symmetric sample reproduces its frozen value."""
        fn = STATS[name][0]
        assert fn(X3).value == pytest.approx(FROZEN[name]["x3"], abs=1e-12)

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_eight_point_sample(self, name: str) -> None:
        """A mixed 8-point sample reproduces all six frozen values."""
        fn = STATS[name][0]
        assert fn(X8).value == pytest.approx(FROZEN[name]["x8"], abs=1e-12)

    def test_jb_balanced_pairs(self) -> None:
        """x = [-1,-1,1,1] has S=0 and K=1, so JB = (4/6)(0 + 4/4) = 2/3."""
        assert jb_statistic(np.array([-1.0, -1.0, 1.0, 1.0])).value == pytest.approx(
            2.0 / 3.0, abs=1e-14
        )

    def test_jb_zero_at_null_moments(self) -> None:
        """A skewness 0 / kurtosis 3 configuration gives JB = 0."""
        # Two unit spikes plus n-2 zeros has K = n/2, so n=6 hits K=3 exactly.
        x = np.array([-1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        assert jb_statistic(x).value == pytest.approx(0.0, abs=1e-12)


class TestOracleAgreement:
    """Implementation vs plain-loop oracles on random samples."""

    @pytest.mark.parametrize("name", sorted(STATS))
    def test_matches_oracle_on_random_samples(self, name: str) -> None:
        """Each statistic tracks its oracle to 1e-10 on 10 random samples."""
        implementation, oracle = STATS[name]
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(8, 30))
            x = rng.normal(size=n) + rng.standard_t(4, size=n)
            assert implementation(x).value == pytest.approx(
                oracle([float(v) for v in x]), abs=1e-10
            )


class TestSeamFunctions:
    """Statistics computed from a supplied u-vector."""

    def test_ks_from_u_frozen(self) -> None:
        assert ks_from_u(np.array([0.49, 0.5, 0.51])) == pytest.approx(0.49, abs=1e-15)
        assert ks_from_u(np.array([0.1, 0.3, 0.6, 0.9])) == pytest.approx(0.2, abs=1e-15)

    def test_ad_from_u_frozen(self) -> None:
        assert ad_from_u(np.array([0.49, 0.5, 0.51])) == pytest.approx(
            1.1063427972507531, abs=1e-12
        )
        assert ad_from_u(np.array([0.1, 0.3, 0.6, 0.9])) == pytest.approx(
            0.1946277130803873, abs=1e-12
        )

    def test_glb_from_u_frozen(self) -> None:
        assert glb_from_u(np.array([0.49, 0.5, 0.51])) == pytest.approx(
            1.1063427972507531, abs=1e-12
        )

    def test_glb_grows_for_extreme_u(self) -> None:
        """u mass pushed toward 0/1 scores far above near-uniform u."""
        n = 20
        i = np.arange(1, n + 1)
        uniform_u = i / (n + 1.0)
        lower = 0.5 * (i[: n // 2] / (n + 1.0)) ** 3
        extreme_u = np.concatenate([lower, 1.0 - lower[::-1]])
        assert glb_from_u(uniform_u) == pytest.approx(0.09402320491525273, abs=1e-12)
        assert glb_from_u(extreme_u) == pytest.approx(21.9515749922393, abs=1e-10)
        assert glb_from_u(extreme_u) > glb_from_u(uniform_u)

    def test_seam_matches_full_statistic(self) -> None:
        """Feeding the fitted u-vector through the seam equals the statistic."""
        x = sample(case_spec(7), 25, 6)
        z = np.sort((x.values - x.values.mean()) / x.values.std())
        u = np.array([oracles.oracle_normal_cdf_erf(float(v)) for v in z])
        assert ks_from_u(u) == pytest.approx(ks_statistic(x).value, abs=1e-12)
        assert ad_from_u(u) == pytest.approx(ad_statistic(x).value, abs=1e-12)
        assert glb_from_u(u) == pytest.approx(glb_statistic(x).value, abs=1e-12)
        # One extreme outlier: its z = 9.95 gives u = Phi(9.95), which rounds
        # to 1.0, so the seam refuses a sample the full statistic scores.
        outlier = np.append(np.zeros(99), 1e6)
        z = np.sort((outlier - outlier.mean()) / outlier.std())
        assert ks_statistic(outlier).value == pytest.approx(0.5300278095914963, abs=1e-12)
        with pytest.raises(InvalidArgumentError):
            ks_from_u(np.array([oracles.oracle_normal_cdf_erf(float(v)) for v in z]))

    @pytest.mark.parametrize(
        "u",
        [
            np.array([0.0, 0.5, 0.9]),
            np.array([0.1, 0.5, 1.0]),
            np.array([0.5, 0.4, 0.6]),
            np.empty(0),
        ],
    )
    def test_rejects_invalid_u(self, u: np.ndarray) -> None:
        with pytest.raises(InvalidArgumentError):
            ad_from_u(u)


class TestInvariances:
    """Shared structural properties of all six statistics."""

    @pytest.mark.parametrize("name", sorted(STATS))
    def test_affine_invariance(self, name: str) -> None:
        """Statistics are unchanged by x -> a*x + b with a > 0."""
        fn = STATS[name][0]
        rng = np.random.default_rng(5)
        x = rng.normal(size=40)
        base = fn(x).value
        for _ in range(5):
            a = float(rng.uniform(0.1, 10.0))
            b = float(rng.normal(0.0, 100.0))
            assert fn(a * x + b).value == pytest.approx(base, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(STATS))
    def test_permutation_invariance(self, name: str) -> None:
        """Statistics ignore the order of the observations."""
        fn = STATS[name][0]
        rng = np.random.default_rng(6)
        x = rng.standard_t(5, size=25)
        assert fn(rng.permutation(x)).value == pytest.approx(fn(x).value, abs=1e-12)

    def test_ad_positive_for_distinct_values(self) -> None:
        """A^2 > 0 on continuous samples."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            assert ad_statistic(rng.normal(size=15)).value > 0.0

    def test_glb_equals_ad_identity(self) -> None:
        """The rank-weight expansions of GLB and AD coincide algebraically."""
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.gamma(2.0, size=18)
            assert glb_statistic(x).value == pytest.approx(
                ad_statistic(x).value, abs=1e-10
            )

    def test_bs_sign_tracks_tail_weight(self) -> None:
        """BS z is positive for heavy tails and negative for light tails."""
        rng = np.random.default_rng(9)
        heavy = bs_statistic(rng.standard_t(3, size=1000)).value
        light = bs_statistic(rng.uniform(size=1000)).value
        assert heavy > 0.0 > light


class TestTestStatistic:
    """Container validation and calibration direction."""

    def test_directions(self) -> None:
        """BS is two-sided; the other five reject on large values."""
        x = sample(case_spec(15), 30, 1)
        assert bs_statistic(x).direction == "reject-two-sided"
        for name in ("KS", "AD", "JB", "GLB", "GG"):
            assert STATS[name][0](x).direction == "reject-large"

    def test_calibration_value_takes_abs_for_two_sided(self) -> None:
        """Two-sided statistics calibrate on |z|."""
        stat = TestStatistic("BS", -1.7, "reject-two-sided")
        assert stat.calibration_value == pytest.approx(1.7)
        one_sided = TestStatistic("KS", 0.2, "reject-large")
        assert one_sided.calibration_value == pytest.approx(0.2)

    def test_rejects_wrong_direction(self) -> None:
        with pytest.raises(InvalidArgumentError):
            TestStatistic("KS", 0.1, "reject-two-sided")

    def test_rejects_unknown_name_and_nonfinite(self) -> None:
        with pytest.raises(InvalidArgumentError):
            TestStatistic("SW", 0.1, "reject-large")
        with pytest.raises(InvalidArgumentError):
            TestStatistic("KS", float("inf"), "reject-large")

    def test_registry_covers_all_names(self) -> None:
        """statistic_fn resolves every statistic name and nothing else."""
        x = sample(case_spec(15), 20, 2)
        for name in STATISTIC_NAMES:
            assert statistic_fn(name)(x).name == name
        with pytest.raises(InvalidArgumentError):
            statistic_fn("shapiro")

    def test_degenerate_sample_raises(self) -> None:
        """Zero-variance input is refused by every statistic."""
        flat = np.ones(12)
        for name in STATISTIC_NAMES:
            with pytest.raises(InsufficientDataError):
                statistic_fn(name)(flat)

    def test_statistics_accept_sample_objects(self) -> None:
        """Sample wrappers and raw arrays give identical values."""
        x = sample(case_spec(5), 40, 3)
        assert ks_statistic(x).value == ks_statistic(x.values).value
