"""Unit tests for the six classical normality statistics.

Tests cover:
- frozen values computed once with the straight-from-formula oracles
- the u-level seam functions and their validation
- invariance properties (affine maps, permutations)
- TestStatistic direction handling and the registry
- the row kernels, bit for bit against a per-row loop of the
  one-sample formulas, and on edge inputs (ties, near-constant,
  values near +/-1e300, zero spread alone and inside a chunk)
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import special

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

    @pytest.mark.parametrize("seam", [ks_from_u, ad_from_u, glb_from_u], ids=lambda f: f.__name__)
    def test_rejects_nan_u(self, seam) -> None:
        """NaN passes the (0, 1) and ascending tests, so it is refused as non-finite."""
        with pytest.raises(InvalidArgumentError):
            seam(np.array([0.1, np.nan, 0.9]))


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
        """BS is two-sided; the other five reject on large values; the name decides."""
        x = sample(case_spec(15), 30, 1)
        assert bs_statistic(x).direction == "reject-two-sided"
        for name in ("KS", "AD", "JB", "GLB", "GG"):
            assert STATS[name][0](x).direction == "reject-large"
        assert TestStatistic("BS", 1.0).direction == "reject-two-sided"
        assert TestStatistic("KS", 1.0).direction == "reject-large"

    def test_calibration_value_takes_abs_for_two_sided(self) -> None:
        """Two-sided statistics calibrate on |z|."""
        stat = TestStatistic("BS", -1.7)
        assert stat.calibration_value == pytest.approx(1.7)
        one_sided = TestStatistic("KS", 0.2)
        assert one_sided.calibration_value == pytest.approx(0.2)

    def test_rejects_unknown_name_and_nonfinite(self) -> None:
        with pytest.raises(InvalidArgumentError):
            TestStatistic("SW", 0.1)
        with pytest.raises(InvalidArgumentError):
            TestStatistic("KS", float("inf"))

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


# ---------------------------------------------------------------------------
# Row kernels


def _reference_values(name: str, values: np.ndarray) -> float:
    """One sample's statistic by the one-sample numpy formulas, no kernel.

    These are the formulas the statistics used before they shared the
    row kernels; a kernel must reproduce them bit for bit on every row.
    The cube and fourth power are products, as the kernels form them:
    numpy's ``**`` at powers 3 and 4 rounds with the CPU's SIMD dispatch.
    """
    n = values.size
    i = np.arange(1, n + 1, dtype=float)
    if name in ("KS", "AD", "GLB"):
        z = np.sort((values - values.mean()) / float(values.std()))
        if name == "KS":
            u = special.ndtr(z)
            return float(np.max(np.maximum(i / n - u, u - (i - 1) / n)))
        log_u, log_1mu = special.log_ndtr(z), special.log_ndtr(-z)
        if name == "AD":
            terms = (2.0 * i - 1.0) * (log_u + log_1mu[::-1])
        else:
            terms = (2.0 * i - 1.0) * log_u + (2.0 * n + 1.0 - 2.0 * i) * log_1mu
        return -n - float(terms.sum()) / n
    if name == "JB":
        centered = values - float(values.mean())
        m2 = float(np.mean(centered**2))
        m3 = float(np.mean(centered * centered * centered))
        m4 = float(np.mean((centered * centered) * (centered * centered)))
        skew, kurt = m3 / m2**1.5, m4 / m2**2
        return (n / 6.0) * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
    if name == "GG":
        j = math.sqrt(math.pi / 2.0) * float(np.mean(np.abs(values - np.median(values))))
        centered = values - values.mean()
        m3 = float(np.mean(centered * centered * centered))
        m4 = float(np.mean((centered * centered) * (centered * centered)))
        return (n / 6.0) * (m3 / j**3) ** 2 + (n / 64.0) * (m4 / j**4 - 3.0) ** 2
    sigma = float(values.std())
    tau = float(np.mean(np.abs(values - values.mean())))
    omega = 13.29 * (math.log(sigma) - math.log(tau))
    return math.sqrt(n + 2.0) * (omega - 3.0) / 3.54


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


class TestRowKernels:
    """One kernel per statistic, bit-identical to a per-row loop."""

    @pytest.mark.parametrize("n", [3, 5, 10, 100, 500])
    @pytest.mark.parametrize("name", STATISTIC_NAMES)
    def test_kernel_matches_per_row_loop_bitwise(self, name: str, n: int) -> None:
        """A block of all 15 cases scores each row as the loop does."""
        block = np.stack(
            [
                sample(case_spec(case), n, 100 * case + seed).values
                for case in range(1, 16)
                for seed in range(6)
            ]
        )
        expected = [_reference_values(name, row) for row in block]
        kernel = statistic_fn(name).calibration_rows
        got = kernel(block)
        if name == "BS":
            expected = [abs(v) for v in expected]
        np.testing.assert_array_equal(_bits(got), _bits(expected))
        single = [statistic_fn(name)(row).calibration_value for row in block]
        np.testing.assert_array_equal(_bits(single), _bits(expected))


# Values read from the one-sample statistics before they shared the row
# kernels (reprs), so these pin today's results on awkward inputs.
EDGE_SAMPLES = {
    "integer ties": np.array([1.0, 2, 2, 3, 3, 3, 4, 4, 5, 1, 2, 3]),
    "near-constant": np.r_[np.ones(20), 1 + 1e-12],
    "seam outlier": np.append(np.zeros(99), 1e6),
    "half at the median": np.array([0.0, 0, 0, 0, 0, 1, 2]),
}
EDGE_VALUES = {
    "integer ties": {
        "KS": 0.16838514172900615, "AD": 0.3933176722286529, "JB": 0.3208677567312071,
        "GLB": 0.3933176722286529, "GG": 0.1356506133474562, "BS": -0.4436189680159892,
    },
    "near-constant": {
        "KS": 0.5410617763401788, "AD": 7.616996485681003, "JB": 288.26755387690633,
        "GLB": 7.616996485681003, "GG": 3250639.4155268897, "BS": 11.282030634577621,
    },
    "seam outlier": {
        "KS": 0.5300278095914963, "AD": 38.24807846140578, "JB": 39228.99874162501,
        "GLB": 38.248078461405754, "GG": 237223627905.8675, "BS": 52.65497961866008,
    },
    "half at the median": {
        "KS": 0.4361364836483469, "AD": 1.328828357249007, "JB": 2.166593358659245,
        "GLB": 1.328828357249007, "GG": 20.26978656996546, "BS": -0.5853523950781224,
    },
}
HUGE_SAMPLES = {
    "mixed sign": np.array([1e300, -1e300, 5e299, 0.0, 3e299]),
    "positive": np.array([1e300, 1.1e300, 1.2e300, 1.5e300, 0.9e300]),
}


class TestEdgeInputs:
    """Awkward samples give today's values and errors, alone and in chunks."""

    @pytest.mark.parametrize("label", sorted(EDGE_SAMPLES))
    @pytest.mark.parametrize("name", STATISTIC_NAMES)
    def test_edge_values_are_pinned(self, name: str, label: str) -> None:
        x = EDGE_SAMPLES[label]
        assert statistic_fn(name)(x).value == EDGE_VALUES[label][name]
        row = statistic_fn(name).calibration_rows(x[np.newaxis, :])
        assert row[0] == abs(EDGE_VALUES[label][name])

    @pytest.mark.parametrize("label", sorted(HUGE_SAMPLES))
    def test_values_near_1e300(self, label: str) -> None:
        """The z-score statistics survive; the moment statistics overflow.

        The squared deviations overflow to inf, so the fitted sd is inf
        and every z is 0: KS, AD and GLB score the all-ties sample. JB,
        GG and BS reach a non-finite value, which is refused; for GG
        that value is an overflow of its Python-float tail.
        """
        x = HUGE_SAMPLES[label]
        with np.errstate(over="ignore", invalid="ignore"):
            assert ks_statistic(x).value == 0.5
            assert ad_statistic(x).value == 1.931471805599453
            assert glb_statistic(x).value == 1.9314718055994522
            for name in ("JB", "GG", "BS"):
                with pytest.raises(InvalidArgumentError, match="must be finite"):
                    statistic_fn(name)(x)
                with pytest.raises(InvalidArgumentError, match="must be finite"):
                    statistic_fn(name).calibration_rows(np.stack([x, x + 1e299]))

    @pytest.mark.parametrize(
        "name, x",
        [
            ("GG", np.array([1e-310, -1e-310, 5e-311, 0.0, 3e-311])),
            ("GG", np.array([1e100, -1e100, 5e99, 0.0, 3e99])),
            ("JB", np.array([1e100, -1e100, 5e99, 0.0, 3e99])),
        ],
        ids=["GG-1e-310", "GG-1e100", "JB-1e100"],
    )
    def test_python_float_tail_faults_are_refused(self, name: str, x: np.ndarray) -> None:
        """A Python-float tail that would overflow or divide by zero is refused.

        Near 1e-310 GG's j**3 reaches 0; near 1e100 the fourth moment
        overflows, and JB's m2**2 and GG's j**3 with it. Either way the
        value is non-finite and refused alone and as one row of a chunk.
        """
        chunk = np.stack([sample(case_spec(15), 5, s).values for s in range(3)] + [x])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidArgumentError, match="must be finite"):
                statistic_fn(name)(x)
            with pytest.raises(InvalidArgumentError, match="must be finite"):
                statistic_fn(name).calibration_rows(chunk)

    @pytest.mark.parametrize("name", STATISTIC_NAMES)
    def test_zero_spread_raises_alone_and_in_a_chunk(self, name: str) -> None:
        """A constant sample is InsufficientDataError, also as one row of many."""
        flat = np.full(100, 2.5)
        with pytest.raises(InsufficientDataError):
            statistic_fn(name)(flat)
        chunk = np.stack([sample(case_spec(15), 100, s).values for s in range(8)])
        chunk[5] = flat
        with pytest.raises(InsufficientDataError):
            statistic_fn(name).calibration_rows(chunk)
        rest = statistic_fn(name).calibration_rows(np.delete(chunk, 5, axis=0))
        assert np.all(np.isfinite(rest))
