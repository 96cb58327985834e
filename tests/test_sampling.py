"""Unit tests for distribution specs, seeded streams, and sampling.

Tests cover:
- DistributionSpec validation and the benchmark case table
- label parsing
- SeedScheme determinism and stream disjointness, one index or an array
- block draws over a seed array, bit for bit the one-seed draws
- sampled draws following the right law (KS check against scipy CDFs)
- standardize and sample_moments
- the kind table, the replicate draws, and the one vector check
- the shared z-score kernel behind qq_points, extract_raw and the
  classical statistics
- the one array rule: every array a value type stores is a read-only,
  C-ordered copy of its declared dtype
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
import scipy.stats

from dnt.classical import STATISTIC_NAMES, statistic_fn
from dnt.engine import DNTModel, TrainConfig
from dnt.errors import InsufficientDataError, InvalidArgumentError
from dnt.features import SelectionModel, extract_raw
from dnt.lmnn import MetricMatrix, TripletSet
from dnt.qq import RASTER_SIZE, QQPoints, QQRaster, qq_points
from dnt.sampling import (
    _LAWS,
    KINDS,
    DistributionSpec,
    Sample,
    SeedScheme,
    _z_scores,
    benchmark_cases,
    case_spec,
    parse_distribution_label,
    sample,
    sample_moments,
    standardize,
)

EXPECTED_LABELS = {
    1: "t(2)",
    2: "t(5)",
    3: "t(10)",
    4: "t(50)",
    5: "U(0,1)",
    6: "Beta(2,2)",
    7: "Laplace(0,1)",
    8: "Beta(6,2)",
    9: "Beta(3,2)",
    10: "Beta(2,1)",
    11: "Gamma(1,5)",
    12: "Gamma(4,5)",
    13: "ChiSq(4)",
    14: "ChiSq(20)",
    15: "N(0,1)",
}


class TestDistributionSpec:
    """Spec construction and validation."""

    def test_benchmark_table_complete(self) -> None:
        """The benchmark table has cases 1..15 with the expected labels."""
        cases = benchmark_cases()
        assert sorted(cases) == list(range(1, 16))
        assert {cid: spec.label for cid, spec in cases.items()} == EXPECTED_LABELS

    def test_null_case_is_standard_normal(self) -> None:
        """Case 15 is Normal(0, 1)."""
        spec = case_spec(15)
        assert spec.kind == "Normal"
        assert spec.params == (0.0, 1.0)

    def test_gamma_params_are_shape_rate(self) -> None:
        """Gamma cases carry (shape, rate) parameters."""
        assert case_spec(11).params == (1.0, 5.0)
        assert case_spec(12).params == (4.0, 5.0)

    def test_rejects_unknown_kind(self) -> None:
        with pytest.raises(InvalidArgumentError):
            DistributionSpec("Cauchy", (0.0, 1.0))

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("Normal", (0.0, 0.0)),
            ("Normal", (0.0,)),
            ("StudentT", (0.0,)),
            ("Uniform", (1.0, 1.0)),
            ("Uniform", (2.0, 1.0)),
            ("Beta", (0.0, 2.0)),
            ("Gamma", (1.0, 0.0)),
            ("ChiSquare", (-4.0,)),
            ("Laplace", (0.0, -1.0)),
        ],
    )
    def test_rejects_invalid_params(self, kind: str, params: tuple) -> None:
        with pytest.raises(InvalidArgumentError):
            DistributionSpec(kind, params)

    def test_kinds_keep_their_order(self) -> None:
        assert KINDS == ("Normal", "StudentT", "Uniform", "Beta", "Laplace", "Gamma", "ChiSquare")

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("Normal", (0.0,), "Normal takes 2 parameter(s), got 1"),
            ("ChiSquare", (1.0, 2.0), "ChiSquare takes 1 parameter(s), got 2"),
            ("Beta", (1.0, float("nan")), "distribution parameters must be finite"),
            ("Normal", (0.0, 0.0), "Normal scale must be > 0"),
            ("StudentT", (0.0,), "StudentT df must be > 0"),
            ("Uniform", (1.0, 1.0), "Uniform needs a < b"),
            ("Beta", (1.0, 0.0), "Beta needs a > 0 and b > 0"),
            ("Laplace", (0.0, -1.0), "Laplace scale must be > 0"),
            ("Gamma", (0.0, 1.0), "Gamma needs shape > 0 and rate > 0"),
            ("ChiSquare", (-4.0,), "ChiSquare df must be > 0"),
        ],
    )
    def test_refusal_messages(self, kind: str, params: tuple, message: str) -> None:
        """Each kind's refusal names what is wrong, in these words."""
        with pytest.raises(InvalidArgumentError) as info:
            DistributionSpec(kind, params)
        assert str(info.value) == message

    def test_rejects_case_id_mismatch(self) -> None:
        """A case id must match the benchmark table row exactly."""
        with pytest.raises(InvalidArgumentError):
            DistributionSpec("StudentT", (3.0,), case_id=1)
        with pytest.raises(InvalidArgumentError):
            DistributionSpec("Normal", (0.0, 1.0), case_id=16)

    def test_case_spec_out_of_range(self) -> None:
        with pytest.raises(InvalidArgumentError):
            case_spec(0)


class TestParseDistributionLabel:
    """Text labels round-trip into specs."""

    def test_benchmark_labels_round_trip(self) -> None:
        """Every benchmark label parses back to its own case."""
        for cid, spec in benchmark_cases().items():
            parsed = parse_distribution_label(spec.label)
            assert parsed.case_id == cid
            assert parsed.kind == spec.kind
            assert parsed.params == spec.params

    @pytest.mark.parametrize(
        "text, kind, params",
        [
            ("normal", "Normal", (0.0, 1.0)),
            ("gaussian(2, 3)", "Normal", (2.0, 3.0)),
            ("t(7)", "StudentT", (7.0,)),
            ("uniform", "Uniform", (0.0, 1.0)),
            ("beta(2.5, 1)", "Beta", (2.5, 1.0)),
            ("chisq(4)", "ChiSquare", (4.0,)),
            ("chi2(4)", "ChiSquare", (4.0,)),
            ("gamma(2, 0.5)", "Gamma", (2.0, 0.5)),
        ],
    )
    def test_aliases(self, text: str, kind: str, params: tuple) -> None:
        parsed = parse_distribution_label(text)
        assert parsed.kind == kind
        assert parsed.params == params

    @pytest.mark.parametrize("text", ["", "cauchy(1)", "beta", "t(2", "t()"])
    def test_rejects_malformed_labels(self, text: str) -> None:
        with pytest.raises(InvalidArgumentError):
            parse_distribution_label(text)


class TestSeedScheme:
    """Substream derivation from a master seed."""

    def test_stream_is_pure(self) -> None:
        """The same triple always maps to the same 64-bit seed."""
        scheme = SeedScheme(42)
        assert scheme.stream(3, 17, "test") == scheme.stream(3, 17, "test")
        assert 0 <= scheme.stream(3, 17, "test") < 2**64

    def test_stream_values_are_pinned(self) -> None:
        """Seeds are part of the determinism contract: these never change."""
        pinned = {
            (0, 15, 0, "calibrate"): 9534598188443122617,
            (42, 3, 17, "test"): 14695719421052011162,
            (2**64 - 1, 1, 1999, "train-h0"): 12754535595260759864,
            (7, 0, 0, ""): 11273591621283196117,
        }
        for (master, case_id, replicate, purpose), seed in pinned.items():
            assert SeedScheme(master).stream(case_id, replicate, purpose) == seed
            assert SeedScheme(master).stream(case_id, replicate, purpose) == seed

    def test_distinct_masters_decouple(self) -> None:
        """Different master seeds give different streams."""
        assert SeedScheme(1).stream(1, 0, "test") != SeedScheme(2).stream(1, 0, "test")

    def test_purposes_decouple(self) -> None:
        """Training, calibration, and test streams never coincide."""
        scheme = SeedScheme(0)
        purposes = ("train-h0", "train-h1", "calibrate", "test")
        seeds = {scheme.stream(15, 7, purpose) for purpose in purposes}
        assert len(seeds) == len(purposes)

    def test_no_collisions_across_grid(self) -> None:
        """All (case, replicate, purpose) streams are pairwise distinct."""
        scheme = SeedScheme(0)
        seen = set()
        for case_id in range(16):
            for replicate in range(2000):
                for purpose in ("test", "calibrate"):
                    seen.add(scheme.stream(case_id, replicate, purpose))
        assert len(seen) == 16 * 2000 * 2

    @pytest.mark.parametrize("seed", [1.5, 1.0, True])
    def test_rejects_a_non_integer_master_seed(self, seed) -> None:
        """SeedScheme(1.5) used to run as SeedScheme(1)."""
        with pytest.raises(InvalidArgumentError, match="master_seed must be an integer"):
            SeedScheme(seed)

    @pytest.mark.parametrize(
        "case_id, replicate",
        [(15, 2**64), (15 + 2**64, 3), (-1, 3), (15, -1)],
        ids=["replicate-2**64", "case-15+2**64", "case-negative", "replicate-negative"],
    )
    def test_rejects_an_index_outside_64_unsigned_bits(self, case_id: int, replicate: int) -> None:
        """stream(15, 2**64, p) used to equal stream(15, 0, p), and case 15 + 2**64 case 15."""
        with pytest.raises(InvalidArgumentError, match="must fit in 64 unsigned bits"):
            SeedScheme(0).stream(case_id, replicate, "test")

    @pytest.mark.parametrize(
        "case_id, replicate",
        [(True, 3), (15, True), (15, 1.5), (15.0, 3), (15, "3")],
        ids=["case-bool", "replicate-bool", "replicate-float", "case-float", "replicate-str"],
    )
    def test_rejects_a_non_integer_index(self, case_id, replicate) -> None:
        """stream(True, 3, p) used to run as case 1, and a float index raised a bare TypeError."""
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            SeedScheme(0).stream(case_id, replicate, "test")

    @pytest.mark.parametrize(
        "indices",
        [np.arange(4.0), np.ones(4, bool), np.array([0, 1, -1]), np.arange(4).reshape(2, 2)],
        ids=["float", "bool", "negative", "2-D"],
    )
    def test_rejects_a_bad_index_array(self, indices: np.ndarray) -> None:
        with pytest.raises(InvalidArgumentError, match="replicate indices must be"):
            SeedScheme(0).stream(15, indices, "test")

    @pytest.mark.parametrize(
        "master, case_id, purpose",
        [(0, 15, "calibrate"), (2**64 - 1, 0, "test"), (42, 7, "train-h0")],
    )
    def test_array_form_is_the_scalar_form(self, master: int, case_id: int, purpose: str) -> None:
        """Element i of stream over an index array is stream of index i, on 20,000 indices."""
        scheme = SeedScheme(master)
        indices = np.arange(20_000)
        seeds = scheme.stream(case_id, indices, purpose)
        assert seeds.dtype == np.uint64 and seeds.shape == (20_000,)
        assert seeds.tolist() == [scheme.stream(case_id, i, purpose) for i in range(20_000)]
        top = np.array([2**64 - 1, 2**63], np.uint64)
        assert scheme.stream(case_id, top, purpose).tolist() == [
            scheme.stream(case_id, i, purpose) for i in top.tolist()
        ]

    def test_generator_reproducible(self) -> None:
        """A Generator seeded from stream() re-yields the identical draw sequence."""
        scheme = SeedScheme(5)
        a = np.random.Generator(np.random.PCG64(scheme.stream(1, 2, "test"))).normal(size=8)
        b = np.random.Generator(np.random.PCG64(scheme.stream(1, 2, "test"))).normal(size=8)
        assert np.array_equal(a, b)


class TestSample:
    """Drawing values and the Sample container."""

    def test_reproducible_and_tagged(self) -> None:
        """Same (spec, n, seed) gives identical values."""
        spec = case_spec(7)
        a = sample(spec, 50, 123)
        b = sample(spec, 50, 123)
        assert np.array_equal(a.values, b.values)

    def test_values_read_only(self) -> None:
        """Sample values cannot be mutated in place."""
        x = sample(case_spec(15), 10, 0)
        with pytest.raises(ValueError):
            x.values[0] = 99.0

    def test_rejects_tiny_n(self) -> None:
        with pytest.raises(InsufficientDataError):
            sample(case_spec(15), 2, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
    def test_rejects_a_seed_outside_64_unsigned_bits(self, seed: int) -> None:
        """-1 used to draw what 2**64 - 1 draws, and 2**64 what 0 draws."""
        with pytest.raises(InvalidArgumentError, match="seed must fit in 64 unsigned bits"):
            sample(case_spec(15), 5, seed)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3"])
    def test_rejects_a_non_integer_seed(self, seed) -> None:
        """sample(spec, n, 1.5) used to draw what seed 1 draws."""
        with pytest.raises(InvalidArgumentError, match="seed must be an integer"):
            sample(case_spec(15), 5, seed)

    def test_rejects_a_non_integer_size(self) -> None:
        with pytest.raises(InvalidArgumentError, match="sample size must be an integer"):
            sample(case_spec(15), 5.0, 0)

    def test_accepts_both_ends_of_the_seed_range(self) -> None:
        for seed in (0, 2**64 - 1):
            want = np.random.Generator(np.random.PCG64(seed)).normal(0.0, 1.0, 5)
            assert sample(case_spec(15), 5, seed).values.tobytes() == want.tobytes()

    def test_sample_rejects_nonfinite_container(self) -> None:
        with pytest.raises(InvalidArgumentError):
            Sample(np.array([1.0, np.nan, 2.0]))

    @pytest.mark.parametrize(
        "spec, scipy_dist",
        [
            (DistributionSpec("Normal", (1.0, 2.0)), scipy.stats.norm(1.0, 2.0)),
            (DistributionSpec("StudentT", (5.0,)), scipy.stats.t(5.0)),
            (DistributionSpec("Uniform", (-1.0, 3.0)), scipy.stats.uniform(-1.0, 4.0)),
            (DistributionSpec("Beta", (2.0, 6.0)), scipy.stats.beta(2.0, 6.0)),
            (DistributionSpec("Laplace", (0.0, 2.0)), scipy.stats.laplace(0.0, 2.0)),
            (DistributionSpec("Gamma", (4.0, 5.0)), scipy.stats.gamma(4.0, scale=0.2)),
            (DistributionSpec("ChiSquare", (4.0,)), scipy.stats.chi2(4.0)),
        ],
    )
    def test_draws_follow_the_law(self, spec: DistributionSpec, scipy_dist) -> None:
        """Empirical CDF of 1e5 draws sits within 0.01 of the true CDF."""
        x = sample(spec, 100_000, 2024)
        distance = scipy.stats.kstest(x.values, scipy_dist.cdf).statistic
        assert distance < 0.01, (spec.kind, distance)


# Every law, each benchmark case plus laws that take another sampler branch:
# Gamma with shape < 1, Beta with both parameters <= 1, StudentT with df < 1.
BLOCK_SPECS = {
    **{case_spec(case).label: case_spec(case) for case in range(1, 16)},
    "Gamma(0.5,2)": DistributionSpec("Gamma", (0.5, 2.0)),
    "Beta(0.5,0.5)": DistributionSpec("Beta", (0.5, 0.5)),
    "StudentT(0.7)": DistributionSpec("StudentT", (0.7,)),
}
BLOCK_DIGEST = "763f1bb4559f4e209fe3d1de8fc5a5f617b88b8c44828857fb33afa6699ade82"
EDGE_SEEDS = np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], np.uint64)


def _reference_draw(spec: DistributionSpec, n: int, seed: int) -> np.ndarray:
    """n values of spec's law from numpy's own Generator(PCG64(seed))."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return _LAWS[spec.kind][3](rng, spec.params, n)


class TestBlockDraws:
    """sample over a seed array: row i is the one-seed draw of seed i, bit for bit."""

    @pytest.mark.parametrize("n", [3, 100, 500])
    @pytest.mark.parametrize("label", sorted(BLOCK_SPECS))
    def test_rows_are_the_one_seed_draws(self, label: str, n: int) -> None:
        spec = BLOCK_SPECS[label]
        seeds = np.concatenate([EDGE_SEEDS, SeedScheme(9).stream(0, np.arange(60), label)])
        block = sample(spec, n, seeds)
        assert block.shape == (seeds.size, n) and block.dtype == np.float64
        expected = np.stack([_reference_draw(spec, n, seed) for seed in seeds.tolist()])
        assert block.tobytes() == expected.tobytes()
        assert block[-1].tobytes() == sample(spec, n, int(seeds[-1])).values.tobytes()

    def test_kinds_are_all_covered(self) -> None:
        assert {spec.kind for spec in BLOCK_SPECS.values()} == set(KINDS)

    def test_blocks_are_pinned(self) -> None:
        """SHA-256 over one block per law, pinned from one-seed draws: numpy drift shows here."""
        seeds = SeedScheme(0).stream(0, np.arange(16), "pin")
        digest = hashlib.sha256()
        for case in (15, 1, 5, 6, 7, 11, 13):  # the first case of each law, in KINDS order
            digest.update(sample(case_spec(case), 100, seeds).tobytes())
        assert digest.hexdigest() == BLOCK_DIGEST

    def test_empty_seed_block(self) -> None:
        assert sample(case_spec(15), 5, np.array([], np.uint64)).shape == (0, 5)

    @pytest.mark.parametrize(
        "seeds",
        [
            np.arange(4),
            np.arange(4.0),
            np.arange(4, dtype=np.uint32),
            np.arange(4, dtype=np.uint64).reshape(2, 2),
            np.array(4, np.uint64),
        ],
        ids=["int64", "float", "uint32", "2-D", "0-D"],
    )
    def test_rejects_a_bad_seed_block(self, seeds: np.ndarray) -> None:
        with pytest.raises(InvalidArgumentError, match="1-D uint64 array"):
            sample(case_spec(15), 5, seeds)


class TestStandardizeAndMoments:
    """Location-scale normalization and moment summaries."""

    def test_standardize_unit_population_sd(self) -> None:
        """Output has mean 0 and population standard deviation 1."""
        x = sample(case_spec(13), 200, 9)
        z = standardize(x)
        assert float(z.values.mean()) == pytest.approx(0.0, abs=1e-12)
        assert float(z.values.std()) == pytest.approx(1.0, abs=1e-12)

    def test_standardize_rejects_constant(self) -> None:
        with pytest.raises(InsufficientDataError):
            standardize(np.full(10, 3.0))

    def test_moments_match_plain_formulas(self) -> None:
        """Moments agree with directly computed central moments."""
        values = np.array([1.0, 2.0, 2.0, 4.0, 7.0])
        mean, sd, skew, kurt = sample_moments(values)
        centered = values - values.mean()
        m2 = float(np.mean(centered**2))
        assert mean == pytest.approx(3.2)
        assert sd == pytest.approx(np.sqrt(m2))
        assert skew == pytest.approx(float(np.mean(centered**3)) / m2**1.5)
        assert kurt == pytest.approx(float(np.mean(centered**4)) / m2**2)

    def test_moments_of_symmetric_sample(self) -> None:
        """A mirror-symmetric sample has zero skewness."""
        values = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        _, _, skew, _ = sample_moments(values)
        assert skew == pytest.approx(0.0, abs=1e-14)


class TestSharedZScores:
    """One z-score kernel behind qq_points, extract_raw and the statistics."""

    @pytest.mark.parametrize("n", [3, 10, 100])
    @pytest.mark.parametrize("case", range(1, 16))
    def test_consumers_agree_bytewise(self, case: int, n: int) -> None:
        x = sample(case_spec(case), n, 500 + case)
        row = _z_scores(x.values[np.newaxis, :], ascending=True)[0]
        assert qq_points(x).empirical.tobytes() == row.tobytes()
        assert extract_raw(x).tobytes() == row.tobytes()
        unsorted = _z_scores(x.values[np.newaxis, :])[0]
        assert standardize(x).values.tobytes() == unsorted.tobytes()
        assert np.sort(unsorted).tobytes() == row.tobytes()


BAD_VECTORS = {
    "2-D": np.arange(12.0).reshape(3, 4),
    "2 values": np.array([1.0, 2.0]),
    "NaN": np.array([1.0, np.nan, 2.0, 3.0]),
}
VECTOR_CONSUMERS = {
    "Sample": Sample,
    "standardize": standardize,
    "sample_moments": sample_moments,
    "qq_points": qq_points,
    "extract_raw": extract_raw,
    **{f"{name.lower()}_statistic": statistic_fn(name) for name in STATISTIC_NAMES},
}


class TestVectorCheck:
    """Every entry point refuses the same bad vectors with the same check."""

    @pytest.mark.parametrize("label", sorted(BAD_VECTORS))
    @pytest.mark.parametrize("consumer", sorted(VECTOR_CONSUMERS))
    def test_bad_vectors_are_refused(self, consumer: str, label: str) -> None:
        with pytest.raises(InvalidArgumentError):
            VECTOR_CONSUMERS[consumer](BAD_VECTORS[label])

    def test_error_types(self) -> None:
        """Too few values is InsufficientDataError; shape and NaN are not."""
        with pytest.raises(InsufficientDataError):
            Sample(BAD_VECTORS["2 values"])
        for label in ("2-D", "NaN"):
            with pytest.raises(InvalidArgumentError) as info:
                Sample(BAD_VECTORS[label])
            assert not isinstance(info.value, InsufficientDataError)


def _dnt_model(inputs: dict[str, np.ndarray]) -> DNTModel:
    return DNTModel(
        selection=SelectionModel(np.ones(10), np.array([0, 2])),
        metric=MetricMatrix.identity(2),
        centroid=inputs["centroid"],
        null_distances=inputs["null_distances"],
        config=TrainConfig(n=10, d=2),
    )


# type -> (caller's input arrays by field, constructor over them)
ARRAY_FIELDS = {
    "Sample": ({"values": np.array([3.0, 1.0, 2.0])}, lambda a: Sample(a["values"])),
    "QQPoints": (
        {"theoretical": np.array([-1.0, 0.0, 1.0]), "empirical": np.array([-2.0, 0.5, 1.5])},
        lambda a: QQPoints(a["theoretical"], a["empirical"]),
    ),
    "QQRaster": (
        {"levels": np.full((RASTER_SIZE, RASTER_SIZE), 1)},
        lambda a: QQRaster(a["levels"], (0.0, 1.0)),
    ),
    "SelectionModel": (
        {"scores": np.array([3.0, 1.0, 2.0]), "mask": np.array([0, 2])},
        lambda a: SelectionModel(a["scores"], a["mask"]),
    ),
    "MetricMatrix": ({"matrix": np.diag([2.0, 1.0])}, lambda a: MetricMatrix(a["matrix"])),
    "TripletSet": (
        {"pairs": np.array([[0, 1], [1, 0]]), "triplets": np.array([[0, 1, 2]])},
        lambda a: TripletSet(a["pairs"], a["triplets"]),
    ),
    "DNTModel": (
        {"centroid": np.array([0.5, -0.5]), "null_distances": np.arange(20.0)},
        _dnt_model,
    ),
}
# The integer fields and their stored dtype; every other field is stored as float64.
INTEGER_FIELDS = {"mask": np.int64, "pairs": np.int64, "triplets": np.int64, "levels": np.uint8}


class TestArrayRule:
    """Every array field of a value type is checked once and stored as a frozen copy."""

    @pytest.mark.parametrize("kind", sorted(ARRAY_FIELDS))
    def test_fields_are_read_only_c_ordered_copies(self, kind: str) -> None:
        inputs, build = ARRAY_FIELDS[kind]
        inputs = {name: array.copy() for name, array in inputs.items()}
        value = build(inputs)
        for name, caller in inputs.items():
            stored = getattr(value, name)
            assert not stored.flags.writeable, name
            assert stored.flags.c_contiguous, name
            assert stored.dtype == INTEGER_FIELDS.get(name, np.float64), name
            assert not np.shares_memory(stored, caller), name
            before = stored.copy()
            caller += 1
            assert np.array_equal(stored, before), name

    def test_transposed_metric_is_stored_in_c_order(self) -> None:
        """An F-ordered input gives the same bytes as its C-ordered copy."""
        rng = np.random.default_rng(3)
        f = rng.normal(size=(5, 5))
        a = f @ f.T
        a[0, 1] += 1e-12  # within the symmetry tolerance, so a.T differs from a
        transposed = a.T
        assert transposed.flags.f_contiguous and not transposed.flags.c_contiguous
        stored = MetricMatrix(transposed).matrix
        assert stored.flags.c_contiguous
        assert stored.tobytes() == MetricMatrix(np.ascontiguousarray(transposed)).matrix.tobytes()
        assert stored.tobytes() != MetricMatrix(a).matrix.tobytes()
