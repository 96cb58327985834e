"""Tests for training, testing, calibration, and model persistence.

Covers TrainConfig validation, the train/dnt_test cycle at desk scale,
calibrate_cutoff rank semantics against a hand-rolled replay of the
calibration stream, TestReport invariants and p-values, and the JSON
model format with its base64 binary arrays, including its failure modes.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import oracles
import pytest

from dnt import (
    ConfigError,
    DistributionSpec,
    DNTModel,
    FormatError,
    InvalidArgumentError,
    LmnnConfig,
    MetricMatrix,
    ModelMismatchError,
    RunConfig,
    Sample,
    SeedScheme,
    SelectionModel,
    TestReport,
    TrainConfig,
    UnsupportedVersionError,
    calibrate_cutoff,
    case_spec,
    dnt_test,
    ks_statistic,
    load_model,
    mahalanobis_distance,
    sample,
    save_model,
    train,
)
from dnt.classical import STATISTIC_NAMES, statistic_fn
from dnt.engine import (
    _CHUNK_ROWS,
    MODEL_FORMAT_VERSION,
    _chunks,
    _feature_block,
    _squared_distances,
    config_from_dict,
    config_to_dict,
    extract_features,
)
from dnt.features import EXTRACTOR_IDS


def tiny_config(**overrides) -> TrainConfig:
    """A fast-to-train configuration used throughout this module."""
    settings = dict(
        n=20,
        h0_pool=60,
        h0_keep_fraction=0.2,
        h1_count=30,
        h1_spec=case_spec(4),
        d=10,
        extractor="RawOrder",
        lmnn=LmnnConfig(k=5, max_iters=20),
        master_seed=123,
    )
    settings.update(overrides)
    return TrainConfig(**settings)


def _arrays(m: DNTModel) -> tuple[np.ndarray, ...]:
    """Every array a model file stores, in file order."""
    return (m.selection.scores, m.selection.mask, m.metric.matrix, m.centroid, m.null_distances)


def _saved_payload(m: DNTModel, path) -> dict:
    save_model(m, str(path))
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def model() -> DNTModel:
    """One tiny trained model shared by the read-only tests."""
    return train(tiny_config())


class TestTrainConfig:
    """Validation and derived quantities of the training configuration."""

    def test_codec_round_trips_every_field(self):
        """Configs with no field at its default survive dict and JSON round trips."""
        train_cfg = TrainConfig(
            n=30,
            h0_pool=80,
            h0_keep_fraction=0.25,
            h1_count=40,
            h1_spec=case_spec(7),
            d=12,
            extractor="ImageGrid",
            alpha=0.1,
            lmnn=LmnnConfig(
                k=4, push_weight=0.5, margin=2.0, max_iters=10, step_size=1e-2, tolerance=1e-5
            ),
            master_seed=9,
            fresh_null_count=5,
        )
        run_cfg = RunConfig(
            methods=("KS", "SSIM"),
            reps=60,
            n=30,
            calibration_reps=200,
            train=train_cfg,
            master_seed=4,
            out="table.csv",
        )
        defaults = {
            TrainConfig: TrainConfig(),
            LmnnConfig: LmnnConfig(),
            RunConfig: RunConfig(methods=("JB",)),
        }
        for cfg in (train_cfg, train_cfg.lmnn, run_cfg):
            default = defaults[type(cfg)]
            for f in dataclasses.fields(cfg):
                assert getattr(cfg, f.name) != getattr(default, f.name), f.name
            data = config_to_dict(cfg)
            assert config_from_dict(type(cfg), data, "config") == cfg
            assert config_from_dict(type(cfg), json.loads(json.dumps(data)), "config") == cfg

    @pytest.mark.parametrize(
        "data, where",
        [
            ({"n": True}, "config.n: expected an integer"),
            ({"alpha": "nan"}, "config.alpha: expected a finite number"),
            ({"lmnn": {"k": "five"}}, "config.lmnn.k: expected an integer"),
            ({"lmnn": 5}, "config.lmnn: expected an object"),
            ({"h1_spec": {"kind": "Normal", "params": 5}}, "config.h1_spec.params: expected a list"),
            ({"h1_spec": {"kind": "Normal", "params": ["a", "b"]}}, "config.h1_spec.params"),
            ({"h1_spec": {"kind": "Normal"}}, "config.h1_spec.params: required"),
            ({"h1_spec": "cauchy(1)"}, "config.h1_spec: unknown distribution"),
            ({"extractor": 5}, "config.extractor: expected a string"),
            ({"d": 200}, "config: d must be in"),
            ({"lmnn": {"k": 0}}, "config.lmnn: k must be at least 1"),
            ({"h0_keep_fracton": 0.2}, "unknown key.*h0_keep_fracton"),
        ],
    )
    def test_codec_errors_are_located_config_errors(self, data, where):
        """Every malformed value raises a ConfigError naming its key."""
        with pytest.raises(ConfigError, match=where):
            config_from_dict(TrainConfig, data, "config")

    def test_codec_reads_key_value_text(self):
        """Text values and comma-separated tuples decode by field type."""
        cfg = config_from_dict(
            TrainConfig,
            {"n": "120", "alpha": "0.1", "h1_spec": {"kind": "Normal", "params": "0, 2"}},
            "config",
        )
        assert (cfg.n, cfg.alpha) == (120, 0.1)
        assert cfg.h1_spec == DistributionSpec("Normal", (0.0, 2.0))
        assert config_from_dict(TrainConfig, {"h1_spec": "t(5)"}, "config").h1_spec == case_spec(2)
        run = config_from_dict(RunConfig, {"methods": "KS, JB"}, "config")
        assert run.methods == ("KS", "JB")
        with pytest.raises(ConfigError, match="config.methods: required"):
            config_from_dict(RunConfig, {}, "config")

    def test_defaults_are_valid(self):
        """The default configuration constructs without error."""
        cfg = TrainConfig()
        assert cfg.n == 100
        assert cfg.extractor == "RawOrder"
        assert cfg.alpha == 0.05

    def test_keep_count_rounds_the_fraction(self):
        """keep_count is the pool size times the fraction, rounded."""
        assert tiny_config(h0_pool=60, h0_keep_fraction=0.2).keep_count == 12
        assert tiny_config(h0_pool=5000, h0_keep_fraction=0.01).keep_count == 50

    def test_rejects_tiny_samples(self):
        """Sample sizes below three are rejected."""
        with pytest.raises(ConfigError):
            tiny_config(n=2)

    @pytest.mark.parametrize(
        "fraction",
        [0.0, -0.1, 1.5, True, np.True_, "0.5", None],
        ids=["0.0", "-0.1", "1.5", "bool", "numpy-bool", "text", "None"],
    )
    def test_rejects_bad_keep_fraction(self, fraction):
        """The keep fraction must be a number in (0, 1]; a bool, text or None is refused.

        A model file's codec refuses them, so an accepted True would
        train a model that load_model cannot read.
        """
        with pytest.raises(ConfigError, match="h0_keep_fraction"):
            tiny_config(h0_keep_fraction=fraction)

    def test_rejects_keep_count_below_neighbour_count(self):
        """Too few kept null points cannot support k same-class neighbours."""
        with pytest.raises(ConfigError):
            tiny_config(h0_pool=60, h0_keep_fraction=0.05, lmnn=LmnnConfig(k=5))

    def test_rejects_dimension_above_feature_length(self):
        """The kept dimension is capped by the extractor's feature length."""
        with pytest.raises(ConfigError):
            tiny_config(d=21)
        assert tiny_config(d=20).d == 20

    def test_image_extractor_has_its_own_feature_length(self):
        """ImageGrid features allow dimensions up to their full length."""
        cfg = tiny_config(extractor="ImageGrid", d=196)
        assert cfg.d == 196
        with pytest.raises(ConfigError):
            tiny_config(extractor="ImageGrid", d=197)

    @pytest.mark.parametrize("d", [0, -3])
    def test_rejects_nonpositive_dimension(self, d):
        """The kept dimension must be at least one."""
        with pytest.raises(ConfigError):
            tiny_config(d=d)

    def test_rejects_unknown_extractor(self):
        """Only the registered extractor identifiers are accepted."""
        with pytest.raises(ConfigError):
            tiny_config(extractor="Wavelet")

    @pytest.mark.parametrize(
        "alpha",
        [0.0, 1.0, -0.05, True, "0.05", None, 10**400],
        ids=["0.0", "1.0", "-0.05", "bool", "text", "None", "int-beyond-float"],
    )
    def test_rejects_bad_alpha(self, alpha):
        """The test level must be a number strictly inside (0, 1)."""
        with pytest.raises(ConfigError, match="alpha"):
            tiny_config(alpha=alpha)

    @pytest.mark.parametrize(
        "field, value",
        [("h0_keep_fraction", 1), ("h0_keep_fraction", np.float64(0.5)), ("alpha", np.float64(0.1))],
        ids=["fraction-int", "fraction-numpy", "alpha-numpy"],
    )
    def test_a_number_of_another_type_loads_back(self, field, value, tmp_path):
        """A non-float number TrainConfig accepts gives a model file load_model reads back."""
        model = train(tiny_config(**{field: value}))
        save_model(model, str(tmp_path / "model.json"))
        assert load_model(str(tmp_path / "model.json")).config == model.config

    def test_float32_fields_are_stored_as_floats(self, tmp_path):
        """numpy float32 settings train, save and load back, each stored as a Python float."""
        cfg = tiny_config(
            h0_keep_fraction=np.float32(0.25),
            alpha=np.float32(0.1),
            lmnn=LmnnConfig(
                k=5,
                push_weight=np.float32(0.5),
                margin=np.float32(1.0),
                max_iters=5,
                step_size=np.float32(1e-3),
                tolerance=np.float32(1e-6),
            ),
        )
        values = [cfg.h0_keep_fraction, cfg.alpha]
        values += [getattr(cfg.lmnn, name) for name in ("push_weight", "margin", "step_size", "tolerance")]
        assert [type(value) for value in values] == [float] * 6
        assert cfg.alpha == float(np.float32(0.1))
        model = train(cfg)
        save_model(model, str(tmp_path / "model.json"))
        assert load_model(str(tmp_path / "model.json")).config == cfg

    @pytest.mark.parametrize("field", ["h0_pool", "h1_count"])
    def test_rejects_degenerate_population_sizes(self, field):
        """Both simulated populations need at least two members."""
        with pytest.raises(ConfigError):
            tiny_config(**{field: 1})

    def test_rejects_negative_fresh_null_count(self):
        """The fresh calibration count cannot be negative."""
        with pytest.raises(ConfigError):
            tiny_config(fresh_null_count=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 20.0),
            ("h0_pool", 60.5),
            ("h1_count", 40.0),
            ("d", 5.0),
            ("fresh_null_count", 1.5),
            ("master_seed", 1.5),
            ("master_seed", -1),
            ("master_seed", 2**64),
        ],
    )
    def test_rejects_non_integer_counts_and_seeds(self, field, value):
        """A float count used to die in train with a bare TypeError, and a
        fractional seed trained under its truncation into an unloadable model."""
        with pytest.raises(ConfigError, match=field):
            tiny_config(**{field: value})


class TestTestReport:
    """The per-sample verdict record."""

    def test_reject_is_the_comparison(self):
        """The verdict is statistic > cutoff, derived, and not a constructor argument."""
        assert not TestReport(statistic=1.0, cutoff=2.0, alpha=0.05).reject
        assert TestReport(statistic=3.0, cutoff=2.0, alpha=0.05).reject
        with pytest.raises(TypeError):
            TestReport(statistic=1.0, cutoff=2.0, reject=True, alpha=0.05)

    def test_boundary_statistic_does_not_reject(self):
        """A statistic exactly at the cutoff is retained."""
        report = TestReport(statistic=2.0, cutoff=2.0, alpha=0.05)
        assert not report.reject

    def test_summary_names_the_verdict(self):
        """The summary line states accept or reject with the numbers."""
        kept = TestReport(statistic=1.0, cutoff=2.0, alpha=0.05)
        fired = TestReport(statistic=3.0, cutoff=2.0, alpha=0.05)
        assert "accept" in kept.summary().lower()
        assert "reject" in fired.summary().lower()
        assert "0.05" in fired.summary()


class TestTrain:
    """End-to-end training at desk scale."""

    def test_model_shape_matches_the_config(self):
        """Training yields a model whose parts agree with the config."""
        cfg = tiny_config()
        model = train(cfg)
        assert model.extractor_id == "RawOrder"
        assert model.n == cfg.n
        assert model.alpha == cfg.alpha
        assert model.selection.d == cfg.d
        assert model.centroid.shape == (cfg.d,)
        assert model.metric.dim == cfg.d

    def test_in_sample_calibration_uses_the_whole_pool(self):
        """Without fresh draws the null distances cover the training pool."""
        model = train(tiny_config())
        assert model.null_distances.size == 60
        assert np.all(np.diff(model.null_distances) >= 0.0)

    def test_fresh_null_count_sizes_the_calibration(self):
        """Fresh calibration draws replace the in-sample null distances."""
        model = train(tiny_config(fresh_null_count=80))
        assert model.null_distances.size == 80

    def test_training_is_reproducible(self):
        """The same configuration always yields the same model."""
        a = train(tiny_config())
        b = train(tiny_config())
        assert np.array_equal(a.centroid, b.centroid)
        assert np.array_equal(a.metric.matrix, b.metric.matrix)
        assert np.array_equal(a.null_distances, b.null_distances)
        assert a.cutoff == b.cutoff

    def test_tiny_alpha_cuts_at_the_smallest_null_distance(self):
        """A rank (1-alpha)N below 1 is clamped to 1, and the model accepts that cutoff."""
        model = train(tiny_config(alpha=1 - 1e-13))
        assert model.cutoff == model.null_distances[0] < model.null_distances[-1]

    def test_requires_a_master_seed(self):
        """Training refuses to run with an unset seed."""
        with pytest.raises(ConfigError):
            train(tiny_config(master_seed=None))

    def test_cutoff_is_the_upper_null_quantile(self):
        """The cutoff sits at the (1 - alpha) order statistic."""
        model = train(tiny_config())
        rank = math.ceil((1.0 - model.alpha) * model.null_distances.size - 1e-9)
        assert model.cutoff == float(model.null_distances[rank - 1])


class TestDntTest:
    """Applying a trained model to new samples."""

    def test_report_is_consistent(self, model):
        """The verdict mirrors the statistic/cutoff comparison."""
        x = sample(case_spec(15), 20, seed=99)
        report = dnt_test(x, model)
        assert report.statistic >= 0.0
        assert report.cutoff == model.cutoff
        assert report.reject == (report.statistic > report.cutoff)

    def test_accepts_plain_arrays(self, model):
        """A bare array and the equivalent Sample score identically."""
        x = sample(case_spec(15), 20, seed=7)
        assert dnt_test(np.asarray(x.values), model).statistic == dnt_test(x, model).statistic

    def test_rejects_wrong_sample_size(self, model):
        """Samples of a different size than the model trained for fail."""
        x = sample(case_spec(15), 25, seed=1)
        with pytest.raises(ModelMismatchError):
            dnt_test(x, model)

    @pytest.mark.parametrize(
        "values",
        [np.ones((2, 5)), np.array([1.0, 2.0]), np.r_[np.nan, np.ones(4)]],
        ids=["2-D", "2 values", "NaN"],
    )
    def test_bad_vectors_fail_the_sample_check_first(self, model, values):
        """A vector that is not a sample is refused as such, not as a mismatch."""
        with pytest.raises(InvalidArgumentError):
            dnt_test(values, model)

    def test_p_value_counts_null_distances_at_or_above(self, model):
        """p = (1 + #{null >= statistic}) / (N + 1), checked by a plain loop."""
        x = sample(case_spec(15), 20, seed=5)
        stat = dnt_test(x, model).statistic
        nulls = [
            model.null_distances,
            np.array([stat / 4, stat / 2, stat, stat, stat, stat * 2]),  # ties at the statistic
            np.linspace(stat / 100, stat / 2, 30),  # statistic beyond the largest null value
            np.linspace(stat * 2, stat * 3, 30),  # statistic below every null value
        ]
        for null in nulls:
            rank = math.ceil((1.0 - model.alpha) * null.size - 1e-9)
            edited = dataclasses.replace(model, null_distances=null)
            assert edited.cutoff == float(null[rank - 1])
            report = dnt_test(x, edited)
            assert report.statistic == stat
            at_or_above = 0
            for value in null:
                if value >= stat:
                    at_or_above += 1
            assert report.p_value == (1 + at_or_above) / (null.size + 1)
        assert report.p_value == 1.0

    def test_skewed_samples_score_farther_than_null(self, model):
        """Strongly non-normal data lands farther from the centroid."""
        null_scores = [
            dnt_test(sample(case_spec(15), 20, seed=1000 + r), model).statistic
            for r in range(40)
        ]
        skew_scores = [
            dnt_test(sample(case_spec(10), 20, seed=2000 + r), model).statistic
            for r in range(40)
        ]
        assert np.median(skew_scores) > np.median(null_scores)


class TestOneStatistic:
    """A model's null distances are the dnt_test statistics of its calibration samples.

    Each calibration sample is redrawn from its own stream and scored
    by dnt_test; the sorted statistics must equal the stored null
    distances byte for byte, so the sample at rank ceil((1-alpha)N) sits
    exactly on the cutoff and is accepted. Both sides run the same
    per-row products, so this holds at any BLAS thread count.
    """

    @pytest.mark.parametrize(
        "overrides, purpose, count",
        [
            ({}, "train-h0", 200),
            ({"extractor": "ImageGrid"}, "train-h0", 200),
            ({"fresh_null_count": 150}, "calibrate", 150),
        ],
        ids=["RawOrder", "ImageGrid", "fresh-null"],
    )
    def test_null_distances_are_dnt_test_statistics(self, overrides, purpose, count):
        cfg = tiny_config(h0_pool=200, h0_keep_fraction=0.1, **overrides)
        model = train(cfg)
        scheme = SeedScheme(cfg.master_seed)
        samples = [
            sample(case_spec(15), cfg.n, scheme.stream(15, r, purpose)) for r in range(count)
        ]
        reports = [dnt_test(x, model) for x in samples]
        statistics = np.array([report.statistic for report in reports])
        assert np.sort(statistics).tobytes() == model.null_distances.tobytes()
        rank = math.ceil((1.0 - cfg.alpha) * count - 1e-9)
        at_cutoff = reports[int(np.argsort(statistics, kind="stable")[rank - 1])]
        assert at_cutoff.statistic == model.cutoff
        assert not at_cutoff.reject


class TestStackedDistance:
    """The one DNT quadratic form, stacked, against the per-row form it replaced.

    ``oracles.frozen_squared_distances`` is the per-row loop that
    ``_squared_distances`` ran before; both sides call the same one-row
    products, so the bytes agree at any BLAS thread count.
    """

    @staticmethod
    def _matrix(d: int, seed: int) -> np.ndarray:
        f = np.random.default_rng(seed).normal(size=(d, d))
        return f @ f.T / d

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["psd", "negated"])
    @pytest.mark.parametrize("d", [1, 5, 100, 196])
    def test_distances_match_the_per_row_form(self, d, sign):
        """Blocks of 1 to 9 rows and of 5,000, each with a row equal to the centroid.

        The negated metric makes every form but the centroid row's
        negative, so the clamp is checked against Python's max.
        """
        rng = np.random.default_rng(d)
        matrix = sign * self._matrix(d, d + 1)
        mask = np.sort(rng.choice(d + 3, size=d, replace=False))
        for rows in [*range(1, 10), 5_000]:
            features = rng.normal(size=(rows, d + 3))
            centroid = features[rows // 2, mask].copy()
            got = _squared_distances(features, mask, centroid, matrix)
            deltas = np.ascontiguousarray(features[:, mask]) - centroid
            want = oracles.frozen_squared_distances(deltas, matrix)
            assert got.tobytes() == want.tobytes(), rows
            assert got[rows // 2] == 0.0

    @pytest.mark.parametrize("d", [1, 5, 100, 196])
    def test_mahalanobis_distance_keeps_its_values(self, d):
        """sqrt of the clamped per-row form, bit for bit, for 50 pairs of vectors."""
        rng = np.random.default_rng(d)
        matrix = self._matrix(d, d + 2)
        metric = MetricMatrix(matrix)
        for a, b in rng.normal(size=(50, 2, d)):
            want = float(np.sqrt(oracles.frozen_squared_distances((a - b)[np.newaxis], matrix)[0]))
            assert mahalanobis_distance(a, b, metric) == want


class TestCalibrateCutoff:
    """Monte-Carlo calibration of scalar statistics."""

    def test_rank_matches_a_manual_replay(self):
        """The cutoff is the ceil((1-alpha)R)-th smallest null value."""
        reps, n, seed = 200, 20, 3

        def first_value(x: Sample) -> float:
            return float(x.values[0])

        scheme = SeedScheme(seed)
        spec = case_spec(15)
        replayed = sorted(
            float(sample(spec, n, scheme.stream(15, r, "calibrate")).values[0])
            for r in range(reps)
        )
        expected = replayed[math.ceil(0.95 * reps) - 1]
        assert calibrate_cutoff(first_value, n, reps, 0.05, seed=seed) == expected

    def test_six_cutoffs_are_pinned(self):
        """n=100, 1,000 reps, seed 0: the reprs the per-replicate loop gave.

        JB's and GG's are those of their multiplied moments.
        """
        pinned = {
            "KS": "0.09025189352572449",
            "AD": "0.7323763374581489",
            "JB": "5.879653094597934",
            "GLB": "0.7323763374581489",
            "GG": "6.952953824803875",
            "BS": "1.970743684621084",
        }
        got = {
            name: repr(calibrate_cutoff(statistic_fn(name), 100, 1000, 0.05, seed=0))
            for name in pinned
        }
        assert got == pinned

    @pytest.mark.parametrize("name", STATISTIC_NAMES)
    def test_wrapped_and_generic_statistics_agree(self, name):
        """The chunk kernel, a functools.wraps wrapper and a lambda give one cutoff.

        The wrapper carries the statistic's ``calibration_rows``, so it
        is never called; the lambda is scored sample by sample.
        """
        statistic = statistic_fn(name)
        calls = {"wrapped": 0, "lambda": 0}

        @functools.wraps(statistic)
        def wrapped(x):
            calls["wrapped"] += 1
            return statistic(x)

        def generic(x):
            calls["lambda"] += 1
            return statistic(x)

        reps = 1100
        direct = calibrate_cutoff(statistic, 40, reps, 0.05, seed=8)
        assert calibrate_cutoff(wrapped, 40, reps, 0.05, seed=8) == direct
        assert calibrate_cutoff(lambda x: generic(x), 40, reps, 0.05, seed=8) == direct
        assert calls == {"wrapped": 0, "lambda": reps}

    def test_tiny_alpha_picks_the_smallest_null_value(self):
        """A rank (1-alpha)N below 1 is clamped to 1, not wrapped round to the largest value."""
        tiny = calibrate_cutoff(ks_statistic, 30, 100, alpha=1 - 1e-12, seed=1)
        assert tiny == calibrate_cutoff(ks_statistic, 30, 100, alpha=0.995, seed=1)
        assert tiny < calibrate_cutoff(ks_statistic, 30, 100, alpha=0.5, seed=1)

    @pytest.mark.parametrize(
        "n, reps", [(30, 150.5), (30.0, 150), (30, True)], ids=["reps", "n", "reps-bool"]
    )
    def test_rejects_non_integer_sizes(self, n, reps):
        """A float or bool size is refused, not truncated or left to numpy's TypeError."""
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            calibrate_cutoff(ks_statistic, n, reps, 0.05, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 0.5])
    def test_seed_errors_name_the_seed_argument(self, seed):
        """The argument is seed; its errors used to name the scheme's master_seed."""
        with pytest.raises(InvalidArgumentError, match="^seed must"):
            calibrate_cutoff(ks_statistic, 20, 100, seed=seed)

    def test_reproducible_for_a_real_statistic(self):
        """Equal seeds give bit-equal cutoffs."""
        a = calibrate_cutoff(ks_statistic, 30, 200, 0.05, seed=11)
        b = calibrate_cutoff(ks_statistic, 30, 200, 0.05, seed=11)
        assert a == b

    def test_cutoff_decreases_with_alpha(self):
        """Larger test levels move the cutoff down the null distribution."""
        loose = calibrate_cutoff(ks_statistic, 30, 300, 0.5, seed=4)
        strict = calibrate_cutoff(ks_statistic, 30, 300, 0.01, seed=4)
        assert strict > loose

    def test_rejects_thin_calibration(self):
        """Fewer than 100 replicates is refused."""
        with pytest.raises(InvalidArgumentError):
            calibrate_cutoff(ks_statistic, 30, 99, 0.05, seed=0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, "0.05", None, math.nan])
    def test_rejects_degenerate_alpha(self, alpha):
        """Alpha on the boundary has no order statistic to pick; a non-number is refused too."""
        with pytest.raises(InvalidArgumentError):
            calibrate_cutoff(ks_statistic, 30, 200, alpha, seed=0)

    @pytest.mark.parametrize(
        "value",
        [
            lambda x: math.nan,
            lambda x: math.nan if x.values[0] > 0 else 1.0,
            lambda x: math.inf,
            lambda x: "1.5",
            lambda x: True,
            lambda x: np.True_,
            lambda x: None,
            lambda x: 1 + 2j,
        ],
        ids=["nan", "nan-on-half", "inf", "text", "bool", "numpy-bool", "none", "complex"],
    )
    def test_generic_values_must_be_finite_numbers(self, value):
        """A NaN cutoff never rejects; text, bools and None are not statistic values."""
        with pytest.raises(InvalidArgumentError, match="statistic value must be a finite number"):
            calibrate_cutoff(value, 30, 100, 0.05, seed=0)

    def test_generic_values_may_be_numpy_scalars_or_ints(self):
        """Any finite real number is a value: the cutoff is the same as from plain floats."""
        def first(x):
            return float(x.values[0])

        want = calibrate_cutoff(first, 30, 100, 0.05, seed=2)
        assert calibrate_cutoff(lambda x: np.float32(first(x)), 30, 100, 0.05, seed=2) == (
            float(np.float32(want))
        )
        assert calibrate_cutoff(lambda x: np.float64(first(x)), 30, 100, 0.05, seed=2) == want
        assert calibrate_cutoff(lambda x: int(first(x) > 0), 30, 100, 0.05, seed=2) == 1.0


class TestExtractFeatures:
    """The extractor dispatch used by training and testing."""

    def test_raw_order_length_is_the_sample_size(self):
        """RawOrder features have one entry per observation."""
        x = sample(case_spec(15), 23, seed=5)
        assert len(extract_features(x, "RawOrder")) == 23

    def test_image_grid_length_is_fixed(self):
        """ImageGrid features have the fixed grid length."""
        x = sample(case_spec(15), 23, seed=5)
        assert len(extract_features(x, "ImageGrid")) == 196

    def test_rejects_unknown_extractor(self):
        """An unregistered extractor identifier is an error."""
        x = sample(case_spec(15), 23, seed=5)
        with pytest.raises(InvalidArgumentError):
            extract_features(x, "Wavelet")


class TestFeatureBlock:
    """Training's block feature path against extract_features, one replicate at a time."""

    @pytest.mark.parametrize("extractor", EXTRACTOR_IDS)
    @pytest.mark.parametrize("n, count", [(100, 170), (5, 300)])
    def test_matches_per_replicate_features(self, extractor, n, count):
        """Chunks of 81 rows at n=100 and 128 at n=5; neither count is a multiple."""
        scheme, spec = SeedScheme(6), case_spec(2)
        cfg = TrainConfig(n=n, d=1, extractor=extractor)
        block = _feature_block(spec, count, cfg, scheme, "train-h1")
        expected = np.stack([
            extract_features(sample(spec, n, scheme.stream(2, r, "train-h1")), extractor)
            for r in range(count)
        ])
        assert block.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n, rows", [(3, _CHUNK_ROWS), (100, 81), (500, 16)])
    def test_chunks_are_capped_in_rows(self, n, rows):
        """At n=3 the value budget alone would give 2,730 rows of rasters."""
        chunks = list(_chunks(case_spec(15), 300, n, SeedScheme(0), "x"))
        sizes = [len(chunk) for _, chunk in chunks]
        assert sizes[0] == rows and max(sizes) == rows and sum(sizes) == 300
        assert [start for start, _ in chunks] == list(range(0, 300, rows))


class TestChunks:
    """The one loop that draws replicates by the stream rule, a (rows, n) block at a time."""

    @pytest.mark.parametrize(
        "spec, stream_case",
        [
            (case_spec(7), 7),
            (DistributionSpec("Laplace", (0.0, 1.0)), 7),
            (DistributionSpec("Normal", (2.0, 3.0)), 0),
        ],
        ids=["table-spec", "table-law-without-case-id", "off-table"],
    )
    def test_rows_are_the_stream_draws(self, spec, stream_case: int) -> None:
        """Row r of the blocks is sample(spec, n, scheme.stream(case, r, purpose)), byte for byte."""
        scheme = SeedScheme(11)
        chunks = list(_chunks(spec, 300, 12, scheme, "test"))
        assert [start for start, _ in chunks] == [0, _CHUNK_ROWS, 2 * _CHUNK_ROWS]
        block = np.concatenate([chunk for _, chunk in chunks])
        assert block.shape == (300, 12) and block.dtype == np.float64
        expected = np.stack(
            [sample(spec, 12, scheme.stream(stream_case, r, "test")).values for r in range(300)]
        )
        assert block.tobytes() == expected.tobytes()


class TestModelDigests:
    """SHA-256 of the arrays of two small models.

    The digest covers what the benchmark's model_digest covers: the
    selection scores and mask, the metric, the centroid, the null
    distances and the cutoff. A change to simulation, features, metric
    learning or calibration that moves any bit fails here.
    """

    PINS = {
        "RawOrder": "6f87e1bbf84201652999378ab346bae8745ed63712fd49f5f3ebd4b7140e2397",
        "ImageGrid": "c26b0bb6b4fabb90e3746680ecf7ce3239d7d12d4eb53ef536d44cebb69405a0",
    }

    @pytest.mark.parametrize("extractor", sorted(PINS))
    def test_model_digest(self, extractor):
        cfg = TrainConfig(
            n=100,
            h0_pool=400,
            h0_keep_fraction=0.1,
            h1_count=60,
            d=20,
            extractor=extractor,
            lmnn=LmnnConfig(k=5),
            master_seed=3,
        )
        m = train(cfg)
        digest = hashlib.sha256()
        for array in (*_arrays(m), np.array([m.cutoff])):
            digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == self.PINS[extractor]


class TestModelInvariants:
    """Direct construction rules for DNTModel."""

    def test_rejects_unsorted_null_distances(self, model):
        """Null distances must be stored in ascending order."""
        with pytest.raises(InvalidArgumentError):
            DNTModel(
                selection=model.selection,
                metric=model.metric,
                centroid=model.centroid,
                null_distances=model.null_distances[::-1].copy(),
                config=model.config,
            )

    def test_cutoff_is_derived_from_the_null_quantile(self, model):
        """cutoff is the (1-alpha) order statistic, computed, and not a constructor argument."""
        rank = math.ceil((1.0 - model.alpha) * model.null_distances.size - 1e-9)
        assert model.cutoff == float(model.null_distances[rank - 1])
        assert (model.n, model.alpha, model.extractor_id) == (20, 0.05, "RawOrder")
        with pytest.raises(TypeError):
            DNTModel(
                selection=model.selection,
                metric=model.metric,
                centroid=model.centroid,
                null_distances=model.null_distances,
                config=model.config,
                cutoff=model.cutoff,
            )
        with pytest.raises(ValueError):
            dataclasses.replace(model, cutoff=model.cutoff * 1.01)

    def test_rejects_centroid_dimension_mismatch(self, model):
        """The centroid must live in the selected feature space."""
        with pytest.raises(InvalidArgumentError):
            DNTModel(
                selection=model.selection,
                metric=model.metric,
                centroid=np.append(model.centroid, 0.0),
                null_distances=model.null_distances,
                config=model.config,
            )

    @pytest.mark.parametrize(
        "extractor, n, m",
        [("RawOrder", 20, 16), ("RawOrder", 20, 21), ("ImageGrid", 20, 20), ("ImageGrid", 20, 195)],
    )
    def test_rejects_a_selection_over_another_feature_length(self, model, extractor, n, m):
        """selection.m must be the feature length of (extractor, n): n, or IMAGE_GRID_LENGTH."""
        config = dataclasses.replace(model.config, extractor=extractor, n=n)
        selection = SelectionModel(np.ones(m), np.arange(model.selection.d))
        with pytest.raises(InvalidArgumentError, match=f"selection scores {m} features"):
            dataclasses.replace(model, config=config, selection=selection)

    def test_rejects_a_nan_centroid(self, model):
        """A NaN centroid would make every statistic NaN and every verdict accept."""
        centroid = model.centroid.copy()
        centroid[0] = np.nan
        with pytest.raises(InvalidArgumentError):
            dataclasses.replace(model, centroid=centroid)

    def test_arrays_are_read_only(self, model):
        """Stored arrays cannot be mutated in place."""
        with pytest.raises(ValueError):
            model.centroid[0] = 1.0
        with pytest.raises(ValueError):
            model.null_distances[0] = -1.0


class TestPersistence:
    """The JSON model format."""

    def test_round_trip_is_bit_exact(self, model, tmp_path):
        """Saving, loading, and saving again yields identical bytes."""
        first = tmp_path / "model.json"
        second = tmp_path / "again.json"
        save_model(model, str(first))
        loaded = load_model(str(first))
        save_model(loaded, str(second))
        assert first.read_bytes() == second.read_bytes()
        assert np.array_equal(loaded.centroid, model.centroid)
        assert np.array_equal(loaded.metric.matrix, model.metric.matrix)
        assert np.array_equal(loaded.null_distances, model.null_distances)
        assert loaded.cutoff == model.cutoff
        assert loaded.config == model.config
        for got, want in zip(_arrays(loaded), _arrays(model)):
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())

    def test_loaded_model_scores_identically(self, model, tmp_path):
        """A reloaded model reproduces the original verdicts."""
        path = tmp_path / "model.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        x = sample(case_spec(15), 20, seed=321)
        assert dnt_test(x, loaded).statistic == dnt_test(x, model).statistic

    def test_missing_file_raises_file_not_found(self, tmp_path):
        """A nonexistent path raises the builtin FileNotFoundError."""
        with pytest.raises(FileNotFoundError):
            load_model(str(tmp_path / "absent.json"))

    def test_rejects_invalid_json(self, tmp_path):
        """Unparseable files report a format error."""
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_model(str(path))

    def test_rejects_unknown_format_version(self, model, tmp_path):
        """A different format tag is refused before any validation."""
        path = tmp_path / "model.json"
        save_model(model, str(path))
        payload = json.loads(path.read_text())
        payload["format"] = "dnt-model-v99"
        path.write_text(json.dumps(payload))
        with pytest.raises(UnsupportedVersionError):
            load_model(str(path))

    def test_missing_field_is_located(self, model, tmp_path):
        """A dropped field is reported with its path in the payload."""
        path = tmp_path / "model.json"
        save_model(model, str(path))
        payload = json.loads(path.read_text())
        del payload["centroid"]
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="centroid"):
            load_model(str(path))

    def test_tampered_cutoff_is_rejected(self, model, tmp_path):
        """Editing the cutoff breaks the quantile invariant on load."""
        path = tmp_path / "model.json"
        save_model(model, str(path))
        payload = json.loads(path.read_text())
        payload["cutoff"] = payload["cutoff"] * 2.0 + 1.0
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError):
            load_model(str(path))

    def test_saved_payload_declares_the_format(self, model, tmp_path):
        """The format tag in the file matches the module constant."""
        path = tmp_path / "model.json"
        save_model(model, str(path))
        assert json.loads(path.read_text())["format"] == MODEL_FORMAT_VERSION

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda config: config.pop("fresh_null_count"), "model.config.fresh_null_count"),
            (lambda config: config["lmnn"].pop("tolerance"), "model.config.lmnn.tolerance"),
            (lambda config: config.update(n="20"), "model.config.n"),
            (lambda config: config.update(extra=1), "extra"),
            (lambda config: config.update(h1_spec="t(50)"), "model.config.h1_spec"),
            (lambda config: config.update(alpha=True), "model.config.alpha"),
        ],
    )
    def test_config_must_be_canonical(self, model, tmp_path, edit, key):
        """A config the codec would accept but not write back is refused by key."""
        path = tmp_path / "model.json"
        save_model(model, str(path))
        payload = json.loads(path.read_text())
        edit(payload["config"])
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=key):
            load_model(str(path))

    @pytest.mark.parametrize("field", ["centroid", "null_distances"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_are_rejected(self, model, tmp_path, field, value):
        """NaN and infinite bit patterns inside an array's base64 never load."""
        path = tmp_path / "model.json"
        payload = _saved_payload(model, path)
        values = np.frombuffer(base64.b64decode(payload[field]), dtype="<f8").copy()
        values[0] = value
        payload[field] = base64.b64encode(values.tobytes()).decode("ascii")
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=f"model.{field}: holds a NaN or infinite value"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "literal, match",
        [
            pytest.param("1e400", "model.cutoff: the file has Infinity where", id="1e400"),
            pytest.param("-1e400", "model.cutoff: the file has -Infinity where", id="-1e400"),
            pytest.param("NaN", "non-finite number NaN", id="NaN"),
        ],
    )
    def test_non_finite_scalars_are_rejected(self, model, tmp_path, literal, match):
        """An overflowing literal or a NaN in the scalar cutoff never loads."""
        path = tmp_path / "model.json"
        payload = _saved_payload(model, path)
        payload["cutoff"] = "@"
        path.write_text(json.dumps(payload).replace('"@"', literal))
        with pytest.raises(FormatError, match=match):
            load_model(str(path))

    @pytest.mark.parametrize(
        "where, text, match",
        [
            pytest.param("centroid", "AAAAAAAAAA==", "7 bytes", id="float-length"),
            pytest.param("selection.mask", "AQAAAAAAAAACAAAA", "12 bytes", id="int-length"),
            pytest.param("centroid", "AAAA*AAA", "not strict base64", id="alphabet"),
            pytest.param("metric", "AAAAAAAA8D8", "Incorrect padding", id="missing-padding"),
            pytest.param("null_distances", "AAAAAAAA8D8==", "not strict base64", id="excess-padding"),
            pytest.param("selection.scores", "AAAA AAA", "not strict base64", id="whitespace"),
            pytest.param("centroid", "AAAAAAAA8D\u00e9", "not strict base64", id="non-ascii"),
            pytest.param("centroid", [1.0, 2.0], "expected a base64 string", id="json-list"),
            pytest.param("selection.mask", 3, "expected a base64 string", id="json-number"),
        ],
    )
    def test_corrupt_array_is_a_located_format_error(self, model, tmp_path, where, text, match):
        """Bad base64, a ragged byte length or a non-string array names its field."""
        path = tmp_path / "model.json"
        payload = _saved_payload(model, path)
        *parents, key = where.split(".")
        node = payload
        for parent in parents:
            node = node[parent]
        node[key] = text
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=f"model.{where}: .*{match}"):
            load_model(str(path))

    @pytest.mark.parametrize("where", ["centroid", "selection.mask"])
    def test_noncanonical_base64_is_a_located_format_error(self, model, tmp_path, where):
        """Nonzero unused bits in the final quartet spell the same bytes a second way."""
        canonical, noncanonical = "AAAAAAAA8D8=", "AAAAAAAA8D9="
        assert base64.b64decode(noncanonical, validate=True) == base64.b64decode(canonical)
        path = tmp_path / "model.json"
        payload = _saved_payload(model, path)
        *parents, key = where.split(".")
        node = payload
        for parent in parents:
            node = node[parent]
        node[key] = noncanonical
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=f"model.{where}: not canonical base64 .*'8D9='"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "where, key, value",
        [("model", "foo", 1), ("model.selection", "bar", [1, 2])],
        ids=["top-level", "selection"],
    )
    def test_a_key_save_model_never_writes_is_refused(self, model, tmp_path, where, key, value):
        """Each used to load without error."""
        path = tmp_path / "model.json"
        payload = _saved_payload(model, path)
        node = payload if where == "model" else payload["selection"]
        node[key] = value
        path.write_text(json.dumps(payload))
        message = rf"^{where}\.{key}: the file has {re.escape(json.dumps(value))} where save_model writes nothing$"
        with pytest.raises(FormatError, match=message):
            load_model(str(path))

    def test_v1_file_is_refused_with_a_retrain_hint(self, model, tmp_path):
        """A decimal-array v1 file is refused with a hint to retrain from its config."""
        path = tmp_path / "model.json"
        payload = _saved_payload(model, path)
        v1 = dict(
            payload,
            format="dnt-model-v1",
            selection={"scores": model.selection.scores.tolist(),
                       "mask": model.selection.mask.tolist()},
            metric=model.metric.matrix.reshape(-1).tolist(),
            centroid=model.centroid.tolist(),
            null_distances=model.null_distances.tolist(),
        )
        old = tmp_path / "v1.json"
        old.write_text(json.dumps(v1, sort_keys=True))
        with pytest.raises(
            UnsupportedVersionError, match="'dnt-model-v1'.*'dnt-model-v2'.*dnt train.*config"
        ):
            load_model(str(old))

    def test_arrays_are_little_endian_base64(self, tmp_path):
        """<f8 1.0 is AAAAAAAA8D8=, <i8 1 is AQAAAAAAAAA=, and -0.0 keeps its sign."""
        base = train(tiny_config(d=1))
        pinned = dataclasses.replace(
            base,
            selection=SelectionModel(base.selection.scores, np.array([1])),
            metric=MetricMatrix.identity(1),
            centroid=np.array([-0.0]),
        )
        path = tmp_path / "model.json"
        payload = _saved_payload(pinned, path)
        assert payload["metric"] == "AAAAAAAA8D8="
        assert payload["centroid"] == "AAAAAAAAAIA="
        assert payload["selection"]["mask"] == "AQAAAAAAAAA="
        loaded = load_model(str(path))
        assert loaded.centroid.tobytes() == np.array([-0.0]).tobytes()
        for got, want in zip(_arrays(loaded), _arrays(pinned)):
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())

    @pytest.mark.parametrize(
        "key, value, match",
        [
            pytest.param(
                "n", 30, "^model: selection scores 20 features, but RawOrder makes 30 at n=30$",
                id="n-30",
            ),
            pytest.param(
                "alpha", 0.1, r"^model\.alpha: the file has 0\.05 where save_model writes 0\.1$",
                id="alpha-0.1",
            ),
            pytest.param(
                "extractor", "ImageGrid", "^model: selection scores 20 features, but ImageGrid makes",
                id="extractor-ImageGrid",
            ),
        ],
    )
    def test_config_must_match_the_model(self, model, tmp_path, key, value, match):
        """The file's n, alpha and extractor_id have to equal their config values."""
        path = tmp_path / "model.json"
        save_model(model, str(path))
        payload = json.loads(path.read_text())
        payload["config"][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=match):
            load_model(str(path))

    def test_feature_count_must_match_the_config(self, model, tmp_path):
        """A file whose scores are cut to 16 of n=20 features is malformed, not a mismatch."""
        first = SelectionModel(model.selection.scores, np.arange(model.selection.d))
        path = tmp_path / "model.json"
        payload = _saved_payload(dataclasses.replace(model, selection=first), path)
        scores = np.frombuffer(base64.b64decode(payload["selection"]["scores"]), dtype="<f8")
        assert first.mask.max() < 16  # every mask index stays valid
        payload["selection"]["scores"] = base64.b64encode(scores[:16].tobytes()).decode("ascii")
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="selection scores 16 features.*20 at n=20"):
            load_model(str(path))

    def test_undecodable_file_is_a_format_error(self, tmp_path):
        """Bytes outside ASCII are malformed model data, not a crash."""
        path = tmp_path / "model.json"
        path.write_bytes(b'{"format": "\xff"}\n')
        with pytest.raises(FormatError, match="ASCII"):
            load_model(str(path))


# A v2 file written by save_model before load_model read files back by round trip:
# tiny_config(), trained at one BLAS thread.
TINY_FILE = Path(__file__).parent / "data" / "model-v2-tiny.json"
_ARRAY_PATHS = {"selection.scores", "selection.mask", "metric", "centroid", "null_distances"}


def _walk(node: dict, prefix: str = ""):
    """(dotted path, value) of every value below node that is not an object: lists are leaves."""
    for key, value in node.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _walk(value, f"{path}.")
        elif path not in _ARRAY_PATHS:
            yield path, value


LEAVES = dict(_walk(json.loads(TINY_FILE.read_text())))
# The leaves save_model derives from the config and arrays, each with another value of
# its JSON type. Every other leaf is a config setting: another valid value of it is
# another canonical config, which loads.
DERIVED = {
    "format": "dnt-model-v3",
    "extractor_id": "ImageGrid",
    "n": 21,
    "alpha": 0.1,
    "cutoff": 0.5,
}


def _other_number_type(value):
    """value as the other JSON number type, or None if it has no such spelling."""
    if isinstance(value, list):
        return [_other_number_type(item) for item in value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if isinstance(value, int):
        return float(value)
    return int(value) if value.is_integer() else None


RETYPED = {path: v for path, v in LEAVES.items() if _other_number_type(v) not in (None, [None])}


def _retype(node: dict, key: str) -> None:
    node[key] = _other_number_type(node[key])


def _refused(payload: dict, tmp_path, leaf: str) -> None:
    """The payload written to a file is refused with a FormatError that names leaf.

    It names model.<leaf>; or, for a config setting, the setting itself
    (d, lmnn.k), since a default filled in for a removed setting can
    break a config or model invariant, which then refuses the file first.
    """
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError) as caught:
        load_model(str(path))
    names = [f"model.{leaf}"] + [leaf.removeprefix("config.")] * leaf.startswith("config.")
    message = str(caught.value)
    assert any(re.search(rf"(^|[^.\w]){re.escape(name)}(\W|$)", message) for name in names), message


def _edited(path: str, edit) -> dict:
    """The tiny file's payload with edit applied to the object holding path and its last key."""
    payload = json.loads(TINY_FILE.read_text())
    *parents, key = path.split(".")
    node = payload
    for parent in parents:
        node = node[parent]
    edit(node, key)
    return payload


class TestWrittenBack:
    """One rule: a model file loads only if save_model, given what it decodes to, writes it back."""

    def test_a_file_the_earlier_writer_wrote_loads_and_saves_byte_identically(self, tmp_path):
        again = tmp_path / "again.json"
        save_model(load_model(str(TINY_FILE)), str(again))
        assert again.read_bytes() == TINY_FILE.read_bytes()

    def test_the_walk_covers_every_setting(self):
        """Every config field and each stored scalar is a leaf; arrays are not."""
        config = {f"config.{path}" for path, _ in _walk(config_to_dict(tiny_config()))}
        assert set(LEAVES) == config | set(DERIVED)
        assert {"config.lmnn.push_weight", "config.lmnn.margin", "config.h1_spec.params"} <= set(
            RETYPED
        )

    @pytest.mark.parametrize("path", sorted(LEAVES))
    def test_a_removed_leaf_is_refused(self, tmp_path, path):
        _refused(_edited(path, lambda node, key: node.pop(key)), tmp_path, path)

    @pytest.mark.parametrize("path", sorted(RETYPED))
    def test_the_other_number_type_is_refused(self, tmp_path, path):
        """20.0 for 20 and 1 for 1.0; push_weight, margin and params used to load as 1 for 1.0."""
        _refused(_edited(path, _retype), tmp_path, path)

    @pytest.mark.parametrize("path, value", sorted(DERIVED.items()))
    def test_another_value_of_a_derived_leaf_is_refused(self, tmp_path, path, value):
        assert type(value) is type(LEAVES[path]) and value != LEAVES[path]
        _refused(_edited(path, lambda node, key: node.update({key: value})), tmp_path, path)

    @pytest.mark.parametrize(
        "level", ["model", "model.selection", "model.config", "model.config.h1_spec", "model.config.lmnn"]
    )
    def test_an_extra_key_at_each_level_is_refused(self, tmp_path, level):
        payload = json.loads(TINY_FILE.read_text())
        node = payload
        for key in level.split(".")[1:]:
            node = node[key]
        node["extra"] = 1
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=rf"^{re.escape(level)}(\.extra: |: unknown key\(s\) extra;)"):
            load_model(str(path))

    def test_a_mask_off_the_top_d_of_the_scores_is_refused(self, tmp_path):
        """The best-ranked index swapped for the 11th: a valid mask that fit_selection never keeps."""
        payload = json.loads(TINY_FILE.read_text())
        scores = np.frombuffer(base64.b64decode(payload["selection"]["scores"]), dtype="<f8")
        ranked = np.argsort(-scores, kind="stable")
        d = payload["config"]["d"]
        mask = np.sort(np.append(ranked[1:d], ranked[d])).astype("<i8")
        payload["selection"]["mask"] = base64.b64encode(mask.tobytes()).decode("ascii")
        _refused(payload, tmp_path, "selection.mask")

    @pytest.mark.parametrize(
        "edit, source, count",
        [({"h0_pool": 61}, "h0_pool", 61), ({"fresh_null_count": 59}, "fresh_null_count", 59)],
        ids=["h0_pool", "fresh_null_count"],
    )
    def test_a_null_distance_count_off_the_config_is_refused(self, tmp_path, edit, source, count):
        """The edited config is canonical, so only the count check sees it."""
        payload = json.loads(TINY_FILE.read_text())
        payload["config"].update(edit)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        want = rf"^model\.null_distances: the file has 60 values where config\.{source} gives {count}$"
        with pytest.raises(FormatError, match=want):
            load_model(str(path))
