"""Tests for training, testing, calibration, and model persistence.

Covers TrainConfig validation, the train/dnt_test cycle at desk scale,
calibrate_cutoff rank semantics against a hand-rolled replay of the
calibration stream, TestReport invariants and p-values, and the JSON
model format with its base64 binary arrays, including its failure modes.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math

import numpy as np
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
    sample,
    save_model,
    train,
)
from dnt.engine import (
    MODEL_FORMAT_VERSION,
    config_from_dict,
    config_to_dict,
    extract_features,
)


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

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_rejects_bad_keep_fraction(self, fraction):
        """The keep fraction must lie in (0, 1]."""
        with pytest.raises(ConfigError):
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

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.05])
    def test_rejects_bad_alpha(self, alpha):
        """The test level must lie strictly inside (0, 1)."""
        with pytest.raises(ConfigError):
            tiny_config(alpha=alpha)

    @pytest.mark.parametrize("field", ["h0_pool", "h1_count"])
    def test_rejects_degenerate_population_sizes(self, field):
        """Both simulated populations need at least two members."""
        with pytest.raises(ConfigError):
            tiny_config(**{field: 1})

    def test_rejects_negative_fresh_null_count(self):
        """The fresh calibration count cannot be negative."""
        with pytest.raises(ConfigError):
            tiny_config(fresh_null_count=-1)


class TestTestReport:
    """The per-sample verdict record."""

    def test_reject_flag_must_match_the_comparison(self):
        """A report whose flag contradicts statistic > cutoff is invalid."""
        with pytest.raises(InvalidArgumentError):
            TestReport(statistic=1.0, cutoff=2.0, reject=True, alpha=0.05)
        with pytest.raises(InvalidArgumentError):
            TestReport(statistic=3.0, cutoff=2.0, reject=False, alpha=0.05)

    def test_boundary_statistic_does_not_reject(self):
        """A statistic exactly at the cutoff is retained."""
        report = TestReport(statistic=2.0, cutoff=2.0, reject=False, alpha=0.05)
        assert not report.reject

    def test_summary_names_the_verdict(self):
        """The summary line states accept or reject with the numbers."""
        kept = TestReport(statistic=1.0, cutoff=2.0, reject=False, alpha=0.05)
        fired = TestReport(statistic=3.0, cutoff=2.0, reject=True, alpha=0.05)
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
            edited = dataclasses.replace(model, null_distances=null, cutoff=float(null[rank - 1]))
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

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_rejects_degenerate_alpha(self, alpha):
        """Alpha on the boundary has no order statistic to pick."""
        with pytest.raises(InvalidArgumentError):
            calibrate_cutoff(ks_statistic, 30, 200, alpha, seed=0)


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


class TestModelInvariants:
    """Direct construction rules for DNTModel."""

    def test_rejects_unsorted_null_distances(self, model):
        """Null distances must be stored in ascending order."""
        with pytest.raises(InvalidArgumentError):
            DNTModel(
                extractor_id=model.extractor_id,
                selection=model.selection,
                metric=model.metric,
                centroid=model.centroid,
                null_distances=model.null_distances[::-1].copy(),
                cutoff=model.cutoff,
                alpha=model.alpha,
                n=model.n,
                config=model.config,
            )

    def test_rejects_cutoff_off_the_quantile(self, model):
        """The stored cutoff must equal the null-quantile order statistic."""
        with pytest.raises(InvalidArgumentError):
            DNTModel(
                extractor_id=model.extractor_id,
                selection=model.selection,
                metric=model.metric,
                centroid=model.centroid,
                null_distances=model.null_distances,
                cutoff=model.cutoff * 1.01,
                alpha=model.alpha,
                n=model.n,
                config=model.config,
            )

    def test_rejects_centroid_dimension_mismatch(self, model):
        """The centroid must live in the selected feature space."""
        with pytest.raises(InvalidArgumentError):
            DNTModel(
                extractor_id=model.extractor_id,
                selection=model.selection,
                metric=model.metric,
                centroid=np.append(model.centroid, 0.0),
                null_distances=model.null_distances,
                cutoff=model.cutoff,
                alpha=model.alpha,
                n=model.n,
                config=model.config,
            )

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
            pytest.param("1e400", "model.cutoff: expected a finite number", id="1e400"),
            pytest.param("-1e400", "model.cutoff: expected a finite number", id="-1e400"),
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

    @pytest.mark.parametrize("key, value", [("n", 30), ("alpha", 0.1), ("extractor", "ImageGrid")])
    def test_config_must_match_the_model(self, model, tmp_path, key, value):
        """n, alpha and extractor_id have to equal their config copies."""
        path = tmp_path / "model.json"
        save_model(model, str(path))
        payload = json.loads(path.read_text())
        payload["config"][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="disagree with config"):
            load_model(str(path))
        with pytest.raises(InvalidArgumentError, match="disagree with config"):
            dataclasses.replace(model, config=dataclasses.replace(model.config, **{key: value}))

    def test_undecodable_file_is_a_format_error(self, tmp_path):
        """Bytes outside ASCII are malformed model data, not a crash."""
        path = tmp_path / "model.json"
        path.write_bytes(b'{"format": "\xff"}\n')
        with pytest.raises(FormatError, match="ASCII"):
            load_model(str(path))
