"""Tests for the 15-case power-study harness.

Covers RunConfig validation and training-config resolution, PowerTable
invariants, CSV/markdown emission with byte-identical round-trips,
parse-time failure modes, paired evaluation over shared samples, the
block scoring of the study against the one-sample decide path, the
block form of the PSNR/SSIM null statistics, and digests of the
desk-scale bank and power table.
"""

from __future__ import annotations

import csv
import hashlib
import io

import numpy as np
import pytest

from dnt import (
    ConfigError,
    DntError,
    FormatError,
    InvalidArgumentError,
    ModelMismatchError,
    PowerTable,
    RunConfig,
    Sample,
    TrainConfig,
    calibrate_cutoff,
    case_spec,
    dnt_test,
    emit_table,
    parse_table,
    run_power_study,
    sample,
)
from dnt.classical import statistic_fn
from dnt.engine import _chunks, _squared_distances
from dnt.features import _image_grid_rows
from dnt.imagesim import METRIC_NAMES, SimilarityReference
from dnt.lmnn import LmnnConfig
from dnt.power import METHOD_NAMES, MethodBank, build_methods, null_statistic
from dnt.qq import QQRaster, _render_rows, qq_points, rasterize
from dnt.sampling import SeedScheme, _z_scores

# All ten methods at n=50, where a chunk of replicates holds 128 rows,
# with small k=5 models, so that 130 replicates span a chunk boundary.
SMALL_CFG = RunConfig(
    methods=METHOD_NAMES,
    reps=130,
    n=50,
    calibration_reps=200,
    train=TrainConfig(h0_pool=400, h0_keep_fraction=0.1, h1_count=60, d=20, lmnn=LmnnConfig(k=5)),
    master_seed=11,
)


@pytest.fixture(scope="module")
def ks_cfg() -> RunConfig:
    """A cheap single-method run used by the round-trip tests."""
    return RunConfig(
        methods=("KS",),
        reps=50,
        n=50,
        calibration_reps=2000,
        master_seed=5,
    )


@pytest.fixture(scope="module")
def ks_table(ks_cfg) -> PowerTable:
    return run_power_study(ks_cfg)


@pytest.fixture(scope="module")
def small_bank() -> MethodBank:
    return build_methods(SMALL_CFG)


def case_chunks(case_id: int) -> list[np.ndarray]:
    """The study's (rows, n) blocks of test samples for one case of SMALL_CFG."""
    scheme = SeedScheme(SMALL_CFG.master_seed)
    spec = case_spec(case_id)
    return [chunk for _, chunk in _chunks(spec, SMALL_CFG.reps, SMALL_CFG.n, scheme, "test")]


def one_statistic(bank: MethodBank, name: str, x) -> float:
    """The statistic that decide compares with method name's cutoff for one sample."""
    if name in bank.models:
        return dnt_test(x, bank.models[name]).statistic
    if name in METRIC_NAMES:
        return bank.reference.statistic(rasterize(qq_points(x)), name)
    return statistic_fn(name)(x).calibration_value


def minimal_table(value: float = 0.1) -> PowerTable:
    """A hand-built single-method table covering all fifteen cases."""
    fractions = {case_id: {"KS": value} for case_id in range(1, 16)}
    return PowerTable(methods=("KS",), fractions=fractions, mean_row={"KS": value})


def roster_csv(methods: tuple[str, ...]) -> str:
    """A table file written as emit_table writes one, with a 0.100 column per name in methods."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["case", "label", *methods])
    for case_id in range(1, 16):
        writer.writerow([case_id, case_spec(case_id).label, *["0.100"] * len(methods)])
    writer.writerow(["mean", "", *["0.100"] * len(methods)])
    return buffer.getvalue()


# Each holder of a method list, the error it raises, and a call that builds it from a list.
ROSTER_HOLDERS = {
    "RunConfig": (ConfigError, lambda m: RunConfig(methods=m)),
    "MethodBank": (InvalidArgumentError, lambda m: MethodBank(m, 50, dict.fromkeys(m, 1.0), {})),
    "PowerTable": (
        InvalidArgumentError,
        lambda m: PowerTable(
            m, {c: dict.fromkeys(m, 0.1) for c in range(1, 16)}, dict.fromkeys(m, 0.1)
        ),
    ),
    "parse_table": (FormatError, lambda m: parse_table(roster_csv(m))),
}


@pytest.mark.parametrize("holder", ROSTER_HOLDERS)
@pytest.mark.parametrize(
    "methods, message",
    [
        ((), "methods must be nonempty"),
        (("KS", "Foo"), "unknown methods Foo; valid methods are DNT-raw, DNT-image, KS, AD"),
        (("KS", "KS"), "methods must not repeat"),
    ],
    ids=["empty", "unknown", "repeated"],
)
def test_one_roster_rule(holder, methods, message):
    """Runs, banks and tables refuse the same method lists with the same words."""
    error, build = ROSTER_HOLDERS[holder]
    with pytest.raises(error, match=message):
        build(methods)


class TestRunConfig:
    """Validation and training-config resolution."""

    def test_accepts_every_registered_method(self):
        """The full method roster is a valid configuration."""
        cfg = RunConfig(methods=METHOD_NAMES)
        assert cfg.methods == METHOD_NAMES

    def test_rejects_empty_methods(self):
        """At least one method must be requested."""
        with pytest.raises(ConfigError):
            RunConfig(methods=())

    def test_rejects_unknown_method(self):
        """Unregistered method names are reported by name."""
        with pytest.raises(ConfigError, match="Shapiro"):
            RunConfig(methods=("KS", "Shapiro"))

    def test_rejects_duplicate_methods(self):
        """A method may appear only once."""
        with pytest.raises(ConfigError):
            RunConfig(methods=("KS", "KS"))

    def test_rejects_thin_replication(self):
        """Fewer than 50 replicates is refused."""
        with pytest.raises(ConfigError):
            RunConfig(methods=("KS",), reps=49)

    def test_rejects_thin_calibration(self):
        """Fewer than 100 calibration replicates is refused."""
        with pytest.raises(ConfigError):
            RunConfig(methods=("KS",), calibration_reps=99)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("reps", 100.5),
            ("n", 100.0),
            ("calibration_reps", 200.0),
            ("master_seed", 0.5),
            ("master_seed", -1),
            ("master_seed", 2**64),
        ],
    )
    def test_rejects_non_integer_counts_and_seeds(self, field, value):
        """Counts and the seed are integers, and the seed fits in 64 unsigned bits."""
        with pytest.raises(ConfigError, match=field):
            RunConfig(methods=("KS",), **{field: value})

    def test_rejects_a_dnt_method_that_cannot_train(self):
        """Each DNT method's training config is built with the run, not after calibration."""
        with pytest.raises(ConfigError, match="d must be in 1..50"):
            RunConfig(methods=("KS", "SSIM", "DNT-raw"), n=50)
        # The default train block is not checked for a run that trains nothing.
        assert RunConfig(methods=("KS",), n=50).n == 50

    def test_resolved_train_forces_the_run_sample_size(self):
        """train_config always trains at the run's n."""
        cfg = RunConfig(methods=("KS",), n=40, train=TrainConfig(n=100, d=20))
        assert cfg.train_config("DNT-raw").n == 40

    def test_resolved_train_inherits_an_unset_seed(self):
        """An unset training seed falls back to the run's master seed."""
        cfg = RunConfig(methods=("KS",), master_seed=77)
        assert cfg.train_config("DNT-raw").master_seed == 77

    def test_resolved_train_keeps_an_explicit_seed(self):
        """A training seed set by hand is left alone."""
        cfg = RunConfig(
            methods=("KS",), master_seed=77, train=TrainConfig(master_seed=3)
        )
        assert cfg.train_config("DNT-raw").master_seed == 3

    def test_dnt_image_trains_at_a_sample_size_below_d(self):
        """Only RawOrder needs d <= n: the run's n is checked with each method's extractor."""
        cfg = RunConfig(methods=("DNT-image",), n=50)
        train_cfg = cfg.train_config("DNT-image")
        assert (train_cfg.n, train_cfg.extractor, train_cfg.d) == (50, "ImageGrid", 100)
        with pytest.raises(ConfigError, match="d must be in 1..50"):
            RunConfig(methods=("DNT-raw",), n=50)

    def test_train_config_names_a_trained_method(self):
        """A statistic has no training config: a ConfigError, not a bare KeyError."""
        with pytest.raises(ConfigError, match="KS is not a trained method"):
            RunConfig(methods=("KS",)).train_config("KS")


class TestPowerTable:
    """Structural invariants of the results table."""

    def test_well_formed_table_constructs(self):
        """A complete single-method table is accepted."""
        assert minimal_table().mean_row["KS"] == 0.1

    def test_rejects_missing_cases(self):
        """The table must cover exactly cases 1 through 15."""
        table = minimal_table()
        fractions = {k: v for k, v in table.fractions.items() if k != 7}
        with pytest.raises(InvalidArgumentError):
            PowerTable(
                methods=table.methods,
                fractions=fractions,
                mean_row=table.mean_row,
            )

    def test_rejects_row_method_mismatch(self):
        """Every case row must score exactly the declared methods."""
        table = minimal_table()
        fractions = dict(table.fractions)
        fractions[3] = {"AD": 0.1}
        with pytest.raises(InvalidArgumentError):
            PowerTable(
                methods=table.methods,
                fractions=fractions,
                mean_row=table.mean_row,
            )

    @pytest.mark.parametrize("value", [-0.01, 1.01])
    def test_rejects_fractions_outside_the_unit_interval(self, value):
        """Rejection fractions are probabilities."""
        with pytest.raises(InvalidArgumentError):
            minimal_table(value)

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan")])
    def test_rejects_a_mean_outside_the_unit_interval(self, value):
        """The mean row is checked as the case rows are."""
        table = minimal_table()
        with pytest.raises(InvalidArgumentError, match="mean row"):
            PowerTable(table.methods, table.fractions, mean_row={"KS": value})

    def test_rejects_repeated_methods(self):
        """A method named twice would have one column overwrite the other."""
        table = minimal_table()
        fractions = {case_id: {"KS": 0.1} for case_id in table.fractions}
        with pytest.raises(InvalidArgumentError, match="must not repeat"):
            PowerTable(("KS", "KS"), fractions, mean_row={"KS": 0.1})

    def test_rejects_a_label_other_than_the_case_label(self):
        """Each case's label is its benchmark label, derived, so no table can carry another."""
        table = minimal_table()
        assert table.labels == {case_id: case_spec(case_id).label for case_id in range(1, 16)}
        labels = {**table.labels, 1: "Cauchy"}
        with pytest.raises(TypeError, match="labels"):
            PowerTable(table.methods, table.fractions, table.mean_row, labels=labels)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("reps", 0, "reps must be at least 1"),
            ("reps", 100.0, "reps must be an integer"),
            ("n", 2, "n must be at least 3"),
            ("n", "100", "n must be an integer"),
            ("master_seed", -1, "master_seed must fit in 64 unsigned bits"),
            ("master_seed", 2**64, "master_seed must fit in 64 unsigned bits"),
            ("master_seed", True, "master_seed must be an integer"),
        ],
        ids=["reps-0", "reps-float", "n-2", "n-text", "seed-negative", "seed-2**64", "seed-bool"],
    )
    def test_rejects_a_bad_run_description(self, field, value, message):
        """reps, n and master_seed used to be stored unchecked."""
        table = minimal_table()
        with pytest.raises(InvalidArgumentError, match=f"^{message}"):
            PowerTable(table.methods, table.fractions, table.mean_row, **{field: value})

    def test_stores_run_description_as_plain_integers(self):
        """A parsed table keeps None for all three."""
        table = parse_table(roster_csv(("KS",)))
        assert (table.reps, table.n, table.master_seed) == (None, None, None)
        stored = PowerTable(
            table.methods, table.fractions, table.mean_row, np.int64(500), np.int32(100), np.uint64(7)
        )
        assert [(type(v), v) for v in (stored.reps, stored.n, stored.master_seed)] == [
            (int, 500), (int, 100), (int, 7)
        ]

    def test_rejects_mean_row_mismatch(self):
        """The mean row must score exactly the declared methods."""
        table = minimal_table()
        with pytest.raises(InvalidArgumentError):
            PowerTable(
                methods=table.methods,
                fractions=table.fractions,
                mean_row={"AD": 0.1},
            )


class TestRunPowerStudy:
    """Paired evaluation over the fifteen benchmark cases."""

    def test_table_covers_all_cases_with_labels(self, ks_table):
        """The run reports every case under its distribution label."""
        assert sorted(ks_table.fractions) == list(range(1, 16))
        assert ks_table.labels[1] == "t(2)"
        assert ks_table.labels[15] == "N(0,1)"

    def test_mean_row_averages_the_alternative_cases(self, ks_table):
        """The mean row covers cases 1 through 14, not the null case."""
        expected = sum(ks_table.fractions[c]["KS"] for c in range(1, 15)) / 14.0
        assert ks_table.mean_row["KS"] == pytest.approx(expected, abs=1e-12)

    def test_null_case_rejects_near_the_level(self, ks_table):
        """Case 15 rejection stays in the neighbourhood of alpha."""
        assert 0.0 <= ks_table.fractions[15]["KS"] <= 0.2

    def test_heavy_tails_reject_more_than_null(self, ks_table):
        """The t(2) case fires far more often than the null case."""
        assert ks_table.fractions[1]["KS"] > ks_table.fractions[15]["KS"] + 0.3

    def test_runs_are_reproducible(self, ks_cfg, ks_table):
        """The same configuration emits a byte-identical table."""
        again = run_power_study(ks_cfg)
        assert emit_table(again) == emit_table(ks_table)

    def test_prebuilt_bank_must_match_the_config(self, ks_cfg):
        """A bank built for other methods is rejected up front."""
        bank = MethodBank(("AD",), ks_cfg.n, {"AD": 1.0}, {})
        with pytest.raises(InvalidArgumentError):
            run_power_study(ks_cfg, bank)

    def test_prebuilt_bank_must_match_the_sample_size(self, ks_cfg):
        """A bank calibrated at n=50 does not run a study at n=100."""
        bank = build_methods(ks_cfg)
        with pytest.raises(InvalidArgumentError, match="n=50"):
            run_power_study(RunConfig(methods=("KS",), reps=50, n=100, master_seed=5), bank)

    @pytest.mark.parametrize("name, n", [("DNT-raw", 50), ("DNT-image", 60)])
    def test_bank_refuses_a_model_of_another_kind_or_size(self, small_bank, name, n):
        """DNT-raw scores RawOrder features, and every model is for the bank's n."""
        with pytest.raises(InvalidArgumentError, match=name):
            MethodBank((name,), n, {}, {name: small_bank.models["DNT-image"]})

    @pytest.mark.parametrize(
        "methods, n, cutoffs, model, message",
        [
            (("KS",), 50, {}, None, "KS cutoff must be a finite number"),
            (("DNT-raw",), 50, {"DNT-raw": 1.0}, None, "DNT-raw needs a RawOrder model"),
            (("KS",), 50, {"KS": float("nan")}, None, "KS cutoff must be a finite number"),
            (("KS",), 50.0, {"KS": 1.0}, None, "n must be an integer"),
            (("KS",), 2, {"KS": 1.0}, None, "n must be at least 3"),
            (("KS",), 50, {"KS": 1.0, "AD": 1.0}, None, "cutoff or model of AD"),
            (("KS",), 50, {"KS": 1.0}, "DNT-raw", "cutoff or model of DNT-raw"),
            (("KS", "DNT-raw"), 50, {"KS": 1.0, "DNT-raw": 1.0}, "DNT-raw", "of DNT-raw"),
        ],
        ids=["no-cutoff", "cutoff-for-a-model", "nan-cutoff", "float-n", "n-below-3",
             "stray-cutoff", "stray-model", "cutoff-beside-a-model"],
    )
    def test_bank_refuses_a_method_set_it_cannot_score(
        self, small_bank, methods, n, cutoffs, model, message
    ):
        """Each such bank used to construct, then raise a bare KeyError or never reject."""
        models = {} if model is None else {model: small_bank.models[model]}
        with pytest.raises(InvalidArgumentError, match=message):
            MethodBank(methods, n, cutoffs, models)

    def test_hand_built_bank_scores_like_the_built_one(self, small_bank):
        """The PSNR/SSIM reference is derived from n, so the four values make the same bank."""
        bank = MethodBank(small_bank.methods, small_bank.n, small_bank.cutoffs, small_bank.models)
        assert bank.methods == METHOD_NAMES
        for chunk in case_chunks(5):
            got, want = bank.statistic_rows(chunk), small_bank.statistic_rows(chunk)
            assert all(got[name].tobytes() == want[name].tobytes() for name in METHOD_NAMES)
            for x in chunk[:8]:
                assert bank.decide(x) == small_bank.decide(x)

    def test_decide_refuses_a_sample_of_another_size(self, ks_cfg):
        """decide refuses what dnt_test refuses: a sample of another n."""
        bank = build_methods(ks_cfg)
        with pytest.raises(ModelMismatchError, match="n=50"):
            bank.decide(sample(case_spec(15), 100, seed=1))

    def test_prebuilt_bank_reproduces_the_internal_build(self, ks_cfg, ks_table):
        """Passing the bank explicitly changes nothing in the output."""
        bank = build_methods(ks_cfg)
        assert emit_table(run_power_study(ks_cfg, bank)) == emit_table(ks_table)

    def test_decide_reports_every_method(self, ks_cfg):
        """One decide call yields one verdict per configured method."""
        bank = build_methods(ks_cfg)
        x = sample(case_spec(15), ks_cfg.n, seed=1)
        verdicts = bank.decide(x)
        assert set(verdicts) == {"KS"}
        assert isinstance(verdicts["KS"], bool)

    def test_every_method_is_calibrated_at_the_training_alpha(self):
        """At train.alpha = 0.2 each statistic gets its 0.2 cutoff, as the DNT model does."""
        cfg = RunConfig(
            methods=("DNT-raw", "KS", "PSNR"),
            reps=50,
            n=20,
            calibration_reps=200,
            train=TrainConfig(
                h0_pool=100, h0_keep_fraction=0.1, h1_count=30, d=10, alpha=0.2,
                lmnn=LmnnConfig(k=5, max_iters=5),
            ),
            master_seed=3,
        )
        bank = build_methods(cfg)
        assert bank.models["DNT-raw"].alpha == 0.2
        for name in ("KS", "PSNR"):
            at = {a: calibrate_cutoff(null_statistic(name, 20), 20, 200, a, seed=3) for a in (0.2, 0.05)}
            assert bank.cutoffs[name] == at[0.2] != at[0.05], name


class TestBlockScoring:
    """statistic_rows, the study's block path, against the one-sample decide path."""

    @pytest.mark.parametrize("case_id", [1, 5, 11, 15])
    def test_block_statistics_are_decide_statistics(self, small_bank, case_id):
        """Bytes of every method's statistics over a 128-row chunk and the 2-row rest."""
        chunks = case_chunks(case_id)
        assert [len(chunk) for chunk in chunks] == [128, 2]
        blocks = [small_bank.statistic_rows(chunk) for chunk in chunks]
        samples = [Sample(x) for chunk in chunks for x in chunk]
        verdicts = [small_bank.decide(x) for x in samples]
        for name in METHOD_NAMES:
            got = np.concatenate([block[name] for block in blocks])
            want = np.array([one_statistic(small_bank, name, x) for x in samples])
            assert got.tobytes() == want.tobytes(), name
            assert list(got > small_bank.cutoff(name)) == [v[name] for v in verdicts], name

    @pytest.mark.parametrize("name", ["DNT-raw", "DNT-image"])
    def test_strided_selection_is_scored_in_c_order(self, small_bank, name):
        """features[:, mask] is F-ordered; each row must still give dnt_test's bits."""
        model = small_bank.models[name]
        chunk = case_chunks(1)[0]
        z = _z_scores(chunk, ascending=True)
        features = z if name == "DNT-raw" else _image_grid_rows(_render_rows(z))
        assert not features[:, model.selection.mask].flags.c_contiguous
        want = np.array([dnt_test(x, model).statistic for x in chunk])
        got = _squared_distances(
            features, model.selection.mask, model.centroid, model.metric.matrix
        )
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", [*METHOD_NAMES, "all"])
    def test_constant_row_raises_what_decide_raises(self, small_bank, name):
        """One constant row refuses the chunk with decide's error type for that row."""
        methods = METHOD_NAMES if name == "all" else (name,)
        cutoffs = {k: v for k, v in small_bank.cutoffs.items() if k in methods}
        models = {k: v for k, v in small_bank.models.items() if k in methods}
        bank = MethodBank(methods, small_bank.n, cutoffs, models)
        block = np.concatenate([case_chunks(15)[1]] * 3)
        block[3] = 2.5
        with pytest.raises(DntError) as one:
            bank.decide(block[3])
        with pytest.raises(DntError) as whole:
            bank.statistic_rows(block)
        assert type(whole.value) is type(one.value)


    @pytest.mark.parametrize("methods", [("KS", "SSIM"), ("PSNR", "SSIM")], ids=["wide", "nan"])
    def test_a_block_decide_refuses_is_refused(self, small_bank, methods):
        """A (4, 60) block at n=50 and a block with a NaN used to be scored without error."""
        bank = MethodBank(methods, small_bank.n, {m: small_bank.cutoffs[m] for m in methods}, {})
        chunk = case_chunks(15)[0]
        if "KS" in methods:
            block = np.hstack([chunk[:4], chunk[4:8, :10]])
            error, message = ModelMismatchError, "built for n=50, got a sample of n=60"
        else:
            block = chunk[:4].copy()
            block[1, 3] = np.nan
            error, message = InvalidArgumentError, "sample values must be finite"
        with pytest.raises(error, match=message):
            bank.decide(block[1])
        with pytest.raises(error, match=message):
            bank.statistic_rows(block)


class TestSimilarityNullStatistic:
    """The PSNR and SSIM statistics that calibrate_cutoff scores a chunk at a time."""

    @pytest.mark.parametrize("name", ["PSNR", "SSIM"])
    @pytest.mark.parametrize("n", [3, 11, 100])
    def test_block_form_matches_the_per_sample_form(self, name, n):
        statistic = null_statistic(name, n)
        chunk = [sample(case_spec(case), n, seed) for case in (1, 5, 11, 15) for seed in range(4)]
        block = statistic.calibration_rows(np.stack([x.values for x in chunk]))
        assert block.tobytes() == np.array([statistic(x) for x in chunk]).tobytes()

    @pytest.mark.parametrize("name", ["PSNR", "SSIM"])
    def test_block_form_matches_against_any_reference(self, name):
        """A reference of random levels, lit far beyond any Q-Q raster."""
        levels = np.random.default_rng(3).integers(0, 3, (128, 128))
        statistic = null_statistic(name, 40, SimilarityReference(QQRaster(levels, (0.0, 1.0))))
        chunk = [sample(case_spec(case), 40, 7) for case in range(1, 16)]
        block = statistic.calibration_rows(np.stack([x.values for x in chunk]))
        assert block.tobytes() == np.array([statistic(x) for x in chunk]).tobytes()

    def test_cutoffs_are_pinned(self):
        """n=100, 1,000 reps, seed 0: the reprs of the per-sample render loop."""
        pinned = {"PSNR": "-16.24749537260843", "SSIM": "-0.8682915709654694"}
        got = {
            name: repr(calibrate_cutoff(null_statistic(name, 100), 100, 1000, 0.05, seed=0))
            for name in pinned
        }
        assert got == pinned


class TestEmitAndParse:
    """Serialization of result tables."""

    def test_csv_shape_and_header(self, ks_table):
        """The CSV has a header, fifteen case rows, and a mean row."""
        lines = emit_table(ks_table).splitlines()
        assert lines[0] == "case,label,KS"
        assert len(lines) == 17
        assert lines[-1].startswith("mean,,")

    def test_csv_values_use_three_decimals(self, ks_table):
        """Fractions are printed with exactly three decimal places."""
        first = emit_table(ks_table).splitlines()[1].split(",")
        assert len(first[-1].split(".")[1]) == 3

    def test_markdown_shape(self, ks_table):
        """The markdown table mirrors the CSV layout."""
        lines = emit_table(ks_table, format="markdown").splitlines()
        assert lines[0] == "| Case | Label | KS |"
        assert set(lines[1]) <= set("|-")
        assert len(lines) == 18
        assert lines[-1].startswith("| Mean |")

    def test_round_trip_is_byte_identical(self, ks_table):
        """emit -> parse -> emit reproduces the exact CSV text."""
        text = emit_table(ks_table)
        assert emit_table(parse_table(text)) == text

    def test_parse_keeps_the_mean_as_written(self, ks_table):
        """Parsing trusts the emitted mean instead of recomputing it."""
        parsed = parse_table(emit_table(ks_table))
        assert parsed.mean_row["KS"] == float(f"{ks_table.mean_row['KS']:.3f}")

    def test_rejects_unknown_format(self, ks_table):
        """Only csv and markdown are understood."""
        with pytest.raises(InvalidArgumentError):
            emit_table(ks_table, format="html")

    def test_parse_rejects_wrong_header(self):
        """A table without the case/label header is refused."""
        with pytest.raises(FormatError):
            parse_table("foo,bar,KS\n")

    def test_parse_rejects_missing_rows(self, ks_table):
        """Dropping a case row breaks the expected row count."""
        lines = emit_table(ks_table).splitlines()
        with pytest.raises(FormatError):
            parse_table("\n".join(lines[:5] + lines[6:]) + "\n")

    def test_parse_rejects_malformed_numbers(self, ks_table):
        """A non-numeric fraction is reported as a format error."""
        text = emit_table(ks_table).replace("0.", "x.", 1)
        with pytest.raises(FormatError):
            parse_table(text)

    def test_parse_rejects_a_repeated_method(self, ks_table):
        """case,label,KS,KS used to parse, the last column winning, and emit both columns."""
        lines = emit_table(ks_table).splitlines()
        doubled = [line + line[line.rindex(",") :] for line in lines]
        assert doubled[0] == "case,label,KS,KS"
        with pytest.raises(FormatError, match="must not repeat"):
            parse_table("\n".join(doubled) + "\n")

    @pytest.mark.parametrize("mean", ["nan", "7"])
    def test_parse_rejects_a_mean_outside_the_unit_interval(self, ks_table, mean):
        lines = emit_table(ks_table).splitlines()
        assert lines[-1].startswith("mean,,")
        lines[-1] = f"mean,,{mean}"
        with pytest.raises(FormatError, match="mean row"):
            parse_table("\n".join(lines) + "\n")

    def test_parse_rejects_a_case_cell_outside_the_unit_interval(self, ks_table):
        """An out-of-range cell is a format error, not an InvalidArgumentError."""
        lines = emit_table(ks_table).splitlines()
        case, label, _ = lines[3].split(",")
        lines[3] = f"{case},{label},1.5"
        with pytest.raises(FormatError, match="case 3 row"):
            parse_table("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "line, old, new, message",
        [
            (1, "1,t(2),", "1,Cauchy,", "^power table: line 2 reads '1,Cauchy,.*writes '1,t\\(2\\),"),
            (15, "15,", "1_5,", "^power table: line 16 reads '1_5,.*writes '15,"),
            (15, "15,", "015,", "^power table: line 16 reads '015,.*writes '15,"),
            (15, "15,", " 15,", "^power table: line 16 reads ' 15,.*writes '15,"),
        ],
        ids=["Cauchy", "1_5", "015", "space-15"],
    )
    def test_parse_rejects_a_case_row_off_the_benchmark(self, ks_table, line, old, new, message):
        """1,Cauchy,... used to parse as case 1, and 1_5 as case 15, emitted back as 15."""
        lines = emit_table(ks_table).splitlines()
        assert lines[line].startswith(old)
        lines[line] = new + lines[line][len(old) :]
        with pytest.raises(FormatError, match=message):
            parse_table("\n".join(lines) + "\n")

    def test_parse_rejects_a_fraction_not_written_to_three_decimals(self):
        """0.1 for 0.100 used to parse, and emit back as 0.100."""
        lines = roster_csv(("KS",)).splitlines()
        assert lines[5].endswith(",0.100")
        lines[5] = lines[5].removesuffix("00")
        with pytest.raises(FormatError, match=r"""^power table: line 6 reads '5,"U\(0,1\)",0\.1', but"""):
            parse_table("\n".join(lines) + "\n")

    def test_parse_reads_crlf_line_ends(self, ks_table):
        """Lines are compared after splitlines, so a table saved with CRLF ends reads."""
        text = emit_table(ks_table)
        assert emit_table(parse_table(text.replace("\n", "\r\n"))) == text

    def test_parse_rejects_missing_mean_row(self, ks_table):
        """The last row must be the mean row."""
        text = emit_table(ks_table).replace("mean,", "avg,")
        with pytest.raises(FormatError):
            parse_table(text)

    def test_parse_rejects_a_labelled_mean_row(self, ks_table):
        """mean,x,... used to parse and emit back as mean,,..."""
        text = emit_table(ks_table).replace("mean,,", "mean,x,")
        with pytest.raises(FormatError, match="^power table: line 17 reads 'mean,x,.*writes 'mean,,"):
            parse_table(text)


class TestDeskDigests:
    """SHA-256 pins of the desk-scale bank and power table, at k=25.

    TestModelDigests trains at k=5, where no pair has many active
    triplets; these read the session fixtures, so they cost no training.
    The model digest covers what TestModelDigests covers: selection
    scores and mask, metric, centroid, null distances and cutoff.
    """

    MODELS = {
        "DNT-raw": "4dc0985b73df42713785ce2cb77d0116ba20859966c926be8f40389049156525",
        "DNT-image": "78f56dc5e6c69192f48faa1055e53c55449857fbd023a4daea1733d466fcb192",
    }
    CSV = "782e4a8e25a5359044b133531ba45a58b48f75e75db3a2a764e6318df280de7a"

    @pytest.mark.parametrize("method", sorted(MODELS))
    def test_model_digest(self, full_bank, method):
        m = full_bank[0].models[method]
        digest = hashlib.sha256()
        for array in (
            m.selection.scores,
            m.selection.mask,
            m.metric.matrix,
            m.centroid,
            m.null_distances,
            np.array([m.cutoff]),
        ):
            digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == self.MODELS[method]

    def test_power_csv_digest(self, desk_table):
        csv = emit_table(desk_table[0]).encode()
        assert hashlib.sha256(csv).hexdigest() == self.CSV
