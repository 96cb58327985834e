"""Tests for the command-line interface.

Covers all five subcommands (train, test, power, render, calibrate),
both config-file formats, and the mapping from failure modes to exit
codes: 0 ok, 1 reject, 2 usage, 3 missing file, 4 bad format, 5 model
mismatch.
"""

from __future__ import annotations

import json

import pytest

from dnt import DistributionSpec, RunConfig, case_spec, load_model, parse_table, sample
from dnt.cli import (
    EXIT_BAD_FORMAT,
    EXIT_MISMATCH,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_REJECT,
    EXIT_USAGE,
    entrypoint,
)
from dnt.power import build_methods

TRAIN_LINES = """\
# training settings for a small model
n = 20
h0_pool = 60
h0_keep_fraction = 0.2
h1_count = 30
d = 10
master_seed = 123
lmnn.k = 5
lmnn.max_iters = 20
"""

TRAIN_JSON = {
    "n": 20,
    "h0_pool": 60,
    "h0_keep_fraction": 0.2,
    "h1_count": 30,
    "d": 10,
    "master_seed": 123,
    "lmnn": {"k": 5, "max_iters": 20},
}

POWER_JSON = {
    "methods": ["KS"],
    "reps": 50,
    "n": 20,
    "calibration_reps": 100,
    "master_seed": 5,
}


def write_sample(path, case_id: int, n: int = 20, seed: int = 0) -> None:
    """Dump one benchmark sample as newline-delimited reals."""
    x = sample(case_spec(case_id), n, seed=seed)
    path.write_text("".join(f"{float(v)!r}\n" for v in x.values))


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    """A model trained once through the CLI itself."""
    root = tmp_path_factory.mktemp("cli-model")
    config = root / "train.cfg"
    config.write_text(TRAIN_LINES)
    out = root / "model.json"
    assert entrypoint(["train", "--config", str(config), "--out", str(out)]) == EXIT_OK
    return out


class TestTrainCommand:
    """Training models from config files."""

    def test_writes_a_loadable_model(self, model_path, capsys):
        """The output file parses back into a model of the right size."""
        model = load_model(str(model_path))
        assert model.n == 20
        assert model.selection.d == 10

    def test_line_and_json_configs_agree(self, model_path, tmp_path):
        """key=value lines and a JSON object train identical models."""
        config = tmp_path / "train.json"
        config.write_text(json.dumps(TRAIN_JSON))
        out = tmp_path / "model.json"
        assert entrypoint(["train", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == model_path.read_bytes()

    def test_unknown_config_key_is_a_usage_error(self, tmp_path, capsys):
        """A misspelled key names itself in the error message."""
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_LINES + "h0_keep_fracton = 0.2\n")
        assert entrypoint(
            ["train", "--config", str(config), "--out", str(tmp_path / "m.json")]
        ) == EXIT_USAGE
        assert "h0_keep_fracton" in capsys.readouterr().err

    def test_non_numeric_value_is_a_usage_error(self, tmp_path):
        """An unparseable integer or undecodable text is rejected before training."""
        config = tmp_path / "train.cfg"
        for text in (b"n = twenty\n", b"n = \xff\n"):
            config.write_bytes(text)
            assert entrypoint(
                ["train", "--config", str(config), "--out", str(tmp_path / "m.json")]
            ) == EXIT_USAGE

    def test_invalid_settings_are_a_usage_error(self, tmp_path):
        """Config-level validation failures map to the usage exit code."""
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_LINES.replace("d = 10", "d = 21"))
        assert entrypoint(
            ["train", "--config", str(config), "--out", str(tmp_path / "m.json")]
        ) == EXIT_USAGE

    def test_missing_config_file(self, tmp_path):
        """A nonexistent or directory config path maps to the missing-file code."""
        for config in (tmp_path / "nope.cfg", tmp_path):
            assert entrypoint(
                ["train", "--config", str(config), "--out", str(tmp_path / "m.json")]
            ) == EXIT_MISSING_FILE

    @pytest.mark.parametrize(
        "h1_spec",
        [{"kind": "Normal", "params": 5}, {"kind": "Normal", "params": ["a", "b"]}],
    )
    def test_malformed_h1_spec_is_a_usage_error(self, tmp_path, capsys, h1_spec):
        """A bad h1_spec object is located instead of crashing."""
        config = tmp_path / "train.json"
        config.write_text(json.dumps({**TRAIN_JSON, "h1_spec": h1_spec}))
        assert entrypoint(
            ["train", "--config", str(config), "--out", str(tmp_path / "m.json")]
        ) == EXIT_USAGE
        assert "config.h1_spec.params" in capsys.readouterr().err

    def test_repeated_line_key_is_a_usage_error(self, tmp_path, capsys):
        """A key=value file may set each key once; the error gives the line."""
        config = tmp_path / "train.cfg"
        for extra, where in (("n = 30\n", "line 10: repeated key 'n'"),
                             ("lmnn.k = 6\n", "line 10: repeated key 'lmnn.k'"),
                             ("h1_spec.kind = Normal\nh1_spec = t(5)\n",
                              "line 11: repeated key 'h1_spec'")):
            config.write_text(TRAIN_LINES + extra)
            assert entrypoint(
                ["train", "--config", str(config), "--out", str(tmp_path / "m.json")]
            ) == EXIT_USAGE
            assert where in capsys.readouterr().err

    def test_repeated_json_key_is_a_usage_error(self, tmp_path, capsys):
        """A JSON config may set each key once, at every nesting level."""
        config = tmp_path / "train.json"
        text = json.dumps(TRAIN_JSON)
        for repeated, key in ((text[:-1] + ', "n": 30}', "'n'"),
                              (text.replace('"k": 5', '"k": 5, "k": 6'), "'k'")):
            config.write_text(repeated)
            assert entrypoint(
                ["train", "--config", str(config), "--out", str(tmp_path / "m.json")]
            ) == EXIT_USAGE
            assert f"repeated key {key}" in capsys.readouterr().err

    def test_object_and_label_h1_spec_agree(self, tmp_path):
        """A benchmark row written as an object trains the label's model."""
        outputs = []
        for lines in ("h1_spec = t(5)\n", "h1_spec.kind = StudentT\nh1_spec.params = 5\n"):
            config = tmp_path / "train.cfg"
            config.write_text(TRAIN_LINES + lines)
            out = tmp_path / f"m{len(outputs)}.json"
            assert entrypoint(["train", "--config", str(config), "--out", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_dotted_h1_spec_trains(self, tmp_path):
        """h1_spec.kind and h1_spec.params lines build the alternative."""
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_LINES + "h1_spec.kind = Normal\nh1_spec.params = 0,2\n")
        out = tmp_path / "m.json"
        assert entrypoint(["train", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert load_model(str(out)).config.h1_spec == DistributionSpec("Normal", (0.0, 2.0))


class TestTestCommand:
    """Scoring data files against a trained model."""

    def test_normal_data_accepts(self, model_path, tmp_path, capsys):
        """Null data exits 0 and prints an accept summary."""
        data = tmp_path / "null.txt"
        write_sample(data, case_id=15, seed=0)
        assert entrypoint(["test", "--model", str(model_path), "--data", str(data)]) == EXIT_OK
        assert "accept" in capsys.readouterr().out

    def test_skewed_data_rejects(self, model_path, tmp_path, capsys):
        """Strongly skewed data exits 1 and prints a reject summary."""
        data = tmp_path / "skew.txt"
        write_sample(data, case_id=11, seed=0)
        assert entrypoint(["test", "--model", str(model_path), "--data", str(data)]) == EXIT_REJECT
        assert "reject" in capsys.readouterr().out

    def test_missing_model_file(self, model_path, tmp_path):
        """A nonexistent or directory input path maps to the missing-file code."""
        data = tmp_path / "null.txt"
        write_sample(data, case_id=15)
        for model, data_path in (
            (tmp_path / "absent.json", data),
            (tmp_path, data),
            (model_path, tmp_path),
        ):
            assert entrypoint(
                ["test", "--model", str(model), "--data", str(data_path)]
            ) == EXIT_MISSING_FILE

    def test_corrupt_model_file(self, tmp_path):
        """An unparseable or undecodable model maps to the bad-format code."""
        model = tmp_path / "model.json"
        data = tmp_path / "null.txt"
        write_sample(data, case_id=15)
        for blob in (b"{broken", b'{"format": "\xff"}\n'):
            model.write_bytes(blob)
            assert entrypoint(
                ["test", "--model", str(model), "--data", str(data)]
            ) == EXIT_BAD_FORMAT

    @pytest.mark.parametrize("field", ["centroid", "null_distances"])
    def test_nan_in_model_is_a_format_error(self, model_path, tmp_path, field, capsys):
        """A NaN array entry maps to the bad-format code, not to silent accepts."""
        payload = json.loads(model_path.read_text())
        payload[field][0] = float("nan")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        data = tmp_path / "heavy.txt"
        write_sample(data, case_id=1)
        assert entrypoint(
            ["test", "--model", str(model), "--data", str(data)]
        ) == EXIT_BAD_FORMAT
        assert "NaN" in capsys.readouterr().err

    def test_malformed_data_line(self, model_path, tmp_path, capsys):
        """A non-numeric or non-finite line is located by file and line number."""
        data = tmp_path / "bad.txt"
        for value in ("potato", "nan", "inf", "-Infinity", "1e400"):
            data.write_text(f"1.0\n2.0\n{value}\n4.0\n")
            assert entrypoint(
                ["test", "--model", str(model_path), "--data", str(data)]
            ) == EXIT_BAD_FORMAT
            assert ":3:" in capsys.readouterr().err
        data.write_bytes(b"1.0\n2.0\n\xff\n4.0\n")
        assert entrypoint(
            ["test", "--model", str(model_path), "--data", str(data)]
        ) == EXIT_BAD_FORMAT

    def test_wrong_sample_size_is_a_mismatch(self, model_path, tmp_path):
        """Data of another length than the model's n maps to code 5."""
        data = tmp_path / "short.txt"
        write_sample(data, case_id=15, n=10)
        assert entrypoint(
            ["test", "--model", str(model_path), "--data", str(data)]
        ) == EXIT_MISMATCH


class TestPowerCommand:
    """Running the benchmark study from the command line."""

    def test_writes_a_parseable_csv(self, tmp_path, capsys):
        """The study lands in the --out file as valid CSV."""
        config = tmp_path / "power.json"
        config.write_text(json.dumps(POWER_JSON))
        out = tmp_path / "table.csv"
        assert entrypoint(["power", "--config", str(config), "--out", str(out)]) == EXIT_OK
        table = parse_table(out.read_text())
        assert table.methods == ("KS",)

    def test_runs_are_byte_identical(self, tmp_path):
        """Two invocations of the same config write identical files."""
        config = tmp_path / "power.json"
        config.write_text(json.dumps(POWER_JSON))
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert entrypoint(["power", "--config", str(config), "--out", str(first)]) == EXIT_OK
        assert entrypoint(["power", "--config", str(config), "--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_markdown_format(self, tmp_path):
        """--format markdown emits the markdown rendering."""
        config = tmp_path / "power.json"
        config.write_text(json.dumps(POWER_JSON))
        out = tmp_path / "table.md"
        assert entrypoint(
            ["power", "--config", str(config), "--out", str(out), "--format", "markdown"]
        ) == EXIT_OK
        assert out.read_text().startswith("| Case | Label | KS |")

    def test_out_key_in_config_is_used(self, tmp_path):
        """Without --out the table goes to the config's out path."""
        out = tmp_path / "from-config.csv"
        config = tmp_path / "power.json"
        config.write_text(json.dumps({**POWER_JSON, "out": str(out)}))
        assert entrypoint(["power", "--config", str(config)]) == EXIT_OK
        assert out.exists()

    def test_no_output_path_is_a_usage_error(self, tmp_path, capsys):
        """With neither --out nor an out key there is nowhere to write."""
        config = tmp_path / "power.json"
        config.write_text(json.dumps(POWER_JSON))
        assert entrypoint(["power", "--config", str(config)]) == EXIT_USAGE
        assert "--out" in capsys.readouterr().err

    def test_comma_separated_methods(self, tmp_path):
        """methods accepts a comma-separated string in line configs."""
        config = tmp_path / "power.cfg"
        config.write_text(
            "methods = KS\nreps = 50\nn = 20\ncalibration_reps = 100\nmaster_seed = 5\n"
        )
        out = tmp_path / "table.csv"
        assert entrypoint(["power", "--config", str(config), "--out", str(out)]) == EXIT_OK
        json_config = tmp_path / "power.json"
        json_config.write_text(json.dumps(POWER_JSON))
        json_out = tmp_path / "json-table.csv"
        assert entrypoint(["power", "--config", str(json_config), "--out", str(json_out)]) == EXIT_OK
        assert out.read_bytes() == json_out.read_bytes()

    def test_unknown_method_is_a_usage_error(self, tmp_path):
        """An unregistered method name fails validation."""
        config = tmp_path / "power.json"
        config.write_text(json.dumps({**POWER_JSON, "methods": ["Shapiro"]}))
        assert entrypoint(
            ["power", "--config", str(config), "--out", str(tmp_path / "t.csv")]
        ) == EXIT_USAGE


class TestRenderCommand:
    """Dumping Q-Q rasters as PGM images."""

    def test_writes_a_valid_pgm(self, tmp_path):
        """The output is a binary P5 image of the fixed raster size."""
        out = tmp_path / "plot.pgm"
        assert entrypoint(
            ["render", "--dist", "t(2)", "--n", "100", "--seed", "0", "--out", str(out)]
        ) == EXIT_OK
        blob = out.read_bytes()
        header = b"P5\n128 128\n255\n"
        assert blob.startswith(header)
        assert len(blob) == len(header) + 128 * 128

    def test_rendering_is_deterministic(self, tmp_path):
        """The same label and seed produce byte-identical images."""
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        for out in (a, b):
            assert entrypoint(
                ["render", "--dist", "laplace", "--seed", "9", "--out", str(out)]
            ) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_label_is_a_usage_error(self, tmp_path, capsys):
        """An unparseable distribution label fails validation."""
        assert entrypoint(
            ["render", "--dist", "cauchy(1)", "--out", str(tmp_path / "x.pgm")]
        ) == EXIT_USAGE
        assert "cauchy" in capsys.readouterr().err

    def test_tiny_sample_is_a_usage_error(self, tmp_path):
        """Fewer than three points cannot be plotted."""
        assert entrypoint(
            ["render", "--dist", "t(2)", "--n", "2", "--out", str(tmp_path / "x.pgm")]
        ) == EXIT_USAGE


class TestCalibrateCommand:
    """Printing Monte-Carlo cutoffs."""

    def test_prints_a_reproducible_float(self, capsys):
        """The cutoff is a parseable float and repeats exactly."""
        args = ["calibrate", "--stat", "KS", "--n", "20", "--reps", "200", "--seed", "3"]
        assert entrypoint(args) == EXIT_OK
        first = float(capsys.readouterr().out)
        assert entrypoint(args) == EXIT_OK
        assert float(capsys.readouterr().out) == first
        assert 0.0 < first < 1.0

    def test_image_metrics_calibrate_too(self, capsys):
        """PSNR and SSIM cutoffs run through the same command."""
        for name in ("PSNR", "SSIM"):
            assert entrypoint(
                ["calibrate", "--stat", name, "--n", "20", "--reps", "100", "--seed", "3"]
            ) == EXIT_OK
            assert float(capsys.readouterr().out) < 0.0

    @pytest.mark.parametrize("name", ["KS", "BS", "PSNR", "SSIM"])
    def test_matches_the_bank_cutoff(self, name, capsys):
        """The command and build_methods calibrate the same statistic."""
        args = ["calibrate", "--stat", name, "--n", "20", "--reps", "200", "--seed", "3"]
        assert entrypoint(args) == EXIT_OK
        cfg = RunConfig(methods=(name,), n=20, calibration_reps=200, master_seed=3)
        assert capsys.readouterr().out == f"{build_methods(cfg).cutoffs[name]}\n"

    def test_unknown_statistic_is_a_usage_error(self, capsys):
        """A name outside the calibrated methods fails and lists the valid ones."""
        for name in ("Shapiro", "DNT-raw"):
            assert entrypoint(["calibrate", "--stat", name, "--n", "20"]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert name in err
            assert err.endswith("valid names are KS, AD, JB, GLB, GG, BS, PSNR, SSIM\n")

    def test_thin_calibration_is_a_usage_error(self):
        """The minimum replicate count is enforced."""
        assert entrypoint(["calibrate", "--stat", "KS", "--reps", "99"]) == EXIT_USAGE


class TestArgumentParsing:
    """argparse-level failures."""

    def test_no_subcommand_exits_with_usage(self):
        """Calling without a subcommand is an argparse error."""
        with pytest.raises(SystemExit) as exc:
            entrypoint([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_with_usage(self):
        """An unknown subcommand is an argparse error."""
        with pytest.raises(SystemExit) as exc:
            entrypoint(["frobnicate"])
        assert exc.value.code == 2
