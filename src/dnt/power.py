"""The 15-case power study: paired evaluation of every method.

One run calibrates or trains each requested method once, then walks
case x replicate drawing each test sample from its own substream, so
every method sees the identical samples and per-method differences are
not sampling artifacts. Each case is scored in chunks of replicates:
a chunk is standardized and rendered once and scored by every method
(``MethodBank.statistic_rows``), with the statistics ``decide`` gives
one sample at a time, bit for bit. Results land in a PowerTable that
serializes to CSV (and markdown) and parses back byte-identically.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .classical import STATISTIC_NAMES, statistic_fn
from .engine import (
    DNTModel,
    TrainConfig,
    _chunks,
    _squared_distances,
    calibrate_cutoff,
    dnt_test,
    train,
)
from .errors import ConfigError, FormatError, InvalidArgumentError, ModelMismatchError
from .features import _image_grid_rows
from .imagesim import METRIC_NAMES, SimilarityReference, _SimilarityStatistic
from .qq import _render_rows, qq_points, rasterize
from .sampling import Sample, SeedScheme, _as_values, _integer, _seed, _z_scores, case_spec

__all__ = [
    "METHOD_NAMES",
    "RunConfig",
    "PowerTable",
    "MethodBank",
    "null_statistic",
    "build_methods",
    "run_power_study",
    "emit_table",
    "parse_table",
]

METHOD_NAMES = ("DNT-raw", "DNT-image", *STATISTIC_NAMES, *METRIC_NAMES)

# The trained methods and the feature extractor each one learns from;
# every other method is a statistic calibrated by null_statistic.
_EXTRACTORS = {"DNT-raw": "RawOrder", "DNT-image": "ImageGrid"}

_CASE_IDS = tuple(range(1, 16))
_H1_CASE_IDS = tuple(range(1, 15))


@dataclass(frozen=True)
class RunConfig:
    """What to run: methods, scale, seeds, and training overrides."""

    methods: tuple[str, ...]
    reps: int = 1_000
    n: int = 100
    calibration_reps: int = 20_000
    train: TrainConfig = field(default_factory=TrainConfig)
    master_seed: int = 0
    out: str | None = None

    def __post_init__(self) -> None:
        methods = tuple(self.methods)
        if not methods:
            raise ConfigError("methods must be nonempty")
        unknown = [m for m in methods if m not in METHOD_NAMES]
        if unknown:
            raise ConfigError(
                f"unknown methods {', '.join(unknown)}; valid methods are "
                f"{', '.join(METHOD_NAMES)}"
            )
        if len(set(methods)) != len(methods):
            raise ConfigError("methods must not repeat")
        object.__setattr__(self, "methods", methods)
        for name in ("reps", "n", "calibration_reps"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, ConfigError))
        object.__setattr__(self, "master_seed", _seed(self.master_seed, "master_seed", ConfigError))
        if self.reps < 50:
            raise ConfigError("reps must be at least 50")
        if self.n < 3:
            raise ConfigError("n must be at least 3")
        if self.calibration_reps < 100:
            raise ConfigError("calibration_reps must be at least 100")

    def resolved_train(self) -> TrainConfig:
        """Training config with n forced and the seed inherited if unset."""
        cfg = self.train
        if cfg.n != self.n:
            cfg = replace(cfg, n=self.n)
        if cfg.master_seed is None:
            cfg = replace(cfg, master_seed=self.master_seed)
        return cfg


class MethodBank:
    """Calibrated statistic methods plus trained models for samples of size n, built once."""

    def __init__(
        self,
        methods: tuple[str, ...],
        n: int,
        cutoffs: dict[str, float],
        models: dict[str, DNTModel],
        reference: SimilarityReference | None,
    ):
        for name, model in models.items():
            if (model.n, model.extractor_id) != (n, _EXTRACTORS.get(name)):
                raise InvalidArgumentError(
                    f"{name} needs a {_EXTRACTORS.get(name)} model for n={n}, got a "
                    f"{model.extractor_id} model for n={model.n}"
                )
        self.methods = methods
        self.n = n
        self.cutoffs = cutoffs
        self.models = models
        self.reference = reference

    def cutoff(self, name: str) -> float:
        """The value above which method name rejects."""
        return self.models[name].cutoff if name in _EXTRACTORS else self.cutoffs[name]

    def decide(self, x: Sample) -> dict[str, bool]:
        """Reject/accept under every method for one sample of size n.

        This is the one-sample path, and it stays one: it calls the public
        one-sample functions (``dnt_test``, ``rasterize``, each
        ``statistic_fn``) whose calls perfbench's tracer counts, while
        ``statistic_rows`` gives the same statistics for a block.
        """
        size = _as_values(x).size
        if size != self.n:
            raise ModelMismatchError(
                f"methods were built for n={self.n}, got a sample of n={size}"
            )
        out: dict[str, bool] = {}
        raster = None
        for name in self.methods:
            if name in _EXTRACTORS:
                out[name] = dnt_test(x, self.models[name]).reject
            elif name in METRIC_NAMES:
                if raster is None:
                    raster = rasterize(qq_points(x))
                value = self.reference.statistic(raster, name)
                out[name] = value > self.cutoffs[name]
            else:
                stat = statistic_fn(name)(x)
                out[name] = stat.calibration_value > self.cutoffs[name]
        return out

    def statistic_rows(self, samples: np.ndarray) -> dict[str, np.ndarray]:
        """Each method's statistic of each row of a (rows, n) sample block.

        The block is standardized once, for the RawOrder features and
        the render, and rendered once, for the ImageGrid features and
        PSNR/SSIM; each classical statistic runs its
        ``calibration_rows`` kernel. Row r's statistics are those that
        ``decide`` compares with ``cutoff`` for sample r, bit for bit,
        and a row that ``decide`` refuses makes the block raise the same
        error type.
        """
        z = levels = None
        if any(name not in STATISTIC_NAMES for name in self.methods):
            z = _z_scores(samples, ascending=True)
        if any(name in ("DNT-image", *METRIC_NAMES) for name in self.methods):
            levels = _render_rows(z)[0]
        out: dict[str, np.ndarray] = {}
        for name in self.methods:
            if name in _EXTRACTORS:
                features = z if name == "DNT-raw" else _image_grid_rows(levels)
                out[name] = _squared_distances(features, self.models[name])
            elif name in METRIC_NAMES:
                out[name] = self.reference._level_statistics(levels, name)
            else:
                out[name] = statistic_fn(name).calibration_rows(samples)
        return out


def null_statistic(name: str, n: int, reference: SimilarityReference | None = None):
    """The statistic of an untrained method, as calibrate_cutoff takes it.

    PSNR and SSIM compare a sample's raster with reference, by default
    the ideal raster for n.
    """
    if name in STATISTIC_NAMES:
        return statistic_fn(name)
    if name in METRIC_NAMES:
        ref = SimilarityReference.ideal(n) if reference is None else reference
        return _SimilarityStatistic(ref, name)
    raise ConfigError(
        f"unknown statistic {name!r}; valid names are "
        f"{', '.join(STATISTIC_NAMES + METRIC_NAMES)}"
    )


def build_methods(cfg: RunConfig) -> MethodBank:
    """Train every DNT variant and calibrate every statistic in cfg."""
    cutoffs: dict[str, float] = {}
    models: dict[str, DNTModel] = {}
    reference = None
    if any(name in METRIC_NAMES for name in cfg.methods):
        reference = SimilarityReference.ideal(cfg.n)
    for name in cfg.methods:
        if name in _EXTRACTORS:
            models[name] = train(replace(cfg.resolved_train(), extractor=_EXTRACTORS[name]))
        else:
            cutoffs[name] = calibrate_cutoff(
                null_statistic(name, cfg.n, reference),
                cfg.n,
                cfg.calibration_reps,
                alpha=0.05,
                seed=cfg.master_seed,
            )
    return MethodBank(cfg.methods, cfg.n, cutoffs, models, reference)


@dataclass(frozen=True)
class PowerTable:
    """Per-case rejection fractions per method, plus the H1-case mean."""

    methods: tuple[str, ...]
    labels: dict[int, str]
    fractions: dict[int, dict[str, float]]
    mean_row: dict[str, float]
    reps: int | None = None
    n: int | None = None
    master_seed: int | None = None

    def __post_init__(self) -> None:
        if tuple(sorted(self.fractions)) != _CASE_IDS:
            raise InvalidArgumentError("table must cover exactly cases 1..15")
        for case_id, row in self.fractions.items():
            if set(row) != set(self.methods):
                raise InvalidArgumentError(f"case {case_id} row methods mismatch")
            for value in row.values():
                if not 0.0 <= value <= 1.0:
                    raise InvalidArgumentError("fractions must lie in [0, 1]")
        if set(self.mean_row) != set(self.methods):
            raise InvalidArgumentError("mean row methods mismatch")


def run_power_study(cfg: RunConfig, bank: MethodBank | None = None) -> PowerTable:
    """Evaluate every method on identical per-replicate test samples.

    Each case is scored a chunk of replicates at a time, as
    ``engine._chunks`` draws them, by ``bank.statistic_rows``.
    """
    if bank is None:
        bank = build_methods(cfg)
    elif tuple(bank.methods) != tuple(cfg.methods):
        raise InvalidArgumentError("prebuilt methods do not match cfg.methods")
    elif bank.n != cfg.n:
        raise InvalidArgumentError(f"prebuilt methods were built for n={bank.n}, not {cfg.n}")
    scheme = SeedScheme(cfg.master_seed)
    counts = {case_id: {name: 0 for name in cfg.methods} for case_id in _CASE_IDS}
    for case_id in _CASE_IDS:
        for _, chunk in _chunks(case_spec(case_id), cfg.reps, cfg.n, scheme, "test"):
            statistics = bank.statistic_rows(np.stack([x.values for x in chunk]))
            for name, values in statistics.items():
                counts[case_id][name] += int(np.count_nonzero(values > bank.cutoff(name)))
    fractions = {
        case_id: {name: counts[case_id][name] / cfg.reps for name in cfg.methods}
        for case_id in _CASE_IDS
    }
    mean_row = {
        name: sum(fractions[case_id][name] for case_id in _H1_CASE_IDS)
        / len(_H1_CASE_IDS)
        for name in cfg.methods
    }
    labels = {case_id: case_spec(case_id).label for case_id in _CASE_IDS}
    return PowerTable(
        methods=tuple(cfg.methods),
        labels=labels,
        fractions=fractions,
        mean_row=mean_row,
        reps=cfg.reps,
        n=cfg.n,
        master_seed=cfg.master_seed,
    )


def emit_table(table: PowerTable, format: str = "csv") -> str:
    """Render a table: header, 15 case rows, one mean row; 3 decimals."""
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(["case", "label", *table.methods])
        for case_id in _CASE_IDS:
            row = table.fractions[case_id]
            writer.writerow(
                [case_id, table.labels[case_id]]
                + [f"{row[name]:.3f}" for name in table.methods]
            )
        writer.writerow(
            ["mean", ""] + [f"{table.mean_row[name]:.3f}" for name in table.methods]
        )
        return buffer.getvalue()
    if format == "markdown":
        header = "| Case | Label | " + " | ".join(table.methods) + " |"
        rule = "|---|---|" + "|".join("---" for _ in table.methods) + "|"
        lines = [header, rule]
        for case_id in _CASE_IDS:
            row = table.fractions[case_id]
            cells = " | ".join(f"{row[name]:.3f}" for name in table.methods)
            lines.append(f"| {case_id} | {table.labels[case_id]} | {cells} |")
        cells = " | ".join(f"{table.mean_row[name]:.3f}" for name in table.methods)
        lines.append(f"| Mean |  | {cells} |")
        return "\n".join(lines) + "\n"
    raise InvalidArgumentError(f"unknown format {format!r}; use csv or markdown")


def parse_table(text: str) -> PowerTable:
    """Read back an emitted CSV table; the mean row is kept as written."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:2] != ["case", "label"]:
        raise FormatError("power table: missing 'case,label,...' header")
    methods = tuple(rows[0][2:])
    if not methods:
        raise FormatError("power table: no method columns")
    body = rows[1:]
    if len(body) != len(_CASE_IDS) + 1:
        raise FormatError(
            f"power table: expected {len(_CASE_IDS) + 1} data rows, got {len(body)}"
        )
    fractions: dict[int, dict[str, float]] = {}
    labels: dict[int, str] = {}
    for row in body[:-1]:
        if len(row) != 2 + len(methods):
            raise FormatError("power table: wrong column count in a case row")
        try:
            case_id = int(row[0])
            values = [float(v) for v in row[2:]]
        except ValueError:
            raise FormatError(f"power table: malformed numbers in case row {row[0]!r}") from None
        labels[case_id] = row[1]
        fractions[case_id] = dict(zip(methods, values))
    mean = body[-1]
    if mean[0] != "mean" or len(mean) != 2 + len(methods):
        raise FormatError("power table: last row must be the mean row")
    try:
        mean_row = dict(zip(methods, (float(v) for v in mean[2:])))
    except ValueError:
        raise FormatError("power table: malformed numbers in mean row") from None
    return PowerTable(
        methods=methods, labels=labels, fractions=fractions, mean_row=mean_row
    )
