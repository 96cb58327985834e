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
import itertools
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
from .errors import ConfigError, DntError, FormatError, InvalidArgumentError, ModelMismatchError
from .features import _image_grid_rows
from .imagesim import METRIC_NAMES, SimilarityReference, _SimilarityStatistic
from .qq import _render_rows, qq_points, rasterize
from .sampling import (
    _CASE_TABLE, _NULL_CASE, Sample, SeedScheme, _array, _as_values, _finite, _integer, _seed,
    _z_scores, case_spec,
)

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

# The trained methods and the feature extractor each one learns from;
# every other method is a statistic calibrated by null_statistic.
_EXTRACTORS = {"DNT-raw": "RawOrder", "DNT-image": "ImageGrid"}

METHOD_NAMES = (*_EXTRACTORS, *STATISTIC_NAMES, *METRIC_NAMES)

_CASE_IDS = tuple(_CASE_TABLE)
_H1_CASE_IDS = tuple(case_id for case_id in _CASE_IDS if case_id != _NULL_CASE)


def _methods(names, error: type[DntError] = InvalidArgumentError) -> tuple[str, ...]:
    """names as a tuple, if nonempty, each in METHOD_NAMES and none repeated; else error."""
    methods = tuple(names)
    if not methods:
        raise error("methods must be nonempty")
    unknown = [str(m) for m in methods if m not in METHOD_NAMES]
    if unknown:
        raise error(
            f"unknown methods {', '.join(unknown)}; valid methods are {', '.join(METHOD_NAMES)}"
        )
    if len(set(methods)) != len(methods):
        raise error("methods must not repeat")
    return methods


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
        object.__setattr__(self, "methods", _methods(self.methods, ConfigError))
        for name in ("reps", "n", "calibration_reps"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, ConfigError))
        object.__setattr__(self, "master_seed", _seed(self.master_seed, "master_seed", ConfigError))
        if self.reps < 50:
            raise ConfigError("reps must be at least 50")
        if self.n < 3:
            raise ConfigError("n must be at least 3")
        if self.calibration_reps < 100:
            raise ConfigError("calibration_reps must be at least 100")
        for name in self.methods:  # a run that cannot train fails here, before any calibration
            if name in _EXTRACTORS:
                self.train_config(name)

    def train_config(self, name: str) -> TrainConfig:
        """The train block of DNT method name: the run's n, its extractor, an unset seed inherited."""
        if name not in _EXTRACTORS:
            raise ConfigError(f"{name} is not a trained method; use {' or '.join(_EXTRACTORS)}")
        seed = self.master_seed if self.train.master_seed is None else self.train.master_seed
        return replace(self.train, n=self.n, extractor=_EXTRACTORS[name], master_seed=seed)


class MethodBank:
    """Calibrated statistic methods plus trained models for samples of size n, built once.

    Each untrained method takes a finite cutoff and each DNT method a
    model for n; PSNR and SSIM compare with the ideal raster for n.
    """

    def __init__(
        self,
        methods: tuple[str, ...],
        n: int,
        cutoffs: dict[str, float],
        models: dict[str, DNTModel],
    ):
        methods, n = _methods(methods), _integer(n, "n")
        if n < 3:
            raise InvalidArgumentError("n must be at least 3")
        trained = [name for name in methods if name in _EXTRACTORS]
        untrained = [name for name in methods if name not in trained]
        for name in untrained:
            _finite(cutoffs.get(name), f"{name} cutoff")
        for name in trained:
            model = models.get(name)
            if model is None or (model.n, model.extractor_id) != (n, _EXTRACTORS[name]):
                got = "none" if model is None else f"a {model.extractor_id} model for n={model.n}"
                raise InvalidArgumentError(
                    f"{name} needs a {_EXTRACTORS[name]} model for n={n}, got {got}"
                )
        stray = ", ".join(sorted({*cutoffs}.difference(untrained) | {*models}.difference(trained)))
        if stray:
            raise InvalidArgumentError(f"no bank method takes the cutoff or model of {stray}")
        self.methods = methods
        self.n = n
        self.cutoffs = cutoffs
        self.models = models
        self.reference = SimilarityReference.ideal(n) if set(methods) & set(METRIC_NAMES) else None

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
        self._check_size(_as_values(x).size)
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

    def _check_size(self, size: int) -> None:
        if size != self.n:
            raise ModelMismatchError(f"methods were built for n={self.n}, got a sample of n={size}")

    def statistic_rows(self, samples: np.ndarray) -> dict[str, np.ndarray]:
        """Each method's statistic of each row of a (rows, n) sample block.

        The block is standardized once, for the RawOrder features and
        the render, and rendered once, for the ImageGrid features and
        PSNR/SSIM; each classical statistic runs its
        ``calibration_rows`` kernel. Row r's statistics are those that
        ``decide`` compares with ``cutoff`` for sample r, bit for bit,
        and a row that ``decide`` refuses makes the block raise the same
        error type: the block is checked as ``decide`` checks a sample.
        """
        samples = _array(samples, "sample values", ndim=2)
        self._check_size(samples.shape[1])
        z = rendered = None
        if any(name not in STATISTIC_NAMES for name in self.methods):
            z = _z_scores(samples, ascending=True)
        if any(name in METRIC_NAMES or _EXTRACTORS.get(name) == "ImageGrid" for name in self.methods):
            rendered = _render_rows(z)
        out: dict[str, np.ndarray] = {}
        for name in self.methods:
            if name in _EXTRACTORS:
                features = z if _EXTRACTORS[name] == "RawOrder" else _image_grid_rows(rendered)
                m = self.models[name]
                out[name] = _squared_distances(features, m.selection.mask, m.centroid, m.metric.matrix)
            elif name in METRIC_NAMES:
                out[name] = self.reference._level_statistics(rendered, name)
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
    """Train every DNT variant and calibrate every statistic in cfg, all at cfg.train.alpha."""
    cutoffs: dict[str, float] = {}
    models: dict[str, DNTModel] = {}
    for name in cfg.methods:
        if name in _EXTRACTORS:
            models[name] = train(cfg.train_config(name))
        else:
            cutoffs[name] = calibrate_cutoff(
                null_statistic(name, cfg.n),
                cfg.n,
                cfg.calibration_reps,
                alpha=cfg.train.alpha,
                seed=cfg.master_seed,
            )
    return MethodBank(cfg.methods, cfg.n, cutoffs, models)


@dataclass(frozen=True)
class PowerTable:
    """Per-case rejection fractions per method, plus the H1-case mean."""

    methods: tuple[str, ...]
    fractions: dict[int, dict[str, float]]
    mean_row: dict[str, float]
    reps: int | None = None
    n: int | None = None
    master_seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "methods", _methods(self.methods))
        for name, least in (("reps", 1), ("n", 3)):
            if getattr(self, name) is not None:  # None in a parsed table
                value = _integer(getattr(self, name), name)
                if value < least:
                    raise InvalidArgumentError(f"{name} must be at least {least}")
                object.__setattr__(self, name, value)
        if self.master_seed is not None:
            object.__setattr__(self, "master_seed", _seed(self.master_seed, "master_seed"))
        if tuple(sorted(self.fractions)) != _CASE_IDS:
            raise InvalidArgumentError("table must cover exactly cases 1..15")
        rows = [(f"case {case_id}", row) for case_id, row in self.fractions.items()]
        for where, row in [*rows, ("mean", self.mean_row)]:
            if set(row) != set(self.methods):
                raise InvalidArgumentError(f"{where} row methods mismatch")
            if not all(0.0 <= value <= 1.0 for value in row.values()):
                raise InvalidArgumentError(f"{where} row fractions must lie in [0, 1]")

    @property
    def labels(self) -> dict[int, str]:
        """Each case's benchmark label, as the table's label column reads."""
        return {case_id: case_spec(case_id).label for case_id in _CASE_IDS}


def run_power_study(cfg: RunConfig, bank: MethodBank | None = None) -> PowerTable:
    """Evaluate every method on identical per-replicate test samples.

    Each case is scored a chunk of replicates at a time, as
    ``engine._chunks`` draws them, by ``bank.statistic_rows``.
    """
    if bank is None:
        bank = build_methods(cfg)
    elif bank.methods != cfg.methods:
        raise InvalidArgumentError("prebuilt methods do not match cfg.methods")
    elif bank.n != cfg.n:
        raise InvalidArgumentError(f"prebuilt methods were built for n={bank.n}, not {cfg.n}")
    scheme = SeedScheme(cfg.master_seed)
    counts = {case_id: {name: 0 for name in cfg.methods} for case_id in _CASE_IDS}
    for case_id in _CASE_IDS:
        for _, block in _chunks(case_spec(case_id), cfg.reps, cfg.n, scheme, "test"):
            statistics = bank.statistic_rows(block)
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
    return PowerTable(
        methods=cfg.methods,
        fractions=fractions,
        mean_row=mean_row,
        reps=cfg.reps,
        n=cfg.n,
        master_seed=cfg.master_seed,
    )


def emit_table(table: PowerTable, format: str = "csv") -> str:
    """Render a table: header, 15 case rows, one mean row; 3 decimals."""
    rows = [
        [str(case_id), label, *(f"{table.fractions[case_id][name]:.3f}" for name in table.methods)]
        for case_id, label in table.labels.items()
    ]
    rows.append(["mean", "", *(f"{table.mean_row[name]:.3f}" for name in table.methods)])
    if format == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([["case", "label", *table.methods]] + rows)
        return buffer.getvalue()
    if format == "markdown":
        rows[-1][0] = "Mean"
        lines = ["| " + " | ".join(row) + " |" for row in [["Case", "Label", *table.methods], *rows]]
        lines.insert(1, "|---|---|" + "---|" * len(table.methods))
        return "\n".join(lines) + "\n"
    raise InvalidArgumentError(f"unknown format {format!r}; use csv or markdown")


def parse_table(text: str) -> PowerTable:
    """Read back an emitted CSV table; it parses only if emit_table writes it back.

    The rows are read into a PowerTable, which checks its roster, cases
    and fractions, and then each line of text must be the line that
    ``emit_table`` writes for that table. Lines are compared after
    ``splitlines``, so a table saved with CRLF line ends still reads.
    """
    lines = text.splitlines()
    rows = list(csv.reader(lines))
    if not rows or rows[0][:2] != ["case", "label"]:
        raise FormatError("power table: missing 'case,label,...' header")
    methods = tuple(rows[0][2:])
    fractions, mean_row = {}, {}
    for number, row in enumerate(rows[1:], 2):
        try:
            values = dict(zip(methods, map(float, row[2:])))
            if number < len(rows):
                fractions[int(row[0])] = values
            else:
                mean_row = values  # kept as written, not recomputed
        except (ValueError, IndexError):
            raise FormatError(f"power table: malformed numbers on line {number}") from None
    try:
        table = PowerTable(methods=methods, fractions=fractions, mean_row=mean_row)
    except InvalidArgumentError as exc:
        raise FormatError(f"power table: {exc}") from None
    written = emit_table(table).splitlines()
    for number, (line, expected) in enumerate(itertools.zip_longest(lines, written), 1):
        if line != expected:
            raise FormatError(
                f"power table: line {number} reads {line!r}, but emit_table writes {expected!r}"
            )
    return table
