"""End-to-end distance-based normality testing.

Training simulates a null pool and an alternative batch, keeps the
null vectors closest to the pool centroid, selects separating
features, learns a metric, and calibrates a rejection cutoff from the
squared metric distances of the whole null pool to the kept-null
centroid. Testing maps a new sample through the same pipeline and
rejects when its squared distance exceeds the cutoff; its Monte-Carlo
p-value counts the null distances at or above the statistic. One
kernel, ``_squared_distances``, computes that distance for training's
null pool, ``dnt_test`` and the power study, so a null distance is
the ``dnt_test`` statistic of its calibration sample, bit for bit. Every
Monte-Carlo loop (training, ``calibrate_cutoff`` and the power study)
draws its replicates through ``_chunks``, a (rows, n) block at a time.
Models persist as canonical JSON: scalars are JSON numbers, and every
array is stored as exact binary, base64 of its little-endian float64 or
int64 bytes, so a save/load round trip is bit-exact. ``_layout`` spells
the format once: a file loads only if ``save_model`` writes it back.
"""

from __future__ import annotations

import binascii
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from typing import get_args, get_type_hints

import numpy as np

from .classical import TestStatistic
from .errors import (
    ConfigError,
    FormatError,
    InvalidArgumentError,
    ModelMismatchError,
    UnsupportedVersionError,
)
from .features import (
    EXTRACTOR_IDS,
    IMAGE_GRID_LENGTH,
    SelectionModel,
    _image_grid_rows,
    _top_d,
    extract_image,
    extract_raw,
    fit_selection,
)
from .lmnn import LmnnConfig, MetricMatrix, _quadratic_forms, train_metric
from .qq import _render_rows, qq_points, rasterize
from .sampling import (
    DistributionSpec,
    Sample,
    SeedScheme,
    _NULL_CASE,
    _array,
    _as_values,
    _finite,
    _frozen,
    _integer,
    _seed,
    _z_scores,
    benchmark_case_id,
    case_spec,
    parse_distribution_label,
    sample,
)

__all__ = [
    "MODEL_FORMAT_VERSION",
    "TrainConfig",
    "DNTModel",
    "TestReport",
    "extract_features",
    "train",
    "calibrate_cutoff",
    "dnt_test",
    "save_model",
    "load_model",
    "config_to_dict",
    "config_from_dict",
]

MODEL_FORMAT_VERSION = "dnt-model-v2"

# Values per chunk of replicates: 64 KB of float64, 81 rows at n=100.
# Larger chunks were no faster and raised peak memory, since the
# kernels' temporaries are several chunks' worth.
_CHUNK_VALUES = 8_192
# Rows per chunk at most, so that a chunk's rasters stay within 2 MB of
# levels: at n=3, _CHUNK_VALUES alone would give 2,730 rows (45 MB).
_CHUNK_ROWS = 128


def _default_h1_spec() -> DistributionSpec:
    return case_spec(4)


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a trained model, including its seed."""

    n: int = 100
    h0_pool: int = 50_000
    h0_keep_fraction: float = 0.01
    h1_count: int = 1_000
    h1_spec: DistributionSpec = field(default_factory=_default_h1_spec)
    d: int = 100
    extractor: str = "RawOrder"
    alpha: float = 0.05
    lmnn: LmnnConfig = field(default_factory=LmnnConfig)
    master_seed: int | None = None
    fresh_null_count: int = 0

    def __post_init__(self) -> None:
        for name in ("n", "h0_pool", "h1_count", "d", "fresh_null_count"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, ConfigError))
        if self.master_seed is not None:
            seed = _seed(self.master_seed, "master_seed", ConfigError)
            object.__setattr__(self, "master_seed", seed)
        if self.n < 3:
            raise ConfigError("n must be at least 3")
        if self.h0_pool < 2 or self.h1_count < 2:
            raise ConfigError("h0_pool and h1_count must be at least 2")
        for name in ("h0_keep_fraction", "alpha"):
            object.__setattr__(self, name, float(_finite(getattr(self, name), name, ConfigError)))
        if not 0.0 < self.h0_keep_fraction <= 1.0:
            raise ConfigError("h0_keep_fraction must be in (0, 1]")
        if self.extractor not in EXTRACTOR_IDS:
            raise ConfigError(
                f"extractor must be one of {', '.join(EXTRACTOR_IDS)}"
            )
        if not 1 <= self.d <= self.feature_length:
            raise ConfigError(
                f"d must be in 1..{self.feature_length} for extractor {self.extractor}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must be in (0, 1)")
        if self.keep_count < self.lmnn.k + 1:
            raise ConfigError(
                "h0_keep_fraction * h0_pool must be at least lmnn.k + 1"
            )
        if self.fresh_null_count < 0:
            raise ConfigError("fresh_null_count must be nonnegative")

    @property
    def keep_count(self) -> int:
        return int(round(self.h0_keep_fraction * self.h0_pool))

    @property
    def feature_length(self) -> int:
        """Length of the extractor's feature vector for samples of size n."""
        return self.n if self.extractor == "RawOrder" else IMAGE_GRID_LENGTH


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test: the statistic, the cutoff it faced, the call.

    p_value is the Monte-Carlo p-value (1 + #{null >= statistic}) / (N + 1)
    over the model's N null distances (North, Curtis & Sham, AJHG 71:439,
    2002); the verdict is statistic > cutoff.
    """

    statistic: float
    cutoff: float
    alpha: float
    p_value: float | None = None

    @property
    def reject(self) -> bool:
        return self.statistic > self.cutoff

    def summary(self) -> str:
        verdict = "reject" if self.reject else "accept"
        return (
            f"{verdict} normality: statistic={self.statistic:.6g} "
            f"cutoff={self.cutoff:.6g} alpha={self.alpha:g}"
            + ("" if self.p_value is None else f" p={self.p_value:.6g}")
        )


def _upper_quantile(ascending: np.ndarray, alpha: float) -> float:
    """The (1-alpha) quantile of N ascending values: the ceil((1-alpha)N)-th, at least the 1st."""
    rank = math.ceil((1.0 - alpha) * ascending.size - 1e-9)
    return float(ascending[max(rank, 1) - 1])


@dataclass(frozen=True)
class DNTModel:
    """A trained tester: selection, metric, centroid, null calibration.

    n, alpha and extractor_id read config; cutoff derives from null_distances.
    """

    selection: SelectionModel
    metric: MetricMatrix
    centroid: np.ndarray
    null_distances: np.ndarray
    config: TrainConfig
    cutoff: float = field(init=False)

    def __post_init__(self) -> None:
        centroid = _frozen(self, "centroid", _array(self.centroid, "centroid"))
        null = _frozen(self, "null_distances", _array(self.null_distances, "null_distances"))
        if self.selection.m != self.config.feature_length:
            raise InvalidArgumentError(
                f"selection scores {self.selection.m} features, but {self.extractor_id} "
                f"makes {self.config.feature_length} at n={self.n}"
            )
        if centroid.size != self.selection.d:
            raise InvalidArgumentError("centroid length must equal selection.d")
        if self.metric.dim != self.selection.d:
            raise InvalidArgumentError("metric dimension must equal selection.d")
        if null.size == 0 or np.any(np.diff(null) < 0):
            raise InvalidArgumentError("null_distances must be sorted ascending")
        object.__setattr__(self, "cutoff", _upper_quantile(null, self.alpha))

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def alpha(self) -> float:
        return self.config.alpha

    @property
    def extractor_id(self) -> str:
        return self.config.extractor


def extract_features(x: Sample | np.ndarray, extractor_id: str) -> np.ndarray:
    """Run one extractor on a sample (rasterizing first if image-based)."""
    if extractor_id == "RawOrder":
        return extract_raw(x)
    if extractor_id == "ImageGrid":
        return extract_image(rasterize(qq_points(x)))
    raise InvalidArgumentError(f"unknown extractor {extractor_id!r}")


def _chunks(spec: DistributionSpec, count: int, n: int, scheme: SeedScheme, purpose: str):
    """Replicates 0..count-1 of spec in consecutive chunks: (first index, (rows, n) block).

    Replicate r is ``sample(spec, n, scheme.stream(case, r, purpose))``,
    where case is spec's benchmark row id, or 0 for a law off the table;
    a chunk derives and draws all its rows in one call of each.
    """
    case = benchmark_case_id(spec.kind, spec.params) or 0
    rows = max(1, min(_CHUNK_ROWS, _CHUNK_VALUES // max(n, 3)))
    for start in range(0, count, rows):
        seeds = scheme.stream(case, np.arange(start, min(start + rows, count)), purpose)
        yield start, sample(spec, n, seeds)


def _feature_rows(samples: np.ndarray, extractor_id: str) -> np.ndarray:
    """``extract_features`` of each row of a (rows, n) sample block, bit for bit."""
    z = _z_scores(samples, ascending=True)
    if extractor_id == "RawOrder":
        return z
    return _image_grid_rows(_render_rows(z))


def _feature_block(
    spec: DistributionSpec, count: int, cfg: TrainConfig, scheme: SeedScheme, purpose: str
) -> np.ndarray:
    features = np.empty((count, cfg.feature_length))
    for start, block in _chunks(spec, count, cfg.n, scheme, purpose):
        features[start : start + len(block)] = _feature_rows(block, cfg.extractor)
    return features


def train(cfg: TrainConfig) -> DNTModel:
    """Simulate, select, learn the metric, and calibrate the cutoff."""
    if cfg.master_seed is None:
        raise ConfigError("master_seed must be set before training")
    scheme = SeedScheme(cfg.master_seed)
    null_spec = case_spec(_NULL_CASE)

    h0 = _feature_block(null_spec, cfg.h0_pool, cfg, scheme, "train-h0")
    h1 = _feature_block(cfg.h1_spec, cfg.h1_count, cfg, scheme, "train-h1")

    pool_centroid = h0.mean(axis=0)
    gaps = np.linalg.norm(h0 - pool_centroid, axis=1)
    kept = np.argsort(gaps, kind="stable")[: cfg.keep_count]
    h0_kept = h0[kept]

    selection = fit_selection(h0_kept, h1, cfg.d)
    h0_kept_sel = h0_kept[:, selection.mask]
    h1_sel = h1[:, selection.mask]

    stacked = np.concatenate([h0_kept_sel, h1_sel])
    labels = np.concatenate(
        [np.zeros(h0_kept_sel.shape[0], dtype=int), np.ones(h1_sel.shape[0], dtype=int)]
    )
    metric = train_metric(stacked, labels, cfg.lmnn)

    centroid = h0_kept_sel.mean(axis=0)

    null = h0
    if cfg.fresh_null_count > 0:
        null = _feature_block(null_spec, cfg.fresh_null_count, cfg, scheme, "calibrate")
    null_distances = np.sort(_squared_distances(null, selection.mask, centroid, metric.matrix))
    return DNTModel(selection, metric, centroid, null_distances, cfg)


def calibrate_cutoff(
    statistic_fn,
    n: int,
    reps: int,
    alpha: float = 0.05,
    seed: int = 0,
) -> float:
    """Empirical (1-alpha) null quantile of a statistic at sample size n.

    statistic_fn may return a float or a TestStatistic; two-sided
    statistics are calibrated on their absolute value. Replicate r is
    drawn from its own ``calibrate`` stream, in (rows, n) blocks of
    about _CHUNK_VALUES values and at most _CHUNK_ROWS rows. A callable
    with a ``calibration_rows`` block form (each classical statistic,
    any ``functools.wraps`` wrapper of one, and
    ``power.null_statistic("SSIM", n)``) scores a whole block with one
    call; any other callable is applied to each row as a ``Sample`` and
    must return a finite real number or a TestStatistic.
    """
    n, reps = _integer(n, "n"), _integer(reps, "reps")
    _finite(alpha, "alpha")
    if reps < 100:
        raise InvalidArgumentError("calibration needs at least 100 replicates")
    if not 0.0 < alpha < 1.0:
        raise InvalidArgumentError("alpha must be in (0, 1)")
    scheme = SeedScheme(_seed(seed, "seed"))
    kernel = getattr(statistic_fn, "calibration_rows", None)
    values = np.empty(reps)
    for start, block in _chunks(case_spec(_NULL_CASE), reps, n, scheme, "calibrate"):
        if kernel is None:
            for r, row in enumerate(block, start):
                value = statistic_fn(Sample(row))
                if isinstance(value, TestStatistic):
                    value = value.calibration_value
                values[r] = _finite(value, "statistic value")
        else:
            values[start : start + len(block)] = kernel(block)
    values.sort()
    return _upper_quantile(values, alpha)


def _squared_distances(
    features: np.ndarray, mask: np.ndarray, centroid: np.ndarray, matrix: np.ndarray
) -> np.ndarray:
    """The one DNT distance, of each row of a (rows, m) feature block.

    ``train``, ``dnt_test`` and ``MethodBank.statistic_rows`` all call it.
    The selected columns are copied to C order before the centroid is
    subtracted: ``features[:, mask]`` is F-ordered, and the dot product
    of a strided row can round differently from that of a contiguous
    one. ``lmnn._quadratic_forms`` scores all rows in one call, and a
    negative form becomes 0.0 as under ``max(q, 0.0)``, which keeps -0.0.
    """
    quad = _quadratic_forms(np.ascontiguousarray(features[:, mask]) - centroid, matrix)
    quad[quad < 0.0] = 0.0
    return quad


def dnt_test(x: Sample | np.ndarray, model: DNTModel) -> TestReport:
    """Squared metric distance of x's selected features to the centroid."""
    values = _as_values(x)
    if values.size != model.n:
        raise ModelMismatchError(
            f"model was trained for n={model.n}, got a sample of n={values.size}"
        )
    features = extract_features(x, model.extractor_id)[np.newaxis]
    statistic = float(
        _squared_distances(features, model.selection.mask, model.centroid, model.metric.matrix)[0]
    )
    null = model.null_distances
    at_or_above = null.size - int(np.searchsorted(null, statistic, side="left"))
    return TestReport(
        statistic=statistic,
        cutoff=model.cutoff,
        alpha=model.alpha,
        p_value=(1 + at_or_above) / (null.size + 1),
    )


# ---------------------------------------------------------------------------
# Config codec: one rule set for config files and the model's config block

# Accepted input types and error wording per scalar field type.
_SCALARS = {
    int: ((int, str), "an integer"),
    float: ((int, float, str), "a number"),
    str: ((str,), "a string"),
}
_type_hints = cache(get_type_hints)  # about 200 us per class, so resolve once


def config_to_dict(obj):
    """JSON data of a config: dataclasses become objects, tuples lists."""
    if is_dataclass(obj):
        return {f.name: config_to_dict(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return [config_to_dict(item) for item in obj]
    return obj


def config_from_dict(cls, data, where: str):
    """Config dataclass cls from JSON or key=value data; errors name where.key."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    hints = _type_hints(cls)
    unknown = sorted(set(data) - hints.keys())
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {', '.join(unknown)}; valid keys are {', '.join(hints)}"
        )
    kwargs = {}
    for f in fields(cls):
        if f.name in data:
            kwargs[f.name] = _decode(hints[f.name], data[f.name], f"{where}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}.{f.name}: required")
    try:
        return cls(**kwargs)
    except (ConfigError, InvalidArgumentError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _decode(kind, value, where: str):
    """One field value, checked against and converted to its declared type."""
    args = get_args(kind)
    if type(None) in args:  # X | None
        if value is None:
            return None
        (kind,) = set(args) - {type(None)}
    if kind in _SCALARS:
        accepted, label = _SCALARS[kind]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ConfigError(f"{where}: expected {label}")
        try:
            value = kind(value)
        except (ValueError, OverflowError):
            raise ConfigError(f"{where}: expected {label}, got {value!r}") from None
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{where}: expected a finite number, got {value!r}")
        return value
    if kind is DistributionSpec and isinstance(value, str):
        try:
            return parse_distribution_label(value)
        except InvalidArgumentError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if kind is DistributionSpec and isinstance(value, dict) and "case_id" not in value:
        # An object without case_id names its benchmark row like a label does.
        spec = config_from_dict(kind, value, where)
        case_id = benchmark_case_id(spec.kind, spec.params)
        return DistributionSpec(spec.kind, spec.params, case_id)
    if is_dataclass(kind):
        return config_from_dict(kind, value, where)
    # Config fields are scalars, optional scalars, dataclasses or tuple[X, ...].
    if isinstance(value, str):
        value = [part.strip() for part in value.split(",") if part.strip()]
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list or comma-separated text")
    return tuple(_decode(args[0], item, f"{where}[{i}]") for i, item in enumerate(value))


# ---------------------------------------------------------------------------
# Persistence


# Model arrays are stored in these explicit little-endian dtypes, never native order.
_FLOAT, _INT = np.dtype("<f8"), np.dtype("<i8")


def _encode(values: np.ndarray) -> str:
    """Base64 (RFC 4648, padded) of a float array's <f8 bytes or an int array's <i8, row-major."""
    raw = np.asarray(values, dtype=_FLOAT if values.dtype.kind == "f" else _INT).tobytes()
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


def _layout(model: DNTModel) -> dict:
    """The model file's JSON object, with each array as itself: the one spelling of the format."""
    return {
        "format": MODEL_FORMAT_VERSION,
        "extractor_id": model.extractor_id,
        "n": model.n,
        "alpha": model.alpha,
        "selection": {"scores": model.selection.scores, "mask": model.selection.mask},
        "metric": model.metric.matrix,
        "centroid": model.centroid,
        "null_distances": model.null_distances,
        "cutoff": model.cutoff,
        "config": config_to_dict(model.config),
    }


def save_model(model: DNTModel, path: str) -> None:
    """Write the model as canonical JSON (sorted keys, binary arrays)."""
    text = json.dumps(
        _layout(model), sort_keys=True, allow_nan=False, separators=(",", ":"), default=_encode
    )
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)
        handle.write("\n")


def _decode_array(payload: dict, where: str, dtype: np.dtype = _FLOAT) -> np.ndarray:
    """A read-only view of the base64 array at dotted path where (the model types copy it)."""
    text = payload
    for key in where.split("."):
        text = text.get(key) if isinstance(text, dict) else None
    where = f"model.{where}"
    if not isinstance(text, str):
        raise FormatError(f"{where}: expected a base64 string of {dtype.str} values")
    try:
        raw = binascii.a2b_base64(text, strict_mode=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise FormatError(f"{where}: not strict base64 ({exc})") from None
    # Unused bits of a padded final quartet must be zero: its bytes re-encode to it.
    tail, pad = text[-4:], text[-4:].count("=")
    if pad and binascii.b2a_base64(raw[pad - 3 :], newline=False) != tail.encode():
        raise FormatError(f"{where}: not canonical base64 (nonzero unused bits in {tail!r})")
    if len(raw) % dtype.itemsize:
        raise FormatError(
            f"{where}: {len(raw)} bytes is not a whole number of {dtype.itemsize}-byte values"
        )
    values = np.frombuffer(raw, dtype=dtype)
    if dtype.kind == "f" and not np.all(np.isfinite(values)):
        raise FormatError(f"{where}: holds a NaN or infinite value")
    return values


def _check_written(written, found, where: str) -> None:
    """Refuse found, a file's parsed JSON, where it differs from written, save_model's layout.

    Key sets are compared at every level and other values by repr, which
    tells apart every two JSON values, 1 and 1.0 too. Arrays are skipped:
    load_model compared them by their decode when it read them.
    """
    if isinstance(written, dict) and isinstance(found, dict):
        for key in sorted(written.keys() | found.keys()):
            _check_written(written.get(key, MISSING), found.get(key, MISSING), f"{where}.{key}")
    elif not isinstance(written, np.ndarray) and repr(found) != repr(written):
        raise FormatError(
            f"{where}: the file has {_text(found)} where save_model writes {_text(written)}"
        )


def _text(value) -> str:
    return "nothing" if value is MISSING else json.dumps(value, default=_encode)


def _reject_constant(token: str):
    raise FormatError(f"model file holds the non-finite number {token}")


def load_model(path: str) -> DNTModel:
    """Read a model file; it loads only if save_model writes it back for the model it builds."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            payload = json.loads(handle.read(), parse_constant=_reject_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"model file is not valid ASCII JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise FormatError("model: expected an object")
    version = payload.get("format")
    if isinstance(version, str) and version != MODEL_FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"model.format: {version!r} is not supported (expected {MODEL_FORMAT_VERSION!r}); "
            "retrain the model with `dnt train` from the config block of this file"
        )
    try:
        config = config_from_dict(TrainConfig, payload.get("config"), "model.config")
    except ConfigError as exc:
        raise FormatError(str(exc)) from None
    try:
        scores = _decode_array(payload, "selection.scores")
        selection = SelectionModel(scores, _decode_array(payload, "selection.mask", _INT))
        metric_flat = _decode_array(payload, "metric")
        dim = math.isqrt(metric_flat.size)
        if dim * dim != metric_flat.size:
            raise FormatError("model.metric: length is not a perfect square")
        model = DNTModel(
            selection,
            MetricMatrix(metric_flat.reshape(dim, dim)),
            _decode_array(payload, "centroid"),
            _decode_array(payload, "null_distances"),
            config,
        )
    except InvalidArgumentError as exc:
        raise FormatError(f"model: {exc}") from None
    if not np.array_equal(selection.mask, _top_d(selection.scores, config.d)):
        raise FormatError("model.selection.mask: not the top config.d of model.selection.scores")
    _check_written(_layout(model), payload, "model")
    # train keeps one null distance per calibration sample; a canonical config can still disagree.
    source = "fresh_null_count" if config.fresh_null_count else "h0_pool"
    if model.null_distances.size != getattr(config, source):
        raise FormatError(
            f"model.null_distances: the file has {model.null_distances.size} values where "
            f"config.{source} gives {getattr(config, source)}"
        )
    return model
