"""End-to-end distance-based normality testing.

Training simulates a null pool and an alternative batch, keeps the
null vectors closest to the pool centroid, selects separating
features, learns a metric, and calibrates a rejection cutoff from the
squared metric distances of the whole null pool to the kept-null
centroid. Testing maps a new sample through the same pipeline and
rejects when its squared distance exceeds the cutoff; its Monte-Carlo
p-value counts the null distances at or above the statistic. Models
persist as canonical JSON: scalars are JSON numbers, and every array is
stored as exact binary, base64 of its little-endian float64 or int64
bytes, so a save/load round trip is bit-exact.
"""

from __future__ import annotations

import binascii
import json
import math
import operator
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
    FeatureVector,
    SelectionModel,
    _image_grid_rows,
    extract_image,
    extract_raw,
    fit_selection,
)
from .lmnn import LmnnConfig, MetricMatrix, train_metric
from .qq import _render_rows, qq_points, rasterize
from .sampling import (
    DistributionSpec,
    Sample,
    SeedScheme,
    _array,
    _as_values,
    _frozen,
    _integer,
    _seed,
    _z_scores,
    benchmark_case_id,
    case_spec,
    parse_distribution_label,
    replicates,
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

_NULL_CASE = 15
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
        if not 0.0 < self.h0_keep_fraction <= 1.0:
            raise ConfigError("h0_keep_fraction must be in (0, 1]")
        if self.extractor not in EXTRACTOR_IDS:
            raise ConfigError(
                f"extractor must be one of {', '.join(EXTRACTOR_IDS)}"
            )
        feature_length = self.n if self.extractor == "RawOrder" else IMAGE_GRID_LENGTH
        if not 1 <= self.d <= feature_length:
            raise ConfigError(
                f"d must be in 1..{feature_length} for extractor {self.extractor}"
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


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test: the statistic, the cutoff it faced, the call.

    p_value is the Monte-Carlo p-value (1 + #{null >= statistic}) / (N + 1)
    over the model's N null distances (North, Curtis & Sham, AJHG 71:439,
    2002); the verdict stays statistic > cutoff.
    """

    statistic: float
    cutoff: float
    reject: bool
    alpha: float
    p_value: float | None = None

    def __post_init__(self) -> None:
        if self.reject != (self.statistic > self.cutoff):
            raise InvalidArgumentError("reject flag contradicts statistic vs cutoff")

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
    """A trained tester: selection, metric, centroid, null calibration."""

    extractor_id: str
    selection: SelectionModel
    metric: MetricMatrix
    centroid: np.ndarray
    null_distances: np.ndarray
    cutoff: float
    alpha: float
    n: int
    config: TrainConfig

    def __post_init__(self) -> None:
        centroid = _frozen(self, "centroid", _array(self.centroid, "centroid"))
        null = _frozen(self, "null_distances", _array(self.null_distances, "null_distances"))
        cfg = self.config  # validated, so the equality also checks the copies
        if (self.extractor_id, self.n, self.alpha) != (cfg.extractor, cfg.n, cfg.alpha):
            raise InvalidArgumentError("extractor_id, n and alpha disagree with config")
        if centroid.size != self.selection.d:
            raise InvalidArgumentError("centroid length must equal selection.d")
        if self.metric.dim != self.selection.d:
            raise InvalidArgumentError("metric dimension must equal selection.d")
        if null.size == 0 or np.any(np.diff(null) < 0):
            raise InvalidArgumentError("null_distances must be sorted ascending")
        if self.cutoff != _upper_quantile(null, self.alpha):
            raise InvalidArgumentError(
                "cutoff is not the (1-alpha) order statistic of null_distances"
            )


def extract_features(x: Sample | np.ndarray, extractor_id: str) -> FeatureVector:
    """Run one extractor on a sample (rasterizing first if image-based)."""
    if extractor_id == "RawOrder":
        return extract_raw(x)
    if extractor_id == "ImageGrid":
        return extract_image(rasterize(qq_points(x)))
    raise InvalidArgumentError(f"unknown extractor {extractor_id!r}")


def _chunks(spec: DistributionSpec, count: int, n: int, scheme: SeedScheme, purpose: str):
    """Replicates 0..count-1 of spec in consecutive chunks: (first index, list of Samples)."""
    rows = max(1, min(_CHUNK_ROWS, _CHUNK_VALUES // max(n, 3)))
    for start in range(0, count, rows):
        indices = range(start, min(start + rows, count))
        yield start, list(replicates(spec, n, scheme, purpose, indices))


def _feature_rows(samples: np.ndarray, extractor_id: str) -> np.ndarray:
    """``extract_features`` of each row of a (rows, n) sample block, bit for bit."""
    z = _z_scores(samples, ascending=True)
    if extractor_id == "RawOrder":
        return z
    return _image_grid_rows(_render_rows(z)[0])


def _feature_block(
    spec: DistributionSpec,
    count: int,
    n: int,
    scheme: SeedScheme,
    purpose: str,
    extractor_id: str,
) -> np.ndarray:
    features = np.empty((count, n if extractor_id == "RawOrder" else IMAGE_GRID_LENGTH))
    for start, chunk in _chunks(spec, count, n, scheme, purpose):
        values = np.stack([x.values for x in chunk])
        features[start : start + len(chunk)] = _feature_rows(values, extractor_id)
    return features


def train(cfg: TrainConfig) -> DNTModel:
    """Simulate, select, learn the metric, and calibrate the cutoff."""
    if cfg.master_seed is None:
        raise ConfigError("master_seed must be set before training")
    scheme = SeedScheme(cfg.master_seed)
    null_spec = case_spec(_NULL_CASE)

    h0 = _feature_block(null_spec, cfg.h0_pool, cfg.n, scheme, "train-h0", cfg.extractor)
    h1 = _feature_block(cfg.h1_spec, cfg.h1_count, cfg.n, scheme, "train-h1", cfg.extractor)

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

    if cfg.fresh_null_count > 0:
        null_sel = _feature_block(
            null_spec, cfg.fresh_null_count, cfg.n, scheme, "calibrate", cfg.extractor
        )[:, selection.mask]
    else:
        null_sel = h0[:, selection.mask]
    deltas = null_sel - centroid
    projected = deltas @ metric.factor()
    null_distances = np.sort(np.einsum("ij,ij->i", projected, projected))
    cutoff = _upper_quantile(null_distances, cfg.alpha)

    return DNTModel(
        extractor_id=cfg.extractor,
        selection=selection,
        metric=metric,
        centroid=centroid,
        null_distances=null_distances,
        cutoff=cutoff,
        alpha=cfg.alpha,
        n=cfg.n,
        config=cfg,
    )


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
    drawn from its own ``calibrate`` stream, in chunks of about
    _CHUNK_VALUES values and at most _CHUNK_ROWS rows; each chunk is
    scored at once (see _chunk_scorer).
    """
    try:
        n, reps = operator.index(n), operator.index(reps)
    except TypeError:
        raise InvalidArgumentError("n and reps must be integers") from None
    if reps < 100:
        raise InvalidArgumentError("calibration needs at least 100 replicates")
    if not 0.0 < alpha < 1.0:
        raise InvalidArgumentError("alpha must be in (0, 1)")
    scheme = SeedScheme(seed)
    score = _chunk_scorer(statistic_fn)
    values = np.empty(reps)
    for start, chunk in _chunks(case_spec(_NULL_CASE), reps, n, scheme, "calibrate"):
        values[start : start + len(chunk)] = score(chunk)
    values.sort()
    return _upper_quantile(values, alpha)


def _chunk_scorer(statistic_fn):
    """Calibration values of a list of null Samples under statistic_fn.

    A callable with a ``calibration_rows`` block form (each classical
    statistic, any ``functools.wraps`` wrapper of one, and
    ``power.null_statistic("SSIM", n)``) scores the whole chunk with
    one call on its (rows, n) values; any other callable is applied
    sample by sample.
    """
    kernel = getattr(statistic_fn, "calibration_rows", None)
    if kernel is not None:
        return lambda chunk: kernel(np.stack([x.values for x in chunk]))
    return lambda chunk: [
        r.calibration_value if isinstance(r, TestStatistic) else float(r)
        for r in map(statistic_fn, chunk)
    ]


def _squared_distances(features: np.ndarray, model: DNTModel) -> np.ndarray:
    """The ``dnt_test`` statistic of each row of a (rows, m) feature block.

    The selected columns are copied to C order before the centroid is
    subtracted: ``features[:, mask]`` is F-ordered, and the dot product
    of a strided row can round differently from that of a contiguous
    one. Each row then takes the one-sample quadratic form, so a row's
    value does not depend on the rows beside it.
    """
    deltas = np.ascontiguousarray(features[:, model.selection.mask]) - model.centroid
    matrix = model.metric.matrix
    return np.array([max(delta @ matrix @ delta, 0.0) for delta in deltas])


def dnt_test(x: Sample | np.ndarray, model: DNTModel) -> TestReport:
    """Squared metric distance of x's selected features to the centroid."""
    values = _as_values(x)
    if values.size != model.n:
        raise ModelMismatchError(
            f"model was trained for n={model.n}, got a sample of n={values.size}"
        )
    features = extract_features(x, model.extractor_id)
    if len(features) != model.selection.m:
        raise ModelMismatchError(
            f"extracted {len(features)} features but the model selects from "
            f"{model.selection.m}"
        )
    statistic = float(_squared_distances(features.values[np.newaxis], model)[0])
    null = model.null_distances
    at_or_above = null.size - int(np.searchsorted(null, statistic, side="left"))
    return TestReport(
        statistic=statistic,
        cutoff=model.cutoff,
        reject=statistic > model.cutoff,
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


def _noncanonical_key(canonical, raw, where: str) -> str | None:
    """Path of the first value in raw that differs from its canonical form."""
    if not (isinstance(canonical, dict) and isinstance(raw, dict)):
        return None if canonical == raw else where
    for key, value in canonical.items():
        found = _noncanonical_key(value, raw.get(key, MISSING), f"{where}.{key}")
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# Persistence


# Model arrays are stored in these explicit little-endian dtypes, never native order.
_FLOAT, _INT = np.dtype("<f8"), np.dtype("<i8")


def _encode(values: np.ndarray, dtype: np.dtype) -> str:
    """Base64 (RFC 4648, padded) of the array's bytes in dtype, row-major."""
    raw = np.asarray(values, dtype=dtype).tobytes()
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


def save_model(model: DNTModel, path: str) -> None:
    """Write the model as canonical JSON (sorted keys, binary arrays)."""
    payload = {
        "format": MODEL_FORMAT_VERSION,
        "extractor_id": model.extractor_id,
        "n": model.n,
        "alpha": model.alpha,
        "selection": {
            "scores": _encode(model.selection.scores, _FLOAT),
            "mask": _encode(model.selection.mask, _INT),
        },
        "metric": _encode(model.metric.matrix, _FLOAT),
        "centroid": _encode(model.centroid, _FLOAT),
        "null_distances": _encode(model.null_distances, _FLOAT),
        "cutoff": model.cutoff,
        "config": config_to_dict(model.config),
    }
    text = json.dumps(payload, sort_keys=True, allow_nan=False, separators=(",", ":"))
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)
        handle.write("\n")


class _Reader:
    """Typed field access over a parsed payload, with located errors."""

    def __init__(self, payload: dict, where: str):
        if not isinstance(payload, dict):
            raise FormatError(f"{where}: expected an object")
        self.payload = payload
        self.where = where

    def get(self, key: str, kind: type):
        if key not in self.payload:
            raise FormatError(f"{self.where}.{key}: missing field")
        value = self.payload[key]
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
            raise FormatError(f"{self.where}.{key}: expected {kind.__name__}")
        if kind is float and not math.isfinite(value):  # an overflowing literal such as 1e400
            raise FormatError(f"{self.where}.{key}: expected a finite number, got {value!r}")
        return value

    def array(self, key: str, dtype: np.dtype = _FLOAT) -> np.ndarray:
        """A read-only view of a base64 array field (the model types copy it); floats finite."""
        where = f"{self.where}.{key}"
        if not isinstance(self.payload.get(key, ""), str):
            raise FormatError(f"{where}: expected a base64 string of {dtype.str} values")
        text = self.get(key, str)
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


def _reject_constant(token: str):
    raise FormatError(f"model file holds the non-finite number {token}")


def load_model(path: str) -> DNTModel:
    """Read a model file, validating format, version, and invariants."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            payload = json.loads(handle.read(), parse_constant=_reject_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"model file is not valid ASCII JSON: {exc}") from None
    root = _Reader(payload, "model")
    version = root.get("format", str)
    if version != MODEL_FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"model.format: {version!r} is not supported (expected {MODEL_FORMAT_VERSION!r}); "
            "retrain the model with `dnt train` from the config block of this file"
        )
    raw_config = root.get("config", dict)
    try:
        config = config_from_dict(TrainConfig, raw_config, "model.config")
    except ConfigError as exc:
        raise FormatError(str(exc)) from None
    drift = _noncanonical_key(config_to_dict(config), raw_config, "model.config")
    if drift is not None:
        raise FormatError(f"{drift}: missing or not in canonical form")
    selection_reader = _Reader(root.get("selection", dict), "model.selection")
    try:
        selection = SelectionModel(
            selection_reader.array("scores"), selection_reader.array("mask", _INT)
        )
        metric_flat = root.array("metric")
        dim = int(round(math.isqrt(metric_flat.size)))
        if dim * dim != metric_flat.size:
            raise FormatError("model.metric: length is not a perfect square")
        metric = MetricMatrix(metric_flat.reshape(dim, dim))
        model = DNTModel(
            extractor_id=root.get("extractor_id", str),
            selection=selection,
            metric=metric,
            centroid=root.array("centroid"),
            null_distances=root.array("null_distances"),
            cutoff=root.get("cutoff", float),
            alpha=root.get("alpha", float),
            n=root.get("n", int),
            config=config,
        )
    except InvalidArgumentError as exc:
        raise FormatError(f"model: {exc}") from None
    return model
