"""Distribution specs, seeded sampling, and sample-level helpers.

The fifteen benchmark cases live here, together with a deterministic
substream scheme: every (case, replicate, purpose) triple hashes to its
own 64-bit seed, so training, calibration, and test draws never share
a random stream even when they share a master seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError

__all__ = [
    "KINDS",
    "DistributionSpec",
    "Sample",
    "SeedScheme",
    "benchmark_cases",
    "benchmark_case_id",
    "case_spec",
    "parse_distribution_label",
    "sample",
    "standardize",
    "standardized_values",
    "sample_moments",
]

KINDS = ("Normal", "StudentT", "Uniform", "Beta", "Laplace", "Gamma", "ChiSquare")

# (kind, params) per benchmark case id; Gamma params are (shape, rate).
_CASE_TABLE: dict[int, tuple[str, tuple[float, ...], str]] = {
    1: ("StudentT", (2.0,), "t(2)"),
    2: ("StudentT", (5.0,), "t(5)"),
    3: ("StudentT", (10.0,), "t(10)"),
    4: ("StudentT", (50.0,), "t(50)"),
    5: ("Uniform", (0.0, 1.0), "U(0,1)"),
    6: ("Beta", (2.0, 2.0), "Beta(2,2)"),
    7: ("Laplace", (0.0, 1.0), "Laplace(0,1)"),
    8: ("Beta", (6.0, 2.0), "Beta(6,2)"),
    9: ("Beta", (3.0, 2.0), "Beta(3,2)"),
    10: ("Beta", (2.0, 1.0), "Beta(2,1)"),
    11: ("Gamma", (1.0, 5.0), "Gamma(1,5)"),
    12: ("Gamma", (4.0, 5.0), "Gamma(4,5)"),
    13: ("ChiSquare", (4.0,), "ChiSq(4)"),
    14: ("ChiSquare", (20.0,), "ChiSq(20)"),
    15: ("Normal", (0.0, 1.0), "N(0,1)"),
}

_PARAM_COUNT = {
    "Normal": 2,
    "StudentT": 1,
    "Uniform": 2,
    "Beta": 2,
    "Laplace": 2,
    "Gamma": 2,
    "ChiSquare": 1,
}


@dataclass(frozen=True)
class DistributionSpec:
    """A sampling law: family kind, parameters, optional benchmark case id.

    Parameters by kind: Normal (location, scale); StudentT (df,);
    Uniform (a, b); Beta (a, b); Laplace (location, scale);
    Gamma (shape, rate); ChiSquare (df,). A non-None case_id asserts
    that this spec is exactly the benchmark table's row of that id.
    """

    kind: str
    params: tuple[float, ...]
    case_id: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidArgumentError(f"unknown distribution kind {self.kind!r}")
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        if len(params) != _PARAM_COUNT[self.kind]:
            raise InvalidArgumentError(
                f"{self.kind} takes {_PARAM_COUNT[self.kind]} parameter(s), got {len(params)}"
            )
        if not all(np.isfinite(params)):
            raise InvalidArgumentError("distribution parameters must be finite")
        if self.kind == "Normal" and params[1] <= 0:
            raise InvalidArgumentError("Normal scale must be > 0")
        if self.kind == "StudentT" and params[0] <= 0:
            raise InvalidArgumentError("StudentT df must be > 0")
        if self.kind == "Uniform" and params[1] <= params[0]:
            raise InvalidArgumentError("Uniform needs a < b")
        if self.kind == "Beta" and (params[0] <= 0 or params[1] <= 0):
            raise InvalidArgumentError("Beta needs a > 0 and b > 0")
        if self.kind == "Laplace" and params[1] <= 0:
            raise InvalidArgumentError("Laplace scale must be > 0")
        if self.kind == "Gamma" and (params[0] <= 0 or params[1] <= 0):
            raise InvalidArgumentError("Gamma needs shape > 0 and rate > 0")
        if self.kind == "ChiSquare" and params[0] <= 0:
            raise InvalidArgumentError("ChiSquare df must be > 0")
        if self.case_id is not None:
            row = _CASE_TABLE.get(self.case_id)
            if row is None:
                raise InvalidArgumentError("case_id must be in 1..15")
            if (self.kind, params) != (row[0], row[1]):
                raise InvalidArgumentError(
                    f"case_id {self.case_id} is {row[2]}, not {self.kind}{params}"
                )

    @property
    def label(self) -> str:
        if self.case_id is not None:
            return _CASE_TABLE[self.case_id][2]
        inner = ",".join(f"{p:g}" for p in self.params)
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class Sample:
    """An observed vector plus optional provenance (spec and seed)."""

    values: np.ndarray
    spec: DistributionSpec | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise InvalidArgumentError("sample values must be a 1-D vector")
        if values.size < 3:
            raise InsufficientDataError("sample needs at least 3 values")
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("sample values must all be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)


def benchmark_cases() -> dict[int, DistributionSpec]:
    """All fifteen benchmark specs keyed by case id."""
    return {cid: case_spec(cid) for cid in _CASE_TABLE}


def case_spec(case_id: int) -> DistributionSpec:
    """The benchmark spec for one case id (1..15)."""
    row = _CASE_TABLE.get(case_id)
    if row is None:
        raise InvalidArgumentError("case_id must be in 1..15")
    return DistributionSpec(row[0], row[1], case_id)


def benchmark_case_id(kind: str, params: tuple[float, ...]) -> int | None:
    """Id of the benchmark row whose law is exactly kind(params), if any."""
    for cid, (row_kind, row_params, _) in _CASE_TABLE.items():
        if (kind, params) == (row_kind, row_params):
            return cid
    return None


_KIND_ALIASES = {
    "normal": "Normal",
    "n": "Normal",
    "gaussian": "Normal",
    "t": "StudentT",
    "studentt": "StudentT",
    "uniform": "Uniform",
    "u": "Uniform",
    "beta": "Beta",
    "laplace": "Laplace",
    "gamma": "Gamma",
    "chisq": "ChiSquare",
    "chisquare": "ChiSquare",
    "chi2": "ChiSquare",
}

_BARE_DEFAULTS = {
    "Normal": (0.0, 1.0),
    "Uniform": (0.0, 1.0),
    "Laplace": (0.0, 1.0),
}


def parse_distribution_label(text: str) -> DistributionSpec:
    """Parse labels like ``t(2)``, ``Beta(6,2)``, ``laplace`` into a spec.

    A bare family name takes (0,1) defaults where those exist. Specs
    that exactly match a benchmark row get that row's case id.
    """
    label = text.strip()
    if label.endswith(")") and "(" in label:
        name, _, inner = label[:-1].partition("(")
        kind = _KIND_ALIASES.get(name.strip().lower())
        if kind is None:
            raise InvalidArgumentError(f"unknown distribution family in {text!r}")
        try:
            params = tuple(float(part) for part in inner.split(","))
        except ValueError:
            raise InvalidArgumentError(f"bad numeric parameters in {text!r}") from None
    else:
        kind = _KIND_ALIASES.get(label.lower())
        if kind is None:
            raise InvalidArgumentError(f"unknown distribution label {text!r}")
        defaults = _BARE_DEFAULTS.get(kind)
        if defaults is None:
            raise InvalidArgumentError(f"{text!r} needs explicit parameters")
        params = defaults
    return DistributionSpec(kind, params, benchmark_case_id(kind, params))


_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


@dataclass(frozen=True)
class SeedScheme:
    """Derives disjoint 64-bit substream seeds from one master seed.

    stream() folds (case_id, replicate, purpose-tag hash) into the
    master seed through successive splitmix64 finalizer rounds; it is a
    pure function and distinct triples collide only with probability
    ~2^-64 per pair.
    """

    master_seed: int

    def __post_init__(self) -> None:
        if not 0 <= int(self.master_seed) <= _MASK64:
            raise InvalidArgumentError("master_seed must fit in 64 unsigned bits")
        object.__setattr__(self, "master_seed", int(self.master_seed))

    def stream(self, case_id: int, replicate_idx: int, purpose_tag: str) -> int:
        if case_id < 0 or replicate_idx < 0:
            raise InvalidArgumentError("case_id and replicate_idx must be >= 0")
        h = self.master_seed
        for word in (case_id, replicate_idx, _fnv1a64(purpose_tag)):
            h = _splitmix64(h ^ (word & _MASK64))
        return h

    def generator(self, case_id: int, replicate_idx: int, purpose_tag: str) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(self.stream(case_id, replicate_idx, purpose_tag))
        )


def sample(spec: DistributionSpec, n: int, seed: int) -> Sample:
    """Draw n i.i.d. values from spec's law, deterministic in seed."""
    if n < 3:
        raise InsufficientDataError("sample size must be at least 3")
    rng = np.random.Generator(np.random.PCG64(int(seed) & _MASK64))
    p = spec.params
    if spec.kind == "Normal":
        values = rng.normal(p[0], p[1], size=n)
    elif spec.kind == "StudentT":
        values = rng.standard_t(p[0], size=n)
    elif spec.kind == "Uniform":
        values = rng.uniform(p[0], p[1], size=n)
    elif spec.kind == "Beta":
        values = rng.beta(p[0], p[1], size=n)
    elif spec.kind == "Laplace":
        values = rng.laplace(p[0], p[1], size=n)
    elif spec.kind == "Gamma":
        values = rng.gamma(p[0], 1.0 / p[1], size=n)
    else:  # ChiSquare
        values = rng.chisquare(p[0], size=n)
    return Sample(values, spec=spec, seed=int(seed) & _MASK64)


def _as_values(x: Sample | np.ndarray) -> np.ndarray:
    values = x.values if isinstance(x, Sample) else np.asarray(x, dtype=float)
    if values.ndim != 1 or values.size < 3:
        raise InsufficientDataError("need a 1-D vector of at least 3 values")
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError("values must all be finite")
    return np.asarray(values, dtype=float)


def standardized_values(x: Sample | np.ndarray) -> np.ndarray:
    """The values of ``standardize(x)`` as a plain array, with no Sample built."""
    values = _as_values(x)
    sd = float(values.std())
    if sd == 0.0:
        raise InsufficientDataError("degenerate sample: zero variance")
    return (values - values.mean()) / sd


def standardize(x: Sample | np.ndarray) -> Sample:
    """Center and scale to mean 0, population (1/n) standard deviation 1."""
    spec = x.spec if isinstance(x, Sample) else None
    seed = x.seed if isinstance(x, Sample) else None
    return Sample(standardized_values(x), spec=spec, seed=seed)


def sample_moments(x: Sample | np.ndarray) -> tuple[float, float, float, float]:
    """(mean, population sd, skewness m3/m2^1.5, kurtosis m4/m2^2)."""
    values = _as_values(x)
    mean = float(values.mean())
    centered = values - mean
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        raise InsufficientDataError("degenerate sample: zero variance")
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    return mean, m2**0.5, m3 / m2**1.5, m4 / m2**2
