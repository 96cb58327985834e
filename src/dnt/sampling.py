"""Distribution specs, seeded sampling, and sample-level helpers.

The seven laws and the fifteen benchmark cases live here, together with
a deterministic substream scheme: every (case, replicate, purpose)
triple hashes to its own 64-bit seed, so training, calibration, and
test draws never share a random stream even when they share a master
seed. The one vector check and the row-wise z-score and central-moment
kernels, shared by qq, features and classical, live here too, as does
the one array rule of every value type: ``_array`` converts and checks
an input, ``_frozen`` stores a read-only copy of it. Its scalar
counterpart serves every config and seed: ``_integer`` refuses a float
or bool where an integer belongs, ``_finite`` a NaN or infinity, and
``_seed`` a seed outside [0, 2**64).

Monte-Carlo loops draw a block of replicates at a time: ``stream``
takes an array of replicate indices, and ``sample`` an array of seeds,
giving a (rows, n) block whose row i equals the one-seed draw
``Generator(PCG64(seed[i]))`` bit for bit. The exactness argument: a
one-seed draw is a pure function of the 128-bit PCG64 state and
increment that the seed maps to, and the block path computes that map
exactly, as numpy documents it and keeps it stable (NEP 19). The seed's
32-bit words, low first, enter ``SeedSequence``'s four-word pool; the
mixing, run here on all rows at once in wrapping ``uint32``, yields
``generate_state(4, np.uint64)``, words (s_hi, s_lo, i_hi, i_lo). PCG64
then seeds itself (O'Neill 2014, ``srandom_r``) with
inc = 2i + 1 and state = ((inc + s) M + inc) mod 2**128, done here in
Python ints. Setting that state on one reused ``PCG64``, with no
buffered 32-bit word, leaves it where ``PCG64(seed)`` starts, so each
law's draw consumes the same words, rejection samplers included.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DntError, InsufficientDataError, InvalidArgumentError

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
    "sample_moments",
]

# kind -> (parameter count, parameter check, its refusal, draw of n values
# from a Generator); KINDS, DistributionSpec and sample() all read it.
_LAWS = {
    "Normal": (2, lambda p: p[1] > 0, "Normal scale must be > 0",
               lambda rng, p, n: rng.normal(*p, n)),
    "StudentT": (1, lambda p: p[0] > 0, "StudentT df must be > 0",
                 lambda rng, p, n: rng.standard_t(*p, n)),
    "Uniform": (2, lambda p: p[0] < p[1], "Uniform needs a < b",
                lambda rng, p, n: rng.uniform(*p, n)),
    "Beta": (2, lambda p: min(p) > 0, "Beta needs a > 0 and b > 0",
             lambda rng, p, n: rng.beta(*p, n)),
    "Laplace": (2, lambda p: p[1] > 0, "Laplace scale must be > 0",
                lambda rng, p, n: rng.laplace(*p, n)),
    "Gamma": (2, lambda p: min(p) > 0, "Gamma needs shape > 0 and rate > 0",
              lambda rng, p, n: rng.gamma(p[0], 1.0 / p[1], n)),
    "ChiSquare": (1, lambda p: p[0] > 0, "ChiSquare df must be > 0",
                  lambda rng, p, n: rng.chisquare(*p, n)),
}

KINDS = tuple(_LAWS)

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
# The null row: every calibration and training null pool draws from it.
_NULL_CASE = 15


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
        count, valid, refusal, _ = _LAWS[self.kind]
        if len(params) != count:
            raise InvalidArgumentError(
                f"{self.kind} takes {count} parameter(s), got {len(params)}"
            )
        _array(params, "distribution parameters")
        if not valid(params):
            raise InvalidArgumentError(refusal)
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
    """An observed vector of finite values."""

    values: np.ndarray

    def __post_init__(self) -> None:
        _frozen(self, "values", _as_values(self.values))

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


def _integer(value, what: str, error: type[DntError] = InvalidArgumentError) -> int:
    """value as a Python int. A float, even a whole one, and a bool are refused, not truncated."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def _finite(value, what: str, error: type[DntError] = InvalidArgumentError):
    """value if it is a finite real number, else error; a bool, numpy's too, is not one."""
    try:
        if not isinstance(value, (bool, np.bool_)) and math.isfinite(value):
            return value
    except (TypeError, OverflowError):  # OverflowError: an int beyond float range
        pass
    raise error(f"{what} must be a finite number, got {value!r}")


def _seed(value, what: str, error: type[DntError] = InvalidArgumentError) -> int:
    """value as a seed in [0, 2**64); one outside is refused, never wrapped onto another."""
    seed = _integer(value, what, error)
    if not 0 <= seed <= _MASK64:
        raise error(f"{what} must fit in 64 unsigned bits")
    return seed


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# stream() hashes its purpose tag on every call; the tags are a handful of
# fixed strings, so each is hashed once.
@functools.lru_cache(maxsize=64)
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
        object.__setattr__(self, "master_seed", _seed(self.master_seed, "master_seed"))

    def stream(
        self, case_id: int, replicate_idx: int | np.ndarray, purpose_tag: str
    ) -> int | np.ndarray:
        """The seed of one replicate; for a 1-D integer array of indices, a uint64 array of them.

        Element i of the array form is the seed of ``int(replicate_idx[i])``:
        splitmix64 runs unchanged on ``uint64``, whose products wrap mod
        2**64 as the masks do on Python ints.
        """
        if isinstance(replicate_idx, np.ndarray):
            if replicate_idx.dtype.kind not in "iu" or replicate_idx.ndim != 1:
                raise InvalidArgumentError("replicate indices must be a 1-D integer array")
            if (replicate_idx < 0).any():
                raise InvalidArgumentError("replicate indices must be >= 0")
            replicate_idx = replicate_idx.astype(np.uint64)
        else:
            replicate_idx = _seed(replicate_idx, "replicate_idx")
        h = self.master_seed
        for word in (_seed(case_id, "case_id"), replicate_idx, _fnv1a64(purpose_tag)):
            h = _splitmix64(h ^ word)
        return h


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_steps(init: int, mult: int, count: int) -> list[tuple[np.uint32, np.uint32]]:
    """The hash constant before and after each of count steps; it never depends on the data."""
    h = [init * pow(mult, k, 1 << 32) % (1 << 32) for k in range(count + 1)]
    return [(np.uint32(a), np.uint32(b)) for a, b in zip(h, h[1:])]


# A four-word pool hashes 4 entropy words, then 12 more while mixing;
# generate_state(4, np.uint64) hashes 8 output words.
_POOL_STEPS = _hash_steps(_INIT_A, _MULT_A, 16)
_STATE_STEPS = _hash_steps(_INIT_B, _MULT_B, 8)


def _hash(value: np.ndarray, step: tuple[np.uint32, np.uint32]) -> np.ndarray:
    value = (value ^ step[0]) * step[1]
    return value ^ (value >> np.uint32(16))


def _seed_states(seeds: np.ndarray) -> list[list[int]]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of each seed, as Python ints.

    A seed's entropy is one 32-bit word below 2**32 and two above; the
    pool pads it with zero words, so every seed hashes as (low, high, 0, 0).
    """
    steps = iter(_POOL_STEPS)
    zero = np.zeros(seeds.size, np.uint32)
    words = (seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32), zero, zero)
    pool = [_hash(word, next(steps)) for word in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hash(pool[src], next(steps))
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = [_hash(pool[k % 4], step).astype(np.uint64) for k, step in enumerate(_STATE_STEPS)]
    # Each 64-bit word is two 32-bit words, low first.
    return np.stack([out[k] | out[k + 1] << np.uint64(32) for k in range(0, 8, 2)], 1).tolist()


def sample(spec: DistributionSpec, n: int, seed: int | np.ndarray) -> Sample | np.ndarray:
    """Draw n i.i.d. values from spec's law, deterministic in seed (0 <= seed < 2**64).

    For a 1-D uint64 array of seeds the result is a (len(seed), n) float
    array whose row i is ``sample(spec, n, int(seed[i])).values``, bit for
    bit (the module docstring gives the argument).
    """
    n = _integer(n, "sample size")
    if n < 3:
        raise InsufficientDataError("sample size must be at least 3")
    draw = _LAWS[spec.kind][3]
    if not isinstance(seed, np.ndarray):
        seed = _seed(seed, "seed")
        return Sample(draw(np.random.Generator(np.random.PCG64(seed)), spec.params, n))
    if seed.dtype != np.uint64 or seed.ndim != 1:
        raise InvalidArgumentError("a seed block must be a 1-D uint64 array")
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    block = np.empty((seed.size, n))
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(block, _seed_states(seed)):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULTIPLIER + inc) & _MASK128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        row[:] = draw(rng, spec.params, n)
    return block


def _array(x, what: str, dtype: type = float, ndim: int = 1) -> np.ndarray:
    """x as an ndim-dimensional array of dtype (float or an integer type), copied only to convert.

    A float array must be finite. An integer array takes only integer or
    bool input, so a float index is refused instead of truncated.
    """
    if dtype is float:
        values = np.asarray(x, dtype=float)
    else:
        values = np.asarray(x)
        if values.size and values.dtype.kind not in "biu":
            raise InvalidArgumentError(f"{what} must hold integers, got {values.dtype}")
        values = values.astype(dtype, copy=False)
    if values.ndim != ndim:
        raise InvalidArgumentError(f"{what} must be a {ndim}-D array")
    if dtype is float and not np.isfinite(values).all():
        raise InvalidArgumentError(f"{what} must be finite")
    return values


def _frozen(owner: object, name: str, values: np.ndarray) -> np.ndarray:
    """Store a read-only, C-ordered copy of values as field name of a frozen dataclass."""
    values = values.copy()  # C order, whatever the input's layout
    values.flags.writeable = False
    object.__setattr__(owner, name, values)
    return values


def _as_values(x: Sample | np.ndarray) -> np.ndarray:
    """x as a float vector: 1-D, finite and n >= 3, or refused."""
    if isinstance(x, Sample):
        return x.values  # checked when the Sample was built
    values = _array(x, "sample values")
    if values.size < 3:
        raise InsufficientDataError("sample needs at least 3 values")
    return values


# Row kernels over an (rows, n) array or one n-vector: ``np.add.reduce``
# along the last axis sums each row exactly as it sums a 1-D vector.
def _centered(x: np.ndarray) -> np.ndarray:
    """Each row minus its mean (the mean ``ndarray.mean`` gives, bit for bit)."""
    return x - np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _central_moment(powers: np.ndarray) -> np.ndarray:
    """Each row's mean of powers, a power of its centered values formed by multiplication.

    Callers multiply: ``sq = c * c``, then ``sq * c`` and ``sq * sq``, never
    ``c**k``. IEEE multiplication is correctly rounded, so the moments have
    the same bits on every CPU. numpy's vectorised ``pow`` at powers 3 and 4
    rounds with the SIMD path it dispatches to (its AVX-512 one differs from
    the baseline's), and it is many times slower than two multiplications.
    """
    return np.add.reduce(powers, axis=-1) / powers.shape[-1]


def _moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's second, third and fourth central moments; zero variance is refused."""
    centered = _centered(x)
    sq = centered * centered
    m2 = _central_moment(sq)
    if (m2 == 0.0).any():
        raise InsufficientDataError("degenerate sample: zero variance")
    return m2, _central_moment(sq * centered), _central_moment(sq * sq)


def _z_scores(x: np.ndarray, ascending: bool = False) -> np.ndarray:
    """Each row's z-scores under the mean / population-sd fit, sorted if asked."""
    z = _centered(x)
    sd = np.sqrt(_central_moment(z * z))[..., np.newaxis]
    if (sd == 0.0).any():
        raise InsufficientDataError("degenerate sample: zero variance")
    z /= sd
    if ascending:
        z.sort(axis=-1)
    return z


def standardize(x: Sample | np.ndarray) -> Sample:
    """Center and scale to mean 0, population (1/n) standard deviation 1."""
    return Sample(_z_scores(_as_values(x)))


def sample_moments(x: Sample | np.ndarray) -> tuple[float, float, float, float]:
    """(mean, population sd, skewness m3/m2^1.5, kurtosis m4/m2^2)."""
    values = _as_values(x)
    m2, m3, m4 = (float(m) for m in _moments(values))
    return float(values.mean()), m2**0.5, m3 / m2**1.5, m4 / m2**2
