"""Regenerate perfbench/reference.json, the values the benchmark checks against.

Run from the repository root, with the same BLAS setting as run.py:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        PYTHONPATH=src python3 perfbench/make_reference.py

It takes a few minutes. Every draw comes from a master seed that no
benchmark run uses, so the checks compare independent Monte-Carlo
estimates. Regenerate only when the program's intended behaviour
changes, and say so where the change is described.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from dnt import classical, engine
from dnt.imagesim import METRIC_NAMES, SimilarityReference
from dnt.qq import qq_points, rasterize
from dnt.sampling import SeedScheme, case_spec, sample

import worker

REFERENCE_SEED = (1 << 40) + 7
CLASSICAL_NULL_REPS = 100_000
IMAGE_NULL_REPS = 20_000
POWER_REPS = 1_000
PROBABILITIES = np.round(np.arange(0.90, 0.99 + 1e-9, 0.0005), 4)
# Null levels at which each power cell's curve over cutoffs is kept.
CURVE_PROBABILITIES = PROBABILITIES[::5]
CALIBRATED = (*worker.STATISTICS, *METRIC_NAMES)


def rank_cutoff(values: np.ndarray) -> float:
    """The order statistic engine.calibrate_cutoff would pick."""
    ordered = np.sort(values)
    return float(ordered[math.ceil((1.0 - worker.ALPHA) * ordered.size - 1e-9) - 1])


def null_values(n: int) -> dict[str, np.ndarray]:
    scheme = SeedScheme(REFERENCE_SEED)
    spec = case_spec(worker.NULL_CASE)
    out = {name: np.empty(CLASSICAL_NULL_REPS) for name in worker.STATISTICS}
    for r in range(CLASSICAL_NULL_REPS):
        x = sample(spec, n, scheme.stream(worker.NULL_CASE, r, "reference-null"))
        for name in worker.STATISTICS:
            out[name][r] = classical.statistic_fn(name)(x).calibration_value
    ideal = SimilarityReference.ideal(n)
    for name in METRIC_NAMES:
        out[name] = np.empty(IMAGE_NULL_REPS)
    for r in range(IMAGE_NULL_REPS):
        x = sample(spec, n, scheme.stream(worker.NULL_CASE, r, "reference-null"))
        raster = rasterize(qq_points(x))
        for name in METRIC_NAMES:
            out[name][r] = ideal.statistic(raster, name)
    return out


def rejection_fractions(decide, n: int) -> dict[int, dict[str, float]]:
    scheme = SeedScheme(REFERENCE_SEED)
    fractions = {}
    for case in worker.CASES:
        spec = case_spec(case)
        counts: dict[str, int] = {}
        for r in range(POWER_REPS):
            for name, rejected in decide(sample(spec, n, scheme.stream(case, r, "reference-test"))).items():
                counts[name] = counts.get(name, 0) + bool(rejected)
        fractions[case] = {name: count / POWER_REPS for name, count in counts.items()}
    return fractions


def study_statistics(n: int) -> dict[str, dict[int, np.ndarray]]:
    """Every calibrated statistic on POWER_REPS reference samples per case."""
    scheme = SeedScheme(REFERENCE_SEED)
    ideal = SimilarityReference.ideal(n)
    out: dict[str, dict[int, np.ndarray]] = {name: {} for name in CALIBRATED}
    for case in worker.CASES:
        spec = case_spec(case)
        rows = []
        for r in range(POWER_REPS):
            x = sample(spec, n, scheme.stream(case, r, "reference-test"))
            raster = rasterize(qq_points(x))
            rows.append(
                [classical.statistic_fn(name)(x).calibration_value for name in worker.STATISTICS]
                + [ideal.statistic(raster, name) for name in METRIC_NAMES]
            )
        table = np.array(rows)
        for j, name in enumerate(CALIBRATED):
            out[name][case] = table[:, j]
    return out


def main() -> int:
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        print(__doc__, file=sys.stderr)
        return 2
    sizes = worker.Sizes()
    values = null_values(sizes.n)
    null_quantiles = {"probabilities": PROBABILITIES.tolist()}
    for name, draws in values.items():
        null_quantiles[name] = np.quantile(draws, PROBABILITIES).tolist()
    cutoffs = {name: rank_cutoff(draws) for name, draws in values.items()}

    raw = engine.train(sizes.train_config("RawOrder"))
    raw_fractions = rejection_fractions(
        lambda x: {"DNT-raw": engine.dnt_test(x, raw).reject}, sizes.n
    )
    h1 = [raw_fractions[case]["DNT-raw"] for case in worker.CASES if case != worker.NULL_CASE]

    image = engine.train(sizes.train_config("ImageGrid"))
    image_fractions = rejection_fractions(
        lambda x: {"DNT-image": engine.dnt_test(x, image).reject}, sizes.n
    )
    statistics = study_statistics(sizes.n)
    curve_cutoffs = {
        name: np.quantile(values[name], CURVE_PROBABILITIES).tolist() for name in CALIBRATED
    }
    curves = {
        name: {
            str(case): (draws[:, None] > np.asarray(curve_cutoffs[name])[None, :]).mean(axis=0).tolist()
            for case, draws in statistics[name].items()
        }
        for name in CALIBRATED
    }

    reference = {
        "about": (
            "Reference values for perfbench checks, made by make_reference.py. "
            "GLB as coded equals AD term for term (they differ by about 1e-14), "
            "so their null quantiles and cutoffs coincide; both are kept. "
            "The KS cutoff here is this calibration's own value, not the 0.0808 "
            "that acceptance criterion 7 pins."
        ),
        "reference_seed": REFERENCE_SEED,
        "null_reps": {
            name: int(draws.size) for name, draws in values.items()
        },
        "cutoffs": cutoffs,
        "null_quantiles": null_quantiles,
        "desk_raw": {
            "h1_mean_power": float(np.mean(h1)),
            "h1_reps": POWER_REPS * len(h1),
            "null_rate": raw_fractions[worker.NULL_CASE]["DNT-raw"],
            "cutoff": raw.cutoff,
        },
        "power_image": {
            "reps": POWER_REPS,
            "curve_probabilities": CURVE_PROBABILITIES.tolist(),
            "curve_cutoffs": curve_cutoffs,
            "curves": curves,
            "dnt_image": {str(case): row["DNT-image"] for case, row in image_fractions.items()},
            "dnt_image_cutoff": image.cutoff,
        },
        "digests": {
            "desk_raw": worker.model_digest(raw),
            "calibrate_classical": worker.calibration_canary(sizes),
            "power_image": worker.model_digest(image),
        },
    }
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
