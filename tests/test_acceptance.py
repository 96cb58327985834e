"""End-to-end acceptance suite.

One test per shipped guarantee, in a fixed order, each printing a
single `[acceptance N] PASS/FAIL` line with the measured numbers:

  1. type-I calibration of all ten methods at 2,000 null replicates
  2. classical power anchors at 1,000 replicates, 20,000-rep cutoffs
  3. desk-scale learned-metric power beats the 0.55 floor and KS
  4. monotone power ordering across the t family with > 3 sigma gaps
  5. image-similarity directional power (SSIM uniform, PSNR Beta(2,1))
  6. metric-learning property suite on 20 seeded problems
  7. statistic values vs straight-from-formula oracles; n=100 KS cutoff
     vs the Lilliefors (1967) alpha=0.05 value
  8. determinism: byte-identical CSVs, bit-exact model/raster round-trips

Verdict lines are computed before any assertion so every criterion
reports its numbers even when one of them fails.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from dnt import (
    RunConfig,
    TrainConfig,
    case_spec,
    dnt_test,
    emit_table,
    load_model,
    run_power_study,
    sample,
    save_model,
    train,
)
from dnt.classical import (
    ad_statistic,
    bs_statistic,
    gg_statistic,
    glb_statistic,
    jb_statistic,
    ks_statistic,
)
from dnt.engine import calibrate_cutoff
from dnt.lmnn import (
    LmnnConfig,
    MetricMatrix,
    build_triplets,
    mahalanobis_distance,
    train_metric,
)
from dnt.qq import qq_points, rasterize, to_pgm
from dnt.sampling import Sample, SeedScheme

from conftest import MASTER_SEED, desk_train_config


def _verdict(capsys, number: int, title: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[acceptance {number}] {title}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_type_i_calibration_all_methods(null_rates, capsys) -> None:
    """Every method rejects fresh null samples at 0.05 +/- 0.015."""
    rates, seconds = null_rates
    worst = max(rates, key=lambda name: abs(rates[name] - 0.05))
    rates_ok = all(abs(rate - 0.05) <= 0.015 for rate in rates.values())
    time_ok = seconds < 600.0
    detail = (
        f"worst {worst} at {rates[worst]:.4f}, band 0.035..0.065; "
        f"{seconds:.0f}s of 600s"
    )
    _verdict(capsys, 1, "type-I calibration", rates_ok and time_ok, detail)
    assert rates_ok, rates
    assert time_ok, f"type-I run took {seconds:.0f}s"


def test_classical_power_anchors(classical_table, capsys) -> None:
    """Classical per-case powers sit inside their reference bands."""
    table, seconds = classical_table
    anchors = (
        ("KS", 1, 0.955, 0.04),
        ("AD", 5, 0.948, 0.04),
        ("JB", 7, 0.807, 0.04),
        ("GG", 5, 0.011, 0.02),
        ("JB", 3, 0.298, 0.04),
        ("GLB", 5, 0.948, 0.08),
        ("GLB", 7, 0.849, 0.08),
    )
    misses = []
    readings = []
    for method, case_id, target, tol in anchors:
        got = table.fractions[case_id][method]
        readings.append(f"{method}/c{case_id}={got:.3f}")
        if abs(got - target) > tol:
            misses.append(f"{method} case {case_id}: {got:.3f} vs {target} +/- {tol}")
    time_ok = seconds < 1200.0
    detail = f"{'; '.join(readings)}; {seconds:.0f}s of 1200s"
    _verdict(capsys, 2, "classical power anchors", not misses and time_ok, detail)
    assert not misses, misses
    assert time_ok, f"classical run took {seconds:.0f}s"


def test_learned_raw_power_beats_floor_and_ks(desk_table, capsys) -> None:
    """DNT-raw mean power over the 14 alternatives is >= 0.55 and > KS."""
    table, seconds = desk_table
    dnt_mean = table.mean_row["DNT-raw"]
    ks_mean = table.mean_row["KS"]
    ok = table.reps == 500 and dnt_mean >= 0.55 and dnt_mean > ks_mean
    time_ok = seconds < 1800.0
    detail = (
        f"DNT-raw mean {dnt_mean:.3f} vs floor 0.55 and KS {ks_mean:.3f}; "
        f"{seconds:.0f}s of 1800s"
    )
    _verdict(capsys, 3, "desk-scale learned power", ok and time_ok, detail)
    assert table.reps == 500
    assert dnt_mean >= 0.55, dnt_mean
    assert dnt_mean > ks_mean, (dnt_mean, ks_mean)
    assert time_ok, f"power study took {seconds:.0f}s"


def test_t_family_power_ordering(desk_table, capsys) -> None:
    """Power decreases strictly from t(2) to t(50), gaps above 3 sigma."""
    table, _ = desk_table
    reps = table.reps
    problems = []
    readings = []
    for method in ("DNT-raw", "JB"):
        powers = [table.fractions[case_id][method] for case_id in (1, 2, 3, 4)]
        readings.append(method + " " + "/".join(f"{p:.3f}" for p in powers))
        for hi, lo in zip(powers, powers[1:]):
            sigma = np.sqrt(hi * (1 - hi) / reps + lo * (1 - lo) / reps)
            if hi - lo <= 3.0 * sigma:
                problems.append(f"{method}: gap {hi:.3f}->{lo:.3f} <= 3*{sigma:.4f}")
    _verdict(capsys, 4, "t-family ordering", not problems, "; ".join(readings))
    assert not problems, problems


def test_image_similarity_directional_power(desk_table, capsys) -> None:
    """SSIM detects the uniform and PSNR detects Beta(2,1) with power > 0.9."""
    table, _ = desk_table
    ssim_power = table.fractions[5]["SSIM"]
    psnr_power = table.fractions[10]["PSNR"]
    ok = ssim_power > 0.9 and psnr_power > 0.9
    detail = f"SSIM/U(0,1) {ssim_power:.3f}, PSNR/Beta(2,1) {psnr_power:.3f}, floor 0.9"
    _verdict(capsys, 5, "image-similarity power", ok, detail)
    assert ssim_power > 0.9, ssim_power
    assert psnr_power > 0.9, psnr_power


def _blob_problem(seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Two Gaussian blobs, dim 3-6, each class big enough for k=3."""
    rng = np.random.default_rng(seed)
    k = 3
    dim = int(rng.integers(3, 7))
    blocks = []
    labels = []
    for label in range(2):
        count = int(rng.integers(k + 2, k + 12))
        center = rng.normal(0.0, 3.0, size=dim)
        spread = rng.uniform(0.5, 2.0)
        blocks.append(center + spread * rng.normal(size=(count, dim)))
        labels.append(np.full(count, label))
    return np.vstack(blocks), np.concatenate(labels), k


def _plain_loss(x: np.ndarray, ts, m: MetricMatrix, cfg: LmnnConfig) -> float:
    """Pull-plus-hinge objective evaluated with plain loops."""

    def quad(i: int, j: int) -> float:
        return float((x[i] - x[j]) @ m.matrix @ (x[i] - x[j]))

    loss = sum(quad(i, j) for i, j in ts.pairs)
    for focal, positive, negative in ts.triplets:
        gap = cfg.margin + quad(focal, positive) - quad(focal, negative)
        if gap > 0.0:
            loss += cfg.push_weight * gap
    return loss


def test_metric_learning_property_suite(capsys) -> None:
    """Trained metrics are PSD pseudo-metrics that never worsen the loss."""
    problems = []
    triples_checked = 0
    for seed in range(20):
        x, labels, k = _blob_problem(seed)
        cfg = LmnnConfig(k=k, max_iters=80)
        m = train_metric(x, labels, cfg)
        dim = x.shape[1]

        if float(np.abs(m.matrix - m.matrix.T).max()) > 1e-10:
            problems.append(f"seed {seed}: asymmetric matrix")
        if float(np.linalg.eigvalsh(m.matrix).min()) < -1e-8:
            problems.append(f"seed {seed}: negative eigenvalue")

        ts = build_triplets(x, labels, k)
        initial = _plain_loss(x, ts, MetricMatrix.identity(dim), cfg)
        final = _plain_loss(x, ts, m, cfg)
        if final > initial + 1e-8 * max(1.0, abs(initial)):
            problems.append(f"seed {seed}: loss rose {initial:.6g} -> {final:.6g}")

        rng = np.random.default_rng(1000 + seed)
        factor = m.factor()
        for _ in range(500):
            a, b, c = rng.normal(0.0, 3.0, size=(3, dim))
            dab = mahalanobis_distance(a, b, m)
            dbc = mahalanobis_distance(b, c, m)
            dac = mahalanobis_distance(a, c, m)
            if dab < 0.0 or abs(dab - mahalanobis_distance(b, a, m)) > 1e-8:
                problems.append(f"seed {seed}: symmetry/nonnegativity")
            if dac > dab + dbc + 1e-8:
                problems.append(f"seed {seed}: triangle inequality")
            if mahalanobis_distance(a, a, m) != 0.0:
                problems.append(f"seed {seed}: self-distance")
            factored = float(np.linalg.norm(factor.T @ (a - b)))
            if abs(factored - dab) > 1e-8:
                problems.append(f"seed {seed}: factored vs quadratic")
            triples_checked += 1

        frozen = train_metric(x, labels, replace(cfg, max_iters=0))
        if not np.array_equal(frozen.matrix, np.eye(dim)):
            problems.append(f"seed {seed}: zero-iteration not identity")
    detail = f"20 problems, {triples_checked} triples, tolerances 1e-8"
    _verdict(capsys, 6, "metric-learning properties", not problems, detail)
    assert not problems, problems[:5]


def test_statistic_oracles_and_ks_cutoff(capsys) -> None:
    """Statistics match independent oracles; KS cutoff sits at its quoted level."""
    pairs = (
        (ks_statistic, oracles.oracle_ks),
        (ad_statistic, oracles.oracle_ad),
        (jb_statistic, oracles.oracle_jb),
        (glb_statistic, oracles.oracle_glb),
        (gg_statistic, oracles.oracle_gg),
        (bs_statistic, oracles.oracle_bs),
    )
    rng = np.random.default_rng(20260815)
    max_err = 0.0
    for i in range(50):
        n = int(rng.integers(8, 21))
        draw = (rng.normal, lambda size: rng.standard_t(3, size=size),
                lambda size: rng.uniform(-1.0, 1.0, size=size), rng.exponential)
        x = np.asarray(draw[i % 4](size=n), dtype=float)
        for implementation, oracle in pairs:
            got = implementation(Sample(x)).value
            want = oracle([float(v) for v in x])
            max_err = max(max_err, abs(got - want))
    oracle_ok = max_err <= 1e-9

    cutoff = calibrate_cutoff(ks_statistic, 100, 20000, 0.05, seed=MASTER_SEED)
    # Lilliefors (1967), JASA 62:399-402, n > 30 row: 0.886/sqrt(n) at
    # alpha=0.05 (0.805/sqrt(n) is the alpha=0.10 entry).
    reference = 0.886 / np.sqrt(100)
    cutoff_ok = abs(cutoff - reference) <= 0.003
    quoted = f"{reference:.4f} (Lilliefors 1967, alpha=0.05) +/- 0.003"
    detail = f"oracle max err {max_err:.3e} vs 1e-9; KS cutoff {cutoff:.4f} vs {quoted}"
    _verdict(capsys, 7, "statistic oracles + KS cutoff", oracle_ok and cutoff_ok, detail)
    assert oracle_ok, max_err
    assert cutoff_ok, f"calibrated KS cutoff {cutoff:.4f} is outside {quoted}"


def test_determinism_and_persistence(tmp_path, capsys) -> None:
    """Same seeds give byte-identical CSVs, models, and rasters."""
    cfg = RunConfig(
        methods=("DNT-raw", "KS", "SSIM"),
        reps=60,
        n=50,
        calibration_reps=500,
        train=TrainConfig(
            n=50,
            h0_pool=300,
            h0_keep_fraction=0.1,
            h1_count=40,
            d=20,
            lmnn=LmnnConfig(k=5, max_iters=30),
        ),
        master_seed=7,
    )
    csv_first = emit_table(run_power_study(cfg), "csv")
    csv_second = emit_table(run_power_study(cfg), "csv")
    csv_ok = csv_first == csv_second

    model = train(cfg.train_config("DNT-raw"))
    first_path = tmp_path / "model.json"
    second_path = tmp_path / "model-again.json"
    save_model(model, str(first_path))
    loaded = load_model(str(first_path))
    save_model(loaded, str(second_path))
    # Bit-exact: same dtype and bytes (so -0.0 and every last bit survive).
    pairs = [
        (model.selection.scores, loaded.selection.scores),
        (model.selection.mask, loaded.selection.mask),
        (model.metric.matrix, loaded.metric.matrix),
        (model.centroid, loaded.centroid),
        (model.null_distances, loaded.null_distances),
    ]
    model_ok = (
        first_path.read_bytes() == second_path.read_bytes()
        and all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in pairs)
        and model.cutoff == loaded.cutoff
    )

    x = sample(case_spec(7), 80, SeedScheme(7).stream(7, 0, "test"))
    raster_ok = (
        np.array_equal(rasterize(qq_points(x)).pixels, rasterize(qq_points(x)).pixels)
        and to_pgm(rasterize(qq_points(x))) == to_pgm(rasterize(qq_points(x)))
    )
    loaded_report = dnt_test(sample(case_spec(1), 50, 99), loaded)
    direct_report = dnt_test(sample(case_spec(1), 50, 99), model)
    report_ok = loaded_report.statistic == direct_report.statistic

    ok = csv_ok and model_ok and raster_ok and report_ok
    detail = (
        f"csv identical {csv_ok}, model round-trip {model_ok}, "
        f"raster identical {raster_ok}, loaded-model report {report_ok}"
    )
    _verdict(capsys, 8, "determinism + persistence", ok, detail)
    assert csv_ok
    assert model_ok
    assert raster_ok
    assert report_ok


def test_power_robust_to_hyperparameters(capsys) -> None:
    """Desk-scale power stays effective across feature-count and k settings."""
    cases = (2, 5, 7, 14)
    reps = 150

    def mean_power(d: int, k: int) -> float:
        cfg = replace(
            desk_train_config(), d=d, lmnn=LmnnConfig(k=k), master_seed=11
        )
        model = train(cfg)
        scheme = SeedScheme(11)
        total = 0
        for case_id in cases:
            spec = case_spec(case_id)
            for r in range(reps):
                x = sample(spec, cfg.n, scheme.stream(case_id, r, "test"))
                total += dnt_test(x, model).reject
        return total / (reps * len(cases))

    by_d = {d: mean_power(d, 25) for d in (50, 75, 100)}
    by_k = {k: mean_power(100, k) for k in (15, 40)}
    by_k[25] = by_d[100]
    spread_d = max(by_d.values()) - min(by_d.values())
    spread_k = max(by_k.values()) - min(by_k.values())
    with capsys.disabled():
        print(
            f"\n[hyperparameters] d spread {spread_d:.3f} over {sorted(by_d)}, "
            f"k spread {spread_k:.3f} over {sorted(by_k)}"
        )
    assert min(by_d.values()) >= 0.5, by_d
    assert min(by_k.values()) >= 0.5, by_k
