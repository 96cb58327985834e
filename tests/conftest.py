"""Shared fixtures for the test suite.

The expensive pieces (20,000-rep calibrations, metric training, the
desk-scale power study) are built once per session and reused by every
acceptance criterion that reads them. Each heavy fixture returns a
(value, elapsed_seconds) pair so runtime targets can be checked against
the run that actually produced the numbers.
"""

from __future__ import annotations

import time

import pytest

from dnt import RunConfig, TrainConfig, run_power_study
from dnt.classical import STATISTIC_NAMES
from dnt.lmnn import LmnnConfig
from dnt.power import METHOD_NAMES, MethodBank, build_methods
from dnt.sampling import SeedScheme, case_spec, sample

MASTER_SEED = 0
NULL_CASE = 15


def desk_train_config() -> TrainConfig:
    """Desk-scale training: 5k null pool, 500 alternatives, d=100, k=25."""
    return TrainConfig(
        n=100,
        h0_pool=5000,
        h0_keep_fraction=0.01,
        h1_count=500,
        d=100,
        extractor="RawOrder",
        lmnn=LmnnConfig(k=25),
    )


@pytest.fixture(scope="session")
def full_run_config() -> RunConfig:
    return RunConfig(
        methods=METHOD_NAMES,
        reps=500,
        n=100,
        calibration_reps=20000,
        train=desk_train_config(),
        master_seed=MASTER_SEED,
    )


@pytest.fixture(scope="session")
def full_bank(full_run_config) -> tuple[MethodBank, float]:
    """All ten methods calibrated/trained once; shared across criteria."""
    start = time.perf_counter()
    bank = build_methods(full_run_config)
    return bank, time.perf_counter() - start


@pytest.fixture(scope="session")
def desk_table(full_run_config, full_bank):
    """500-rep paired power table for all ten methods, plus total seconds."""
    bank, build_seconds = full_bank
    start = time.perf_counter()
    table = run_power_study(full_run_config, bank=bank)
    return table, build_seconds + (time.perf_counter() - start)


@pytest.fixture(scope="session")
def null_rates(full_run_config, full_bank):
    """Rejection rate of every method over 2,000 fresh null samples."""
    bank, build_seconds = full_bank
    start = time.perf_counter()
    reps = 2000
    counts = {name: 0 for name in bank.methods}
    scheme, spec = SeedScheme(MASTER_SEED), case_spec(NULL_CASE)
    for r in range(reps):
        x = sample(spec, full_run_config.n, scheme.stream(NULL_CASE, r, "test"))
        for name, rejected in bank.decide(x).items():
            counts[name] += rejected
    rates = {name: counts[name] / reps for name in bank.methods}
    return rates, build_seconds + (time.perf_counter() - start)


@pytest.fixture(scope="session")
def classical_table():
    """1,000-rep power table for the six classical tests, plus seconds."""
    cfg = RunConfig(
        methods=STATISTIC_NAMES,
        reps=1000,
        n=100,
        calibration_reps=20000,
        master_seed=MASTER_SEED,
    )
    start = time.perf_counter()
    table = run_power_study(cfg)
    return table, time.perf_counter() - start
