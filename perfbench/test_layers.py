"""Self-tests of the benchmark's own machinery, at a small scale.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_layers.py

The layer x workload test runs each workload with tiny sizes under the
tracer and checks that every wrapped function records a span on the
workload that should call it, and that no workload reaches a layer it
must not. A missed rebinding would otherwise read as a silent zero.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dnt  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

TINY = worker.Sizes(
    h0_pool=400,
    h0_keep_fraction=0.1,
    h1_count=60,
    d=20,
    k=5,
    calibration_reps=200,
    power_calibration_reps=200,
    power_reps=50,
    test_files=30,
    min_ops=30,
)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_by_workload_matrix(workload, tmp_path):
    setup, run_workload = worker.WORKLOADS[workload]
    state = setup(3, TINY, tmp_path)
    recorder = tracer.Tracer()
    recorder.install()
    try:
        ledger = worker.Ledger()
        run_workload(state, TINY, 0.0, True, ledger, None)
    finally:
        recorder.uninstall()
    table = recorder.layer_table()
    assert tracer.matrix_violations(workload, table) == []
    assert ledger.failed == 0, ledger.problems
    assert not recorder.failed


def test_every_target_is_expected_somewhere():
    expected = set().union(*tracer.MUST_CALL.values())
    assert expected == set(tracer.TARGETS)
    assert set(tracer.MUST_CALL) == set(worker.WORKLOADS) == set(run.WORKLOADS)


def test_uninstall_restores_every_reference():
    originals = (dnt.power.train, dnt.engine.rasterize, dnt.classical._BY_NAME["KS"],
                 dnt.sampling.SeedScheme.stream, dnt.power.MethodBank.decide)
    recorder = tracer.Tracer()
    recorder.install()
    try:
        assert dnt.power.train is dnt.engine.train is dnt.train
        assert dnt.power.train is not originals[0]
        assert dnt.classical.statistic_fn("KS") is dnt.classical.ks_statistic
    finally:
        recorder.uninstall()
    assert (dnt.power.train, dnt.engine.rasterize, dnt.classical._BY_NAME["KS"],
            dnt.sampling.SeedScheme.stream, dnt.power.MethodBank.decide) == originals


def test_self_time_excludes_children():
    recorder = tracer.Tracer()
    inner = recorder.wrap("inner", lambda: sum(range(20_000)))
    outer = recorder.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    table = recorder.layer_table()
    calls, total, own = table["outer"]
    inner_calls, inner_total, inner_own = table["inner"]
    assert (calls, inner_calls) == (1, 3)
    assert inner_own == pytest.approx(inner_total)
    assert own == pytest.approx(total - inner_total)
    assert set(recorder.run) == {0}


def test_benchmark_json_matches_the_launcher():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        entry[:3] for entry in run.PER_LAYER
    ]
