"""One benchmark workload in one process, started by run.py.

Usage (run.py sets PYTHONPATH to the checkout's src/ and fixes the
BLAS thread count before this process imports numpy):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--setup-only] [--fixed-ops] [--trace] --spawned-at T

The worker builds its inputs from the seed (the set-up phase), then
runs the workload's one-shot job and then a closed loop of
single-sample operations with one client and no worker threads, until
--seconds have passed since the job started. It checks every output and
prints one JSON object as its last line. With --fixed-ops the loop runs
exactly Sizes.min_ops operations instead, so a traced and an untraced
run do identical work.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import dnt
from dnt import classical, cli, engine, power
from dnt.engine import TrainConfig
from dnt.lmnn import LmnnConfig
from dnt.power import RunConfig
from dnt.sampling import SeedScheme, case_spec, sample

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

STATISTICS = tracing.STATISTICS
POWER_METHODS = ("DNT-image", *STATISTICS, "PSNR", "SSIM")
NULL_CASE = 15
CASES = tuple(range(1, 16))
ALPHA = 0.05
# The desk model is trained from this fixed seed, as in the test suite's
# fixtures; the workload seed drives every other input.
TRAIN_SEED = 0
# Monte-Carlo checks accept anything within this many standard errors.
Z = 5.0
# Shared virtual machines drift in speed by tens of percent over
# seconds, so every closed loop gets at least this long, even after a
# long job.
MIN_LOOP_S = 10.0


@dataclass(frozen=True)
class Sizes:
    """How much work one run does; the defaults are the benchmark."""

    n: int = 100
    h0_pool: int = 5000
    h0_keep_fraction: float = 0.01
    h1_count: int = 500
    d: int = 100
    k: int = 25
    calibration_reps: int = 20_000
    power_calibration_reps: int = 1_000
    power_reps: int = 100
    test_files: int = 2_000
    min_ops: int = 1_000

    def train_config(self, extractor: str) -> TrainConfig:
        return TrainConfig(
            n=self.n,
            h0_pool=self.h0_pool,
            h0_keep_fraction=self.h0_keep_fraction,
            h1_count=self.h1_count,
            d=self.d,
            extractor=extractor,
            lmnn=LmnnConfig(k=self.k),
            master_seed=TRAIN_SEED,
        )


@dataclass
class Ledger:
    """Operations attempted and failed; failed checks count as failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


@dataclass
class Measured:
    """What one workload run measured and produced."""

    job_s: float = 0.0
    op_s: list[float] = field(default_factory=list)
    details: dict[str, tuple[float, str]] = field(default_factory=dict)
    digest: str = ""
    phases: dict[str, float] = field(default_factory=dict)


def closed_loop(make_input, call, verify, ledger, deadline, min_ops, fixed, max_ops=None):
    """One client: send the next operation only when the last one ended.

    Only the call itself is timed; building its input is not. Runs until
    min_ops operations are done and the perf_counter deadline has passed,
    and for at least MIN_LOOP_S (exactly min_ops with fixed), never
    beyond max_ops.
    """
    latencies: list[float] = []
    deadline = max(deadline, time.perf_counter() + MIN_LOOP_S)
    i = 0
    while True:
        if fixed:
            done = i >= min_ops
        else:
            done = i >= min_ops and time.perf_counter() >= deadline
        if done or (max_ops is not None and i >= max_ops):
            break
        x = make_input(i)
        t0 = time.perf_counter()
        try:
            out = call(x)
        except Exception as exc:  # a failed operation, counted, not fatal
            latencies.append(time.perf_counter() - t0)
            ledger.record(False, f"op {i}: {type(exc).__name__}: {exc}")
        else:
            latencies.append(time.perf_counter() - t0)
            ledger.record(verify(i, out), f"op {i}: wrong output {out!r:.120}")
        i += 1
    return latencies


def binomial_band(p: float, count: int, extra_var: float = 0.0) -> tuple[float, float]:
    half = Z * math.sqrt(p * (1.0 - p) / max(count, 1) + extra_var)
    return p - half, p + half


def cutoff_band(ref: dict, name: str, reps: int) -> tuple[float, float]:
    """Null quantiles between which a reps-replicate cutoff must fall.

    The calibrated cutoff is an order statistic, so its null level
    F(cutoff) has standard error sqrt(a(1-a)/reps); the reference
    quantiles carry their own error from ref["null_reps"][name] draws.
    """
    grid = ref["null_quantiles"]
    probs = np.asarray(grid["probabilities"])
    values = np.asarray(grid[name])
    level = 1.0 - ALPHA
    var = level * ALPHA * (1.0 / reps + 1.0 / ref["null_reps"][name])
    half = Z * math.sqrt(var)
    lo, hi = np.interp([level - half, level + half], probs, values)
    return float(lo), float(hi)


def reference_power(ref: dict, method: str, case: int, cutoff: float | None) -> float:
    """Reference rejection rate of one power cell at this run's own cutoff.

    A calibrated cutoff moves with its Monte-Carlo draw, and some cells
    (GG on U(0,1), say) are steep in it, so the reference keeps each
    cell's power as a curve over cutoffs and is read where this run
    landed. DNT-image's cutoff comes with its fixed-seed model.
    """
    power = ref["power_image"]
    if cutoff is None:
        return power["dnt_image"][str(case)]
    return float(np.interp(cutoff, power["curve_cutoffs"][method], power["curves"][method][str(case)]))


def model_digest(model) -> str:
    h = hashlib.sha256()
    for array in (
        model.selection.scores,
        model.selection.mask,
        model.metric.matrix,
        model.centroid,
        model.null_distances,
        np.array([model.cutoff]),
    ):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def input_maker(seed: int, sizes: Sizes, purpose: str):
    """Input maker cycling through the 15 cases with distinct replicates.

    It holds the unwrapped sample and stream functions, bound at set-up
    before any tracing starts, so making inputs never counts as work of
    the program under test.
    """
    scheme = SeedScheme(seed)
    stream = SeedScheme.stream
    specs = {case: case_spec(case) for case in CASES}

    def make(i: int):
        case = CASES[i % len(CASES)]
        seed_i = stream(scheme, case, i // len(CASES), purpose)
        return case, sample(specs[case], sizes.n, seed_i)

    return make


# ---------------------------------------------------------------------------
# desk_raw: train DNT-raw, save it, then `dnt test` one file at a time


def setup_desk_raw(seed: int, sizes: Sizes, workdir: Path) -> dict:
    make = input_maker(seed, sizes, "bench-test")
    files = []
    for i in range(sizes.test_files):
        case, x = make(i)
        path = workdir / f"sample-{i:05d}.txt"
        path.write_text("\n".join(repr(float(v)) for v in x.values) + "\n", encoding="utf-8")
        files.append((case, str(path)))
    return {"files": files, "model_path": str(workdir / "desk_raw.model.json")}


_SUMMARY = re.compile(r"^(reject|accept) normality: statistic=(\S+) cutoff=(\S+)")


def run_desk_raw(state, sizes, deadline, fixed, ledger, ref) -> Measured:
    m = Measured()
    t0 = time.perf_counter()
    model = engine.train(sizes.train_config("RawOrder"))
    m.job_s = time.perf_counter() - t0
    engine.save_model(model, state["model_path"])
    m.digest = model_digest(model)

    files = state["files"]
    verdicts: list[tuple[int, bool]] = []

    def call(path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.entrypoint(["test", "--model", state["model_path"], "--data", path])
        return code, out.getvalue()

    def verify(i, result):
        code, text = result
        match = _SUMMARY.match(text)
        if match is None or code not in (0, 1):
            return False
        reject = match.group(1) == "reject"
        stat, cutoff = float(match.group(2)), float(match.group(3))
        verdicts.append((files[i][0], reject))
        # Printed values are rounded, and rounding keeps order but can tie.
        related = stat >= cutoff if reject else stat <= cutoff
        return code == (1 if reject else 0) and related

    m.op_s = closed_loop(
        lambda i: files[i][1], call, verify, ledger, deadline, sizes.min_ops, fixed,
        max_ops=len(files),
    )

    ledger.record(
        model.n == sizes.n and model.selection.d == sizes.d and math.isfinite(model.cutoff),
        "desk_raw: trained model has the wrong shape",
    )
    if ref is not None:
        null = [r for case, r in verdicts if case == NULL_CASE]
        alt = [r for case, r in verdicts if case != NULL_CASE]
        lo, hi = binomial_band(ALPHA, len(null), ALPHA * (1 - ALPHA) / sizes.h0_pool)
        rate = sum(null) / max(len(null), 1)
        ledger.record(lo <= rate <= hi, f"desk_raw: null rejection {rate:.3f} outside [{lo:.3f}, {hi:.3f}]")
        want = ref["desk_raw"]["h1_mean_power"]
        lo, hi = binomial_band(want, len(alt), want * (1 - want) / ref["desk_raw"]["h1_reps"])
        got = sum(alt) / max(len(alt), 1)
        ledger.record(lo <= got <= hi, f"desk_raw: H1 rejection {got:.3f} outside [{lo:.3f}, {hi:.3f}]")
    return m


# ---------------------------------------------------------------------------
# calibrate_classical: six 20k-rep calibrations, then six-test decisions


def setup_calibrate_classical(seed, sizes, workdir) -> dict:
    return {"seed": seed, "make": input_maker(seed, sizes, "bench-decide")}


def run_calibrate_classical(state, sizes, deadline, fixed, ledger, ref) -> Measured:
    m = Measured()
    cutoffs: dict[str, float] = {}
    t0 = time.perf_counter()
    for name in STATISTICS:
        start = time.perf_counter()
        cutoffs[name] = engine.calibrate_cutoff(
            classical.statistic_fn(name), sizes.n, sizes.calibration_reps, ALPHA, seed=state["seed"]
        )
        m.phases[f"calibrate.{name}"] = time.perf_counter() - start
    m.job_s = time.perf_counter() - t0

    functions = {name: classical.statistic_fn(name) for name in STATISTICS}
    cases: list[int] = []
    rejections = {name: 0 for name in STATISTICS}

    def make(i):
        case, x = state["make"](i)
        cases.append(case)
        return x

    def call(x):
        return {
            name: fn(x).calibration_value > cutoffs[name] for name, fn in functions.items()
        }

    def verify(i, out):
        if set(out) != set(STATISTICS):
            return False
        if cases[i] == NULL_CASE:
            for name, rejected in out.items():
                rejections[name] += bool(rejected)
        return True

    m.op_s = closed_loop(make, call, verify, ledger, deadline, sizes.min_ops, fixed)
    m.details = {
        "calibrate_reps_per_s": (len(STATISTICS) * sizes.calibration_reps / m.job_s, "1/s"),
        **{f"cutoff.{name}": (value, "") for name, value in cutoffs.items()},
    }
    if ref is not None:
        for name, value in cutoffs.items():
            lo, hi = cutoff_band(ref, name, sizes.calibration_reps)
            ledger.record(lo <= value <= hi, f"{name} cutoff {value:.6g} outside [{lo:.6g}, {hi:.6g}]")
        null_count = cases.count(NULL_CASE)
        for name, count in rejections.items():
            lo, hi = binomial_band(ALPHA, null_count, ALPHA * (1 - ALPHA) / sizes.calibration_reps)
            rate = count / max(null_count, 1)
            ledger.record(lo <= rate <= hi, f"{name} null rejection {rate:.3f} outside [{lo:.3f}, {hi:.3f}]")
    return m


def calibration_canary(sizes: Sizes) -> str:
    """Exact six cutoffs at a fixed seed: the workload's bit-identity probe."""
    cutoffs = {
        name: engine.calibrate_cutoff(classical.statistic_fn(name), sizes.n, 1000, ALPHA, seed=0)
        for name in STATISTICS
    }
    return json.dumps({name: repr(value) for name, value in cutoffs.items()}, sort_keys=True)


# ---------------------------------------------------------------------------
# power_image: build the nine-method bank, run the study, then decide()


def setup_power_image(seed, sizes, workdir) -> dict:
    cfg = RunConfig(
        methods=POWER_METHODS,
        reps=sizes.power_reps,
        n=sizes.n,
        calibration_reps=sizes.power_calibration_reps,
        train=sizes.train_config("ImageGrid"),
        master_seed=seed,
    )
    return {"cfg": cfg, "make": input_maker(seed, sizes, "bench-decide")}


def run_power_image(state, sizes, deadline, fixed, ledger, ref) -> Measured:
    m = Measured()
    cfg = state["cfg"]
    t0 = time.perf_counter()
    bank = power.build_methods(cfg)
    t1 = time.perf_counter()
    table = power.run_power_study(cfg, bank)
    t2 = time.perf_counter()
    m.job_s = t2 - t0
    m.digest = model_digest(bank.models["DNT-image"])

    def verify(i, out):
        return set(out) == set(POWER_METHODS) and all(isinstance(v, bool) for v in out.values())

    m.op_s = closed_loop(
        lambda i: state["make"](i)[1], bank.decide, verify, ledger, deadline, sizes.min_ops, fixed
    )
    m.details = {
        "build_s": (t1 - t0, "s"),
        "power_samples_per_s": (len(CASES) * cfg.reps / (t2 - t1), "1/s"),
    }

    if ref is not None:
        for name, value in bank.cutoffs.items():
            lo, hi = cutoff_band(ref, name, cfg.calibration_reps)
            ledger.record(lo <= value <= hi, f"{name} cutoff {value:.6g} outside [{lo:.6g}, {hi:.6g}]")
        for name in POWER_METHODS:
            pool = sizes.h0_pool if name == "DNT-image" else cfg.calibration_reps
            got = table.fractions[NULL_CASE][name]
            lo, hi = binomial_band(ALPHA, cfg.reps, ALPHA * (1 - ALPHA) / pool)
            ledger.record(lo <= got <= hi, f"{name} null cell {got:.3f} outside [{lo:.3f}, {hi:.3f}]")
            for case in CASES[:-1]:
                want = reference_power(ref, name, case, bank.cutoffs.get(name))
                got = table.fractions[case][name]
                spread = max(want * (1 - want), 0.01)
                half = Z * math.sqrt(spread / cfg.reps + spread / ref["power_image"]["reps"])
                ledger.record(
                    abs(got - want) <= half,
                    f"{name} case {case} power {got:.3f} vs reference {want:.3f} +- {half:.3f}",
                )
    return m


# ---------------------------------------------------------------------------


def percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * 1e3 if values else math.nan


def environment() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "dnt": str(Path(dnt.__file__).resolve().parent),
    }


# Workload name -> (set-up, run).
WORKLOADS = {
    "desk_raw": (setup_desk_raw, run_desk_raw),
    "calibrate_classical": (setup_calibrate_classical, run_calibrate_classical),
    "power_image": (setup_power_image, run_power_image),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--fixed-ops", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    sizes = Sizes()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        state = WORKLOADS[args.workload][0](args.seed, sizes, workdir)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        # time.monotonic is the system-wide CLOCK_MONOTONIC, shared with run.py.
        result: dict = {"setup_s": time.monotonic() - args.spawned_at}
        if not args.setup_only:
            result.update(measure(args, sizes, state, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, sizes: Sizes, state: dict, tracer) -> dict:
    """Run the workload once and report what run.py needs."""
    ref = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    ledger = Ledger()
    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    m = WORKLOADS[args.workload][1](state, sizes, deadline, args.fixed_ops, ledger, ref)
    measured_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "measured_s": measured_s,
        "job_s": m.job_s,
        "ops_per_s": len(m.op_s) / sum(m.op_s),
        "op_p50_ms": percentile_ms(m.op_s, 50),
        "op_p99_ms": percentile_ms(m.op_s, 99),
        "ops": len(m.op_s),
        "details": m.details,
        "phases": m.phases,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
    }
    if tracer is not None:
        tracer.uninstall()
        table = tracer.layer_table()
        for problem in tracing.matrix_violations(args.workload, table):
            ledger.record(False, problem)
        result.update(
            layers=table,
            counts=dict(tracer.counts),
            layer_failed=dict(tracer.failed),
            raster_unique_ratio=tracer.raster_unique_ratio(),
        )
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(
            str(out_dir / f"trace-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "env": result["env"]},
        )
    if args.workload == "calibrate_classical":
        m.digest = calibration_canary(sizes)
    result.update(
        attempted=ledger.attempted,
        failed=ledger.failed,
        problems=ledger.problems,
        bit_identical=m.digest == ref["digests"][args.workload],
    )
    return result


if __name__ == "__main__":
    sys.exit(main())
