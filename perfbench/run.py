"""The dnt benchmark: one workload per call, untraced or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports dnt from the checkout's
src/ and fails when there is none. Workloads (see README.md):

- desk_raw: train DNT-raw at desk scale, save it, then a closed loop
  of in-process `dnt test` calls, one pre-written sample file each;
- calibrate_classical: 20,000-rep cutoffs for KS, AD, JB, GLB, GG and
  BS, then a closed loop deciding one sample with all six;
- power_image: build_methods and run_power_study for DNT-image, the
  six classical statistics, PSNR and SSIM, then a closed loop of
  MethodBank.decide on one sample.

Each run happens in a fresh worker process (worker.py) with the BLAS
thread count fixed here, before numpy loads. With --trace 0 the
launcher first starts SETUP_PROBES workers that only set up, so setup_s
is a median, then one worker that measures. With --trace 1 it runs the
workload twice with identical work, untraced and traced, and reports
the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it name each
measured quantity in the workload's own terms, the environment, and
the correctness findings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, STATISTICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("desk_raw", "calibrate_classical", "power_image")
# One client and no worker threads: BLAS gets one thread, which on a
# 2-vCPU Xeon virtual machine also trained the desk model faster.
BLAS_THREADS = 1
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0


# Per-layer metrics, in the order of the layer table in README.md:
# (metric, unit, better, how it is read from the traced worker's result).
PER_LAYER = [
    ("lmnn.train_metric.self_s", "s", "lower", ("self", "lmnn.train_metric")),
    ("lmnn.build_triplets.s", "s", "lower", ("total", "lmnn.build_triplets")),
    ("lmnn.triplets", "count", "lower", ("count", "lmnn.triplets")),
    ("lmnn.pairs", "count", "lower", ("count", "lmnn.pairs")),
    ("sampling.sample.calls", "count", "lower", ("calls", "sampling.sample")),
    ("sampling.sample.self_s", "s", "lower", ("self", "sampling.sample")),
    ("sampling.stream.self_s", "s", "lower", ("self", "sampling.stream")),
    *(
        (f"classical.{name}.self_s", "s", "lower", ("self", f"classical.{name}"))
        for name in STATISTICS
    ),
    ("engine.calibrate_cutoff.self_s", "s", "lower", ("self", "engine.calibrate_cutoff")),
    ("qq.qq_points.self_s", "s", "lower", ("self", "qq.qq_points")),
    ("qq.rasterize.calls", "count", "lower", ("calls", "qq.rasterize")),
    ("qq.rasterize.self_s", "s", "lower", ("self", "qq.rasterize")),
    ("qq.rasterize.unique_ratio", "ratio", "higher", ("raster_unique_ratio", None)),
    ("imagesim.statistic.self_s", "s", "lower", ("self", "imagesim.statistic")),
    ("features.extract_image.self_s", "s", "lower", ("self", "features.extract_image")),
    ("power.build_methods.s", "s", "lower", ("total", "power.build_methods")),
    ("power.decide.calls", "count", "lower", ("calls", "power.decide")),
    ("power.decide.self_s", "s", "lower", ("self", "power.decide")),
    ("features.extract_raw.self_s", "s", "lower", ("self", "features.extract_raw")),
    ("features.fit_selection.s", "s", "lower", ("total", "features.fit_selection")),
    ("engine.train.self_s", "s", "lower", ("self", "engine.train")),
    ("engine.load_model.s", "s", "lower", ("total", "engine.load_model")),
    ("engine.save_model.s", "s", "lower", ("total", "engine.save_model")),
    ("engine.model_bytes", "bytes", "lower", ("count", "engine.model_bytes")),
    ("engine.dnt_test.self_s", "s", "lower", ("self", "engine.dnt_test")),
    ("cli.entrypoint.self_s", "s", "lower", ("self", "cli.entrypoint")),
    *((f"{layer}.failed", "count", "lower", ("failed", layer)) for layer in LAYERS),
    ("trace.overhead_frac", "ratio", "lower", ("overhead", None)),
]

# What the generic measurements mean on each workload, by the names a
# user of that workload would give them.
WORKLOAD_NAMES = {
    "desk_raw": {"job_s": "train_s", "op": "test"},
    "calibrate_classical": {"job_s": "calibrate_s", "op": "decide6"},
    "power_image": {"job_s": "power_s", "op": "decide9"},
}
# The end-to-end metrics in BENCHMARK.json. The closed loop is gated by
# its throughput; its p50 and p99 latencies are printed but not gated.
# On a 2-vCPU Xeon virtual machine the loop latency switched between
# two modes (7.5 and 12 ms per test call) every few seconds, which moved
# the median between runs by up to 30%, more than the mean.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "job_s": "s",
    "ops_per_s": "1/s",
}

# The re-anchor baseline in ROADMAP.md: (row, workload, unit, expected).
BASELINE = [
    ("desk train() total", "desk_raw", "s", 10.2),
    ("calibrate_cutoff(KS, 20k reps)", "calibrate_classical", "s", 1.9),
    ("rasterize per call", "power_image", "ms", 0.78),
    ("extract_image per call", "power_image", "ms", 0.34),
    ("dnt_test per call", "desk_raw", "ms", 0.08),
]


class BenchmarkError(RuntimeError):
    """A worker failed to produce a result; the run has no metrics."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def run_worker(args, deadline: float, *flags: str) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("time limit reached before a worker could start")
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *flags,
        "--spawned-at",
    ]
    cmd.append(repr(time.monotonic()))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker {' '.join(flags)} exceeded the time limit") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchmarkError(f"worker {' '.join(flags)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("worker printed no result")
    return json.loads(lines[-1])


def source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def layer_value(traced: dict, how: tuple, overhead: float) -> float:
    kind, key = how
    if kind == "overhead":
        return overhead
    if kind == "raster_unique_ratio":
        return float(traced["raster_unique_ratio"])
    if kind == "count":
        return float(traced["counts"].get(key, 0))
    if kind == "failed":
        return float(traced["layer_failed"].get(key, 0))
    calls, total, own = traced["layers"].get(key, (0, 0.0, 0.0))
    return float({"calls": calls, "total": total, "self": own}[kind])


def baseline_rows(workload: str, untraced: dict, traced: dict) -> list[str]:
    """The ROADMAP re-anchor rows this workload can reproduce."""
    layers = traced["layers"]

    def per_call_ms(name: str) -> float:
        calls, total, _ = layers.get(name, (0, 0.0, 0.0))
        return 1e3 * total / calls if calls else float("nan")

    measured = {
        "desk train() total": untraced["job_s"],
        "calibrate_cutoff(KS, 20k reps)": untraced["phases"].get("calibrate.KS"),
        "rasterize per call": per_call_ms("qq.rasterize"),
        "extract_image per call": per_call_ms("features.extract_image"),
        "dnt_test per call": per_call_ms("engine.dnt_test"),
    }
    return [
        f"baseline {row!r}: measured {measured[row]:.4g} {unit}, ROADMAP {expected:g} {unit}, "
        f"ratio {measured[row] / expected:.3f}"
        for row, where, unit, expected in BASELINE
        if where == workload
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dnt benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "dnt" / "__init__.py").is_file():
        print(f"error: no dnt sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace} "
             f"(one client, closed loop, BLAS threads {BLAS_THREADS})"]
    try:
        if args.trace == 0:
            probes = [run_worker(args, deadline, "--setup-only") for _ in range(SETUP_PROBES)]
            main_run = run_worker(args, deadline)
            runs = [main_run]
            setups = [p["setup_s"] for p in probes] + [main_run["setup_s"]]
            values = {
                "setup_s": statistics.median(setups),
                "peak_rss_mb": main_run["peak_rss_mb"],
                "job_s": main_run["job_s"],
                "ops_per_s": main_run["ops_per_s"],
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            names = WORKLOAD_NAMES[args.workload]
            op = names["op"]
            lines += [
                f"setup_s = {values['setup_s']:.6g} s (median of "
                f"{', '.join(f'{s:.4f}' for s in setups)})",
                f"peak_rss_mb = {values['peak_rss_mb']:.6g} MB",
                f"{names['job_s']} = {values['job_s']:.6g} s  [job_s]",
                f"{op}_per_s = {values['ops_per_s']:.6g} 1/s  [ops_per_s]",
                f"{op}_p50_ms = {main_run['op_p50_ms']:.6g} ms, {op}_p99_ms = "
                f"{main_run['op_p99_ms']:.6g} ms over {main_run['ops']} calls (not gated)",
            ]
            for key, (value, unit) in main_run["details"].items():
                lines.append(f"{key} = {value:.6g} {unit}".rstrip())
        else:
            untraced = run_worker(args, deadline, "--fixed-ops")
            traced = run_worker(args, deadline, "--fixed-ops", "--trace")
            runs = [untraced, traced]
            overhead = (traced["measured_s"] - untraced["measured_s"]) / untraced["measured_s"]
            metrics = {
                name: {"value": layer_value(traced, how, overhead), "unit": unit}
                for name, unit, _, how in PER_LAYER
            }
            for name, metric in metrics.items():
                lines.append(f"{name} = {metric['value']:.6g} {metric['unit']}")
            lines.append(f"untraced {untraced['measured_s']:.4f} s, traced "
                         f"{traced['measured_s']:.4f} s, {untraced['ops']} operations each")
            lines.extend(baseline_rows(args.workload, untraced, traced))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / ".perfbench_work", ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    env = {**runs[-1]["env"], **source_record(), "workload": args.workload, "seed": args.seed}
    lines.append(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    lines.append(f"bit_identical_to_reference = {all(r['bit_identical'] for r in runs)} (not gating)")
    lines.append("env " + json.dumps(env, sort_keys=True))
    for run in runs:
        for problem in run["problems"]:
            lines.append(f"FAILED {problem}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
