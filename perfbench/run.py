"""One benchmark for the statistics system: build, serve and churn.

Usage (from the repository root)::

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Every run executes three stages -- ``build`` (statistics for a whole
table, until every column answers), ``serve`` (closed-loop estimate
traffic against a server process) and ``churn`` (inserts, deletes,
maintenance sweeps and reads against the worker-pool server) -- in
``CYCLES`` interleaved slices.  The workload names the stage that does
most of the work (``MAIN_SHARE`` of ``--seconds`` for serve and churn,
``BUILDS[1]`` builds for build); the other two run short, so every run
reports every end-to-end metric.  Every process a run starts is stopped
and reaped before it exits, multiprocessing's resource tracker included.  With ``--trace 1``
the run alternates probed and unprobed work and reports the per-layer
metrics instead (see ``targets.json`` for what each should move).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from typing import Any, Dict, Set

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("build", "serve", "churn")
#: Share of ``--seconds`` the serve and churn stages measure on their own
#: workload, and on the others.
MAIN_SHARE = 0.5
MINOR_SHARE = 0.25
#: Serve/churn slices per run.
CYCLES = 8
#: Builds per run on the other workloads and on ``build``: a build of
#: the table takes seconds, so the build stage runs a fixed number of
#: builds, spread evenly over the cycles, rather than a time share.  A
#: traced run builds twice as often (unprobed and probed builds alternate).
BUILDS = (1, 3)
#: Minimum timed churn rounds per run on the other workloads, where the
#: churn stage is a short reference and its p90 rests on fewer rounds
#: than the ``churn`` workload's own ``samples_needed(90)``.
MINOR_ROUNDS = 40

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "build_peak_mb": "MB",
    "stats_bytes_pct": "%",
    "preds_per_s": "1/s",
    "batch_p50_ms": "ms",
    "batch_p99_ms": "ms",
    "single_p50_ms": "ms",
    "fresh_p50_ms": "ms",
    "fresh_p90_ms": "ms",
    "churn_read_p50_ms": "ms",
    "churn_read_p90_ms": "ms",
    "ingest_rows_per_s": "1/s",
}

#: Per-layer metric -> (unit, stage, key in that stage's layer results).
PER_LAYER = {
    "engine.density_scan_s": ("s", "build", "density_scan_s"),
    "density.index_mb": ("MB", "build", "index_mb"),
    "search.bucket_search_s": ("s", "build", "bucket_search_s"),
    "search.acceptance_tests": ("count", "build", "acceptance_tests"),
    "search.oracle_decided_ratio": ("ratio", "build", "oracle_decided_ratio"),
    "kernels.acceptance_cache_hit_ratio": ("ratio", "build", "cache_hit_ratio"),
    "compression.packing_s": ("s", "build", "packing_s"),
    "compiled.compile_s": ("s", "build", "compile_s"),
    "store.put_s": ("s", "build", "put_s"),
    "compiled.plan_mb": ("MB", "build", "plan_mb"),
    "server.service_ms": ("ms", "serve", "service_ms"),
    "server.transport_ms": ("ms", "serve", "transport_ms"),
    "frames.bytes_per_pred": ("B", "serve", "bytes_per_pred"),
    "dictionary.encode_us_per_pred": ("us", "serve", "encode_us_per_pred"),
    "compiled.estimate_us_per_pred": ("us", "serve", "estimate_us_per_pred"),
    "query.estimate_ms": ("ms", "serve", "query_estimate_ms"),
    "audit.record_us": ("us", "serve", "audit_record_us"),
    "refresh.insert_ms": ("ms", "churn", "insert_ms"),
    "maintenance.failing_buckets_ms": ("ms", "churn", "failing_buckets_ms"),
    "repair.repair_ms": ("ms", "churn", "repair_ms"),
    "repair.buckets_per_sweep": ("count", "churn", "buckets_per_sweep"),
    "refresh.repair_ratio": ("ratio", "churn", "repair_ratio"),
    "refresh.rebuild_ms": ("ms", "churn", "rebuild_ms"),
    "compiled.patch_ms": ("ms", "churn", "patch_ms"),
    "store.sweep_put_ms": ("ms", "churn", "sweep_put_ms"),
    "shm.publish_ms": ("ms", "churn", "publish_ms"),
    "shm.patched_ratio": ("ratio", "churn", "patched_ratio"),
    "workers.estimate_ms": ("ms", "churn", "worker_estimate_ms"),
    "workers.fallbacks": ("ratio", "churn", "worker_fallbacks"),
}


def environment_header(args) -> str:
    import numpy

    return (
        f"# perfbench nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}"
    )


def budgets(workload: str, seconds: float) -> Dict[str, float]:
    """Seconds the serve and churn stages measure in a run."""
    return {stage: seconds * (MAIN_SHARE if stage == workload else MINOR_SHARE) for stage in ("serve", "churn")}


def build_cycles(workload: str, traced: bool) -> Set[int]:
    """The cycles that start with a build, spread evenly over the run."""
    builds = BUILDS[workload == "build"] * (2 if traced else 1)
    return {index * CYCLES // builds for index in range(builds)}


def run_stages(workload: str, seed: int, seconds: float, traced: bool, workdir: Path) -> Dict[str, Any]:
    """Set every stage up, then run ``CYCLES`` rounds of build, serve and
    churn slices, so a slow spell of the machine lands on every stage
    alike instead of on whichever stage happened to be running."""
    from build_stage import BuildStage
    from churn_stage import ChurnStage
    from serve_stage import ServeStage
    from stats import samples_needed

    budget = {stage: share / CYCLES for stage, share in budgets(workload, seconds).items()}
    min_rounds = -(-(samples_needed(90) if workload == "churn" else MINOR_ROUNDS) // CYCLES)
    builds_at = build_cycles(workload, traced)
    with contextlib.ExitStack() as closing:
        build = BuildStage(seed, workdir, traced)
        closing.callback(build.close)
        serve = ServeStage(seed, workdir, traced)
        closing.callback(serve.close)
        churn = ChurnStage(seed, workdir, traced)
        closing.callback(churn.close)
        setup_s = build.setup_seconds() + serve.setup_seconds() + churn.setup_seconds()
        for cycle in range(CYCLES):
            if cycle in builds_at:
                build.step()
            serve.step(budget["serve"])
            churn.step(budget["churn"], min_rounds)
    stages = {"build": build.finish(), "serve": serve.finish(), "churn": churn.finish()}
    return {
        "stages": stages,
        "setup_s": setup_s,
        "attempted": sum(out["attempted"] for out in stages.values()),
        "failed": sum(out["failed"] for out in stages.values()),
        "failures": [f"{name}: {failure}" for name, out in stages.items() for failure in out["failures"]],
    }


def collect(result: Dict[str, Any], workload: str, traced: bool) -> Dict[str, Dict[str, Any]]:
    stages = result["stages"]
    if not traced:
        values = {
            "setup_s": result["setup_s"],
            **{key: stages["build"][key] for key in ("build_s", "build_peak_mb", "stats_bytes_pct")},
            **{key: stages["serve"][key] for key in (
                "preds_per_s", "batch_p50_ms", "batch_p99_ms", "single_p50_ms")},
            **{key: stages["churn"][key] for key in (
                "fresh_p50_ms", "fresh_p90_ms", "churn_read_p50_ms", "churn_read_p90_ms", "ingest_rows_per_s")},
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    layers = {"build": stages["build"]["layers"], "serve": stages["serve"], "churn": stages["churn"]}
    metrics = {
        name: {"value": layers[stage][key], "unit": unit}
        for name, (unit, stage, key) in PER_LAYER.items()
    }
    metrics["trace.overhead_pct"] = {"value": stages[workload]["overhead_pct"], "unit": "%"}
    metrics["trace.coverage_pct"] = {"value": stages[workload]["coverage_pct"], "unit": "%"}
    return metrics


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and reap it.

    Spawning the builder and the estimator pool's shared memory start it
    as a child of this process; left running it would outlive the run.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    print(environment_header(args), flush=True)

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_stages(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for stage, out in result["stages"].items():
        counts = {k: out[k] for k in ("builds", "samples", "rounds") if k in out}
        print(f"# {stage}: attempted={out.get('attempted')} {counts}", flush=True)
    for failure in result["failures"]:
        print(f"# FAILED {failure}", flush=True)
    metrics = collect(result, args.workload, bool(args.trace))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
