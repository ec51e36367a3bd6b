"""The churn stage: writes beside reads, driven in-process and in order.

The service runs behind ``start_server_thread(..., ServiceConfig(
estimator_workers=1))``, so repairs go through plan patching, shared
memory publishing and the estimator worker pool.  A
:class:`RefreshScheduler` whose threshold every round crosses is swept
by hand (no poll thread).  Each round, against one mid-sized column:

1. hot-code ``StatisticsService.insert`` bursts sized to break a few
   buckets, then ``delete`` of part of those rows; every
   ``WIDE_EVERY``-th round instead spreads inserts over most buckets,
   which escalates the sweep to a full rebuild;
2. one ``RefreshScheduler.check_now(block=True)`` -- the time from the
   last acknowledged write to its return is the freshness latency;
3. ``READS`` ``estimate_range_array`` batches, each checked against the
   column's exact current frequencies.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing import shared_memory
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy as np

import repro.service.refresh as refresh_module
from repro.core.compiled import CompiledHistogram
from repro.service.config import ServiceConfig
from repro.service.refresh import ColumnRegister, RefreshScheduler
from repro.service.server import StatisticsService, start_server_thread
from repro.service.shm import SharedPlanDirectory, sweep_orphan_segments
from repro.service.store import StatisticsStore
from repro.service.workers import EstimatorWorkerPool

from inputs import CHURN_COLUMN, CHURN_TABLE, make_churn_table, make_read_batches
from probes import Tracer
from stats import SETUP_REPEATS, envelope_violations, median, sliced_percentile

#: Staleness past which a key is swept; every round's churn exceeds it.
SWEEP_THRESHOLD = 1e-6
#: Buckets broken per hot round.
HOT_BUCKETS = 2
#: Rows inserted on a hot code, in multiples of the column's theta.
HOT_THETAS = 20
#: Share of a hot burst deleted again in the same round.
DELETE_SHARE = 0.25
#: Every WIDE_EVERY-th round damages most buckets (escalates to rebuild).
WIDE_EVERY = 8
#: Rows a wide round inserts per damaged bucket, in multiples of theta.
#: Enough that the failing share is far past the escalation threshold:
#: near it (2 thetas) a sweep sometimes repairs ~70 buckets before it
#: escalates and takes twice as long, which made the freshness tail bimodal.
WIDE_THETAS = 6
READS = 8
READ_SIZE = 256


class Churn:
    """One in-process service + worker pool + manual refresh scheduler."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self._children_before = set(multiprocessing.active_children())
        self.table = make_churn_table()
        self.service = StatisticsService(workdir / "catalog", seed=seed)
        self.service.add_table(self.table)
        self.handle = start_server_thread(self.service, config=ServiceConfig(estimator_workers=1))
        self.scheduler = RefreshScheduler(
            self.service.store,
            self.service.registry,
            threshold=SWEEP_THRESHOLD,
            kind=self.service.kind,
            config=self.service.config,
            metrics=self.service.metrics,
            journal=self.service.journal,
        )
        self.column = self.table.column(CHURN_COLUMN)
        self.reads = make_read_batches(self.column, seed, READS, READ_SIZE)
        self.rng = np.random.default_rng([seed, 5])
        # Warm the pool path once so the first round pays no lazy set-up.
        self.read(self.reads[0])

    @property
    def register(self) -> ColumnRegister:
        return self.service.registry.get(CHURN_TABLE, CHURN_COLUMN)

    def read(self, batch) -> np.ndarray:
        values, _ = self.service.estimate_range_array(CHURN_TABLE, CHURN_COLUMN, batch.lows, batch.highs)
        return values

    def writes(self, round_index: int) -> List[tuple]:
        """The round's write plan: ``(op, codes)`` pairs."""
        histogram = self.register.histogram()
        theta = histogram.theta
        buckets = histogram.buckets
        if round_index % WIDE_EVERY == WIDE_EVERY - 1:
            picks = self.rng.choice(len(buckets), size=max(1, int(0.6 * len(buckets))), replace=False)
            per_bucket = max(1, int(WIDE_THETAS * theta))
        else:
            picks = self.rng.choice(len(buckets), size=min(HOT_BUCKETS, len(buckets)), replace=False)
            per_bucket = int(HOT_THETAS * theta)
        plan = []
        for pick in picks:
            bucket = buckets[int(pick)]
            code = int(self.rng.integers(int(bucket.lo), int(bucket.hi)))
            plan.append(("insert", np.full(per_bucket, code, dtype=np.int64)))
            if round_index % WIDE_EVERY != WIDE_EVERY - 1:
                plan.append(("delete", np.full(int(DELETE_SHARE * per_bucket), code, dtype=np.int64)))
        return plan

    def close(self, published: List[str]) -> List[str]:
        """Stop everything; returns what was left behind (leaks): live
        worker processes, any ``published`` plan segment that still
        exists, and orphaned segments of dead processes."""
        self.scheduler.stop()
        self.handle.stop()
        self.service.close()
        leaks = [
            f"process {p.name}"
            for p in multiprocessing.active_children()
            if p not in self._children_before
        ]
        for name in published:
            try:
                segment = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            segment.close()
            leaks.append(f"segment {name}")
        leaks.extend(f"orphan segment {name}" for name in sweep_orphan_segments())
        return leaks


def _churn_tracer() -> Tracer:
    tracer = Tracer()
    tracer.wrap(ColumnRegister, "insert_many", "refresh.insert")
    tracer.wrap(ColumnRegister, "delete_many", "refresh.delete")
    tracer.wrap(ColumnRegister, "failing_buckets", "maintenance.failing_buckets")
    tracer.wrap(
        ColumnRegister, "repair", "repair.repair",
        lambda probe, args, result: probe.tally("buckets", result.repaired_buckets),
    )

    def on_submit(probe, args, future) -> None:
        start = perf_counter()
        future.add_done_callback(lambda _: probe.tally("build_s", perf_counter() - start))

    tracer.wrap(refresh_module, "submit_histogram_build", "refresh.rebuild", on_submit)
    tracer.wrap(CompiledHistogram, "patch", "compiled.patch")
    tracer.wrap(
        SharedPlanDirectory, "publish", "shm.publish",
        lambda probe, args, entry: probe.tally(str(entry.get("action")), 1),
    )
    tracer.wrap(EstimatorWorkerPool, "estimate", "workers.estimate")
    tracer.wrap(EstimatorWorkerPool, "publish", "workers.publish")
    tracer.wrap(StatisticsStore, "put", "store.put")
    tracer.wrap(StatisticsService, "estimate_range_array", "service.read")
    return tracer


def segment_recorder(published: List[str]) -> Tracer:
    """A tracer that only records every plan segment name published."""
    tracer = Tracer()

    def record(probe, args, entry) -> None:
        name = entry.get("name")
        if name and name not in published:
            published.append(str(name))

    tracer.wrap(SharedPlanDirectory, "publish", "shm.segments", record)
    return tracer


class ChurnStage:
    """A :class:`Churn` service driven round by round, plus the samples.

    In a traced run rounds alternate unprobed/probed.  ``published``
    collects every plan segment name (via :func:`segment_recorder`, which
    the stage installs before the first service starts) so closing can
    check that none outlived its server.
    """

    def __init__(self, seed: int, workdir: Path, traced: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        self.traced = traced
        self.churn: Optional[Churn] = None
        self.published: List[str] = []
        self.recorder = segment_recorder(self.published)
        self.tracer = _churn_tracer()
        self.leaks: List[str] = []
        self.fresh = {True: [], False: []}
        # Unprobed freshness and read samples of each step, for the p90s.
        self.fresh_slices: List[List[float]] = []
        self.read_slices: List[List[float]] = []
        self.round_s = {True: 0.0, False: 0.0}
        self.rows = 0
        self.write_s = 0.0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0

    def setup_seconds(self) -> float:
        """Bring the service up ``SETUP_REPEATS`` times, keep the last;
        the median start-up time is the stage's set-up time."""
        self.recorder.install()
        times = []
        for index in range(SETUP_REPEATS):
            self._stop_service()
            start = perf_counter()
            self.churn = Churn(self.seed, self.workdir / f"churn-{index}")
            times.append(perf_counter() - start)
        return median(times)

    def step(self, seconds: float, min_rounds: int) -> None:
        """One untimed warm-up round (the service sat idle while the
        other stages ran), then timed rounds for ``seconds`` (at least
        ``min_rounds``).  Every round's reads are checked."""
        deadline = perf_counter() + seconds
        timed = -1
        self.fresh_slices.append([])
        self.read_slices.append([])
        while timed < min_rounds or perf_counter() < deadline:
            self._round(timed >= 0)
            timed += 1

    def _round(self, timed: bool) -> None:
        churn = self.churn
        probed = timed and self.traced and self.rounds % 2 == 1
        if probed:
            self.tracer.install()
        round_start = perf_counter()
        rows, write_s = 0, 0.0
        for op, codes in churn.writes(self.rounds):
            start = perf_counter()
            getattr(churn.service, op)(CHURN_TABLE, CHURN_COLUMN, codes)
            write_s += perf_counter() - start
            rows += codes.size
            self.attempted += 1
        acked = perf_counter()
        churn.scheduler.check_now(block=True)
        fresh = perf_counter() - acked
        self.attempted += 1
        register = churn.register
        truth = np.concatenate(([0], np.cumsum(register.current_frequencies())))
        q, theta = register.certified_bounds()
        values = np.asarray(churn.column.dictionary.values)
        reads = []
        for batch in churn.reads:
            start = perf_counter()
            estimates = churn.read(batch)
            reads.append(perf_counter() - start)
            c1 = np.searchsorted(values, batch.lows, side="left")
            c2 = np.maximum(np.searchsorted(values, batch.highs, side="left"), c1)
            self.attempted += 1
            self.failed += int(envelope_violations(estimates, truth[c2] - truth[c1], theta, q).any())
        if probed:
            self.tracer.remove()
        self.rounds += 1
        if not timed:
            return
        self.fresh[probed].append(fresh)
        self.round_s[probed] += perf_counter() - round_start
        if not probed:
            self.fresh_slices[-1].append(fresh)
            self.read_slices[-1].extend(reads)
            self.rows += rows
            self.write_s += write_s

    def _stop_service(self) -> None:
        if self.churn is not None:
            self.attempted += 1
            self.leaks.extend(self.churn.close(self.published))
            self.churn = None

    def close(self) -> None:
        self._stop_service()
        self.recorder.remove()

    def finish(self) -> Dict[str, Any]:
        plain = self.fresh[False]
        out: Dict[str, Any] = {
            "fresh_p50_ms": 1e3 * median(plain),
            "fresh_p90_ms": 1e3 * sliced_percentile(self.fresh_slices, 90),
            "churn_read_p50_ms": 1e3 * median([read for step in self.read_slices for read in step]),
            "churn_read_p90_ms": 1e3 * sliced_percentile(self.read_slices, 90),
            "ingest_rows_per_s": self.rows / self.write_s,
            "rounds": self.rounds,
            "attempted": self.attempted,
            "failed": self.failed + len(self.leaks),
            "failures": ([f"{self.failed} wrong or failed answers"] if self.failed else [])
            + [f"leaked {leak}" for leak in self.leaks],
        }
        if self.traced:
            out.update(_layers(self.tracer, self.fresh, self.round_s))
        return out


def _layers(tracer: Tracer, fresh: Dict[bool, List[float]], round_s: Dict[bool, float]) -> Dict[str, float]:
    p = tracer.probes
    sweeps = len(fresh[True]) or 1
    repairs = p["repair.repair"].calls
    rebuilds = p["refresh.rebuild"].calls
    rebuild_s = p["refresh.rebuild"].tallies.get("build_s", 0.0)
    publish = p["shm.publish"].tallies
    moved = publish.get("patched", 0.0) + publish.get("published", 0.0)
    leaves = ("refresh.insert", "refresh.delete", "maintenance.failing_buckets", "repair.repair",
              "compiled.patch", "shm.publish", "workers.publish", "workers.estimate", "store.put",
              "service.read")
    covered = sum(p[name].self_seconds for name in leaves) + rebuild_s
    return {
        "insert_ms": p["refresh.insert"].mean_ms(),
        "failing_buckets_ms": p["maintenance.failing_buckets"].mean_ms(),
        "repair_ms": p["repair.repair"].mean_ms(),
        "buckets_per_sweep": p["repair.repair"].tallies.get("buckets", 0.0) / sweeps,
        "repair_ratio": repairs / max(repairs + rebuilds, 1),
        "rebuild_ms": 1e3 * rebuild_s / max(rebuilds, 1),
        "patch_ms": p["compiled.patch"].mean_ms(),
        "sweep_put_ms": p["store.put"].mean_ms(self_time=True),
        "publish_ms": p["shm.publish"].mean_ms(),
        "patched_ratio": publish.get("patched", 0.0) / max(moved, 1.0),
        "worker_estimate_ms": p["workers.estimate"].mean_ms(),
        # Share of reads the pool gate answered in-process (stale
        # generation, pending writes or a pool error) instead of a worker.
        "worker_fallbacks": 1.0 - p["workers.estimate"].calls / max(p["service.read"].calls, 1),
        "overhead_pct": 100.0 * (median(fresh[True]) / median(fresh[False]) - 1.0),
        "coverage_pct": 100.0 * covered / max(round_s[True], 1e-12),
    }
