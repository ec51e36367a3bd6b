"""The build stage: statistics for a whole table, until it is servable.

The table is the BW column mix plus the 200k-distinct column on every
workload, so ``build_s`` and ``build_peak_mb`` measure the same build
everywhere; the ``build`` workload only builds it more often.

Each build runs in its own process, forked from a small single-threaded
builder process that the stage spawns first: a forked child's
resident-set high-water mark starts at its current size (a process
exec'd from the large benchmark process would inherit that process's
mark), so the growth from just before the build until every column has
answered one estimate is the build's own peak, ``build_peak_mb``.  The timed span is
``StatisticsService.add_table`` (dictionary -> density -> index ->
bucket search -> packing -> catalog) plus one estimate per column, so
lazy plan compilation stays inside it.

Off the clock, the first build of a run is checked: ``certify`` runs on
every histogram column, and every later build must serialize to the
same bytes (builds are deterministic).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import resource
import shutil
import tracemalloc
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterable, List

import numpy as np

from repro.core.compiled import CompiledHistogram
from repro.core.density import AttributeDensity
from repro.core.kernels import AcceptanceCache
from repro.core.serialize import serialize_histogram
from repro.dictionary.table import histogram_worthy
from repro.experiments.validate import certify
from repro.query.predicates import RangePredicate
from repro.service.server import StatisticsService
from repro.service.store import StatisticsStore

from inputs import make_table
from probes import Tracer
from stats import SETUP_REPEATS, median

#: Query budget per column for the off-clock ``certify`` pass.
CERTIFY_SAMPLES = 2_000


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def index_memory(densities: Iterable[AttributeDensity]) -> int:
    """Bytes a fresh ``ensure_index`` call allocates and keeps, summed
    over ``densities``.  Each density is copied and indexed alone under
    tracemalloc (which traces numpy buffers too, so any index layout is
    counted), off the clock: the build indexes columns on several
    threads, and tracing around those calls would count their neighbours'
    allocations."""
    total = 0
    for density in densities:
        copy = AttributeDensity(np.array(density.frequencies), values=np.array(density.values))
        tracemalloc.start()
        try:
            copy.ensure_index()
            total += tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    return total


def _build_tracer(caches: List[AcceptanceCache], indexed: Dict[int, AttributeDensity]) -> Tracer:
    tracer = Tracer()
    tracer.wrap(
        AttributeDensity, "ensure_index", "density.ensure_index",
        lambda probe, args, index: indexed.setdefault(id(args[0]), args[0]),
    )
    tracer.wrap(
        AcceptanceCache, "__init__", "kernels.cache_init",
        lambda probe, args, result: caches.append(args[0]),
    )
    tracer.wrap(CompiledHistogram, "compile", "compiled.compile")
    tracer.wrap(StatisticsStore, "put", "store.put")
    return tracer


def _builder(conn) -> None:
    """Builder process: fork one child per build request, relay results.

    Requests are ``_one_build`` argument tuples; ``None`` ends the loop.
    This process starts no thread, so forking it is safe.
    """
    while True:
        request = conn.recv()
        if request is None:
            return
        receiver, sender = multiprocessing.Pipe(duplex=False)
        pid = os.fork()
        if pid == 0:
            receiver.close()
            code = 1
            try:
                _one_build(sender, *request)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        sender.close()
        try:
            result = receiver.recv()
        except EOFError:
            result = None
        receiver.close()
        os.waitpid(pid, 0)
        conn.send(result)


def _one_build(conn, seed: int, root: str, traced: bool, check: bool) -> None:
    """Child body: build, time, measure, check; send a result dict."""
    table = make_table(big=True)
    caches: List[AcceptanceCache] = []
    # Every density the build indexed, by identity (held, so ids stay unique).
    indexed: Dict[int, AttributeDensity] = {}
    tracer = _build_tracer(caches, indexed) if traced else None
    if tracer is not None:
        tracer.install()
    worthy = [column for column in table if histogram_worthy(column)]
    service = StatisticsService(Path(root), seed=seed)
    rss0 = _rss_mb()
    start = perf_counter()
    service.add_table(table)
    for column in table:
        values = column.dictionary.values
        service.estimate(table.name, RangePredicate(column.name, values[0], values[-1] + 1.0))
    build_s = perf_counter() - start
    peak_mb = _rss_mb() - rss0
    if tracer is not None:
        tracer.remove()

    histograms = {c.name: service.registry.get(table.name, c.name).histogram() for c in worthy}
    payload = [serialize_histogram(histograms[c.name]) for c in worthy]
    result: Dict[str, Any] = {
        "build_s": build_s,
        "peak_mb": peak_mb,
        "stats_bytes_pct": 100.0 * sum(map(len, payload)) / sum(c.compressed_size_bytes() for c in worthy),
        "digest": hashlib.blake2b(b"".join(payload)).hexdigest(),
        "columns": len(table),
        "certify_failed": [],
    }
    if check:
        for column in worthy:
            report = certify(
                histograms[column.name],
                AttributeDensity(np.asarray(column.frequencies)),
                n_samples=CERTIFY_SAMPLES,
                seed=seed,
            )
            if not report.passed:
                result["certify_failed"].append(f"{column.name}: {report}")
    if tracer is not None:
        snap = service.metrics.snapshot()
        phases = snap.get("phases", {}).get("build", {})
        counters = snap.get("counters", {})
        hits = sum(cache.hits for cache in caches)
        lookups = hits + sum(cache.misses for cache in caches)
        plan_bytes = 0
        for column in worthy:
            _, arrays = histograms[column.name].plan().export_tables()
            plan_bytes += sum(array.nbytes for array in arrays.values())
        probes = tracer.snapshot()
        decided = counters.get("build.oracle_certified", 0) + counters.get("build.oracle_refuted", 0)
        result["layers"] = {
            "density_scan_s": phases.get("density_scan", {}).get("seconds", 0.0),
            "bucket_search_s": phases.get("bucket_search", {}).get("seconds", 0.0),
            "packing_s": phases.get("packing", {}).get("seconds", 0.0),
            "acceptance_tests": counters.get("build.acceptance_tests", 0),
            "oracle_decided_ratio": decided / max(counters.get("build.search_probes", 0), 1),
            "cache_hit_ratio": hits / max(lookups, 1),
            "compile_s": probes["compiled.compile"]["seconds"],
            "put_s": probes["store.put"]["seconds"],
            "index_mb": index_memory(indexed.values()) / 1e6,
            "plan_mb": plan_bytes / 1e6,
        }
    conn.send(result)
    conn.close()


class BuildStage:
    """Repeated builds of one table, each in its own child process.

    In a traced run builds alternate unprobed/probed; the unprobed ones
    give the end-to-end numbers, the probed ones the layer numbers.
    Create it before the other stages grow the benchmark process, and
    :meth:`close` it to stop the builder.
    """

    def __init__(self, seed: int, workdir: Path, traced: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        self.traced = traced
        self.plain: List[Dict[str, Any]] = []
        self.probed: List[Dict[str, Any]] = []
        self.failures: List[str] = []
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._builder = ctx.Process(target=_builder, args=(child_conn,), name="perfbench-builder")
        self._builder.start()
        child_conn.close()

    def close(self) -> None:
        """Stop the builder; one that had to be killed is a failure."""
        try:
            self._conn.send(None)
        except OSError:
            pass
        self._builder.join(30.0)
        if self._builder.is_alive():
            self._builder.kill()
            self._builder.join()
        if self._builder.exitcode != 0:
            self.failures.append("the builder process had to be killed")
        self._conn.close()

    def setup_seconds(self) -> float:
        """Median time to generate the table (the stage's own set-up)."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            make_table(big=True)
            times.append(perf_counter() - start)
        return median(times)

    def step(self) -> None:
        """Build the table once and check the result."""
        probed = self.traced and len(self.probed) < len(self.plain)
        index = len(self.plain) + len(self.probed)
        root = self.workdir / f"build-{index}"
        self._conn.send((self.seed, str(root), probed, index == 0))
        try:
            result = self._conn.recv()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        if result is None:
            raise RuntimeError("a build failed; see the traceback above")
        self.failures.extend(result["certify_failed"])
        if self.plain and result["digest"] != self.plain[0]["digest"]:
            self.failures.append("a rebuild of the same table serialized differently")
        (self.probed if probed else self.plain).append(result)

    def finish(self) -> Dict[str, Any]:
        builds = self.plain + self.probed
        out: Dict[str, Any] = {
            "build_s": median([b["build_s"] for b in self.plain]),
            "build_peak_mb": median([b["peak_mb"] for b in self.plain]),
            "stats_bytes_pct": builds[0]["stats_bytes_pct"],
            "attempted": sum(b["columns"] for b in builds) + 1,
            "failed": len(self.failures),
            "failures": list(self.failures),
            "builds": len(builds),
        }
        if self.probed:
            layers = {key: median([b["layers"][key] for b in self.probed]) for key in self.probed[0]["layers"]}
            traced_s = median([b["build_s"] for b in self.probed])
            covered = layers["density_scan_s"] + layers["bucket_search_s"] + layers["compile_s"] + layers["put_s"]
            out["layers"] = layers
            out["overhead_pct"] = 100.0 * (traced_s / out["build_s"] - 1.0)
            out["coverage_pct"] = 100.0 * covered / traced_s
        return out
