"""Parallel multi-column histogram construction.

The paper's deployment rebuilds statistics for *every* worthy column of
a table at delta-merge time (Sec. 8.2); under heavy multi-column traffic
that is embarrassingly parallel work.  This module fans the per-column
``AttributeDensity`` construction + histogram build across a
``concurrent.futures`` pool and bulk-loads the results into a
:class:`~repro.core.catalog.StatisticsCatalog` with a single manifest
rewrite instead of one per ``put``.

Columns cross the process boundary as (name, frequencies, values)
payloads and histograms come back serialized, so both the thread and the
process executor see identical, picklable traffic; results are
deterministic and independent of worker scheduling.  Each worker runs
the shared :mod:`repro.engine` pipeline, so every column gets the same
bucket search as a direct build.  With tracing requested, the
per-build phase/counter profile -- including ``search_probes``,
``oracle_certified``/``oracle_refuted`` and ``acceptance_cache_hits`` --
travels back beside the histogram bytes.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.histogram import Histogram
from repro.core.serialize import deserialize_histogram, serialize_histogram
from repro.dictionary.table import Table, histogram_worthy
from repro.core.catalog import StatisticsCatalog
from repro.engine import DEFAULT_PIPELINE, DEFAULT_REGISTRY, BuildRequest

__all__ = [
    "build_column_histograms",
    "build_table_histograms",
    "default_workers",
    "make_executor",
    "submit_histogram_build",
    "EXECUTOR_KINDS",
]

EXECUTOR_KINDS = ("process", "thread", "serial")

# (name, frequencies, values-or-None, kind, config, trace?)
_Payload = Tuple[str, np.ndarray, Optional[np.ndarray], str, HistogramConfig, bool]

# name -> picklable BuildResult.profile() dict
PhaseSink = Callable[[str, Dict[str, object]], None]


def _build_one(payload: _Payload) -> Tuple[str, bytes, Optional[Dict[str, object]]]:
    """Worker body: density construction + pipeline build, serialized.

    Top-level (not a closure) so process pools can pickle it; the
    histogram travels back as its compact wire format, which is cheaper
    and sturdier than pickling bucket objects, and the profile (when
    tracing) as plain dicts.
    """
    name, frequencies, values, kind, config, trace = payload
    density = AttributeDensity(frequencies, values)
    result = DEFAULT_PIPELINE.build(
        BuildRequest(source=density, kind=kind, config=config, trace=trace, label=name)
    )
    profile = result.profile() if trace else None
    return name, serialize_histogram(result.histogram), profile


def _payload_for(
    column, kind: str, config: HistogramConfig, trace: bool = False
) -> _Payload:
    values = None
    if kind.startswith("1V"):
        values = np.asarray(column.dictionary.values, dtype=np.float64)
    return (
        column.name,
        np.asarray(column.frequencies, dtype=np.int64),
        values,
        kind,
        config,
        trace,
    )


def _make_executor(executor: str, max_workers: Optional[int], n_jobs: int) -> Executor:
    # Never spin up more workers than there are columns to build.
    workers = min(max_workers or default_workers(), n_jobs)
    if executor == "process":
        return ProcessPoolExecutor(max_workers=workers)
    return ThreadPoolExecutor(max_workers=workers)


def _resolve_executor(executor: str, n_jobs: int, max_workers: Optional[int]) -> str:
    if executor not in EXECUTOR_KINDS:
        raise ValueError(f"unknown executor {executor!r}; pick from {EXECUTOR_KINDS}")
    if max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be >= 1")
    # A pool is pure overhead for one job or one worker.
    if n_jobs <= 1 or max_workers == 1:
        return "serial"
    return executor


def build_column_histograms(
    columns: Iterable,
    kind: str = "V8DincB",
    config: HistogramConfig = HistogramConfig(),
    max_workers: Optional[int] = None,
    executor: str = "process",
    phase_sink: Optional[PhaseSink] = None,
) -> Dict[str, Histogram]:
    """Build one histogram per named column, fanned across a pool.

    Parameters
    ----------
    columns:
        ``DictionaryEncodedColumn``-likes (need ``name``,
        ``frequencies`` and -- for value-based kinds -- ``dictionary``).
    kind:
        Any of :data:`~repro.core.builder.HISTOGRAM_KINDS`.
    max_workers:
        Pool width; ``None`` lets ``concurrent.futures`` pick
        (``os.cpu_count()``-based).
    executor:
        ``"process"`` (default: construction is CPU-bound Python, so
        only processes scale), ``"thread"`` or ``"serial"``.
    phase_sink:
        When given, every build runs traced and ``phase_sink(name,
        profile)`` receives its per-phase timing/counter profile (the
        picklable :meth:`~repro.engine.BuildResult.profile` dict).
    """
    DEFAULT_REGISTRY.get(kind)  # fail fast with the canonical kind error
    trace = phase_sink is not None
    payloads: List[_Payload] = [_payload_for(c, kind, config, trace) for c in columns]
    names = [p[0] for p in payloads]
    if len(set(names)) != len(names):
        raise ValueError("columns must have unique names")
    mode = _resolve_executor(executor, len(payloads), max_workers)
    if mode == "serial":
        results = map(_build_one, payloads)
    else:
        pool = _make_executor(mode, max_workers, len(payloads))
        try:
            results = list(pool.map(_build_one, payloads))
        finally:
            pool.shutdown()
    histograms: Dict[str, Histogram] = {}
    for name, data, profile in results:
        histograms[name] = deserialize_histogram(data)
        if phase_sink is not None and profile is not None:
            phase_sink(name, profile)
    return histograms


def build_table_histograms(
    table: Table,
    config: HistogramConfig = HistogramConfig(),
    kind: str = "V8DincB",
    max_workers: Optional[int] = None,
    executor: str = "process",
    catalog: Optional[StatisticsCatalog] = None,
    phase_sink: Optional[PhaseSink] = None,
) -> Dict[str, Histogram]:
    """Build histograms for every worthy column of ``table`` in parallel.

    Applies the Sec. 8.2 worthiness filter (tiny and unique-key columns
    are skipped -- their statistics are exact counts, not histograms),
    fans the rest across the pool, and -- when a ``catalog`` is given --
    bulk-loads every result under ``table.name`` with one manifest
    rewrite.
    """
    worthy = [column for column in table if histogram_worthy(column)]
    histograms = build_column_histograms(
        worthy,
        kind=kind,
        config=config,
        max_workers=max_workers,
        executor=executor,
        phase_sink=phase_sink,
    )
    if catalog is not None:
        catalog.bulk_put(
            (table.name, name, histogram) for name, histogram in histograms.items()
        )
    return histograms


def make_executor(executor: str = "thread", max_workers: Optional[int] = None) -> Executor:
    """A standalone pool for callers that schedule builds themselves.

    The refresh scheduler of :mod:`repro.service.refresh` keeps one of
    these alive across rebuilds instead of paying pool startup per
    build.  ``executor`` is ``"process"`` or ``"thread"`` (``"serial"``
    has no pool; use :func:`build_column_histograms` for that).
    """
    if executor not in ("process", "thread"):
        raise ValueError(
            f"unknown executor {executor!r}; pick 'process' or 'thread'"
        )
    workers = max_workers or default_workers()
    if workers < 1:
        raise ValueError("max_workers must be >= 1")
    if executor == "process":
        return ProcessPoolExecutor(max_workers=workers)
    return ThreadPoolExecutor(max_workers=workers)


def submit_histogram_build(
    pool: Executor,
    name: str,
    frequencies: np.ndarray,
    values: Optional[np.ndarray] = None,
    kind: str = "V8DincB",
    config: HistogramConfig = HistogramConfig(),
    trace: bool = False,
):
    """Submit one column build to ``pool``; the future resolves to
    ``(name, serialized_bytes, profile_or_None)``.

    The payload crosses the worker boundary in the same picklable form
    :func:`build_column_histograms` uses, so process and thread pools
    behave identically; deserialize the result with
    :func:`repro.core.serialize.deserialize_histogram`.  With ``trace``
    the third element is the build's
    :meth:`~repro.engine.BuildResult.profile` dict.
    """
    DEFAULT_REGISTRY.get(kind)  # fail fast with the canonical kind error
    payload: _Payload = (
        name,
        np.asarray(frequencies, dtype=np.int64),
        None if values is None else np.asarray(values, dtype=np.float64),
        kind,
        config,
        trace,
    )
    return pool.submit(_build_one, payload)


def default_workers() -> int:
    """The pool width used when callers pass ``max_workers=None``."""
    return os.cpu_count() or 1
