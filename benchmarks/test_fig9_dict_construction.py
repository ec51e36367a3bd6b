"""Fig. 9: construction time on dictionary-encoded values, 5 bucket types.

Builds 1Dinc, 1DincB, F8Dgt, V8Dinc and V8DincB over every ERP and BW
column with the system θ and q = 2, and reports the construction-time
rank series.

Expected shapes (paper Sec. 8.4):
* bounded-search variants (B) at least as fast as their naive twins on
  the expensive columns, typically 1.1-2x;
* for cheap columns the fixed-width generate-and-test build is faster
  than the variable-width incremental build;
* for long-running columns the incremental V8D catches up / wins.

``test_construction_time_floor`` adds an absolute construction floor:
on a heavy-tailed zipf column every dictionary variant must build the
pinned bytes (the digests ``tests/core/test_search.py`` pins too) and --
armed via ``REPRO_BENCH_ASSERT_CONSTRUCTION=1``, the ``make smoke``
setting -- within ``FLOOR_FACTOR`` times its recorded time (best of 3).
``BENCH_construction.json`` records the per-kind milliseconds so the
perf trajectory stays diffable.
"""

import hashlib
import os
import time

import numpy as np
import pytest

from repro.core.builder import build_histogram
from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.serialize import serialize_histogram
from repro.experiments.harness import build_record, rank_series
from repro.experiments.report import format_table, summarize_series

KINDS = ("1Dinc", "1DincB", "F8Dgt", "V8Dinc", "V8DincB")

ASSERT_CONSTRUCTION = os.environ.get("REPRO_BENCH_ASSERT_CONSTRUCTION", "") == "1"

ZIPF_CODES = 50_000
ZIPF_MOD = 10_000

#: Best build time per kind on the zipf column, ms, recorded on a 2-vCPU
#: virtual machine (fresh density per build, so F8Dgt pays its
#: range-extrema index).  The armed floor fails a kind that takes more
#: than ``FLOOR_FACTOR`` times this.
RECORDED_MS = {
    "1Dinc": 382.388,
    "1DincB": 402.773,
    "F8Dgt": 172.278,
    "V8Dinc": 385.548,
    "V8DincB": 343.465,
}
FLOOR_FACTOR = 2.0

#: blake2b-128 of the serialized histogram per kind (theta=64, q=2).
ZIPF_DIGESTS = {
    "F8Dgt": "c05b2289b318f23d4c3385e1ec0c8cd7",
    "V8Dinc": "4bf58e656a7985bfc5baffe61c2fd81a",
    "V8DincB": "1b774b159ec8c7ee37e6244c50ae9d61",
    "1Dinc": "6f0903a1c0db265f810548dcc61f5abb",
    "1DincB": "4399ef610bc760323b20fd3a7f43e855",
}


@pytest.mark.parametrize("dataset", ["ERP", "BW"])
def test_fig9(dataset, erp_columns, bw_columns, paper_config, emit, benchmark):
    columns = erp_columns if dataset == "ERP" else bw_columns
    times = {kind: [] for kind in KINDS}
    for column in columns:
        for kind in KINDS:
            record = build_record(column, kind, paper_config)
            times[kind].append(record.microseconds)

    rows = []
    for kind in KINDS:
        series = rank_series(times[kind])
        quantiles = summarize_series(series)
        rows.append(
            [kind, len(series)]
            + [f"{value:.0f}" for value in quantiles]
            + [f"{sum(series):.0f}"]
        )
    text = format_table(
        ["kind", "#cols", "p50 us", "p90 us", "p99 us", "max us", "total us"], rows
    )
    # The paper's headline comparisons, measured over the slowest decile
    # (bounding only matters where search lengths get long).
    slow_n = max(len(columns) // 10, 1)
    naive_slow = sum(sorted(times["V8Dinc"])[-slow_n:])
    bounded_slow = sum(sorted(times["V8DincB"])[-slow_n:])
    text += (
        f"\nslowest-decile V8Dinc / V8DincB time ratio = "
        f"{naive_slow / bounded_slow:.2f} (paper: 1.1-2.0)"
    )
    emit(f"fig9_dict_construction_{dataset.lower()}", text)

    # Shape assertions.
    assert bounded_slow <= naive_slow * 1.05
    slow_1d = sum(sorted(times["1Dinc"])[-slow_n:])
    slow_1db = sum(sorted(times["1DincB"])[-slow_n:])
    assert slow_1db <= slow_1d * 1.05

    column = columns[len(columns) // 2]
    benchmark(lambda: build_record(column, "V8DincB", paper_config))


def test_construction_time_floor(emit, emit_json):
    """Every dictionary kind: pinned bytes, within 2x its recorded ms."""
    rng = np.random.default_rng(7)
    freqs = np.maximum(rng.zipf(1.3, size=ZIPF_CODES) % ZIPF_MOD, 1)
    config = HistogramConfig(theta=64.0, q=2.0)

    rows = []
    payload = {}
    for kind in KINDS:
        best_ms = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            histogram = build_histogram(
                AttributeDensity(freqs.copy()), kind=kind, config=config
            )
            best_ms = min(best_ms, (time.perf_counter() - start) * 1e3)
        digest = hashlib.blake2b(
            serialize_histogram(histogram), digest_size=16
        ).hexdigest()
        assert digest == ZIPF_DIGESTS[kind], f"{kind}: the search changed the histogram"
        payload[kind] = {
            "ms": round(best_ms, 3),
            "recorded_ms": RECORDED_MS[kind],
            "buckets": len(histogram.buckets),
        }
        rows.append(
            [kind, f"{best_ms:.1f}", f"{RECORDED_MS[kind]:.1f}",
             f"{best_ms / RECORDED_MS[kind]:.2f}x", len(histogram.buckets)]
        )

    text = format_table(["kind", "ms", "recorded ms", "ratio", "buckets"], rows)
    text += (
        f"\nzipf({ZIPF_CODES} codes, mod {ZIPF_MOD}), theta=64, q=2, best of 3; "
        f"floor {FLOOR_FACTOR:.0f}x recorded "
        f"({'armed' if ASSERT_CONSTRUCTION else 'observed only'})"
    )
    emit("construction_time", text)
    payload["floor_factor"] = FLOOR_FACTOR
    payload["armed"] = ASSERT_CONSTRUCTION
    emit_json("construction", payload)

    if ASSERT_CONSTRUCTION:
        for kind in KINDS:
            limit = FLOOR_FACTOR * RECORDED_MS[kind]
            assert payload[kind]["ms"] <= limit, (
                f"{kind}: {payload[kind]['ms']:.1f} ms exceeds the "
                f"{limit:.1f} ms construction floor"
            )
