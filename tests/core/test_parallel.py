"""Parallel multi-column histogram construction."""

import numpy as np
import pytest

from repro.core.builder import build_histogram
from repro.core.catalog import StatisticsCatalog
from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.parallel import (
    build_column_histograms,
    build_table_histograms,
    default_workers,
)
from repro.dictionary.column import DictionaryEncodedColumn
from repro.dictionary.table import Table


def _columns(rng, n=5, rows=8_000):
    return [
        DictionaryEncodedColumn.from_values(
            rng.integers(0, 200 + 50 * i, size=rows), name=f"col{i}"
        )
        for i in range(n)
    ]


def _table(rng):
    table = Table("orders")
    for column in _columns(rng, n=4):
        table.add_column(column)
    # Unworthy columns: tiny domain and a unique key.
    table.add_column(
        DictionaryEncodedColumn.from_values(rng.choice([1, 2, 3], size=8_000), name="status")
    )
    table.add_column(
        DictionaryEncodedColumn.from_values(np.arange(3_000), name="order_id")
    )
    return table


def _assert_same_histograms(got, expected, rng):
    assert set(got) == set(expected)
    for name in expected:
        a, b = got[name], expected[name]
        assert a.kind == b.kind and len(a) == len(b)
        for _ in range(20):
            lo, hi = sorted(rng.uniform(0, a.hi, size=2))
            assert a.estimate(lo, hi) == b.estimate(lo, hi)


class TestBuildColumnHistograms:
    @pytest.mark.parametrize("executor", ["process", "thread", "serial"])
    def test_matches_direct_builds(self, rng, executor):
        columns = _columns(rng)
        config = HistogramConfig(q=2.0, theta=16)
        got = build_column_histograms(
            columns, kind="V8DincB", config=config, max_workers=2, executor=executor
        )
        expected = {
            c.name: build_histogram(
                AttributeDensity(c.frequencies), kind="V8DincB", config=config
            )
            for c in columns
        }
        _assert_same_histograms(got, expected, rng)

    def test_value_based_kind_ships_dictionary(self, rng):
        columns = _columns(rng, n=3)
        got = build_column_histograms(
            columns, kind="1VincB1", max_workers=2, executor="thread"
        )
        for column in columns:
            assert got[column.name].domain == "value"

    def test_parallel_matches_serial(self, rng):
        columns = _columns(rng)
        config = HistogramConfig(q=2.0, theta=8)
        serial = build_column_histograms(
            columns, config=config, executor="serial"
        )
        parallel = build_column_histograms(
            columns, config=config, max_workers=3, executor="process"
        )
        _assert_same_histograms(parallel, serial, rng)

    def test_single_column_short_circuits_to_serial(self, rng):
        # One job never pays for a pool; result must still be correct.
        columns = _columns(rng, n=1)
        got = build_column_histograms(columns, max_workers=8, executor="process")
        assert set(got) == {"col0"}

    def test_duplicate_names_rejected(self, rng):
        column = _columns(rng, n=1)[0]
        with pytest.raises(ValueError):
            build_column_histograms([column, column])

    def test_bad_arguments_rejected(self, rng):
        columns = _columns(rng, n=2)
        with pytest.raises(ValueError):
            build_column_histograms(columns, kind="nope")
        with pytest.raises(ValueError):
            build_column_histograms(columns, executor="fibers")
        with pytest.raises(ValueError):
            build_column_histograms(columns, max_workers=0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestBuildTableHistograms:
    def test_skips_unworthy_columns(self, rng):
        table = _table(rng)
        got = build_table_histograms(table, max_workers=2, executor="thread")
        assert set(got) == {"col0", "col1", "col2", "col3"}

    def test_bulk_loads_catalog(self, tmp_path, rng):
        table = _table(rng)
        catalog = StatisticsCatalog(tmp_path)
        got = build_table_histograms(
            table, max_workers=2, executor="thread", catalog=catalog
        )
        assert len(catalog) == len(got) == 4
        reopened = StatisticsCatalog(tmp_path)
        for name, histogram in got.items():
            restored = reopened.get("orders", name)
            lo, hi = sorted(rng.uniform(0, histogram.hi, size=2))
            assert restored.estimate(lo, hi) == histogram.estimate(lo, hi)

    def test_process_pool_end_to_end(self, tmp_path, rng):
        table = _table(rng)
        catalog = StatisticsCatalog(tmp_path)
        got = build_table_histograms(
            table, max_workers=2, executor="process", catalog=catalog
        )
        assert set(catalog.entries()) == {("orders", name) for name in got}
