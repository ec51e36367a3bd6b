"""Self-tests for the benchmark's own pieces.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.core.density import AttributeDensity  # noqa: E402
from repro.engine import build  # noqa: E402
from repro.workloads.queries import all_ranges  # noqa: E402

import build_stage  # noqa: E402
import inputs  # noqa: E402
import run as runner  # noqa: E402
from inputs import make_churn_table, make_read_batches, make_table, make_traffic  # noqa: E402
from probes import Tracer  # noqa: E402
from stats import (  # noqa: E402
    envelope_violations,
    exact_violations,
    median,
    percentile,
    samples_needed,
    sliced_percentile,
    true_counts,
)


# -- percentile and sample-count math ---------------------------------------

def test_samples_needed_leaves_ten_beyond():
    assert samples_needed(50) == 20
    assert samples_needed(90) == 100
    assert samples_needed(99) == 1000
    with pytest.raises(ValueError):
        samples_needed(100)


def test_percentiles_interpolate():
    values = list(range(101))
    assert median(values) == 50.0
    assert percentile(values, 90) == 90.0
    assert percentile([1.0, 2.0], 50) == 1.5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_sliced_percentile_ignores_one_slow_slice():
    calm = [list(range(101))] * 4
    slow = [[1000.0] * 101]
    assert percentile(sum(calm + slow, []), 90) == 1000.0
    assert sliced_percentile(calm + slow, 90) == 90.0
    assert sliced_percentile([[], [1.0, 3.0]], 50) == 2.0


# -- the answer checker -----------------------------------------------------

def test_envelope_bounds_corollary_5_3():
    # theta=10, q=2, k=4 -> theta'=40, q'=3; slack sqrt(1.4) -> 3.55.
    theta, q = 10.0, 2.0
    estimates = np.array([100.0, 120.0, 1.0, 50.0, 0.0, np.nan])
    truths = np.array([30.0, 30.0, 39.0, 1.0, 100.0, 10.0])
    bad = envelope_violations(estimates, truths, theta, q)
    assert bad.tolist() == [False, True, False, True, True, True]


def test_envelope_accepts_a_certified_histogram_everywhere():
    rng = np.random.default_rng(3)
    freqs = rng.zipf(1.6, size=120).clip(1, 5000)
    density = AttributeDensity(freqs)
    histogram = build(density, kind="V8DincB").histogram
    ranges = np.asarray(list(all_ranges(density.n_distinct)), dtype=np.float64)
    estimates = histogram.estimate_batch(ranges[:, 0], ranges[:, 1])
    cum = density.cumulative
    truths = cum[ranges[:, 1].astype(int)] - cum[ranges[:, 0].astype(int)]
    assert not envelope_violations(estimates, truths, histogram.theta, histogram.q).any()
    # A wrong answer on a guarded range is caught.
    wide = np.argmax(truths)
    estimates[wide] *= 10
    assert envelope_violations(estimates, truths, histogram.theta, histogram.q)[wide]


def test_exact_violations():
    assert exact_violations(np.array([5.0, 6.0]), np.array([5.0, 5.0])).tolist() == [False, True]


def test_true_counts_match_the_column():
    column = make_table().column("bw_0020")
    values = np.asarray(column.dictionary.values)
    lows = np.array([values[0], values[3] + 0.5, values[-1]])
    highs = np.array([values[-1] + 1, values[10], values[-1] + 1])
    expected = [column.count_value_range(lo, hi) for lo, hi in zip(lows, highs)]
    assert true_counts(values, np.asarray(column.cumulative), lows, highs).tolist() == expected


# -- the load generator -----------------------------------------------------

def _flatten(batches):
    return [(b.column, b.lows.tolist(), b.highs.tolist()) for b in batches]


def test_tables_are_fixed():
    one, again = make_table(big=True), make_table(big=True)
    for a, b in zip(one, again):
        assert a.name == b.name
        assert np.array_equal(a.frequencies, b.frequencies)
        assert np.array_equal(a.dictionary.values, b.dictionary.values)
    churn = make_churn_table().column("amount")
    assert np.array_equal(churn.frequencies, make_churn_table().column("amount").frequencies)


def test_traffic_is_deterministic_and_nonempty():
    table = make_table()
    first = make_traffic(table, 5, 20, 16, 10)
    second = make_traffic(table, 5, 20, 16, 10)
    third = make_traffic(table, 6, 20, 16, 10)
    assert _flatten(first[0]) == _flatten(second[0])
    assert _flatten(first[1]) == _flatten(second[1])
    assert _flatten(first[0]) != _flatten(third[0])
    for batch in first[0] + first[1]:
        assert np.all(batch.highs > batch.lows)
    churn = make_churn_table().column("amount")
    assert _flatten(make_read_batches(churn, 5, 3, 8)) == _flatten(make_read_batches(churn, 5, 3, 8))
    assert _flatten(make_read_batches(churn, 5, 3, 8)) != _flatten(make_read_batches(churn, 6, 3, 8))


def test_tables_have_the_advertised_shape():
    mix, table = make_table(), make_table(big=True)
    assert len(table) == len(mix) + 1 == inputs.MIX_COLUMNS + 1
    assert max(column.n_distinct for column in mix) == inputs.MIX_MAX_DISTINCT
    assert table.columns()[-1].n_distinct == inputs.BIG_DISTINCT
    for a, b in zip(mix, table):
        assert np.array_equal(a.frequencies, b.frequencies)


# -- probes and run plumbing ------------------------------------------------

class _Layered:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


def test_tracer_self_time_and_restore():
    original_outer, original_inner = _Layered.outer, _Layered.inner
    tracer = Tracer()
    tracer.wrap(_Layered, "outer", "outer")
    tracer.wrap(_Layered, "inner", "inner", lambda probe, args, result: probe.tally("seen", result))
    tracer.install()
    try:
        assert _Layered().outer() == 2
    finally:
        tracer.remove()
    assert _Layered.outer is original_outer and _Layered.inner is original_inner
    outer, inner = tracer.probes["outer"], tracer.probes["inner"]
    assert outer.calls == inner.calls == 1
    assert inner.tallies == {"seen": 1}
    assert outer.self_seconds == pytest.approx(outer.seconds - inner.seconds)
    tracer.reset()
    assert outer.calls == 0 and tracer.probes["outer"] is outer


def test_budgets_give_the_workload_its_share():
    budget = runner.budgets("serve", 20.0)
    assert budget == pytest.approx({"serve": 20.0 * runner.MAIN_SHARE, "churn": 20.0 * runner.MINOR_SHARE})
    assert runner.budgets("build", 20.0) == pytest.approx({"serve": 5.0, "churn": 5.0})
    for workload in runner.WORKLOADS:
        builds = runner.BUILDS[workload == "build"]
        assert len(runner.build_cycles(workload, False)) == builds
        # A traced run gets an unprobed and a probed build for each.
        traced = runner.build_cycles(workload, True)
        assert len(traced) == 2 * builds and traced <= set(range(runner.CYCLES))


def test_index_memory_measures_a_fresh_copy():
    density = AttributeDensity(np.random.default_rng(1).integers(1, 1000, size=5000))
    size = build_stage.index_memory([density])
    # At least the 5001 int64 prefix sums stay behind.
    assert size > 8 * 5001
    assert not density.has_index
    assert build_stage.index_memory([density, density]) == pytest.approx(2 * size, rel=0.01)


def test_missing_program_exits_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(runner, "ROOT", tmp_path)
    code = runner.main(["--workload", "build", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
