"""The one bucket search: pinned output, checked against its references.

Each builder runs a single search path.  Its output is pinned to the
blake2b digest of the serialized histogram.  The digests were recorded
while the classic search loops still stood beside the acceptance-oracle
search and both wrote exactly these bytes, so a matching digest means
the search still equals the classic one bit for bit.

Random inputs are checked against the references kept for that purpose:
the paper-literal Sec. 4.2 test behind the combined test of Sec. 4.4,
the batch slope-constraint kernel behind the scalar mirrors, and a build
over the sliced density behind the in-place span growth of repair.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.acceptance import pretest_dense, subquadratic_test_literal
from repro.core.builder import build_histogram
from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.kernels import (
    batch_slope_constraints,
    count_slope_constraints_scalar,
    slope_constraints,
    slope_constraints_scalar,
    value_slope_constraints_scalar,
)
from repro.core.qewh import find_largest
from repro.core.qvwh import grow_span_atomic, grow_span_buckets
from repro.core.repair import buckets_acceptable, repair_histogram
from repro.core.search import AcceptanceOracle
from repro.core.serialize import serialize_histogram
from repro.engine import build

DICT_KINDS = ("F8Dgt", "V8Dinc", "V8DincB", "1Dinc", "1DincB")
VALUE_KINDS = ("1VincB1", "1VincB2")
ALL_KINDS = DICT_KINDS + VALUE_KINDS

small_freqs = st.lists(st.integers(1, 600), min_size=2, max_size=80)


def digest(histogram):
    return hashlib.blake2b(serialize_histogram(histogram), digest_size=16).hexdigest()


def make_erp_freqs(n=4_000, seed=3):
    """ERP-shaped column: long runs of near-constant small frequencies
    punctuated by a few dominant codes (the shape of Sec. 8.1's data)."""
    rng = np.random.default_rng(seed)
    freqs = rng.integers(1, 4, size=n)
    spikes = rng.choice(n, size=n // 100, replace=False)
    freqs[spikes] = rng.integers(500, 20_000, size=spikes.size)
    return freqs


FIXED_DENSITIES = {
    "zipf": np.maximum(
        np.random.default_rng(7).zipf(1.3, size=6_000) % 3_000, 1
    ),
    "uniform": np.random.default_rng(5).integers(1, 200, size=5_000),
    "erp": make_erp_freqs(),
}

#: Every kind on every fixed density, theta=64, q=2; the value kinds run
#: over the gapped values of ``gapped_values``.
FIXED_DIGESTS = {
    "F8Dgt-erp": "08774405674438e73c7623ad548964a0",
    "F8Dgt-uniform": "acc395b74b00e5273c95e5fcea439b8a",
    "F8Dgt-zipf": "6b81d2c13933fa269abc1684a949af7f",
    "V8Dinc-erp": "0700d8e521e0298fe51b4f38a957fbe0",
    "V8Dinc-uniform": "1c1cfd85eeb85b49803d0fd2fa010c33",
    "V8Dinc-zipf": "000a29f7537f4446f428aa9d24ee7bce",
    "V8DincB-erp": "c9b1d999235303aefcb6a7b5ef2d3e15",
    "V8DincB-uniform": "ae0473641a28462b105077fe7886aca9",
    "V8DincB-zipf": "72625791792a2875d3594cef63cbd085",
    "1Dinc-erp": "428d63bacd6712efdea5c66bc4b96fe2",
    "1Dinc-uniform": "b503031d8cf841a321e9bbffa87444b0",
    "1Dinc-zipf": "a62b253bdf61d18ac48cd62912d84b01",
    "1DincB-erp": "5073f29e379bdb9eda6f1525bd241156",
    "1DincB-uniform": "80d1c92d676ce6b554a206c071604914",
    "1DincB-zipf": "4e9f7fb62257fc861e44600b7d0ebb60",
    "1VincB1-erp": "6183f6cb5fb21c9228348f00dd05f82c",
    "1VincB1-uniform": "6ffe38f7ba91ceda3703f942b32c5d20",
    "1VincB1-zipf": "080c83e91419b6561a976d4617854edf",
    "1VincB2-erp": "05f0712b82324132a5ecd747a886cdb3",
    "1VincB2-uniform": "ab7254eb0ed76c6017083ad69d68e846",
    "1VincB2-zipf": "4ca5e90e9c02eafe1d9c929e1f37b95b",
}

#: The value kinds over the dense ``uniform`` ramp (values == codes), theta=32.
DENSE_VALUE_DIGESTS = {
    "1VincB1": "bf4ef4400f4b226b725ddef8ca152712",
    "1VincB2": "b7ca4b9475eb9171b9d90808068c3efc",
}

#: The dictionary kinds on ``make bench-construction``'s column (see
#: ``zipf_column``), theta=64, q=2.
ZIPF_COLUMN_DIGESTS = {
    "F8Dgt": "c05b2289b318f23d4c3385e1ec0c8cd7",
    "V8Dinc": "4bf58e656a7985bfc5baffe61c2fd81a",
    "V8DincB": "1b774b159ec8c7ee37e6244c50ae9d61",
    "1Dinc": "6f0903a1c0db265f810548dcc61f5abb",
    "1DincB": "4399ef610bc760323b20fd3a7f43e855",
}

#: The V8DincB histogram of ``TestRepairParity``, repaired after churn.
REPAIRED_DIGEST = "e93faf165da39d765ad37db3f3295a20"


def gapped_values(size):
    gaps = np.random.default_rng(9).integers(1, 7, size=size)
    return np.cumsum(gaps).astype(np.float64)


def zipf_column():
    """The 50k-code heavy-tailed column of ``make bench-construction``."""
    return np.maximum(np.random.default_rng(7).zipf(1.3, size=50_000) % 10_000, 1)


def anchored(buckets, offset):
    """Bucket states with the code span moved ``offset`` codes left."""
    out = []
    for bucket in buckets:
        state = {k: v for k, v in vars(bucket).items() if not k.startswith("_")}
        state["lo"] -= offset
        state["hi"] -= offset
        out.append((type(bucket).__name__, state))
    return out


class TestDensityIndex:
    def test_range_extrema_match_slices(self):
        rng = np.random.default_rng(0)
        freqs = rng.integers(1, 10_000, size=777)
        density = AttributeDensity(freqs)
        index = density.ensure_index()
        for lo, hi in rng.integers(0, 777, size=(200, 2)):
            lo, hi = sorted((int(lo), int(hi)))
            if hi == lo:
                hi += 1
            if hi > 777:
                continue
            assert index.range_max(lo, hi) == int(freqs[lo:hi].max())
            assert index.range_min(lo, hi) == int(freqs[lo:hi].min())

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_degenerate_sizes(self, n):
        freqs = np.arange(1, n + 1)
        index = AttributeDensity(freqs).ensure_index()
        assert index.range_max(0, n) == n
        assert index.range_min(0, n) == 1

    def test_index_is_cached_and_lazy(self):
        density = AttributeDensity([1, 2, 3])
        assert not density.has_index
        assert density.ensure_index() is density.ensure_index()
        assert density.has_index

    def test_prefix_lists_are_lazy_mirrors(self):
        density = AttributeDensity([4, 1, 7], values=[2.0, 5.0, 6.5])
        assert density.cum_list == [0, 4, 5, 12]
        assert density.values_list == [2.0, 5.0, 6.5]
        assert density.cum_list is density.cum_list
        assert density.values_list is density.values_list
        assert not density.has_index

    def test_rerouted_extrema_accessors(self):
        density = AttributeDensity([5, 1, 9, 2])
        assert density.max_frequency(0, 4) == 9  # pre-index: slice path
        density.ensure_index()
        assert density.max_frequency(0, 4) == 9  # post-index: table path
        assert density.min_frequency(1, 3) == 1


class TestConfig:
    def test_exactly_six_fields(self):
        assert list(HistogramConfig.__dataclass_fields__) == [
            "q", "theta", "theta_factor", "bounded_search",
            "max_pretest_size", "test_distinct",
        ]


class TestFixedDensityParity:
    """Output pinned to the bytes the classic search wrote."""

    @pytest.mark.parametrize("name", sorted(FIXED_DENSITIES))
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_oracle_matches_classic(self, name, kind):
        freqs = FIXED_DENSITIES[name]
        values = gapped_values(freqs.size) if kind in VALUE_KINDS else None
        histogram = build_histogram(
            AttributeDensity(freqs.copy(), values),
            kind=kind,
            config=HistogramConfig(theta=64.0, q=2.0),
        )
        assert digest(histogram) == FIXED_DIGESTS[f"{kind}-{name}"]

    @pytest.mark.parametrize("kind", VALUE_KINDS)
    def test_value_kinds_on_dense_values(self, kind):
        histogram = build_histogram(
            AttributeDensity(FIXED_DENSITIES["uniform"].copy()),
            kind=kind,
            config=HistogramConfig(theta=32.0, q=2.0),
        )
        assert digest(histogram) == DENSE_VALUE_DIGESTS[kind]

    @pytest.mark.parametrize("kind", DICT_KINDS)
    def test_bench_construction_column(self, kind):
        histogram = build_histogram(
            AttributeDensity(zipf_column()),
            kind=kind,
            config=HistogramConfig(theta=64.0, q=2.0),
        )
        assert digest(histogram) == ZIPF_COLUMN_DIGESTS[kind]


class TestPropertyParity:
    """The search's fast paths against the references kept for them."""

    @given(
        freqs=small_freqs,
        gap=st.lists(st.integers(1, 9), min_size=80, max_size=80),
        window=st.tuples(st.integers(0, 79), st.integers(1, 80)),
        theta=st.integers(0, 300),
        q=st.floats(1.0, 4.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_scalar_constraints_match_batch(self, freqs, gap, window, theta, q):
        n = len(freqs)
        i_low, j = sorted(window)
        assume(i_low < j <= n)
        values = np.cumsum(gap[:n]).astype(np.float64)
        density = AttributeDensity(freqs, values=values)
        cum = density.cumulative
        theta = float(theta)
        # Index space: the growth loop of V8Dinc[B] and 1Dinc[B].
        widths = np.arange(j - i_low, 0, -1, dtype=np.float64)
        truths = (cum[j] - cum[i_low:j]).astype(np.float64)
        expected = batch_slope_constraints(truths, widths, theta, q)
        assert slope_constraints(cum, i_low, j, theta, q) == expected
        assert slope_constraints_scalar(density.cum_list, i_low, j, theta, q) == expected
        # Value space: the growth loop of 1VincB1/1VincB2.
        w_j = float(values[j]) if j < n else float(values[-1]) + 1.0
        value_widths = w_j - values[i_low:j]
        assert value_slope_constraints_scalar(
            density.cum_list, density.values_list, i_low, j, w_j, theta, q
        ) == batch_slope_constraints(truths, value_widths, theta, q)
        assert count_slope_constraints_scalar(
            density.values_list, i_low, j, w_j, theta, q
        ) == batch_slope_constraints(widths, value_widths, theta, q)

    @given(
        freqs=small_freqs,
        start=st.integers(0, 79),
        m=st.integers(1, 40),
        theta=st.integers(0, 200),
        max_size=st.integers(1, 40),
        capacity=st.one_of(st.just(float("inf")), st.integers(1, 5_000)),
    )
    @settings(max_examples=200, deadline=None)
    def test_probe_matches_literal_combined_test(
        self, freqs, start, m, theta, max_size, capacity
    ):
        d = len(freqs)
        assume(start < d)
        density = AttributeDensity(freqs)
        cum = density.cumulative
        q = 2.0
        theta = float(theta)
        config = HistogramConfig(theta=theta, q=q, max_pretest_size=max_size)
        oracle = AcceptanceOracle(density, theta, q, config)
        expected_all = True
        for i in range(8):
            lo = start + i * m
            if lo >= d:
                break
            clipped = min(lo + m, d)
            total = int(cum[clipped] - cum[lo])
            if total > capacity:
                expected = False
            else:
                # The slope runs over the unclipped width m.
                alpha = total / m
                expected = pretest_dense(
                    density, lo, clipped, theta, q, alpha=alpha
                ) or (
                    clipped - lo <= max_size
                    and subquadratic_test_literal(
                        density, lo, clipped, theta, q, alpha=alpha
                    )
                )
            status = oracle.probe(lo, m, 1, capacity)
            if type(status) is list:
                status = all(oracle.resolve(status))
            assert status == expected, (lo, clipped)
            expected_all = expected_all and expected
        status = oracle.probe(start, m, 8, capacity)
        if type(status) is list:
            status = all(oracle.resolve(status))
        assert status == expected_all

    @given(
        freqs=small_freqs,
        span=st.tuples(st.integers(0, 79), st.integers(1, 80)),
        theta=st.integers(0, 100),
        bounded=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_span_growth_matches_sliced_build(self, freqs, span, theta, bounded):
        lo, hi = sorted(span)
        assume(lo < hi <= len(freqs))
        density = AttributeDensity(freqs)
        sliced = AttributeDensity(freqs[lo:hi])
        config = HistogramConfig(theta=float(theta), q=2.0)
        suffix = "B" if bounded else ""
        for kind, grow in (("V8Dinc", grow_span_buckets), ("1Dinc", grow_span_atomic)):
            fresh = grow(density, lo, hi, float(theta), 2.0, bounded=bounded)
            reference = build_histogram(sliced, kind=kind + suffix, config=config)
            assert anchored(fresh, lo) == anchored(reference.buckets, 0), kind

    def test_only_f8dgt_builds_the_index(self):
        freqs = FIXED_DENSITIES["zipf"]
        for kind in ("V8DincB", "1DincB"):
            density = AttributeDensity(freqs)
            build(density, kind=kind)
            assert not density.has_index, kind
        values = AttributeDensity(freqs, values=gapped_values(freqs.size))
        build(values, kind="1VincB1")
        assert not values.has_index
        density = AttributeDensity(freqs)
        build(density, kind="F8Dgt")
        assert density.has_index


class TestFindLargestOracle:
    def test_shared_oracle_and_warm_start_change_nothing(self):
        density = AttributeDensity(FIXED_DENSITIES["zipf"])
        config = HistogramConfig(theta=64.0, q=2.0)
        oracle = AcceptanceOracle(density, 64.0, 2.0, config)
        cold = find_largest(density, 0, 64.0, 2.0, config, oracle=oracle, warm=0)
        warmed = find_largest(
            density, 0, 64.0, 2.0, config, oracle=oracle, warm=cold * 3 + 1
        )
        assert cold == warmed

    def test_counters_flow_through_traced_builds(self):
        freqs = FIXED_DENSITIES["zipf"]
        result = build(AttributeDensity(freqs), kind="F8Dgt", trace=True)
        counters = result.counters
        assert counters["search_probes"] > 0
        assert counters["oracle_certified"] > 0
        assert counters["oracle_refuted"] > 0
        assert counters["acceptance_tests"] > 0
        incremental = build(AttributeDensity(freqs), kind="V8DincB", trace=True)
        assert incremental.counters["search_probes"] > 0


class TestRepairParity:
    def test_repair_matches_classic_search(self):
        freqs = np.maximum(
            np.random.default_rng(11).zipf(1.3, size=5_000) % 2_500, 1
        )
        config = HistogramConfig(theta=64.0, q=2.0)
        histogram = build_histogram(
            AttributeDensity(freqs.copy()), kind="V8DincB", config=config
        )
        churned = freqs.copy()
        churned[1000:1200] = churned[1000:1200] * 9 + 5
        churned[3000:3050] = 1
        density = AttributeDensity(np.maximum(churned, 1))
        ok = buckets_acceptable(histogram, density, range(len(histogram.buckets)))
        failing = list(np.flatnonzero(~ok))
        assert failing, "churn recipe must break at least one bucket"
        repaired = repair_histogram(histogram, churned, failing, config=config)
        assert digest(repaired.histogram) == REPAIRED_DIGEST
        assert repaired.splits == 2
