"""Value-based histograms over non-dense domains (paper Sec. 8.3).

When the dictionary cannot be consulted (e.g. federation: estimates on
remote data), histograms are built on the raw values.  The domain is no
longer dense, so (a) the distinct-value count of a range is not the range
width and must be stored and estimated separately, and (b) estimation
slopes live in *value space*: ``f̂+(c1, c2) = α (c2 - c1)`` with value
coordinates.

The evaluation's two variants (atomic 16-bit buckets, 8-bit binary-q
frequency total + 8-bit binary-q distinct count):

* ``1VincB1`` -- θ,q-acceptability enforced independently for range
  *and* distinct-count estimates;
* ``1VincB2`` -- only range estimates are guarded; distinct counts are
  stored but may carry unbounded error.

Query-space convention (a substitution documented in DESIGN.md): the
acceptance constraints quantify over query endpoints drawn from the
distinct values themselves.  Fully continuous endpoints would make any
bucket containing an isolated high-frequency value unacceptable (the
estimate of an arbitrarily narrow interval around it tends to zero while
the truth stays put), which the paper sidesteps via the Theorem 4.1
endpoint discretisation.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.core.buckets import ValueAtomicBucket
from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.histogram import Histogram
from repro.core.kernels import (
    batch_slope_constraints,
    count_slope_constraints_scalar,
    value_slope_constraints_scalar,
)
from repro.obs import NULL_TRACE

__all__ = ["grow_value_bucket", "build_value_histogram", "build_value_mixed"]

# Corollary 4.2 windows at or below this many intervals run the scalar
# constraint mirrors; wider windows keep the batch kernel (identical
# arithmetic either way -- this is purely a dispatch-cost threshold).
_SCALAR_WINDOW = 64


def _upper_value(density: AttributeDensity, index: int) -> float:
    """Value-space coordinate of index ``index`` treated as a range end."""
    if index >= density.n_distinct:
        return float(density.values[-1]) + 1.0
    return float(density.values[index])


def grow_value_bucket(
    density: AttributeDensity,
    start: int,
    theta: float,
    q: float,
    bounded: bool = True,
    test_distinct: bool = True,
    trace=NULL_TRACE,
) -> int:
    """Longest θ,q-acceptable prefix of distinct values from ``start``.

    Returns the number of distinct values ``m >= 1`` the bucket absorbs.
    Maintains independent slope bounds for the frequency estimator (α)
    and -- when ``test_distinct`` -- the distinct-count estimator (β).
    The per-step constraint batches run the scalar kernel mirrors over
    the density's Python-list prefix sums and values (no numpy dispatch
    for the typical few-interval Corollary 4.2 window), and the batch
    kernel for wide windows; both give bit-identical bounds.
    """
    d = density.n_distinct
    if not 0 <= start < d:
        raise IndexError(f"start {start} out of range")
    cum = density.cum_list
    values = density.values_list
    np_cum = density.cumulative
    np_values = density.values
    lo_v = values[start]
    past_end = values[d - 1] + 1.0

    freq_lb = 0.0
    freq_ub = math.inf
    dist_lb = 0.0
    dist_ub = math.inf
    alpha_min = math.inf
    m = 0
    tests = 0
    scanned = 0
    try:
        with trace.timer("acceptance_tests"):
            for m_try in range(1, d - start + 1):
                j = start + m_try
                w_j = values[j] if j < d else past_end
                span = w_j - lo_v
                total = float(cum[j] - cum[start])
                alpha = total / span
                beta = m_try / span
                # Index-space analogue of the Corollary 4.2 window, using
                # the most pessimistic per-index density seen so far.
                idx_alpha = total / m_try
                if idx_alpha < alpha_min:
                    alpha_min = idx_alpha
                if bounded:
                    window = math.ceil(2.0 * theta / alpha_min) + 3
                    i_low = j - window
                    if i_low < start:
                        i_low = start
                else:
                    i_low = start
                tests += 1
                scanned += j - i_low
                scalar = j - i_low <= _SCALAR_WINDOW
                if scalar:
                    lb, ub = value_slope_constraints_scalar(
                        cum, values, i_low, j, w_j, theta, q
                    )
                else:
                    widths = w_j - np.asarray(np_values[i_low:j], dtype=np.float64)
                    truths = (np_cum[j] - np_cum[i_low:j]).astype(np.float64)
                    lb, ub = batch_slope_constraints(truths, widths, theta, q)
                if lb > freq_lb:
                    freq_lb = lb
                if ub < freq_ub:
                    freq_ub = ub
                if test_distinct:
                    if scalar:
                        lb, ub = count_slope_constraints_scalar(
                            values, i_low, j, w_j, theta, q
                        )
                    else:
                        counts = np.arange(j - i_low, 0, -1, dtype=np.float64)
                        lb, ub = batch_slope_constraints(counts, widths, theta, q)
                    if lb > dist_lb:
                        dist_lb = lb
                    if ub < dist_ub:
                        dist_ub = ub
                if not (freq_lb <= alpha <= freq_ub):
                    break
                if test_distinct and not (dist_lb <= beta <= dist_ub):
                    break
                m = m_try
        return max(m, 1)
    finally:
        trace.count("acceptance_tests", tests)
        trace.count("search_probes", tests)
        trace.count("intervals_scanned", scanned)


def build_value_histogram(
    density: AttributeDensity,
    config: HistogramConfig = HistogramConfig(),
    trace=None,
) -> Histogram:
    """Build a value-based atomic histogram (``1VincB1`` / ``1VincB2``).

    The variant is selected by ``config.test_distinct``.
    """
    trace = trace if trace is not None else NULL_TRACE
    theta = config.resolve_theta(density.total)
    q = config.q
    d = density.n_distinct
    values = density.values
    buckets: List[ValueAtomicBucket] = []
    packing = trace.timer("packing")
    s = 0
    while s < d:
        m = grow_value_bucket(
            density,
            s,
            theta,
            q,
            bounded=config.bounded_search,
            test_distinct=config.test_distinct,
            trace=trace,
        )
        e = s + m
        with packing:
            lo_v = float(values[s])
            hi_v = _upper_value(density, e)
            buckets.append(
                ValueAtomicBucket.build(lo_v, hi_v, density.f_plus(s, e), m)
            )
        s = e
    trace.count("buckets", len(buckets))
    kind = "1VincB1" if config.test_distinct else "1VincB2"
    return Histogram(buckets, kind=kind, theta=theta, q=q, domain="value")


def build_value_mixed(
    density: AttributeDensity,
    config: HistogramConfig = HistogramConfig(),
    raw_threshold: int = 6,
) -> Histogram:
    """Value-based histogram with QCRawNonDense fallback (Sec. 6.2).

    "Some attribute distributions contain parts which are not
    approximable" -- in value space that shows up as runs of degenerate
    atomic buckets holding only a few distinct values each.  This
    builder fuses consecutive degenerate buckets (fewer than
    ``raw_threshold`` distinct values) into raw non-dense buckets that
    store every distinct value plus its 4-bit q-compressed frequency:
    exact boundaries, bounded per-value error, no estimator assumptions.
    """
    from repro.compression.layouts import QCRawNonDense
    from repro.compression.qcompress import largest_compressible
    from repro.core.buckets import RawNonDenseBucket

    if raw_threshold < 1:
        raise ValueError("raw_threshold must be positive")
    theta = config.resolve_theta(density.total)
    q = config.q
    d = density.n_distinct
    values = density.values
    if not np.allclose(values, np.round(values)):
        raise ValueError(
            "raw non-dense buckets store integer values; use the plain "
            "atomic builder for fractional domains"
        )
    # Frequencies beyond the 4-bit raw codec's largest base stay atomic.
    raw_freq_cap = largest_compressible(max(QCRawNonDense.bases), 4)

    # Pass 1: grow atomic value buckets as usual.
    spans = []  # (start index, end index)
    s = 0
    while s < d:
        m = grow_value_bucket(
            density,
            s,
            theta,
            q,
            bounded=config.bounded_search,
            test_distinct=config.test_distinct,
        )
        spans.append((s, s + m))
        s += m

    # Pass 2: fuse runs of degenerate buckets into raw buckets.
    buckets = []
    run_start = -1

    def flush(run_start: int, run_end: int) -> None:
        chunk = (1 << 16) - 1
        position = run_start
        while position < run_end:
            end = min(position + chunk, run_end)
            raw_values = np.asarray(values[position:end]).astype(np.int64)
            freqs = density.frequencies[position:end]
            buckets.append(RawNonDenseBucket.build(raw_values, freqs))
            position = end
        # Stitch interval continuity: raw buckets span [first value,
        # last value + 1); widen the last one's hi to the next bucket's
        # lo at histogram assembly below.

    for start, end in spans:
        degenerate = (
            end - start < raw_threshold
            and density.max_frequency(start, end) <= raw_freq_cap
        )
        if degenerate:
            if run_start < 0:
                run_start = start
            continue
        if run_start >= 0:
            flush(run_start, start)
            run_start = -1
        lo_v = float(values[start])
        hi_v = _upper_value(density, end)
        buckets.append(
            ValueAtomicBucket.build(lo_v, hi_v, density.f_plus(start, end), end - start)
        )
    if run_start >= 0:
        flush(run_start, d)

    # Raw non-dense buckets derive [lo, hi) from their own values, which
    # leaves gaps against neighbours in value space; patch hi up to the
    # next bucket's lo (estimates in the gap are zero-mass anyway).
    for left, right in zip(buckets, buckets[1:]):
        if left.hi != right.lo:
            left.hi = right.lo
    kind = "1VMixed" + ("B1" if config.test_distinct else "B2")
    return Histogram(buckets, kind=kind, theta=theta, q=q, domain="value")
