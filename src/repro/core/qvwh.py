"""QVWH: variable-width bucklets via incremental construction
(paper Sec. 7.2, Fig. 6).

``GrowBucklet`` is the incremental engine: rather than re-testing
θ,q-acceptability from scratch for every candidate bucklet length, it
maintains a feasible interval ``[αLB, αUB]`` for the estimator slope α.
Each query interval visits the loop exactly once and contributes a
constraint derived from θ,q-acceptability of ``f̂+ = α (j - i)``:

* truth ``F > θ``: need ``F/q <= α w <= q F``, i.e.
  ``αLB >= F / (q w)`` and ``αUB <= q F / w``;
* truth ``F <= θ``: the acceptable α-set ``{α w <= θ} ∪ {F/q <= α w <=
  q F}`` collapses to the single interval ``α w <= max(θ, q F)``.

Growth stops when the current ``α = f+(l, j) / (j - l)`` leaves the
feasible interval.  With ``bounded_search`` the inner loop only scans
the left endpoints within the minimal-violation window of
Corollary 4.2 (computed from the most pessimistic -- smallest -- α seen
so far, so the window dominates the bound for every α the bucket has
taken); this is the ``incB`` family of the evaluation.

The per-step constraints run through
:func:`~repro.core.kernels.slope_constraints_scalar` over the density's
Python-list prefix sums (the bounded windows typically hold a handful
of intervals, where a numpy dispatch costs more than the arithmetic),
falling back to the batch kernel for wide windows.  Both compute the
same IEEE doubles, so grown boundaries are bit-identical either way.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.core.buckets import AtomicDenseBucket, VariableWidthBucket
from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.histogram import Histogram
from repro.core.kernels import slope_constraints, slope_constraints_scalar
from repro.obs import NULL_TRACE

__all__ = [
    "grow_bucklet",
    "build_qvwh",
    "build_atomic_dense",
    "grow_span_buckets",
    "grow_span_atomic",
    "GrowStats",
]

# The 9-bit width fields cap seven of the eight bucklets at 511 values.
MAX_BOUNDED_BUCKLET = 511

# Corollary 4.2 windows at or below this many intervals take the scalar
# constraints path; wider ones amortize a numpy dispatch.
_SCALAR_WINDOW = 64


class GrowStats:
    """Work counter for construction instrumentation (Fig. 11's
    mechanism: the bounded search window -- and hence the number of
    query intervals each right endpoint scans -- is proportional to θ)."""

    def __init__(self) -> None:
        self.intervals_scanned = 0


def grow_bucklet(
    density: AttributeDensity,
    l: int,
    m_max: int,
    theta: float,
    q: float,
    bounded: bool = True,
    stats: Optional[GrowStats] = None,
    trace=NULL_TRACE,
) -> int:
    """Longest prefix ``[l, l + m)`` that stays θ,q-acceptable for f̂avg.

    Returns ``m`` with ``0 <= m <= m_max``; at least 1 whenever
    ``m_max >= 1`` (a single dense value always estimates itself
    exactly).
    """
    if m_max <= 0:
        return 0
    if not 0 <= l < density.n_distinct:
        raise IndexError(f"start {l} out of range")
    m_max = min(m_max, density.n_distinct - l)
    cum = density.cum_list
    np_cum = density.cumulative
    base = cum[l]
    alpha_lb = 0.0
    alpha_ub = math.inf
    alpha_min = math.inf
    tests = 0
    scanned = 0
    try:
        with trace.timer("acceptance_tests"):
            for m in range(1, m_max + 1):
                j = l + m
                total = float(cum[j] - base)
                alpha = total / m
                if alpha < alpha_min:
                    alpha_min = alpha
                if bounded:
                    # Corollary 4.2 window: minimal violations are narrower
                    # than 2 theta n / f+ + 3 = 2 theta / alpha + 3.  Using
                    # the smallest alpha the growing bucket has seen keeps
                    # the window valid for every slope the bucket has taken.
                    window = math.ceil(2.0 * theta / alpha_min) + 3
                    i_low = j - window
                    if i_low < l:
                        i_low = l
                else:
                    i_low = l
                tests += 1
                scanned += j - i_low
                if j - i_low <= _SCALAR_WINDOW:
                    lb_new, ub_new = slope_constraints_scalar(cum, i_low, j, theta, q)
                else:
                    lb_new, ub_new = slope_constraints(np_cum, i_low, j, theta, q)
                if lb_new > alpha_lb:
                    alpha_lb = lb_new
                if ub_new < alpha_ub:
                    alpha_ub = ub_new
                if alpha < alpha_lb or alpha > alpha_ub:
                    return m - 1
        return m_max
    finally:
        if stats is not None:
            stats.intervals_scanned += scanned
        trace.count("acceptance_tests", tests)
        trace.count("search_probes", tests)
        trace.count("intervals_scanned", scanned)


def _grow_bucket(
    density: AttributeDensity,
    start: int,
    theta: float,
    q: float,
    bounded: bool,
    stats: Optional[GrowStats] = None,
    trace=NULL_TRACE,
    stop: Optional[int] = None,
) -> Tuple[List[int], List[int], int]:
    """Grow one 8-bucklet bucket from ``start`` (Fig. 6's outer loop body).

    Returns (widths, bucklet totals, next start).  The first bucklet is
    unbounded; if it stays within 511 the *last* bucklet is the
    unbounded one instead, matching the 1F7x9 encoding's single open
    width.  ``stop`` caps growth at an arbitrary domain position (used
    by localized repair to rebuild a span of the full density in place).
    """
    d = density.n_distinct if stop is None else stop
    widths: List[int] = []
    totals: List[int] = []
    pos = start
    m0 = grow_bucklet(
        density, pos, d - pos, theta, q, bounded=bounded, stats=stats, trace=trace
    )
    m0 = max(m0, 1)
    widths.append(m0)
    totals.append(density.f_plus(pos, pos + m0))
    pos += m0
    first_open = m0 > MAX_BOUNDED_BUCKLET
    for index in range(1, 8):
        if pos >= d:
            widths.append(0)
            totals.append(0)
            continue
        last = index == 7
        if last and not first_open:
            cap = d - pos
        else:
            cap = min(MAX_BOUNDED_BUCKLET, d - pos)
        m = grow_bucklet(
            density, pos, cap, theta, q, bounded=bounded, stats=stats, trace=trace
        )
        m = max(m, 1) if cap >= 1 else 0
        widths.append(m)
        totals.append(density.f_plus(pos, pos + m))
        pos += m
    return widths, totals, pos


def build_qvwh(
    density: AttributeDensity,
    config: HistogramConfig = HistogramConfig(),
    stats: Optional[GrowStats] = None,
    trace=None,
) -> Histogram:
    """Fig. 6's ``BuildQVWH``: incremental variable-width construction.

    Produces 128-bit QC16T8x6+1F7x9 buckets; the evaluation's ``V8Dinc``
    (``bounded_search=False``) and ``V8DincB`` (``True``) variants.
    ``trace`` (a :class:`repro.obs.Trace`) accumulates per-phase timings
    and counters; ``None`` disables instrumentation.
    """
    trace = trace if trace is not None else NULL_TRACE
    if not density.is_dense:
        raise ValueError("QVWH requires a dense (dictionary-code) domain")
    theta = config.resolve_theta(density.total)
    q = config.q
    d = density.n_distinct
    buckets: List[VariableWidthBucket] = []
    packing = trace.timer("packing")
    b = 0
    while b < d:
        widths, totals, b = _grow_bucket(
            density, b, theta, q, config.bounded_search, stats=stats, trace=trace
        )
        with packing:
            buckets.append(VariableWidthBucket.build(b - sum(widths), widths, totals))
    trace.count("buckets", len(buckets))
    kind = "V8DincB" if config.bounded_search else "V8Dinc"
    return Histogram(buckets, kind=kind, theta=theta, q=q, domain="code")


def build_atomic_dense(
    density: AttributeDensity,
    config: HistogramConfig = HistogramConfig(),
    trace=None,
) -> Histogram:
    """Atomic (bucklet-less) histograms: the ``1Dinc[B]`` variants.

    Each bucket is grown incrementally to the longest θ,q-acceptable
    range and stores a single 8-bit binary-q-compressed total.
    """
    trace = trace if trace is not None else NULL_TRACE
    if not density.is_dense:
        raise ValueError("atomic dense construction needs a dense domain")
    theta = config.resolve_theta(density.total)
    q = config.q
    d = density.n_distinct
    buckets: List[AtomicDenseBucket] = []
    packing = trace.timer("packing")
    b = 0
    while b < d:
        m = grow_bucklet(
            density, b, d - b, theta, q, bounded=config.bounded_search, trace=trace
        )
        m = max(m, 1)
        with packing:
            buckets.append(
                AtomicDenseBucket.build(b, b + m, density.f_plus(b, b + m))
            )
        b += m
    trace.count("buckets", len(buckets))
    kind = "1DincB" if config.bounded_search else "1Dinc"
    return Histogram(buckets, kind=kind, theta=theta, q=q, domain="code")


# -- span builders (localized repair) --------------------------------------


def grow_span_buckets(
    density: AttributeDensity,
    lo: int,
    hi: int,
    theta: float,
    q: float,
    bounded: bool = True,
    trace=NULL_TRACE,
) -> List[VariableWidthBucket]:
    """Variable-width buckets covering ``[lo, hi)`` of the *full* density.

    Produces exactly the buckets that building over the sliced
    sub-density ``[lo, hi)`` and shifting by ``lo`` would: the growth
    recurrence only reads cumulated-frequency differences inside the
    span, and the Corollary 4.2 window is clamped at the span start
    either way.  Running on the full density lets repair share the
    column's prefix sums across every damaged range instead of
    re-slicing and re-summing per range.
    """
    buckets: List[VariableWidthBucket] = []
    b = lo
    while b < hi:
        widths, totals, b = _grow_bucket(
            density, b, theta, q, bounded, trace=trace, stop=hi
        )
        buckets.append(VariableWidthBucket.build(b - sum(widths), widths, totals))
    return buckets


def grow_span_atomic(
    density: AttributeDensity,
    lo: int,
    hi: int,
    theta: float,
    q: float,
    bounded: bool = True,
    trace=NULL_TRACE,
) -> List[AtomicDenseBucket]:
    """Atomic buckets covering ``[lo, hi)`` of the *full* density
    (see :func:`grow_span_buckets`)."""
    buckets: List[AtomicDenseBucket] = []
    b = lo
    while b < hi:
        m = grow_bucklet(
            density, b, hi - b, theta, q, bounded=bounded, trace=trace
        )
        m = max(m, 1)
        buckets.append(AtomicDenseBucket.build(b, b + m, density.f_plus(b, b + m)))
        b += m
    return buckets
