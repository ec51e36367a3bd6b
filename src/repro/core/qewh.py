"""QEWH: histograms with eight equi-width bucklets (paper Sec. 7.1, Fig. 5).

``BuildQEWH`` is the generate-and-test construction: starting at the
current bucket boundary it searches for the largest bucklet width ``m``
such that all eight bucklets of width ``m`` are individually
θ,q-acceptable (``FindLargest``: doubling followed by binary search,
using the combined acceptance test of Sec. 4.4, answered by the O(1)
:class:`~repro.core.search.AcceptanceOracle`).  Each bucket is encoded
as a 64-bit QC16T8x6 word.  This is the ``F8Dgt`` variant of the
evaluation.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.compression.layouts import BucketLayout, QC16T8x6
from repro.core.buckets import EquiWidthBucket
from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.histogram import Histogram
from repro.core.kernels import AcceptanceCache
from repro.core.search import AcceptanceOracle, ProbeResult
from repro.obs import NULL_TRACE

__all__ = ["find_largest", "build_qewh"]


def find_largest(
    density: AttributeDensity,
    l: int,
    theta: float,
    q: float,
    config: HistogramConfig,
    n_bucklets: int = 8,
    max_bucklet_total: float = float("inf"),
    cache: Optional[AcceptanceCache] = None,
    trace=NULL_TRACE,
    oracle: Optional[AcceptanceOracle] = None,
    warm: int = 0,
) -> int:
    """Fig. 5's ``FindLargest``: the maximal bucklet width ``m`` at ``l``.

    Doubles ``m`` (``m <- min(2m, m_cap)``) until some bucklet fails the
    acceptance test, then bisects (``(good + bad) // 2``) to the maximal
    acceptable width in between.  Width 1 is always acceptable on a
    dense domain (a single-value bucklet estimates itself exactly), so
    the result is at least 1.  A bucklet whose total exceeds
    ``max_bucklet_total`` (the payload layout's range) fails.

    Each probe's verdict is a pure function of its width, so the first
    ladder failure -- and hence every later midpoint -- does not depend
    on evaluation order.  ``warm`` (the previous bucket's accepted
    width) therefore only sizes the *speculative chunk*: how many ladder
    widths are evaluated, with their ambiguous bucklets resolved in one
    stacked kernel dispatch, before checking for the first failure.
    Pass one ``oracle`` (or at least one ``cache``) per build so every
    bucket shares the index and the decision memo.
    """
    d = density.n_distinct
    if not 0 <= l < d:
        raise IndexError(f"start {l} outside domain [0, {d})")
    if oracle is None:
        oracle = AcceptanceOracle(density, theta, q, config, cache=cache)
    # A bucket never needs to reach past the domain end by more than one
    # bucklet's worth of padding.
    m_cap = max(1, math.ceil((d - l) / n_bucklets))
    if m_cap <= 1:
        return 1
    probe = oracle.probe
    m_good = 1
    m_bad = m_cap + 1
    speculate = 2 * warm if warm > 1 else 2
    with trace.timer("acceptance_tests"):
        while m_good < m_cap:
            # One speculative chunk of the canonical doubling ladder.
            chunk: List[int] = []
            width = m_good
            while True:
                width *= 2
                if width >= m_cap:
                    chunk.append(m_cap)
                    break
                chunk.append(width)
                if width >= speculate:
                    break
            statuses: List[ProbeResult] = []
            for width in chunk:
                status = probe(l, width, n_bucklets, max_bucklet_total)
                statuses.append(status)
                if status is False:
                    break  # wider widths cannot change the first failure
            pending_all = [
                cell
                for status in statuses
                if type(status) is list
                for cell in status
            ]
            grid = oracle.resolve(pending_all) if pending_all else []
            cursor = 0
            fail = -1
            for offset, status in enumerate(statuses):
                if type(status) is list:
                    span = len(status)
                    accepted = all(grid[cursor : cursor + span])
                    cursor += span
                else:
                    accepted = status
                if not accepted:
                    fail = offset
                    break
            if fail >= 0:
                m_bad = chunk[fail]
                if fail > 0:
                    m_good = chunk[fail - 1]
                break
            m_good = chunk[-1]
            speculate = m_good * 8
        # Largest acceptable m in [m_good, m_bad).
        while m_bad - m_good > 1:
            mid = (m_good + m_bad) // 2
            status = probe(l, mid, n_bucklets, max_bucklet_total)
            if type(status) is list:
                status = all(oracle.resolve(status))
            if status:
                m_good = mid
            else:
                m_bad = mid
    oracle.flush(trace)
    return m_good


def build_qewh(
    density: AttributeDensity,
    config: HistogramConfig = HistogramConfig(),
    layout: BucketLayout = QC16T8x6,
    trace=None,
) -> Histogram:
    """Fig. 5's ``BuildQEWH``: generate-and-test equi-width construction.

    ``layout`` selects the packed bucket format (default QC16T8x6); any
    simple layout of Table 3 works, e.g. QC16x4 for sixteen narrower
    bucklets or BQC8x8 for binary-q payloads.  ``trace`` (a
    :class:`repro.obs.Trace`) accumulates acceptance-test/packing phase
    timings and counters; ``None`` disables instrumentation.
    """
    trace = trace if trace is not None else NULL_TRACE
    if not density.is_dense:
        raise ValueError("QEWH requires a dense (dictionary-code) domain")
    theta = config.resolve_theta(density.total)
    q = config.q
    d = density.n_distinct
    n = layout.n_bucklets
    capacity = layout.max_bucklet_value()
    max_freq = int(density.frequencies.max())
    if max_freq > capacity:
        raise OverflowError(
            f"layout {layout.name} cannot represent a single-value frequency "
            f"of {max_freq} (range cap {capacity:.3g}); pick a layout with a "
            "larger base or wider fields"
        )
    buckets: List[EquiWidthBucket] = []
    packing = trace.timer("packing")
    oracle = AcceptanceOracle(density, theta, q, config, cache=AcceptanceCache())
    cum = density.cum_list
    b = 0
    warm = 0
    while b < d:
        m = find_largest(
            density, b, theta, q, config,
            n_bucklets=n, max_bucklet_total=capacity,
            trace=trace, oracle=oracle, warm=warm,
        )
        warm = m
        with packing:
            freqs = [
                cum[min(b + (i + 1) * m, d)] - cum[min(b + i * m, d)]
                for i in range(n)
            ]
            buckets.append(EquiWidthBucket.build(b, m, freqs, layout=layout))
        b += n * m
    trace.count("buckets", len(buckets))
    kind = "F8Dgt" if layout is QC16T8x6 else f"F{n}Dgt[{layout.name}]"
    return Histogram(buckets, kind=kind, theta=theta, q=q, domain="code")
