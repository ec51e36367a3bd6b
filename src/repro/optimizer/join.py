"""Equi-join cardinality estimation from single-column histograms.

The paper (Sec. 9/10) keeps joins out of scope -- "complex expressions
which cover multiple columns including join predicates have to be
addressed with conventional techniques" -- but its Sec. 2.3 algebra
tells us exactly how errors behave there: q-errors *multiply*, which is
why [13] notes estimation error propagates "with the power of four in
the query".

This module implements the conventional technique over our histograms:

    |R ⋈_A S|  =  Σ_v  f_R(v) · f_S(v)

approximated by integrating the product of the two histograms' density
functions over the shared (dictionary-code) domain.  Both histograms'
compiled plans give piecewise-linear cumulative-mass functions
(:meth:`~repro.core.compiled.CompiledHistogram.fine_segments`), i.e.
piecewise-constant densities, so the integral is an exact sum over the
merged segment boundaries.

Error bound: if both factors are q-acceptable per value region, the
product is q_R·q_S-acceptable (Sec. 2.3); within-bucket value-alignment
assumptions add the usual uniformity error, demonstrated in the tests.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.histogram import Histogram

__all__ = ["estimate_equijoin", "join_qerror_bound"]


def _segments(histogram: Histogram) -> Tuple[np.ndarray, np.ndarray]:
    """(edges, densities) of the histogram's compiled mass function.

    Raises :class:`TypeError` for bucket types without a plan emitter.
    """
    plan = histogram.plan()
    if plan is None:
        raise TypeError(f"histogram {histogram.kind!r} cannot be compiled")
    edges, masses = plan.fine_segments()
    widths = np.maximum(np.diff(edges), 1e-300)
    densities = np.diff(masses) / widths
    return edges, densities


def estimate_equijoin(left: Histogram, right: Histogram) -> float:
    """Estimated size of ``R JOIN S ON R.A = S.B``.

    Both histograms must live on the *same* dense code domain (i.e. the
    join columns share a dictionary -- the natural situation for a
    foreign key joining its primary key's domain, or after dictionary
    alignment).
    """
    if left.domain != "code" or right.domain != "code":
        raise ValueError("join estimation needs code-domain histograms")
    edges_l, dens_l = _segments(left)
    edges_r, dens_r = _segments(right)

    lo = max(edges_l[0], edges_r[0])
    hi = min(edges_l[-1], edges_r[-1])
    if hi <= lo:
        return 0.0
    # Merge the two edge sets over the overlap.
    edges = np.union1d(edges_l, edges_r)
    edges = edges[(edges >= lo) & (edges <= hi)]
    if edges.size < 2:
        return 0.0
    mids = (edges[:-1] + edges[1:]) / 2.0
    widths = np.diff(edges)
    index_l = np.clip(np.searchsorted(edges_l, mids, side="right") - 1, 0, dens_l.size - 1)
    index_r = np.clip(np.searchsorted(edges_r, mids, side="right") - 1, 0, dens_r.size - 1)
    # Per unit of the domain: dens_l rows match dens_r rows each.
    return float(np.sum(dens_l[index_l] * dens_r[index_r] * widths))


def join_qerror_bound(q_left: float, q_right: float) -> float:
    """Sec. 2.3: the product of q-bounded factors is q_l*q_r-bounded."""
    if q_left < 1 or q_right < 1:
        raise ValueError("q-errors are >= 1")
    return q_left * q_right
