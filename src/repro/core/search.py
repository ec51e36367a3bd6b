"""The acceptance oracle behind ``FindLargest``: O(1) bucklet decisions.

The generate-and-test construction (``FindLargest``, Fig. 5, in
:mod:`repro.core.qewh`) spends its life asking one question: *are all
eight width-``m`` bucklets starting at ``l`` θ,q-acceptable?*
:class:`AcceptanceOracle` answers most of those probes without touching
a kernel at all, resolving a single bucklet in O(1) from the density's
prefix sums and its :class:`~repro.core.density.DensityIndex` (sparse
range max/min tables, built here on first use -- the oracle is the
index's only reader):

- **certify**: Theorem 4.3's pretest — ``total <= θ`` or
  ``q·α >= max f`` and ``α/q <= min f`` — needs exactly the range
  total and the range extrema, all O(1) lookups;
- **refute**: past the MaxSize cut, or when the width-1 pair at the
  range maximum (or minimum) violates both the θ-box and the q-band:
  that pair is the *first* pair of its row in the Sec. 4.2 grid, so it
  is never skipped by the kθ-boundary rule and the grid must reject;
- everything in between ("ambiguous") falls through to the exact
  stacked matrix kernel, after consulting the decision memo
  (:class:`~repro.core.kernels.AcceptanceCache`).

Each verdict reproduces the combined test ``pretest ∨ (size <= MaxSize
∧ grid)`` of :func:`repro.core.acceptance.is_theta_q_acceptable` on the
same float64 values, so a probe's answer is a pure function of its
width.  ``tests/core/test_search.py`` checks this bucklet by bucklet
against the paper-literal Sec. 4.2 test.

Counters (flushed into the build trace, and from there into CLI
``--profile`` and the service's Prometheus export):

* ``search_probes``      — candidate widths evaluated;
* ``oracle_certified``   — bucklets accepted in O(1);
* ``oracle_refuted``     — bucklets rejected in O(1);
* ``oracle_grid_cells``  — bucklets that needed the exact kernel;
* ``acceptance_cache_hits`` — grid decisions answered by the memo.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.kernels import (
    MATRIX_STRATEGY_MAX,
    AcceptanceCache,
    acceptance_matrix_batch,
    subquadratic_test_vectorized,
)

__all__ = ["AcceptanceOracle"]

# A pending grid cell: (lower, clipped upper, estimation slope, cache key).
_Cell = Tuple[int, int, float, Optional[tuple]]
# A probe verdict: decided outright, or the cells only the grid can judge.
ProbeResult = Union[bool, List[_Cell]]


class AcceptanceOracle:
    """O(1) certify/refute decisions for the combined acceptance test.

    Bound to one (density, θ, q, config) tuple; share one instance per
    build so the sparse-table index, the Python-list prefix sums and the
    decision memo (``cache``, optional) are reused by every bucket.
    """

    __slots__ = (
        "density", "index", "cum", "d", "theta", "q",
        "max_size", "config", "cache",
        "probes", "tests", "certified", "refuted", "grid_cells", "cache_hits",
    )

    def __init__(
        self,
        density: AttributeDensity,
        theta: float,
        q: float,
        config: HistogramConfig,
        cache: Optional[AcceptanceCache] = None,
    ) -> None:
        self.density = density
        self.index = density.ensure_index()
        self.cum = density.cum_list
        self.d = density.n_distinct
        self.theta = float(theta)
        self.q = float(q)
        self.max_size = config.max_pretest_size
        self.config = config
        self.cache = cache
        # Tallied in the scalar hot loop, flushed per search call.
        self.probes = 0
        self.tests = 0
        self.certified = 0
        self.refuted = 0
        self.grid_cells = 0
        self.cache_hits = 0

    # -- probe = one candidate width ----------------------------------------

    def probe(
        self, l: int, m: int, n_bucklets: int, max_bucklet_total: float
    ) -> ProbeResult:
        """Scalar verdict for one candidate width.

        ``False`` the moment any bucklet is refuted (the probe is a
        conjunction, so refutation order never changes its value);
        ``True`` when every bucklet certifies; otherwise the list of
        bucklets only the exact kernel can judge.
        """
        cum = self.cum
        index = self.index
        cache = self.cache
        d = self.d
        theta = self.theta
        q = self.q
        max_size = self.max_size
        self.probes += 1
        pending: Optional[List[_Cell]] = None
        cells = 0
        for i in range(n_bucklets):
            lo = l + i * m
            if lo >= d:
                break  # fully past the domain: empty, trivially acceptable
            clipped = lo + m
            if clipped > d:
                clipped = d
            total_int = cum[clipped] - cum[lo]
            if total_int > max_bucklet_total:
                self.tests += cells
                return False
            cells += 1
            total = float(total_int)
            if total <= theta:
                self.certified += 1
                continue
            # The estimation slope runs over the *unclipped* width: a
            # domain-clamped trailing bucklet is served at total / m.
            alpha = total_int / m
            fmax = float(index.range_max(lo, clipped))
            fmin = float(index.range_min(lo, clipped))
            if q * alpha >= fmax and alpha / q <= fmin:
                self.certified += 1
                continue
            if clipped - lo > max_size:
                self.refuted += 1
                self.tests += cells
                return False
            if (fmax > theta or alpha > theta) and (
                fmax > q * alpha or alpha > q * fmax
            ):
                self.refuted += 1
                self.tests += cells
                return False
            if (fmin > theta or alpha > theta) and (
                fmin > q * alpha or alpha > q * fmin
            ):
                self.refuted += 1
                self.tests += cells
                return False
            key = None
            if cache is not None:
                key = cache.decision_key(
                    lo, clipped, theta, q, alpha,
                    k=8.0, max_size=max_size, flexible_alpha=False,
                )
                cached = cache.lookup_decision(key)
                if cached is not None:
                    self.cache_hits += 1
                    if not cached:
                        self.tests += cells
                        return False
                    continue
            if pending is None:
                pending = []
            pending.append((lo, clipped, alpha, key))
        self.tests += cells
        return True if pending is None else pending

    def resolve(self, pending: Sequence[_Cell]) -> List[bool]:
        """Exact grid verdicts for ambiguous bucklets (one stacked
        dispatch; oversize bucklets use the boundary kernel)."""
        self.grid_cells += len(pending)
        density = self.density
        theta = self.theta
        q = self.q
        cache = self.cache
        verdicts: List[Optional[bool]] = [None] * len(pending)
        stacked: List[int] = []
        for pos, (lo, clipped, alpha, _key) in enumerate(pending):
            if clipped - lo > MATRIX_STRATEGY_MAX:
                # MaxSize raised past the matrix bound: the (equivalent)
                # boundary kernel decides this bucklet alone.
                verdicts[pos] = bool(
                    subquadratic_test_vectorized(
                        density, lo, clipped, theta, q, alpha=alpha
                    )
                )
            else:
                stacked.append(pos)
        if stacked:
            grid = acceptance_matrix_batch(
                density,
                [pending[pos][0] for pos in stacked],
                [pending[pos][1] for pos in stacked],
                theta,
                q,
                alphas=[pending[pos][2] for pos in stacked],
            )
            for pos, decision in zip(stacked, grid):
                verdicts[pos] = bool(decision)
        if cache is not None:
            for (lo, clipped, alpha, key), decision in zip(pending, verdicts):
                if key is not None:
                    cache.store_decision(key, decision)
        return verdicts  # type: ignore[return-value]

    def flush(self, trace) -> None:
        """Move the scalar-loop tallies into the build trace."""
        if self.probes:
            trace.count("search_probes", self.probes)
            self.probes = 0
        if self.tests:
            trace.count("acceptance_tests", self.tests)
            self.tests = 0
        if self.certified:
            trace.count("oracle_certified", self.certified)
            self.certified = 0
        if self.refuted:
            trace.count("oracle_refuted", self.refuted)
            self.refuted = 0
        if self.grid_cells:
            trace.count("oracle_grid_cells", self.grid_cells)
            self.grid_cells = 0
        if self.cache_hits:
            trace.count("acceptance_cache_hits", self.cache_hits)
            self.cache_hits = 0

