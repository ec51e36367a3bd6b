"""Localized θ,q repair: split or merge only the buckets churn broke.

The paper rebuilds a column's histogram wholesale at delta-merge time
(Sec. 6.1.1); between merges, Sec. 6.1.3's Morris registers absorb
inserts but the θ,q certificate silently erodes.  This module closes the
gap with repair cost proportional to the *damage* rather than the column
size (the "Streaming Algorithms for Support-Aware Histograms" idea from
PAPERS.md):

* :func:`buckets_acceptable` re-runs the construction-time acceptance
  test for a set of buckets against the *current* truth.  Each bucket is
  decomposed into its certified cells -- the sub-intervals whose f̂avg
  estimator was individually θ,q-accepted at build time (bucklets for
  QEWH/QVWH buckets, the whole range for atomic buckets, per-code
  frequencies for raw buckets) -- and each cell is tested with the
  *stale* serving slope α = stored mass / cell width against the fresh
  frequencies, batched through the vectorized kernels of
  :mod:`repro.core.kernels`.
* :func:`repair_histogram` replaces each failing run of buckets by
  re-running the paper's bucket search on just that code range (a
  *split*), consolidates adjacent churned buckets whose combined mass
  fell under θ into one atomic bucket (a *merge* -- the delete
  direction), and re-stamps the certificate by re-testing exactly the
  replaced ranges.  Untouched buckets are carried over as the *same
  objects*, so their payloads -- and any estimate answered from them --
  are byte-identical before and after the repair.

Deleted-to-zero codes: the dictionary keeps a code until the next delta
merge even when every row carrying it is deleted, and the paper never
estimates zero (Sec. 3), so current frequencies are clamped to >= 1
before testing and rebuilding -- the same never-zero floor the serving
path applies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.buckets import (
    AtomicDenseBucket,
    EquiWidthBucket,
    RawDenseBucket,
    VariableWidthBucket,
)
from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.flexalpha import FlexAlphaBucket
from repro.core.histogram import Histogram
from repro.core.kernels import (
    MATRIX_STRATEGY_MAX,
    acceptance_matrix_batch,
    pretest_dense_batch,
    subquadratic_test_vectorized,
)
from repro.core.qvwh import grow_span_atomic, grow_span_buckets

__all__ = [
    "DEFAULT_COMPRESSION_SLACK",
    "RepairError",
    "RepairedRange",
    "RepairResult",
    "buckets_acceptable",
    "repair_histogram",
]

#: Worst-case multiplicative error of the packed payloads: ``sqrt(1.4)``
#: for the largest QC16T8x6 bucklet base (binary-q totals are tighter at
#: ``sqrt(1.25)``).  The same allowance
#: :func:`repro.experiments.validate.certify` grants the whole histogram.
DEFAULT_COMPRESSION_SLACK = 1.4 ** 0.5

#: Kinds whose builders cover the requested sub-range exactly; other
#: kinds (e.g. F8Dgt, whose last bucket may logically overhang) fall
#: back to this variant for the repaired range.
_EXACT_COVER_KINDS = frozenset({"V8Dinc", "V8DincB", "1Dinc", "1DincB"})
_DEFAULT_SUB_KIND = "V8DincB"


class RepairError(ValueError):
    """A bucket range could not be repaired (or failed its re-stamp)."""


@dataclass(frozen=True)
class RepairedRange:
    """One contiguous run of old buckets replaced by the repair."""

    lo: int
    hi: int  # old code span [lo, hi) -- hi is the *old* run end
    action: str  # "split" or "merge"
    old_span: Tuple[int, int]  # [first, last] bucket indices, old histogram
    new_span: Tuple[int, int]  # [first, last] bucket indices, new histogram


@dataclass(frozen=True)
class RepairResult:
    """A repaired histogram plus the exact old→new bucket mapping."""

    histogram: Histogram
    ranges: Tuple[RepairedRange, ...]
    failing: Tuple[int, ...]
    buckets_before: int
    buckets_after: int
    splits: int
    merges: int
    repaired_buckets: int  # old buckets replaced across all ranges
    preserved_buckets: int  # old buckets carried over untouched


# -- the acceptance re-test ------------------------------------------------


def _estimator_cells(bucket, n: int) -> Optional[List[Tuple[int, int, float]]]:
    """The bucket's certified cells as ``(l, u, alpha)`` triples.

    ``alpha`` is the *serving* slope of the cell (stored mass over full
    cell width), so the test measures the deployed estimator against the
    current truth, not a hypothetical fresh f̂avg.  Cells are clipped to
    the density domain ``[0, n)``; returns ``None`` for bucket types
    without f̂avg cells (raw buckets are handled separately).
    """
    cells: List[Tuple[int, int, float]] = []
    if isinstance(bucket, EquiWidthBucket):
        bucket._decode()
        width = bucket.bucklet_width
        for index, mass in enumerate(bucket._bucklets):
            lo = bucket.lo + index * width
            u = min(lo + width, n)
            if u <= lo:
                break
            cells.append((int(lo), int(u), float(mass) / width))
        return cells
    if isinstance(bucket, VariableWidthBucket):
        bucket._decode()
        edges = bucket._edges
        for index, mass in enumerate(bucket._bucklets):
            lo, hi = int(edges[index]), int(edges[index + 1])
            u = min(hi, n)
            if u <= lo:
                continue
            cells.append((lo, u, float(mass) / (hi - lo)))
        return cells
    if isinstance(bucket, (AtomicDenseBucket, FlexAlphaBucket)):
        u = min(int(bucket.hi), n)
        lo = int(bucket.lo)
        if u <= lo:
            return cells
        if isinstance(bucket, FlexAlphaBucket):
            alpha = float(bucket.alpha)
        else:
            alpha = bucket.total_estimate() / (bucket.hi - bucket.lo)
        cells.append((lo, u, alpha))
        return cells
    return None


def _raw_dense_acceptable(
    bucket: RawDenseBucket, density: AttributeDensity, theta: float, q: float
) -> bool:
    """Per-code re-test of an exact-frequency bucket.

    The stored per-code estimates were q-compressed from the build-time
    truth; every code whose stored/current pair neither stays in the
    θ-region nor within q sinks the bucket.  (Per-code acceptability
    implies every sub-range's, since sums preserve the ratio bound.)
    """
    n = density.n_distinct
    lo = int(bucket.lo)
    u = min(int(bucket.hi), n)
    if u <= lo:
        return True
    est = np.asarray(bucket._decode()[: u - lo], dtype=np.float64)
    truth = density.frequencies[lo:u].astype(np.float64)
    small = (est <= theta) & (truth <= theta)
    qacc = (est <= q * truth) & (truth <= q * est)
    return bool(np.all(small | qacc))


def buckets_acceptable(
    histogram: Histogram,
    density: AttributeDensity,
    indices: Sequence[int],
    k: float = 8.0,
    slack: float = DEFAULT_COMPRESSION_SLACK,
) -> np.ndarray:
    """Re-run the acceptance test per bucket against current truth.

    Tests the *serving envelope*, not the raw inner (θ, q): a built
    bucket's certificate says every subrange of every cell is
    θ,(q + 1/k)-acceptable for the true f̂avg slope, and the payload
    stores that slope within a ``slack`` factor -- so what the deployed
    estimator actually promises is (θ·slack, (q + 1/k)·slack) per cell.
    That envelope is what this function checks; a bucket fails only when
    churn pushed some subrange *outside* what construction ever
    guaranteed, which is exactly the repair trigger.  A freshly built,
    un-churned bucket always passes.

    Returns one boolean per entry of ``indices``.  Cells first go
    through :func:`~repro.core.kernels.pretest_dense_batch` (Theorem
    4.3's sufficient condition, one vectorized pass for the whole
    batch); survivors are decided exactly by
    :func:`~repro.core.kernels.acceptance_matrix_batch` (cells up to
    :data:`~repro.core.kernels.MATRIX_STRATEGY_MAX` codes) or the
    boundary-walking :func:`subquadratic_test_vectorized` beyond that.
    Because the cells carry their *stale* serving slope, the pretest's
    θ-branch is evaluated on ``max(truth, estimate)`` -- truth alone
    being below θ says nothing about a stale estimate.

    Bucket types without a cell decomposition are reported failing
    (conservative: repair replaces them with a tested variant).
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if slack < 1.0:
        raise ValueError(f"slack must be >= 1, got {slack}")
    indices = list(indices)
    theta = histogram.theta * slack
    q = (histogram.q + 1.0 / k) * slack
    n = density.n_distinct
    ok = np.ones(len(indices), dtype=bool)
    owners: List[int] = []
    lowers: List[int] = []
    uppers: List[int] = []
    alphas: List[float] = []
    buckets = histogram.buckets
    for pos, index in enumerate(indices):
        bucket = buckets[index]
        if isinstance(bucket, RawDenseBucket):
            ok[pos] = _raw_dense_acceptable(bucket, density, theta, q)
            continue
        cells = _estimator_cells(bucket, n)
        if cells is None:
            ok[pos] = False
            continue
        for lo, u, alpha in cells:
            owners.append(pos)
            lowers.append(lo)
            uppers.append(u)
            alphas.append(alpha)
    if not lowers:
        return ok
    owners_arr = np.asarray(owners, dtype=np.int64)
    lowers_arr = np.asarray(lowers, dtype=np.int64)
    uppers_arr = np.asarray(uppers, dtype=np.int64)
    alphas_arr = np.asarray(alphas, dtype=np.float64)
    cum = density.cumulative
    truths = (cum[uppers_arr] - cum[lowers_arr]).astype(np.float64)
    estimates = alphas_arr * (uppers_arr - lowers_arr)
    passed = pretest_dense_batch(
        density,
        lowers_arr,
        uppers_arr,
        theta,
        q,
        alphas=alphas_arr,
        totals=np.maximum(truths, estimates),
    )
    rest = np.flatnonzero(~passed)
    if rest.size:
        sizes = uppers_arr[rest] - lowers_arr[rest]
        small = rest[sizes <= MATRIX_STRATEGY_MAX]
        if small.size:
            accepted = acceptance_matrix_batch(
                density,
                lowers_arr[small],
                uppers_arr[small],
                theta,
                q,
                k=k,
                alphas=alphas_arr[small],
            )
            ok[owners_arr[small[~accepted]]] = False
        for cell in rest[sizes > MATRIX_STRATEGY_MAX]:
            if not subquadratic_test_vectorized(
                density,
                int(lowers_arr[cell]),
                int(uppers_arr[cell]),
                theta,
                q,
                k=k,
                alpha=float(alphas_arr[cell]),
            ):
                ok[owners_arr[cell]] = False
    return ok


# -- bucket surgery --------------------------------------------------------


def _consecutive_runs(indices: Iterable[int]) -> List[Tuple[int, int]]:
    """Maximal runs of consecutive integers as inclusive (first, last)."""
    runs: List[Tuple[int, int]] = []
    for index in sorted(set(int(i) for i in indices)):
        if runs and index == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], index)
        else:
            runs.append((index, index))
    return runs


def _merge_runs(
    histogram: Histogram,
    density: AttributeDensity,
    churned: Sequence[int],
    failing: Sequence[int],
) -> List[Tuple[int, int]]:
    """Runs of adjacent under-full churned buckets worth consolidating.

    A run qualifies when it has at least two buckets and its combined
    *current* mass is at most θ: the replacement atomic bucket is then
    trivially θ,q-acceptable (every sub-range's truth and estimate sit
    in the θ-region), and the merge reclaims boundary storage deletes
    stranded.
    """
    theta = histogram.theta
    cum = density.cumulative
    n = density.n_distinct
    buckets = histogram.buckets
    blocked = set(int(i) for i in failing)
    candidates = [int(i) for i in churned if int(i) not in blocked]
    merges: List[Tuple[int, int]] = []
    for first, last in _consecutive_runs(candidates):
        start, mass = first, 0.0
        for index in range(first, last + 1):
            bucket = buckets[index]
            lo = max(min(int(bucket.lo), n), 0)
            hi = max(min(int(bucket.hi), n), 0)
            bucket_mass = float(cum[hi] - cum[lo])
            if mass + bucket_mass <= theta:
                mass += bucket_mass
                continue
            if index - start >= 2:
                merges.append((start, index - 1))
            start, mass = index, bucket_mass
        if last + 1 - start >= 2 and mass <= theta:
            merges.append((start, last))
    return merges


def _build_replacement(
    histogram: Histogram,
    density: AttributeDensity,
    lo: int,
    hi: int,
    config: HistogramConfig,
) -> List:
    """Re-run the paper's bucket search on just ``[lo, hi)``.

    The span builders grow the replacement *in place* over the full
    ``density``, producing exactly the buckets a build over the sliced
    sub-density would, shifted by ``lo`` (the growth recurrence only
    reads cumulated-frequency differences inside the span).
    """
    hi_eff = min(hi, density.n_distinct)
    if hi_eff <= lo:
        raise RepairError(f"repair range [{lo}, {hi}) lies outside the domain")
    kind = (
        histogram.kind
        if histogram.kind in _EXACT_COVER_KINDS
        else _DEFAULT_SUB_KIND
    )
    theta = config.resolve_theta(density.f_plus(lo, hi_eff))
    bounded = kind in ("V8DincB", "1DincB")
    grow = grow_span_atomic if kind in ("1Dinc", "1DincB") else grow_span_buckets
    fresh = grow(density, lo, hi_eff, theta, config.q, bounded=bounded)
    if int(fresh[0].lo) != lo:
        raise RepairError(
            f"replacement for [{lo}, {hi}) starts at {fresh[0].lo}"
        )
    return fresh


def repair_histogram(
    histogram: Histogram,
    frequencies: np.ndarray,
    failing: Sequence[int],
    config: Optional[HistogramConfig] = None,
    churned: Optional[Sequence[int]] = None,
    verify: bool = True,
) -> RepairResult:
    """Patch a histogram by splitting failing and merging under-full runs.

    Parameters
    ----------
    histogram:
        The deployed code-domain histogram.
    frequencies:
        Current per-code counts (post-churn truth; zeros allowed, they
        are clamped to the never-zero floor of 1).
    failing:
        Bucket indices whose certificate broke (from
        :func:`buckets_acceptable` /
        ``MaintainedHistogram.failing_buckets``); each maximal run is
        replaced by a localized bucket search over its code range.
    config:
        Construction parameters for the localized searches; ``theta``
        and ``q`` are always pinned to the histogram's own so the
        repaired certificate matches the original stamp.
    churned:
        Optional bucket indices with any recorded churn; adjacent
        non-failing churned buckets whose combined current mass is at
        most θ are merged into one atomic bucket.
    verify:
        Re-test every replaced range (the certificate re-stamp); a
        failure raises :class:`RepairError` instead of returning a
        silently broken histogram.

    Raises :class:`RepairError` when nothing is repairable or the
    re-stamp fails.  Untouched buckets are the same objects as in the
    input histogram.
    """
    if histogram.domain != "code":
        raise RepairError("repair requires a code-domain histogram")
    frequencies = np.asarray(frequencies, dtype=np.int64)
    if frequencies.ndim != 1 or frequencies.size == 0:
        raise RepairError("frequencies must be a non-empty 1-d array")
    domain_hi = int(histogram.hi)
    if frequencies.size > domain_hi:
        raise RepairError(
            f"truth covers {frequencies.size} codes but the histogram ends "
            f"at {domain_hi}: the dictionary grew, rebuild instead"
        )
    if frequencies.size <= int(histogram.buckets[-1].lo):
        # Only the *last* bucket may logically overhang the dictionary
        # (F8Dgt rounds its final width up); a truth array that stops
        # before it is a different column.
        raise RepairError(
            f"truth covers {frequencies.size} codes but the histogram "
            f"spans [0, {domain_hi})"
        )
    base_config = config if config is not None else HistogramConfig()
    sub_config = replace(base_config, theta=histogram.theta, q=histogram.q)
    # One density serves every damaged range and the final re-stamp.
    density = AttributeDensity(np.maximum(frequencies, 1))
    buckets = histogram.buckets
    for index in failing:
        if not 0 <= int(index) < len(buckets):
            raise RepairError(f"failing bucket index {index} out of range")

    plans: List[Tuple[int, int, str]] = [
        (first, last, "split") for first, last in _consecutive_runs(failing)
    ]
    if churned is not None:
        plans.extend(
            (first, last, "merge")
            for first, last in _merge_runs(histogram, density, churned, failing)
        )
    plans.sort()
    if not plans:
        raise RepairError("nothing to repair: no failing or mergeable runs")
    for (_, last, _), (first, _, _) in zip(plans, plans[1:]):
        if first <= last:
            raise RepairError("repair runs overlap")

    n = density.n_distinct
    new_buckets: List = []
    ranges: List[RepairedRange] = []
    splits = merges = repaired = 0
    cursor = 0
    for first, last, action in plans:
        new_buckets.extend(buckets[cursor:first])
        lo, hi = int(buckets[first].lo), int(buckets[last].hi)
        if hi > n and last != len(buckets) - 1:
            raise RepairError(
                f"bucket run [{lo}, {hi}) overhangs mid-histogram"
            )
        j0 = len(new_buckets)
        if action == "merge":
            total = int(density.cumulative[min(hi, n)] - density.cumulative[lo])
            merged = AtomicDenseBucket.build(lo, hi, total)
            if merged.total_estimate() > histogram.theta:
                # Binary-q rounding pushed the stored total past θ; a
                # localized search keeps the certificate honest instead.
                new_buckets.extend(
                    _build_replacement(histogram, density, lo, hi, sub_config)
                )
            else:
                new_buckets.append(merged)
            merges += 1
        else:
            new_buckets.extend(
                _build_replacement(histogram, density, lo, hi, sub_config)
            )
            splits += 1
        ranges.append(
            RepairedRange(
                lo=lo,
                hi=hi,
                action=action,
                old_span=(first, last),
                new_span=(j0, len(new_buckets) - 1),
            )
        )
        repaired += last - first + 1
        cursor = last + 1
    new_buckets.extend(buckets[cursor:])

    repaired_histogram = Histogram(
        new_buckets,
        kind=histogram.kind,
        theta=histogram.theta,
        q=histogram.q,
        domain=histogram.domain,
    )
    if verify:
        stamped: List[int] = []
        for item in ranges:
            stamped.extend(range(item.new_span[0], item.new_span[1] + 1))
        accepted = buckets_acceptable(repaired_histogram, density, stamped)
        if not bool(np.all(accepted)):
            bad = [stamped[i] for i in np.flatnonzero(~accepted)]
            raise RepairError(
                f"repaired buckets {bad} failed the certificate re-stamp"
            )
    return RepairResult(
        histogram=repaired_histogram,
        ranges=tuple(ranges),
        failing=tuple(sorted(set(int(i) for i in failing))),
        buckets_before=len(buckets),
        buckets_after=len(new_buckets),
        splits=splits,
        merges=merges,
        repaired_buckets=repaired,
        preserved_buckets=len(buckets) - repaired,
    )
