"""Compiled estimation plans: frozen numpy views of a histogram.

The bucket objects of :mod:`repro.core.buckets` are the right shape for
*construction* -- each couples a packed payload with lazy decoding and
answers one range query by Python dispatch.  They are the wrong shape
for *serving*: a scalar loop over objects, re-entered per query, with
per-bucket attribute lookups dominating the arithmetic.

:class:`CompiledHistogram` freezes a finished histogram into flat
arrays, built exactly once per histogram lifetime (histograms are
immutable, so a plan never invalidates):

* ``bucket_edges`` / ``bucket_totals`` / ``bucket_cdf`` -- the bucket
  boundaries, each bucket's stored total estimate, and its prefix sum,
  answering any run of *fully covered* buckets with one subtraction
  (the cheap path Sec. 6.2 stores totals for);
* a fine segment table (``seg_x``, ``seg_base``, ``seg_slope``) -- the
  histogram's estimated cumulative-mass function, one segment per
  bucklet / raw value / filler gap, with bases kept *local to the
  enclosing bucket* so fringe terms never subtract two large numbers;
* optionally the same segment table for distinct counts (value-domain
  histograms).

Estimation becomes ``searchsorted`` plus two fringe interpolation terms;
``estimate_batch`` runs the identical algorithm on whole endpoint
arrays.  The fine function reproduces every bucket type's estimator
exactly: bucklets are linear segments, atomic buckets one linear
segment, raw buckets *steps* at their stored values (matching the
ceil-based per-code semantics), so compiled and interpreted estimates
agree to float rounding.

Decode-once guarantee: compilation reads payloads through the buckets'
caching accessors, so each packed layout is decoded at most once per
histogram lifetime no matter how estimates are answered afterwards.
:data:`COMPILE_COUNTERS` counts plans, cells and triggered payload
decodes for observability (`repro estimate --profile`, service status).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.buckets import (
    AtomicDenseBucket,
    EquiWidthBucket,
    RawDenseBucket,
    RawNonDenseBucket,
    ValueAtomicBucket,
    VariableWidthBucket,
)
from repro.core.flexalpha import FlexAlphaBucket
from repro.obs import NULL_TRACE, CounterSet

__all__ = ["CompileError", "CompiledHistogram", "COMPILE_COUNTERS"]

#: Module-wide compile observability: ``plans_compiled``, ``plan_buckets``,
#: ``plan_cells``, ``layout_decodes`` (payload decodes *triggered by*
#: compilation -- already-decoded buckets are not re-decoded), and
#: ``compile_us`` (total compile wall-clock, microseconds).
COMPILE_COUNTERS = CounterSet()


class CompileError(TypeError):
    """The histogram holds a bucket type no plan emitter understands."""


class _SegmentBuilder:
    """Accumulates the fine cumulative-mass segments of one plan.

    Segment ``j`` covers ``(x_j, x_{j+1}]`` and evaluates as
    ``base_j + slope_j * (x - x_j)`` where ``base_j`` is the cumulative
    mass just above ``x_j``, *relative to the enclosing bucket's start*.
    Steps (raw values) are jumps between segment bases; the function is
    left-continuous at them, matching the ``v in [c1, c2)`` inclusion
    rule of the raw bucket estimators.
    """

    def __init__(self, lo: float) -> None:
        self.xs: List[float] = [float(lo)]
        self.base: List[float] = []
        self.slope: List[float] = []
        self.global_left: List[float] = [0.0]  # mass strictly below each edge
        self._global = 0.0
        self._local = 0.0
        self.bucket_fine: List[float] = []

    # -- per-bucket lifecycle ---------------------------------------------

    def open_bucket(self) -> None:
        self._local = 0.0

    def close_bucket(self, hi: float) -> None:
        self._advance_to(float(hi))
        self.bucket_fine.append(self._local)

    # -- cell emission ----------------------------------------------------

    def _advance_to(self, x: float) -> None:
        if self.xs[-1] < x:
            self.xs.append(x)
            self.base.append(self._local)
            self.slope.append(0.0)
            self.global_left.append(self._global)

    def linear(self, a: float, b: float, mass: float) -> None:
        """One uniform-density cell over ``[a, b)``; zero widths are skipped."""
        a, b, mass = float(a), float(b), float(mass)
        if b <= a:
            return
        self._advance_to(a)
        self.xs.append(b)
        self.base.append(self._local)
        self.slope.append(mass / (b - a))
        self._local += mass
        self._global += mass
        self.global_left.append(self._global)

    def steps(self, positions: np.ndarray, masses: np.ndarray) -> None:
        """A run of point masses at strictly increasing positions."""
        positions = np.asarray(positions, dtype=np.float64)
        masses = np.asarray(masses, dtype=np.float64)
        if positions.size == 0:
            return
        self._advance_to(float(positions[0]))
        # Segment j spans (positions[j], positions[j+1]] with the mass of
        # every value <= positions[j] already folded into its base.
        cum = np.cumsum(masses)
        local0, global0 = self._local, self._global
        self.xs.extend(positions[1:].tolist())
        self.base.extend((local0 + cum[:-1]).tolist())
        self.slope.extend([0.0] * (positions.size - 1))
        self.global_left.extend((global0 + cum[:-1]).tolist())
        self._local = local0 + float(cum[-1])
        self._global = global0 + float(cum[-1])


def _emit_cells(bucket, segments: _SegmentBuilder) -> int:
    """Emit one bucket's range-estimation cells; returns decodes triggered."""
    if isinstance(bucket, EquiWidthBucket):
        decoded = 0 if bucket._bucklets is None else 1
        bucket._decode()
        width = bucket.bucklet_width
        for index, mass in enumerate(bucket._bucklets):
            lo = bucket.lo + index * width
            segments.linear(lo, lo + width, float(mass))
        return 1 - decoded
    if isinstance(bucket, VariableWidthBucket):
        decoded = 0 if bucket._bucklets is None else 1
        bucket._decode()
        edges = bucket._edges
        for index, mass in enumerate(bucket._bucklets):
            segments.linear(float(edges[index]), float(edges[index + 1]), float(mass))
        return 1 - decoded
    if isinstance(bucket, (AtomicDenseBucket, ValueAtomicBucket, FlexAlphaBucket)):
        segments.linear(bucket.lo, bucket.hi, bucket.total_estimate())
        return 0
    if isinstance(bucket, RawDenseBucket):
        decoded = 0 if bucket._freqs is None else 1
        freqs = bucket._decode()
        segments.steps(bucket.lo + np.arange(freqs.size, dtype=np.float64), freqs)
        return 1 - decoded
    if isinstance(bucket, RawNonDenseBucket):
        decoded = 0 if bucket._decoded is None else 1
        values, freqs = bucket._decode()
        segments.steps(values.astype(np.float64), freqs)
        return 1 - decoded
    raise CompileError(
        f"cannot compile bucket type {type(bucket).__name__} into a plan"
    )


def _emit_distinct_cells(bucket, segments: _SegmentBuilder) -> None:
    """Emit one bucket's distinct-count cells (value-domain histograms)."""
    if isinstance(bucket, ValueAtomicBucket):
        segments.linear(bucket.lo, bucket.hi, bucket.distinct_total_estimate())
        return
    if isinstance(bucket, RawNonDenseBucket):
        values, _ = bucket._decode()
        segments.steps(values.astype(np.float64), np.ones(values.size))
        return
    raise CompileError(
        f"bucket type {type(bucket).__name__} stores no distinct counts"
    )


class _Surface:
    """One frozen estimation surface: bucket prefix sums + fine segments."""

    __slots__ = ("bucket_cdf", "bucket_fine", "seg_x", "seg_base", "seg_slope")

    #: The flat tables a surface is made of, in export order.
    ARRAY_FIELDS = ("bucket_cdf", "bucket_fine", "seg_x", "seg_base", "seg_slope")

    def __init__(
        self,
        bucket_totals: np.ndarray,
        segments: _SegmentBuilder,
    ) -> None:
        self.bucket_cdf = np.concatenate(([0.0], np.cumsum(bucket_totals)))
        self.bucket_fine = np.asarray(segments.bucket_fine, dtype=np.float64)
        self.seg_x = np.asarray(segments.xs, dtype=np.float64)
        self.seg_base = np.asarray(segments.base, dtype=np.float64)
        self.seg_slope = np.asarray(segments.slope, dtype=np.float64)

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray], prefix: str) -> "_Surface":
        """Reassemble a surface from exported flat tables (no recompute).

        The arrays are adopted as-is -- views over a shared-memory
        buffer stay views, which is what makes worker-attached plans
        zero-copy.
        """
        surface = object.__new__(cls)
        for field in cls.ARRAY_FIELDS:
            setattr(surface, field, arrays[f"{prefix}{field}"])
        return surface


class CompiledHistogram:
    """A histogram frozen into flat numpy arrays for O(log n) estimation.

    Build with :meth:`compile`; never mutates and never invalidates (the
    source histogram is immutable).  The range surface answers
    :meth:`estimate` / :meth:`estimate_batch`; value-domain histograms
    additionally carry a distinct surface for
    :meth:`estimate_distinct` / :meth:`estimate_distinct_batch`.
    """

    def __init__(
        self,
        domain: str,
        bucket_edges: np.ndarray,
        range_surface: _Surface,
        fine_global_left: np.ndarray,
        distinct_surface: Optional[_Surface],
        stats: dict,
    ) -> None:
        self.domain = domain
        self.bucket_edges = bucket_edges
        self._range = range_surface
        self._fine_global_left = fine_global_left
        self._distinct = distinct_surface
        self._stats = stats
        self._lo = float(bucket_edges[0])
        self._hi = float(bucket_edges[-1])

    # -- construction ------------------------------------------------------

    @classmethod
    def compile(cls, histogram, trace=NULL_TRACE) -> "CompiledHistogram":
        """Freeze ``histogram`` into a plan; raises :class:`CompileError`
        on bucket types without an emitter."""
        start = perf_counter()
        with trace.span("compile_plan") as span:
            buckets = histogram.buckets
            segments = _SegmentBuilder(buckets[0].lo)
            totals = np.empty(len(buckets), dtype=np.float64)
            edges = np.empty(len(buckets) + 1, dtype=np.float64)
            edges[0] = buckets[0].lo
            decodes = 0
            for index, bucket in enumerate(buckets):
                segments.open_bucket()
                decodes += _emit_cells(bucket, segments)
                segments.close_bucket(bucket.hi)
                totals[index] = bucket.total_estimate()
                edges[index + 1] = bucket.hi
            range_surface = _Surface(totals, segments)

            distinct_surface = None
            if histogram.domain == "value":
                try:
                    d_segments = _SegmentBuilder(buckets[0].lo)
                    for bucket in buckets:
                        d_segments.open_bucket()
                        _emit_distinct_cells(bucket, d_segments)
                        d_segments.close_bucket(bucket.hi)
                    distinct_surface = _Surface(
                        np.asarray(d_segments.bucket_fine), d_segments
                    )
                except CompileError:
                    distinct_surface = None

            seconds = perf_counter() - start
            n_cells = range_surface.seg_slope.size
            span.count("buckets", len(buckets))
            span.count("cells", n_cells)
            span.count("layout_decodes", decodes)
            COMPILE_COUNTERS.incr("plans_compiled")
            COMPILE_COUNTERS.incr("plan_buckets", len(buckets))
            COMPILE_COUNTERS.incr("plan_cells", n_cells)
            COMPILE_COUNTERS.incr("layout_decodes", decodes)
            COMPILE_COUNTERS.incr("compile_us", int(seconds * 1e6))
            return cls(
                domain=histogram.domain,
                bucket_edges=edges,
                range_surface=range_surface,
                fine_global_left=np.asarray(
                    segments.global_left, dtype=np.float64
                ),
                distinct_surface=distinct_surface,
                stats={
                    "buckets": len(buckets),
                    "cells": int(n_cells),
                    "layout_decodes": int(decodes),
                    "compile_seconds": seconds,
                    "domain": histogram.domain,
                    "supports_distinct": histogram.domain == "code"
                    or distinct_surface is not None,
                },
            )

    # -- incremental patching ----------------------------------------------

    def patch(self, histogram, ranges, trace=NULL_TRACE) -> "CompiledHistogram":
        """A plan for a *repaired* ``histogram``, splicing this plan's tables.

        ``ranges`` are the :class:`~repro.core.repair.RepairedRange`
        records of a :func:`~repro.core.repair.repair_histogram` run
        against the histogram this plan was compiled from (duck-typed:
        any object with ``lo``/``hi``/``old_span``/``new_span`` works).
        Only the replaced bucket runs have their cells re-emitted; every
        other bucket's segment rows are copied from the existing tables
        byte-for-byte -- possible because segment bases are kept *local
        to the enclosing bucket*, so a repair elsewhere cannot move
        them.  The only quantities rippling past a patch are the global
        prefix sums (``bucket_cdf``, ``fine_global_left``), which are
        cheap array arithmetic, not cell emission.

        Returns a new frozen plan (plans never mutate -- shared-memory
        consumers may hold views of the old tables).  Raises
        :class:`CompileError` when the plan and the ranges do not line
        up (wrong histogram, value domain, distinct surface).
        """
        start = perf_counter()
        if self.domain != "code" or self._distinct is not None:
            raise CompileError("only code-domain range plans can be patched")
        if not ranges:
            raise CompileError("patch needs at least one repaired range")
        with trace.span("patch_plan") as span:
            ranges = sorted(ranges, key=lambda item: item.lo)
            buckets = histogram.buckets
            surface = self._range
            old_x = surface.seg_x
            old_base = surface.seg_base
            old_slope = surface.seg_slope
            old_gl = self._fine_global_left
            old_fine = surface.bucket_fine
            old_totals = np.diff(surface.bucket_cdf)
            old_los = self.bucket_edges[:-1]

            xs_parts: List[np.ndarray] = []
            base_parts: List[np.ndarray] = []
            slope_parts: List[np.ndarray] = []
            gl_parts: List[np.ndarray] = []
            fine_parts: List[np.ndarray] = []
            totals_parts: List[np.ndarray] = []
            lo_parts: List[np.ndarray] = []
            x_cursor = base_cursor = b_cursor = 0
            shift = 0.0
            decodes = 0
            patched_cells = 0
            patched_buckets = 0
            for item in ranges:
                first, last = item.old_span
                j0, j1 = item.new_span
                lo, old_hi = float(item.lo), float(item.hi)
                s0 = int(np.searchsorted(old_x, lo, side="left"))
                s1 = int(np.searchsorted(old_x, old_hi, side="left"))
                aligned = (
                    first >= b_cursor
                    and last < old_fine.size
                    and s1 < old_x.size
                    and old_x[s0] == lo
                    and old_x[s1] == old_hi
                    and old_los[first] == lo
                )
                if not aligned:
                    raise CompileError(
                        f"plan does not align with repaired range "
                        f"[{item.lo}, {item.hi}) over buckets "
                        f"{first}..{last}"
                    )
                segments = _SegmentBuilder(lo)
                new_totals = np.empty(j1 - j0 + 1, dtype=np.float64)
                new_los = np.empty(j1 - j0 + 1, dtype=np.float64)
                for offset, bucket in enumerate(buckets[j0 : j1 + 1]):
                    segments.open_bucket()
                    decodes += _emit_cells(bucket, segments)
                    segments.close_bucket(bucket.hi)
                    new_totals[offset] = bucket.total_estimate()
                    new_los[offset] = bucket.lo
                xs_parts.append(old_x[x_cursor:s0])
                xs_parts.append(np.asarray(segments.xs, dtype=np.float64))
                base_parts.append(old_base[base_cursor:s0])
                base_parts.append(np.asarray(segments.base, dtype=np.float64))
                slope_parts.append(old_slope[base_cursor:s0])
                slope_parts.append(np.asarray(segments.slope, dtype=np.float64))
                gl_parts.append(old_gl[x_cursor:s0] + shift)
                gl_parts.append(
                    np.asarray(segments.global_left, dtype=np.float64)
                    + (float(old_gl[s0]) + shift)
                )
                shift += float(segments.global_left[-1]) - float(
                    old_gl[s1] - old_gl[s0]
                )
                fine_parts.append(old_fine[b_cursor:first])
                fine_parts.append(
                    np.asarray(segments.bucket_fine, dtype=np.float64)
                )
                totals_parts.append(old_totals[b_cursor:first])
                totals_parts.append(new_totals)
                lo_parts.append(old_los[b_cursor:first])
                lo_parts.append(new_los)
                patched_cells += len(segments.slope)
                patched_buckets += j1 - j0 + 1
                x_cursor, base_cursor, b_cursor = s1 + 1, s1, last + 1
            xs_parts.append(old_x[x_cursor:])
            base_parts.append(old_base[base_cursor:])
            slope_parts.append(old_slope[base_cursor:])
            gl_parts.append(old_gl[x_cursor:] + shift)
            fine_parts.append(old_fine[b_cursor:])
            totals_parts.append(old_totals[b_cursor:])
            lo_parts.append(old_los[b_cursor:])

            totals = np.concatenate(totals_parts)
            edges = np.concatenate(lo_parts + [[float(histogram.hi)]])
            seg_x = np.concatenate(xs_parts)
            seg_base = np.concatenate(base_parts)
            if seg_base.size != seg_x.size - 1 or totals.size != len(buckets):
                raise CompileError(
                    "patched tables are inconsistent with the repaired "
                    "histogram; recompile instead"
                )
            arrays = {
                "bucket_cdf": np.concatenate(([0.0], np.cumsum(totals))),
                "bucket_fine": np.concatenate(fine_parts),
                "seg_x": seg_x,
                "seg_base": seg_base,
                "seg_slope": np.concatenate(slope_parts),
            }
            seconds = perf_counter() - start
            span.count("patched_buckets", patched_buckets)
            span.count("patched_cells", patched_cells)
            COMPILE_COUNTERS.incr("plans_patched")
            COMPILE_COUNTERS.incr("patched_buckets", patched_buckets)
            COMPILE_COUNTERS.incr("patched_cells", patched_cells)
            COMPILE_COUNTERS.incr("layout_decodes", decodes)
            COMPILE_COUNTERS.incr("patch_us", int(seconds * 1e6))
            return type(self)(
                domain=self.domain,
                bucket_edges=edges,
                range_surface=_Surface.from_arrays(arrays, ""),
                fine_global_left=np.concatenate(gl_parts),
                distinct_surface=None,
                stats={
                    "buckets": len(buckets),
                    "cells": int(arrays["seg_slope"].size),
                    "layout_decodes": int(decodes),
                    "compile_seconds": seconds,
                    "domain": self.domain,
                    "supports_distinct": True,
                    "patched_ranges": len(ranges),
                    "patched_buckets": int(patched_buckets),
                },
            )

    # -- plan export / attach ----------------------------------------------

    def export_tables(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """The plan as ``(meta, arrays)`` -- flat tables plus JSON-able
        metadata.

        Everything a plan *is* lives in the returned float64 arrays
        (``bucket_edges``, the range surface, the fine global CDF and an
        optional distinct surface); ``meta`` carries the domain and the
        compile stats.  :meth:`from_tables` reverses the split exactly,
        so a plan can cross a process boundary as raw buffers -- the
        shared-memory publisher packs these arrays into one segment and
        workers re-attach them with ``np.frombuffer`` views.
        """
        meta = {
            "domain": self.domain,
            "has_distinct": self._distinct is not None,
            "stats": dict(self._stats),
        }
        arrays: Dict[str, np.ndarray] = {
            "bucket_edges": self.bucket_edges,
            "fine_global_left": self._fine_global_left,
        }
        for field in _Surface.ARRAY_FIELDS:
            arrays[f"range.{field}"] = getattr(self._range, field)
        if self._distinct is not None:
            for field in _Surface.ARRAY_FIELDS:
                arrays[f"distinct.{field}"] = getattr(self._distinct, field)
        return meta, arrays

    @classmethod
    def from_tables(
        cls, meta: Mapping[str, object], arrays: Mapping[str, np.ndarray]
    ) -> "CompiledHistogram":
        """Rebuild a plan from :meth:`export_tables` output, zero-copy.

        The arrays are adopted without copying; callers attaching a
        shared-memory segment must keep it mapped for the lifetime of
        the returned plan.
        """
        distinct = None
        if meta["has_distinct"]:
            distinct = _Surface.from_arrays(arrays, "distinct.")
        return cls(
            domain=str(meta["domain"]),
            bucket_edges=arrays["bucket_edges"],
            range_surface=_Surface.from_arrays(arrays, "range."),
            fine_global_left=arrays["fine_global_left"],
            distinct_surface=distinct,
            stats=dict(meta["stats"]),  # type: ignore[arg-type]
        )

    # -- introspection -----------------------------------------------------

    @property
    def lo(self) -> float:
        return self._lo

    @property
    def hi(self) -> float:
        return self._hi

    @property
    def supports_distinct(self) -> bool:
        return bool(self._stats["supports_distinct"])

    def stats(self) -> dict:
        return dict(self._stats)

    def identity(self) -> str:
        """Provenance label for this plan: how its tables were produced.

        ``"compiled"`` for a plan frozen from scratch,
        ``"compiled-patched"`` when any repair splice
        (:meth:`patch`) contributed tables -- the distinction audit
        attribution needs, because a patched plan serves under the
        repair's re-certified envelope rather than the original build's.
        """
        if int(self._stats.get("patched_ranges", 0) or 0) > 0:
            return "compiled-patched"
        return "compiled"

    def fine_segments(self) -> Tuple[np.ndarray, np.ndarray]:
        """(edges, left-continuous global cumulative mass) of the fine
        range function -- the piecewise-linear view the join estimator
        (:mod:`repro.optimizer.join`) integrates."""
        return self._range.seg_x, self._fine_global_left

    # -- fine cumulative function -----------------------------------------

    def _fu(self, surface: _Surface, x: np.ndarray) -> np.ndarray:
        """Bucket-local cumulative mass just *below-inclusive* of ``x``.

        Left-continuous: a step exactly at ``x`` is excluded, matching
        the raw buckets' ``value < c2`` rule for upper endpoints and
        ``value >= c1`` for lower ones.
        """
        k = np.searchsorted(surface.seg_x, x, side="left") - 1
        inside = k >= 0
        k = np.maximum(k, 0)
        value = surface.seg_base[k] + surface.seg_slope[k] * (x - surface.seg_x[k])
        return np.where(inside, value, 0.0)

    def _fu_scalar(self, surface: _Surface, x: float) -> float:
        k = int(np.searchsorted(surface.seg_x, x, side="left")) - 1
        if k < 0:
            return 0.0
        return float(
            surface.seg_base[k]
            + surface.seg_slope[k] * (x - surface.seg_x[k])
        )

    # -- scalar estimation -------------------------------------------------

    def _estimate_scalar(self, surface: _Surface, c1: float, c2: float) -> float:
        """Shared scalar core; returns the raw (unclamped) mass of
        ``[c1, c2)`` or ``None`` for an empty intersection."""
        if c2 <= c1:
            return None
        lo = c1 if c1 > self._lo else self._lo
        hi = c2 if c2 < self._hi else self._hi
        if hi <= lo:
            return None
        edges = self.bucket_edges
        first = int(np.searchsorted(edges, lo, side="right")) - 1
        last = int(np.searchsorted(edges, hi, side="left")) - 1
        first_partial = edges[first] < lo
        last_partial = edges[last + 1] > hi
        if first == last:
            if not (first_partial or last_partial):
                return float(surface.bucket_cdf[last + 1] - surface.bucket_cdf[first])
            low = self._fu_scalar(surface, lo) if first_partial else 0.0
            return self._fu_scalar(surface, hi) - low
        f0 = first + (1 if first_partial else 0)
        l0 = last - (1 if last_partial else 0)
        estimate = 0.0
        if l0 >= f0:
            estimate += float(surface.bucket_cdf[l0 + 1] - surface.bucket_cdf[f0])
        if first_partial:
            estimate += float(surface.bucket_fine[first]) - self._fu_scalar(
                surface, lo
            )
        if last_partial:
            estimate += self._fu_scalar(surface, hi)
        return estimate

    def estimate(self, c1: float, c2: float) -> float:
        """Range estimate for ``[c1, c2)``; parity with the interpreted
        bucket walk (never below 1 inside the domain, 0 outside)."""
        raw = self._estimate_scalar(self._range, float(c1), float(c2))
        if raw is None:
            return 0.0
        return raw if raw > 1.0 else 1.0

    def estimate_distinct(self, c1: float, c2: float) -> float:
        """Distinct-value estimate for ``[c1, c2)``."""
        c1, c2 = float(c1), float(c2)
        if self.domain == "code":
            if c2 <= c1:
                return 0.0
            lo = max(c1, self._lo)
            hi = min(c2, self._hi)
            if hi <= lo:
                return 0.0
            return max(hi - lo, 1.0)
        if self._distinct is None:
            raise TypeError("histogram buckets store no distinct counts")
        raw = self._estimate_scalar(self._distinct, c1, c2)
        if raw is None:
            return 0.0
        return raw if raw > 1.0 else 1.0

    # -- batch estimation --------------------------------------------------

    def _estimate_batch(
        self, surface: _Surface, c1s: np.ndarray, c2s: np.ndarray
    ) -> np.ndarray:
        lo = np.maximum(c1s, self._lo)
        hi = np.minimum(c2s, self._hi)
        valid = (c2s > c1s) & (hi > lo)
        # Park invalid lanes on the full domain so the shared gathers
        # stay in bounds; their results are zeroed at the end.
        lo = np.where(valid, lo, self._lo)
        hi = np.where(valid, hi, self._hi)
        edges = self.bucket_edges
        first = np.searchsorted(edges, lo, side="right") - 1
        last = np.searchsorted(edges, hi, side="left") - 1
        first_partial = edges[first] < lo
        last_partial = edges[last + 1] > hi
        f0 = first + first_partial
        l0 = last - last_partial
        full = np.where(
            l0 >= f0,
            surface.bucket_cdf[l0 + 1] - surface.bucket_cdf[f0],
            0.0,
        )
        fu_lo = np.where(first_partial, self._fu(surface, lo), 0.0)
        fu_hi = self._fu(surface, hi)
        single = first == last
        multi = (
            full
            + np.where(first_partial, surface.bucket_fine[first] - fu_lo, 0.0)
            + np.where(last_partial, fu_hi, 0.0)
        )
        single_partial = np.where(
            first_partial | last_partial, fu_hi - fu_lo, full
        )
        raw = np.where(single, single_partial, multi)
        return np.where(valid, np.maximum(raw, 1.0), 0.0)

    def estimate_batch(self, c1s, c2s) -> np.ndarray:
        """Vector of :meth:`estimate` answers for paired endpoints."""
        c1s = np.asarray(c1s, dtype=np.float64)
        c2s = np.asarray(c2s, dtype=np.float64)
        if c1s.shape != c2s.shape:
            raise ValueError("endpoint arrays must align")
        return self._estimate_batch(self._range, c1s, c2s)

    def estimate_distinct_batch(self, c1s, c2s) -> np.ndarray:
        """Vector of :meth:`estimate_distinct` answers."""
        c1s = np.asarray(c1s, dtype=np.float64)
        c2s = np.asarray(c2s, dtype=np.float64)
        if c1s.shape != c2s.shape:
            raise ValueError("endpoint arrays must align")
        if self.domain == "code":
            lo = np.maximum(c1s, self._lo)
            hi = np.minimum(c2s, self._hi)
            valid = (c2s > c1s) & (hi > lo)
            return np.where(valid, np.maximum(hi - lo, 1.0), 0.0)
        if self._distinct is None:
            raise TypeError("histogram buckets store no distinct counts")
        return self._estimate_batch(self._distinct, c1s, c2s)

    def __repr__(self) -> str:
        return (
            f"CompiledHistogram(domain={self.domain!r}, "
            f"buckets={self._stats['buckets']}, cells={self._stats['cells']}, "
            f"distinct={self.supports_distinct})"
        )
