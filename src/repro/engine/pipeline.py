"""The instrumented build pipeline: one construction entry point.

Every histogram the system builds -- via
:func:`repro.core.builder.build_histogram`, the parallel executors, the
statistics service's background rebuilds, the CLI, or the experiment
harness -- flows through :class:`BuildPipeline`:

1. resolve the requested ``kind`` against a
   :class:`~repro.engine.registry.BuilderRegistry`;
2. prepare the effective :class:`HistogramConfig` (kind-implied
   settings pinned by the spec);
3. densify the source (``density_scan`` span): dictionary-encoded
   columns become an :class:`AttributeDensity` in code or value space;
4. run the spec's construction (``bucket_search`` span), with
   acceptance-test and packing phase timers accumulating inside;
5. return a :class:`BuildResult` carrying the histogram plus, for
   traced builds, the span tree, per-phase wall-clock, and counters.

Tracing is opt-in per request; untraced builds ride the
:data:`repro.obs.NULL_TRACE` no-op path.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Dict, Optional, Union

from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core.histogram import Histogram
from repro.engine.registry import DEFAULT_REGISTRY, BuilderRegistry, BuilderSpec
from repro.obs import NULL_TRACE, Span, Trace

__all__ = [
    "BuildRequest",
    "BuildResult",
    "BuildContext",
    "BuildPipeline",
    "DEFAULT_PIPELINE",
    "build",
]


@dataclasses.dataclass(frozen=True)
class BuildRequest:
    """What to build: source + kind + config + instrumentation switch.

    ``request_id`` is a pass-through correlation string: a build that
    originates from a service request carries the request's id into its
    :class:`BuildResult` profile, so a build profile recorded far from
    the request (another thread, another process) still points back to
    the wire request that caused it.
    """

    source: Union[AttributeDensity, "object"]
    kind: str = "V8DincB"
    config: Optional[HistogramConfig] = None
    trace: bool = False
    label: Optional[str] = None
    request_id: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class BuildContext:
    """Per-build state threaded into the registered construct callable."""

    request: BuildRequest
    spec: BuilderSpec
    config: HistogramConfig
    trace: "object"  # Trace or NullTrace


@dataclasses.dataclass(frozen=True)
class BuildResult:
    """A built histogram plus the pipeline's instrumentation.

    ``seconds`` is always measured; ``phases``/``counters``/``trace``
    are populated only for traced builds (empty dict / ``None``
    otherwise).
    """

    histogram: Histogram
    kind: str
    seconds: float
    phases: Dict[str, float]
    counters: Dict[str, int]
    trace: Optional[Span] = None
    request_id: Optional[str] = None

    def profile(self) -> Dict[str, object]:
        """Picklable summary: what crosses process/service boundaries."""
        profile: Dict[str, object] = {
            "kind": self.kind,
            "seconds": self.seconds,
            "phases": dict(self.phases),
            "counters": dict(self.counters),
            "trace": self.trace.to_dict() if self.trace is not None else None,
        }
        if self.request_id is not None:
            profile["request_id"] = self.request_id
        return profile

    def format_phases(self) -> str:
        """Aligned per-phase breakdown (the ``--profile`` table)."""
        lines = [f"{'phase':<20} {'ms':>12} {'share':>8}"]
        total = self.seconds or 1.0
        for name, seconds in sorted(
            self.phases.items(), key=lambda item: -item[1]
        ):
            lines.append(
                f"{name:<20} {seconds * 1e3:12.3f} {seconds / total:8.1%}"
            )
        lines.append(f"{'total':<20} {self.seconds * 1e3:12.3f} {'100.0%':>8}")
        if self.counters:
            rendered = "  ".join(
                f"{k}={v}" for k, v in sorted(self.counters.items())
            )
            lines.append(f"counters: {rendered}")
        return "\n".join(lines)


def _as_density(source, value_domain: bool) -> AttributeDensity:
    if isinstance(source, AttributeDensity):
        return source
    # Duck-type: a DictionaryEncodedColumn exposes frequencies/dictionary.
    if hasattr(source, "frequencies") and hasattr(source, "dictionary"):
        if value_domain:
            return AttributeDensity.from_value_column(source)
        return AttributeDensity.from_column(source)
    raise TypeError(
        f"cannot build a histogram from {type(source).__name__}; pass an "
        "AttributeDensity or a DictionaryEncodedColumn"
    )


class BuildPipeline:
    """Registry-backed, instrumented histogram construction."""

    def __init__(self, registry: BuilderRegistry = DEFAULT_REGISTRY) -> None:
        self.registry = registry

    def build(self, request: BuildRequest) -> BuildResult:
        spec = self.registry.get(request.kind)
        config = spec.prepare(
            request.config if request.config is not None else HistogramConfig()
        )
        if request.trace:
            trace = Trace(request.label or f"build[{spec.kind}]")
        else:
            trace = NULL_TRACE
        context = BuildContext(request=request, spec=spec, config=config, trace=trace)
        t0 = perf_counter()
        with trace.span("density_scan"):
            density = _as_density(request.source, spec.value_domain)
        with trace.span("bucket_search"):
            histogram = spec.construct(density, context)
        seconds = perf_counter() - t0
        root = trace.close()
        if root is not None:
            phases = root.phase_seconds()
            counters = root.counter_totals()
        else:
            phases = {}
            counters = {}
        return BuildResult(
            histogram=histogram,
            kind=histogram.kind,
            seconds=seconds,
            phases=phases,
            counters=counters,
            trace=root,
            request_id=request.request_id,
        )


DEFAULT_PIPELINE = BuildPipeline()


def build(
    source: Union[AttributeDensity, "object"],
    kind: str = "V8DincB",
    config: Optional[HistogramConfig] = None,
    trace: bool = False,
    label: Optional[str] = None,
) -> BuildResult:
    """Convenience wrapper over :data:`DEFAULT_PIPELINE`."""
    return DEFAULT_PIPELINE.build(
        BuildRequest(source=source, kind=kind, config=config, trace=trace, label=label)
    )
