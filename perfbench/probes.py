"""Layer probes: time calls into the program's public functions.

A :class:`Tracer` replaces chosen functions (methods, classmethods or
module-level names) with timing wrappers while it is installed, and
puts the originals back when it is removed.  Each :class:`Probe` keeps
the number of calls, their inclusive time and their *self* time -- the
inclusive time minus the time spent in nested probed calls on the same
thread -- so layers that call one another are not counted twice.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


class Probe:
    """Call count, inclusive seconds, self seconds and free-form tallies."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.tallies: Dict[str, float] = {}
        self._lock = threading.Lock()

    def add(self, seconds: float, self_seconds: float) -> None:
        with self._lock:
            self.calls += 1
            self.seconds += seconds
            self.self_seconds += self_seconds

    def tally(self, key: str, amount: float) -> None:
        with self._lock:
            self.tallies[key] = self.tallies.get(key, 0.0) + amount

    def clear(self) -> None:
        with self._lock:
            self.calls = 0
            self.seconds = 0.0
            self.self_seconds = 0.0
            self.tallies = {}

    def mean_ms(self, self_time: bool = False) -> float:
        total = self.self_seconds if self_time else self.seconds
        return 1e3 * total / self.calls if self.calls else 0.0


class Tracer:
    """A set of probes that can be installed and removed as a unit."""

    def __init__(self) -> None:
        self.probes: Dict[str, Probe] = {}
        self._local = threading.local()
        self._targets: List[Tuple[Any, str, str, Optional[Callable]]] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def probe(self, name: str) -> Probe:
        if name not in self.probes:
            self.probes[name] = Probe(name)
        return self.probes[name]

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_call: Optional[Callable[[Probe, tuple, Any], None]] = None,
    ) -> None:
        """Probe ``owner.attr`` as ``name`` once installed.

        ``on_call(probe, args, result)`` may tally extra quantities
        (bytes, predicates, outcomes) from each call.
        """
        self.probe(name)
        self._targets.append((owner, attr, name, on_call))

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, on_call in self._targets:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._wrapped(raw, self.probes[name], on_call))

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    def _wrapped(self, raw: Any, probe: Probe, on_call) -> Any:
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        local = self._local

        @functools.wraps(func)
        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                probe.add(elapsed, elapsed - nested)
            if on_call is not None:
                on_call(probe, args, result)
            return result

        return kind(timed) if kind is not None else timed

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-data copy of every probe (crosses pipes as JSON)."""
        return {
            name: {
                "calls": probe.calls,
                "seconds": probe.seconds,
                "self_seconds": probe.self_seconds,
                "tallies": dict(probe.tallies),
            }
            for name, probe in self.probes.items()
        }

    def reset(self) -> None:
        for probe in self.probes.values():
            probe.clear()
