"""The serve stage: closed-loop estimate traffic against a server process.

One client thread holds one binary connection (``estimate_range_batch``
frames of ``BATCH_SIZE`` predicates) and one JSON-lines connection
(single-predicate ``estimate`` requests), and interleaves them at a
fixed ratio of ``BATCHES_PER_SINGLE`` batches per single.  Column
popularity is skewed over every column of the table; range widths mix
points, narrow ranges and ranges spanning many buckets.  Every answer is
checked against exact counts: histogram columns must stay inside their
Cor. 5.3 envelope, exact-count columns must be exact.
"""

from __future__ import annotations

import json
import selectors
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy as np

import repro.service.client as client_module
from repro.query.predicates import RangePredicate
from repro.service.client import BinaryStatisticsClient, ServiceError, StatisticsClient
from repro.service.frames import FRAME_HEADER_SIZE

from inputs import TABLE, make_table, make_traffic
from probes import Tracer
from stats import SETUP_REPEATS, envelope_violations, exact_violations, median, sliced_percentile, true_counts

BATCH_SIZE = 256
BATCHES_PER_SINGLE = 2
#: Untimed traffic at the start of each step: the server sat idle while
#: the other stages ran, and its first answers after that are slow.
WARMUP_S = 0.1
N_BATCH_TEMPLATES = 400
N_SINGLE_TEMPLATES = 400
#: Longest traced (or untraced) window in a traced run; a step always
#: has at least one of each.
TRACE_WINDOW_S = 0.5
READY_TIMEOUT_S = 120.0

HERE = Path(__file__).resolve().parent


class ServerProcess:
    """``server.py`` as a child process, driven over stdin/stdout."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--seed", str(seed), "--workdir", str(workdir)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(HERE.parent),
            text=True,
        )
        self.ready = self._read(READY_TIMEOUT_S)

    def _read(self, timeout: float) -> Dict[str, Any]:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise RuntimeError("server process did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server process exited (code {self.proc.poll()})")
        return json.loads(line)

    def command(self, text: str) -> Dict[str, Any]:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read(30.0)

    def stop(self) -> bool:
        """End the server; ``False`` if it had to be killed.

        An explicit ``quit`` rather than end of input: processes forked
        later (the estimator pool) inherit the pipe's write end.
        """
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30.0)
            clean = self.proc.returncode == 0
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            clean = False
        self.proc.stdout.close()
        return clean


class Session:
    """A running server plus the two client connections."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.server = ServerProcess(seed, workdir)
        port = self.server.ready["port"]
        self.binary = BinaryStatisticsClient("127.0.0.1", port)
        self.json = StatisticsClient("127.0.0.1", port)

    def close(self) -> bool:
        self.binary.close()
        self.json.close()
        return self.server.stop()


def _client_tracer() -> Tracer:
    tracer = Tracer()
    tracer.wrap(
        client_module, "encode_range_batch", "frames.request",
        lambda probe, args, frame: (probe.tally("bytes", len(frame)), probe.tally("preds", len(args[2]))),
    )
    tracer.wrap(
        client_module, "decode_result_vector", "frames.response",
        lambda probe, args, result: probe.tally("bytes", FRAME_HEADER_SIZE + len(args[0])),
    )
    return tracer


class ServeStage:
    """The server process, its two client connections and the samples.

    In a traced run the loop alternates unprobed and probed windows of
    ``TRACE_WINDOW_S``; the unprobed samples give the end-to-end
    numbers, the probed ones the layer numbers and the tracing overhead.
    """

    def __init__(self, seed: int, workdir: Path, traced: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        self.traced = traced
        self.session: Optional[Session] = None
        self.leaks = 0
        table = make_table()
        self.batches, self.singles = make_traffic(table, seed, N_BATCH_TEMPLATES, BATCH_SIZE, N_SINGLE_TEMPLATES)
        self.truth = {c.name: (np.asarray(c.dictionary.values), np.asarray(c.cumulative)) for c in table}
        self.samples = {True: {"batch": [], "single": []}, False: {"batch": [], "single": []}}
        # Unprobed batch samples of each step, for ``batch_p99_ms``.
        self.slices: List[List[float]] = []
        self.batch_time = {True: 0.0, False: 0.0}
        self.batch_preds = {True: 0, False: 0}
        self.sent = {"batch": 0, "single": 0}
        self.attempted = 0
        self.failed = 0
        self.server_probes: Dict[str, Dict[str, float]] = {}
        self.client_tracer = _client_tracer()

    def setup_seconds(self) -> float:
        """Start the server ``SETUP_REPEATS`` times, keep the last; the
        median start-to-first-answer time is the stage's set-up time."""
        times = []
        for index in range(SETUP_REPEATS):
            self.close()
            start = perf_counter()
            self.session = Session(self.seed, self.workdir / f"serve-{index}")
            self.session.binary.ping()
            self.session.json.ping()
            times.append(perf_counter() - start)
        return median(times)

    def _failures(self, column: str, lows, highs, values) -> int:
        truths = true_counts(*self.truth[column], lows, highs)
        envelope = self.session.server.ready["envelopes"].get(column)
        if envelope is None:
            return int(exact_violations(values, truths).any())
        theta, q = envelope
        return int(envelope_violations(values, truths, theta, q).any())

    def _toggle(self, on: bool) -> None:
        if on:
            self.session.server.command("trace on")
            self.client_tracer.install()
            return
        self.client_tracer.remove()
        for name, probe in self.session.server.command("trace off").items():
            slot = self.server_probes.setdefault(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "preds": 0.0})
            slot["calls"] += probe["calls"]
            slot["seconds"] += probe["seconds"]
            slot["self_seconds"] += probe["self_seconds"]
            slot["preds"] += probe["tallies"].get("preds", 0.0)

    def step(self, seconds: float) -> None:
        """Send ``WARMUP_S`` of untimed, then ``seconds`` of timed
        closed-loop traffic."""
        session = self.session
        warm_until = perf_counter() + WARMUP_S
        deadline = warm_until + seconds
        window = min(TRACE_WINDOW_S, seconds / 2)
        tracing = False
        window_end = warm_until + window
        self.slices.append([])
        while perf_counter() < deadline:
            if self.traced and perf_counter() >= window_end:
                tracing = not tracing
                self._toggle(tracing)
                window_end = perf_counter() + window
            kind = "single" if self.attempted % (BATCHES_PER_SINGLE + 1) == BATCHES_PER_SINGLE else "batch"
            templates = self.singles if kind == "single" else self.batches
            item = templates[self.sent[kind] % len(templates)]
            self.sent[kind] += 1
            self.attempted += 1
            start = perf_counter()
            try:
                if kind == "batch":
                    values = session.binary.estimate_range_batch(TABLE, item.column, item.lows, item.highs)
                else:
                    predicate = RangePredicate(item.column, float(item.lows[0]), float(item.highs[0]))
                    values = np.array([session.json.estimate(TABLE, predicate).value])
            except ServiceError:
                self.failed += 1
                continue
            elapsed = perf_counter() - start
            if start >= warm_until:
                self.samples[tracing][kind].append(elapsed)
                if kind == "batch" and not tracing:
                    self.slices[-1].append(elapsed)
                if kind == "batch":
                    self.batch_time[tracing] += elapsed
                    self.batch_preds[tracing] += len(item.lows)
            self.failed += self._failures(item.column, item.lows, item.highs, values)
        if tracing:
            self._toggle(False)

    def close(self) -> None:
        """Stop the server; a server that had to be killed is a leak."""
        if self.session is not None:
            self.attempted += 1
            self.leaks += 0 if self.session.close() else 1
            self.session = None

    def finish(self) -> Dict[str, Any]:
        plain = self.samples[False]
        out: Dict[str, Any] = {
            "preds_per_s": self.batch_preds[False] / self.batch_time[False],
            "batch_p50_ms": 1e3 * median(plain["batch"]),
            "batch_p99_ms": 1e3 * sliced_percentile(self.slices, 99),
            "single_p50_ms": 1e3 * median(plain["single"]),
            "samples": {kind: len(values) for kind, values in plain.items()},
            "attempted": self.attempted,
            "failed": self.failed + self.leaks,
            "failures": ([f"{self.failed} wrong or failed answers"] if self.failed else [])
            + ([f"{self.leaks} server process(es) had to be killed"] if self.leaks else []),
        }
        if self.traced:
            probed = self.samples[True]
            out.update(_layers(self.server_probes, self.client_tracer, probed))
            out["overhead_pct"] = 100.0 * (median(probed["batch"]) / median(plain["batch"]) - 1.0)
        return out


def _layers(server: Dict[str, Dict[str, float]], client_tracer: Tracer, traced_samples: Dict[str, List[float]]) -> Dict[str, float]:
    entry = [server.get(name, {}) for name in ("server.array", "server.handle")]
    calls = sum(p.get("calls", 0) for p in entry) or 1
    inclusive = sum(p.get("seconds", 0.0) for p in entry)
    self_time = sum(p.get("self_seconds", 0.0) for p in entry)
    round_trips = traced_samples["batch"] + traced_samples["single"]
    request = client_tracer.probes["frames.request"].tallies
    response = client_tracer.probes["frames.response"].tallies

    def per(name: str, scale: float) -> float:
        probe = server.get(name, {})
        return scale * probe.get("seconds", 0.0) / (probe.get("preds") or probe.get("calls") or 1)

    return {
        "service_ms": 1e3 * self_time / calls,
        "transport_ms": 1e3 * (sum(round_trips) / max(len(round_trips), 1) - inclusive / calls),
        "bytes_per_pred": (request.get("bytes", 0.0) + response.get("bytes", 0.0)) / max(request.get("preds", 0.0), 1.0),
        "encode_us_per_pred": per("dictionary.encode", 1e6),
        "estimate_us_per_pred": per("compiled.estimate", 1e6),
        "query_estimate_ms": per("query.estimate", 1e3),
        "audit_record_us": per("audit.record", 1e6),
        "coverage_pct": 100.0 * inclusive / max(sum(round_trips), 1e-12),
    }
