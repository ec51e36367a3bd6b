"""The statistics server the ``serve`` stage talks to, in its own process.

Usage::

    python3 perfbench/server.py --seed 7 --workdir .perfbench_work/serve-0

Generates the BW-like table, builds its statistics (``--seed`` seeds the service) with the
default kind, and serves them over TCP with the default
``ServiceConfig()``.  The first stdout line is a JSON object with the
bound port and each histogram column's certified ``(theta, q)``.
Commands arrive on stdin, one per line:

* ``trace on``  -- install the server-side layer probes (replies ``{}``);
* ``trace off`` -- remove them, reply with the probe totals;
* ``quit`` (or end of input) -- stop the server and exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.compiled import CompiledHistogram  # noqa: E402
from repro.dictionary.ordered import OrderedDictionary  # noqa: E402
from repro.query.estimator import CardinalityEstimator  # noqa: E402
from repro.service.audit import AuditLedger  # noqa: E402
from repro.service.config import ServiceConfig  # noqa: E402
from repro.service.server import StatisticsService, start_server_thread  # noqa: E402

from inputs import make_table  # noqa: E402
from probes import Tracer  # noqa: E402


def _count_preds(probe, args, result) -> None:
    probe.tally("preds", len(args[1]))


def server_tracer() -> Tracer:
    tracer = Tracer()
    tracer.wrap(StatisticsService, "estimate_range_array", "server.array")
    tracer.wrap(StatisticsService, "handle", "server.handle")
    tracer.wrap(OrderedDictionary, "encode_range_batch", "dictionary.encode", _count_preds)
    tracer.wrap(CompiledHistogram, "estimate_batch", "compiled.estimate", _count_preds)
    tracer.wrap(CardinalityEstimator, "estimate", "query.estimate")
    tracer.wrap(AuditLedger, "record", "audit.record")
    return tracer


def _reply(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    table = make_table()
    service = StatisticsService(args.workdir / "catalog", seed=args.seed)
    service.add_table(table)
    envelopes = {}
    for column in table:
        register = service.registry.get(table.name, column.name)
        if register is not None:
            q, theta = register.certified_bounds()
            envelopes[column.name] = [theta, q]
    handle = start_server_thread(service, config=ServiceConfig())
    tracer = server_tracer()
    _reply(
        {
            "port": handle.address[1],
            "envelopes": envelopes,
        }
    )
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                tracer.reset()
                tracer.install()
                _reply({})
            elif command == "trace off":
                tracer.remove()
                _reply(tracer.snapshot())
            elif command == "quit":
                break
    finally:
        tracer.remove()
        handle.stop()
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
