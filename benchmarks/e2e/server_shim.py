"""Run ``poiagg serve`` through ``repro.cli.main`` and report what it did.

Usage::

    python -m benchmarks.e2e.server_shim --dump jobs.json [--trace spans.jsonl] \\
        -- serve --city small --port 0 ...

The shim observes the server from outside: it wraps
``ReleaseService.start`` to keep a handle on the service the CLI builds,
and with ``--trace`` installs the span wrappers before the CLI runs.
When the CLI returns (SIGTERM drains and stops the service), it writes
the job table, the fate counters and its own peak RSS to ``--dump``, and
the spans to ``--trace``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from typing import Any

from repro import cli
from repro.serve.service import ReleaseService

from benchmarks.e2e.tracing import Tracer, write_jsonl


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.server_shim")
    parser.add_argument("--dump", type=Path, required=True)
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    services: list[ReleaseService] = []
    original_start = ReleaseService.start

    def start(self: ReleaseService) -> None:
        services.append(self)
        original_start(self)

    tracer = Tracer() if args.trace is not None else None
    ReleaseService.start = start  # type: ignore[method-assign]
    try:
        if tracer is not None:
            tracer.install()
        try:
            code = cli.main(cli_args)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        ReleaseService.start = original_start  # type: ignore[method-assign]

    dump: dict[str, Any] = {
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if services:
        service = services[0]
        dump["fates"] = service.store.counters.as_dict()
        dump["ledger"] = service.ledger.stats()
        dump["jobs"] = [
            [job.job_id, job.request.user_id, job.request.defense, job.fate,
             job.submitted_at, job.finished_at, job.degraded]
            for job in service.store.jobs_snapshot()
        ]
    if tracer is not None:
        write_jsonl(args.trace, tracer.spans)
        dump["vfs"] = tracer.vfs.counters()
    args.dump.write_text(json.dumps(dump))
    return code


if __name__ == "__main__":
    sys.exit(main())
