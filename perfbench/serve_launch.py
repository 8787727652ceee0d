"""Traced ``grout serve``: install the layer tracer, then run the daemon.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_launch.py --spans spans.json -- \
        --unix-socket .perfbench/grout.sock

Everything after ``--`` goes to ``repro serve`` unchanged, through the
same CLI entry point as ``python -m repro serve``.  When the daemon has
shut down, the spans and the runtime's counters are written to
``--spans``.
"""

from __future__ import annotations

import argparse
import sys

from tracer import LayerTracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    tracer = LayerTracer().install()
    from repro.cli import main as cli_main
    from repro.serve.service import GroutService

    counters: dict = {}
    close = GroutService.close

    def close_and_count(service, *a, **kw):
        # Snapshot before the runtime is torn down; every request has
        # been answered by now, so nothing is left to settle.
        runtime = service.runtime
        counters.update(
            events=runtime.engine.events_processed,
            dag_size=runtime.controller.dag.size,
            transfers=runtime.cluster.fabric.transfer_count,
            retries=runtime.cluster.fabric.retry_count)
        close(service, *a, **kw)

    GroutService.close = close_and_count
    try:
        code = cli_main(["serve", *serve_args])
    finally:
        GroutService.close = close
        tracer.uninstall()
    tracer.dump(args.spans, counters)
    return code


if __name__ == "__main__":
    sys.exit(main())
