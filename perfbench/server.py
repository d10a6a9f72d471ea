"""Run ``phocus serve`` for the benchmark, optionally with layer tracing.

Usage: ``python3 -u perfbench/server.py --stats FILE --cpu N [--trace] -- <serve args>``

The service is the real CLI entry point (``repro.system.cli serve``), so it
runs with the deployment defaults, pinned to CPU ``N``, whose speed the
client calibrates around every operation.  SIGINT stops it; the process then
writes ``FILE``: its peak resident memory and, when tracing, every
recorded span.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (``VmHWM``)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    # Before the program's imports, so every thread it starts inherits it.
    os.sched_setaffinity(0, {args.cpu})
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.system import cli

    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Recorder()
        tracer.install_service_layers(recorder)
    code = cli.main(["serve", *serve_args])
    stats = {
        "peak_rss_kb": peak_rss_kb(),
        "spans": recorder.export() if recorder is not None else [],
    }
    with open(args.stats, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
