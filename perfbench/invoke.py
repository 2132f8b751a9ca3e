"""One henonlab CLI invocation in a fresh process, measured from inside.

    python3 perfbench/invoke.py --root DIR --report PATH [--trace PATH] [--probe] -- ARGS...

Imports ``henonlab.cli`` from ``DIR/src``, stamps the moment it is ready,
runs ``henonlab.cli.run(ARGS)`` and writes a JSON report: the ready stamp
(wall clock, for the parent's set-up time), the exit code, the wall time
of the call, the time spent in ``atlas.sweep``, the user + system CPU
seconds of this process and its reaped pool workers, and its own peak
resident set.  ``--probe`` stops after the import.  ``--trace`` installs
the per-layer tracer instead of the ``atlas.sweep`` timer, adds its
metrics to the report and writes its spans to PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import henonlab.cli

    report: dict = {"ready": time.time()}
    if not args.probe:
        tracer = None
        sweep_s = [0.0]
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        else:
            from tracer import rebind

            def timed_sweep(fn):
                def sweep(*a, **k):
                    start = time.perf_counter()
                    try:
                        return fn(*a, **k)
                    finally:
                        sweep_s[0] += time.perf_counter() - start
                return sweep

            rebind("atlas", "sweep", timed_sweep)

        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        code = henonlab.cli.run(args.argv)
        wall = time.perf_counter() - start
        sys.stdout.flush()
        report.update(
            exit=code,
            wall_s=wall,
            cpu_s=_cpu_seconds() - cpu0,
            maxrss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if tracer is not None:
            report["layers"] = tracer.metrics()
            with open(args.trace, "w", encoding="utf-8") as fh:
                json.dump(tracer.span_records(), fh)
        report["sweep_s"] = sweep_s[0]
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
