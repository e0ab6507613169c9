"""Run ``repro serve`` with its production defaults, optionally traced.

Usage: ``python3 -u perfbench/serve_host.py REPORT.json [--trace]
[serve arguments ...]``.  The service runs exactly as the CLI runs it
(``repro.cli.main(["serve", ...])``); when it shuts down, this host
writes the process's peak RSS, CPU seconds and, with ``--trace``, the
layer self times and counts recorded while it ran, to ``REPORT.json``.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv) -> int:
    report_path, args = argv[0], argv[1:]
    traced = bool(args) and args[0] == "--trace"
    if traced:
        args = args[1:]
    from repro.cli import main as cli_main

    tracer = None
    if traced:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    start = time.monotonic()
    code = cli_main(["serve", *args])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {"peak_rss_mb": usage.ru_maxrss / 1024.0,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "alive_s": time.monotonic() - start}
    if tracer is not None:
        report["self_s"], report["counts"] = tracer.totals()
    with open(report_path, "w") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
