"""Child-process entry points of the benchmark.

    python3 perfbench/child.py setup WORKLOAD SEED
        Run the workload's set-up in this fresh process, then print "ready".
        The parent times from process start to that line.

    python3 perfbench/child.py cli SPANS_FILE CLI_ARG...
        Run ``sqzcavity.cli.main(CLI_ARG...)`` with tracing installed, write
        the spans to SPANS_FILE and exit with main's exit code.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

from workloads import ROOT, SRC, make_workload


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    mode = argv[0]
    if mode == "setup":
        name, seed = argv[1], int(argv[2])
        work_dir = ROOT / ".bench_out" / "work" / f"probe-{name}-{os.getpid()}"
        try:
            make_workload(name, seed, work_dir).setup()
            print("ready", flush=True)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        return 0
    if mode == "cli":
        from sqzcavity import cli
        from tracing import Tracer, write_span_sets

        tracer = Tracer()
        with tracer.installed():
            rc = cli.main(argv[2:])
        write_span_sets(Path(argv[1]), [tracer.spans])
        return rc
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
