"""Child processes started by run.py.

    python3 child.py setup <workload> <workdir>
        Set the workload up in this fresh interpreter; print the seconds it took.
    python3 child.py trace-cli <summary.json> <orlicz arguments...>
        Run ``orlicz.cli.main`` under the tracer and write its summary.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        import workloads
        start = time.perf_counter()
        workloads.setup(argv[1], argv[2])
        print(time.perf_counter() - start)
        return 0
    if argv[:1] == ["trace-cli"] and len(argv) >= 2:
        import orlicz.cli
        import tracer
        trace = tracer.Tracer()
        trace.install()
        try:
            code = orlicz.cli.main(argv[2:])
        finally:
            trace.uninstall()
            sys.stdout.flush()
            with open(argv[1], "w", encoding="utf-8") as handle:
                json.dump(trace.summary(), handle)
        return code
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
