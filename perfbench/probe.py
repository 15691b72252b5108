"""Set-up probe: a fresh interpreter made ready for a workload's first
operation.  Prints ``ready`` once it is; the parent times that line.

    python3 perfbench/probe.py fig8-sweep|naive-mc
"""

from __future__ import annotations

import sys

from common import prepare, stop_resource_tracker


def main(workload: str) -> int:
    prepare()
    if workload == "fig8-sweep":
        import wl_fig8 as module
    elif workload == "naive-mc":
        import wl_naive as module
    else:
        print(f"probe: unknown workload {workload!r}", file=sys.stderr)
        return 2
    try:
        with module.ready():
            print("ready", flush=True)
    finally:
        stop_resource_tracker()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
