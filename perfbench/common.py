"""Paths, child-process environment, set-up probes and memory readings.

The benchmark runs from the root of a checkout and builds nothing: the
program is the pure-Python package under ``src/``, imported from there.
Everything it writes goes under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: workers for the pool-backed workloads: one per core we may use.
NPROC = len(os.sched_getaffinity(0))


def have_program() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict:
    """The environment for child processes: ours plus ``src`` on the path.

    BLAS thread variables pass through untouched (see envstamp).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(STATE / "tmp")
    return env


def prepare() -> None:
    """Import the program from ``src`` and keep temp files in STATE."""
    import tempfile

    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(STATE / "tmp")
    tempfile.tempdir = str(STATE / "tmp")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_dir(name: str) -> Path:
    path = STATE / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter to ``ready`` on stdout.

    ``probe.py`` imports the program and builds what the workload's
    first operation needs, then prints ``ready`` and exits.
    """
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload],
            stdout=subprocess.PIPE, text=True, env=child_env(),
            cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed "
                           f"(exit {code}, said {line.strip()!r})")
    return elapsed


def stop_resource_tracker() -> None:
    """Stop this process's multiprocessing resource tracker and wait for it.

    A process pool starts the tracker and nothing stops it: it lingers
    after the interpreter exits until it notices its closed pipe.  The
    pools are shut down by then, so closing the pipe here ends it, and
    waiting for it makes it end before the process that started it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS among waited-for children (and their children)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak RSS of a live process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
