"""Environment stamp attached to every benchmark record.

Cores come from the CPU affinity mask (what this process may run on),
not from ``os.cpu_count``.  BLAS threads are recorded twice: the
environment variables as inherited, and the count the loaded OpenBLAS
reports.  The benchmark never sets a BLAS thread variable; the stamp
shows that by comparing the environment it hands its children with its
own.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

#: environment variables that set BLAS / OpenMP thread counts.
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: thread-count getters of the OpenBLAS builds numpy and scipy ship.
_OPENBLAS_GETTERS = ("openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "scipy_openblas_get_num_threads64_")


def _loaded_blas_libraries() -> list[str]:
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        return []
    return sorted(paths)


def blas_threads_reported() -> dict[str, int]:
    """Thread count each loaded OpenBLAS library reports, by file name."""
    reported = {}
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                reported[Path(path).name] = int(getter())
                break
    return reported


def blas_vendor() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        return "unknown"


def git_state(root: Path) -> dict:
    """Commit sha and dirty flag, or nulls outside a git checkout.

    ``GIT_CEILING_DIRECTORIES`` stops git from finding a repository in
    a directory above ``root``.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], env=env,
                              capture_output=True, text=True, timeout=30)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return {"sha": None, "dirty": None}
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def stamp(root: Path, child_env: dict) -> dict:
    """The record stamp (call after numpy and scipy are imported)."""
    import numpy as np
    import scipy

    inherited = {name: os.environ.get(name) for name in BLAS_ENV_VARS}
    passed = {name: child_env.get(name) for name in BLAS_ENV_VARS}
    return {
        "cores": len(os.sched_getaffinity(0)),
        "blas": {"vendor": blas_vendor(),
                 "env": inherited,
                 "threads_reported": blas_threads_reported(),
                 "set_by_benchmark": passed != inherited},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git": git_state(root),
    }
