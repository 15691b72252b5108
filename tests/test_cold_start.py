"""Import budget: no entry point pays for scipy before it needs it.

scipy.stats, scipy.special and scipy.optimize together cost over a
second of import time, and only two call sites use them: the SVM fit
(``scipy.optimize``) and the array/ECC arithmetic (``scipy.stats``,
``scipy.special``).  Each check runs in a fresh interpreter, because
this test process has long since imported scipy through other tests.
The deferral checks prove the imports moved rather than vanished.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
HEAVY = ("scipy.stats", "scipy.special", "scipy.optimize")


def run_cli(module: str) -> str:
    return textwrap.dedent(f"""
        import runpy
        sys.argv = [{module!r}, "--help"]
        try:
            runpy.run_module({module!r}, run_name="__main__")
        except SystemExit:
            pass
    """)


ENTRY_POINTS = {
    "import-repro": "import repro",
    "runner-help": run_cli("repro.experiments.runner"),
    "service-server": "import repro.service.server",
    "lint-help": run_cli("repro.lint"),
    "estimators": textwrap.dedent("""
        from repro import EcripseEstimator, NaiveMonteCarlo, paper_setup
        setup = paper_setup(alpha=0.3)
        NaiveMonteCarlo(setup.space, setup.indicator, setup.rtn_model,
                        seed=1)
        EcripseEstimator(setup.space, setup.indicator, setup.rtn_model,
                         seed=1)
    """),
}


def heavy_modules_after(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; list the heavy modules loaded."""
    probe = (
        "import sys, json\n" + code + "\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=env, cwd=str(REPO), timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_imports_no_heavy_scipy(name):
    assert heavy_modules_after(ENTRY_POINTS[name]) == []


def test_svm_fit_loads_scipy_optimize():
    loaded = heavy_modules_after(textwrap.dedent("""
        import numpy as np
        from repro.ml.svm import LinearSvm
        x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        LinearSvm().fit(x, np.array([-1, -1, 1, 1]))
    """))
    assert "scipy.optimize" in loaded


def test_log_binom_sf_loads_scipy_stats():
    loaded = heavy_modules_after(textwrap.dedent("""
        from repro.analysis.ecc import log_binom_sf
        log_binom_sf(1, 72, 1e-6)
    """))
    assert "scipy.stats" in loaded
