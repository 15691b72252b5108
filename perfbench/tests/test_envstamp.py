"""The environment stamp on every record."""

import os

import envstamp
from common import ROOT, child_env


def test_stamp_has_every_field():
    stamp = envstamp.stamp(ROOT, child_env())
    assert stamp["cores"] == len(os.sched_getaffinity(0))
    assert set(stamp["blas"]) == {"vendor", "env", "threads_reported",
                                  "set_by_benchmark"}
    assert set(stamp["blas"]["env"]) == set(envstamp.BLAS_ENV_VARS)
    assert stamp["blas"]["vendor"]
    for key in ("python", "numpy", "scipy"):
        assert stamp[key]
    assert set(stamp["git"]) == {"sha", "dirty"}


def test_the_benchmark_sets_no_blas_thread_variable():
    assert envstamp.stamp(ROOT, child_env())["blas"][
        "set_by_benchmark"] is False
    forced = dict(child_env(), OPENBLAS_NUM_THREADS="1")
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        assert envstamp.stamp(ROOT, forced)["blas"][
            "set_by_benchmark"] is True


def test_loaded_openblas_reports_its_threads():
    import numpy  # noqa: F401  (loads the library)

    reported = envstamp.blas_threads_reported()
    assert all(isinstance(n, int) and n >= 1 for n in reported.values())


def test_git_state_is_null_outside_a_checkout(tmp_path):
    assert envstamp.git_state(tmp_path) == {"sha": None, "dirty": None}
