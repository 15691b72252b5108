"""naive-mc: labelling throughput of plain Monte Carlo on the RTN cell.

One operation is one ``NaiveMonteCarlo.run`` of ``N_SAMPLES`` samples at
duty ratio 0.3 on the process backend with one worker per core.  No
classifier runs, nearly every sample is settled by the coarse screen,
every solve-cache lookup misses and chunks cross processes, so this
measures device model -> bisection -> margins -> labelling, plus the
runtime's chunk dispatch.

Checks: every operation's counts and pfail must be consistent, and the
first timed operation must be bit-identical (pfail, failures,
simulations, device-model evaluations) to a serial run of the same seed.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np

from repro.core.naive import NaiveMonteCarlo
from repro.experiments.setup import paper_setup
from repro.runtime import ExecutionConfig, make_backend

from common import NPROC
from summary import Tally, median

ALPHA = 0.3
N_SAMPLES = 20_000

#: timed operations a run makes at least, however short ``--seconds`` is.
MIN_OPS = 3


def execution(backend: str) -> ExecutionConfig:
    return ExecutionConfig(backend=backend,
                           workers=NPROC if backend == "process" else None)


@contextlib.contextmanager
def ready():
    """What the first run needs: setup, estimator and a started pool."""
    setup = paper_setup(alpha=ALPHA)
    NaiveMonteCarlo(setup.space, setup.indicator, setup.rtn_model,
                    seed=0, execution=execution("process"))
    pool = make_backend(execution("process"))
    try:
        pool.submit(os.getpid).result()
        yield
    finally:
        pool.close()


def mc_run(seed: int, backend: str):
    setup = paper_setup(alpha=ALPHA)
    estimator = NaiveMonteCarlo(setup.space, setup.indicator,
                                setup.rtn_model, seed=seed,
                                execution=execution(backend))
    start = time.perf_counter()
    estimate = estimator.run(N_SAMPLES)
    return estimate, time.perf_counter() - start


def fingerprint(estimate) -> tuple:
    """What serial and process runs of one seed must agree on."""
    return (estimate.pfail, estimate.metadata["failures"],
            estimate.n_simulations,
            estimate.metadata["perf"]["device_model_evals"])


def consistent(estimate) -> bool:
    failures = estimate.metadata["failures"]
    return (estimate.n_simulations == N_SAMPLES
            and estimate.n_statistical_samples == N_SAMPLES
            and 0 <= failures <= N_SAMPLES
            and estimate.pfail == failures / N_SAMPLES
            and estimate.ci_halfwidth > 0.0
            and estimate.metadata["perf"]["device_model_evals"] > 0)


def _checked_run(seed: int, backend: str, tally: Tally):
    try:
        estimate, wall = mc_run(seed, backend)
    except Exception as exc:  # a failed operation, counted, run goes on
        tally.error(f"{backend} run seed {seed}", exc)
        return None
    tally.check(consistent(estimate),
                f"{backend} run seed {seed}: inconsistent counts")
    return estimate, wall


def seeds(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(2**32))


def measure(seed: int, seconds: float, tally: Tally) -> dict:
    """Untimed warm-up run, then timed process-backend runs."""
    stream = seeds(seed)
    _checked_run(next(stream), "process", tally)
    runs = []
    start = time.perf_counter()
    while len(runs) < MIN_OPS or time.perf_counter() - start < seconds:
        run_seed = next(stream)
        done = _checked_run(run_seed, "process", tally)
        if done is not None:
            runs.append((run_seed, *done))
    walls = [wall for _, _, wall in runs]
    return {"wall_s": median(walls),
            "sims": median(e.n_simulations for _, e, _ in runs),
            "samples_per_s": median(N_SAMPLES / w for w in walls),
            "walls": walls, "first": runs[0] if runs else None}


def check_serial(first, tally: Tally) -> None:
    """The first timed run must match a serial run of its seed."""
    if first is None:
        return
    run_seed, estimate, _ = first
    serial = _checked_run(run_seed, "serial", tally)
    if serial is not None:
        tally.check(fingerprint(serial[0]) == fingerprint(estimate),
                    f"seed {run_seed}: serial {fingerprint(serial[0])} "
                    f"!= process {fingerprint(estimate)}")


def traced(seed: int, seconds: float, tally: Tally, tracer) -> dict:
    """Process pass, untraced serial pass, traced serial pass per seed.

    Pool workers are invisible to wrappers in this process, so spans
    come from the traced serial pass; chunk statistics come from the
    process pass.  All three passes must label bit-identically.
    """
    import layers

    untraced, traced_walls, metas = [], [], []
    stream = seeds(seed)
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        run_seed = next(stream)
        pooled = _checked_run(run_seed, "process", tally)
        plain = _checked_run(run_seed, "serial", tally)
        layers.install(tracer)
        try:
            done = _checked_run(run_seed, "serial", tally)
        finally:
            tracer.uninstall()
        if None in (pooled, plain, done):
            continue
        tally.check(len({fingerprint(pooled[0]), fingerprint(plain[0]),
                         fingerprint(done[0])}) == 1,
                    f"seed {run_seed}: passes labelled differently")
        untraced.append(plain[1])
        traced_walls.append(done[1])
        metas.append(dict(done[0].metadata,
                          execution=pooled[0].metadata["execution"]))
    return {"untraced": untraced, "traced": traced_walls, "metas": metas}
