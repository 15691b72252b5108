"""fig8-sweep: the paper's Fig. 8 duty-ratio sweep, timed to solution.

One operation is one ``run_fig8`` call on the serial backend with the
default ``PerfConfig``: the no-RTN reference plus duty ratios 0, 0.5
and 1, all to one target relative error, sharing the boundary,
classifier and evaluator across points.

Inputs: the sweep seeds come from a committed pool, and ``--seed``
picks the order in which a run visits them.  Every seed in the pool has
a committed reference (``fig8_reference.json``), and each point's pfail
must lie within the joint 95% CI of its reference:
``|p - p_ref| <= sqrt(h**2 + h_ref**2)`` with ``h`` the CI half-widths.
Bit-equality is not required: the BLAS thread count changes the SVM's
bits, and with them the simulation count.

Regenerate the reference after a deliberate change of scale::

    PYTHONPATH=src python3 perfbench/wl_fig8.py --write-reference
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
from itertools import cycle

import numpy as np

from repro.core.ecripse import EcripseConfig
from repro.experiments.fig8 import run_fig8
from repro.experiments.setup import paper_setup
from repro.perf import PerfConfig

from common import HERE
from summary import Tally, median, ratio

ALPHAS = (0.0, 0.5, 1.0)
TARGET = 0.5
CONFIG = {"n_particles": 40, "n_iterations": 3, "k_train": 64,
          "stage2_batch": 400, "min_stage2_batches": 2,
          "max_statistical_samples": 4000}
POOL = tuple(range(1, 11))
REFERENCE = HERE / "fig8_reference.json"

@contextlib.contextmanager
def ready():
    """What the first sweep needs: the program imported, setup built."""
    paper_setup(perf=PerfConfig())
    yield


def sweep(seed: int):
    start = time.perf_counter()
    result = run_fig8(alphas=ALPHAS, target_relative_error=TARGET,
                      config=EcripseConfig(**CONFIG), seed=seed)
    return result, time.perf_counter() - start


def estimates(result) -> list:
    return [result.no_rtn, *result.sweep.estimates]


def point_names() -> list[str]:
    return ["no-rtn"] + [f"alpha={alpha}" for alpha in ALPHAS]


def total_sims(result) -> int:
    return result.no_rtn.n_simulations + result.sweep.total_simulations


def _scale() -> dict:
    return {"alphas": list(ALPHAS), "target": TARGET, "config": CONFIG,
            "pool": list(POOL)}


def load_reference() -> dict[int, list[dict]]:
    data = json.loads(REFERENCE.read_text())
    if data["scale"] != _scale():
        raise RuntimeError("fig8_reference.json was made at another "
                           "scale or pool; regenerate it (see module "
                           "docstring)")
    return {int(seed): points for seed, points in data["sweeps"].items()}


def check(result, reference: list[dict]) -> list[str]:
    """Points whose pfail lies outside the joint 95% CI of the reference."""
    problems = []
    for name, estimate, ref in zip(point_names(), estimates(result),
                                   reference, strict=True):
        bound = math.hypot(estimate.ci_halfwidth, ref["ci_halfwidth"])
        if not abs(estimate.pfail - ref["pfail"]) <= bound:
            problems.append(f"{name}: pfail {estimate.pfail:.4e} vs "
                            f"reference {ref['pfail']:.4e} +- {bound:.2e}")
    return problems


def seed_order(seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [POOL[i] for i in rng.permutation(len(POOL))]


def _checked_sweep(pool_seed: int, reference, tally: Tally):
    """One checked sweep; ``None`` when it raised."""
    try:
        result, wall = sweep(pool_seed)
    except Exception as exc:  # a failed operation, counted, run goes on
        tally.error(f"sweep seed {pool_seed}", exc)
        return None
    problems = check(result, reference[pool_seed])
    tally.check(not problems, f"sweep seed {pool_seed}: {problems}")
    return result, wall


def measure(seed: int, seconds: float, tally: Tally) -> dict:
    """Untimed warm-up sweep, then timed sweeps.

    Timing runs for ``seconds`` and at least one full pass over the
    pool.  The figures are medians over pool seeds of each seed's
    median, so a seed visited twice does not count twice and every run
    that completes a pass measures the same set of sweeps.
    """
    reference = load_reference()
    by_seed: dict[int, list[tuple[float, int]]] = {}
    order = cycle(seed_order(seed))
    _checked_sweep(next(order), reference, tally)
    visits = 0
    start = time.perf_counter()
    while visits < len(POOL) or time.perf_counter() - start < seconds:
        pool_seed = next(order)
        visits += 1
        done = _checked_sweep(pool_seed, reference, tally)
        if done is not None:
            by_seed.setdefault(pool_seed, []).append(
                (done[1], total_sims(done[0])))
    walls = median(median(w for w, _ in runs) for runs in by_seed.values())
    sims = median(median(n for _, n in runs) for runs in by_seed.values())
    return {"wall_s": walls, "sims": sims,
            "samples_per_s": ratio(sims, walls),
            "walls": [w for runs in by_seed.values() for w, _ in runs],
            "details": {str(k): v for k, v in by_seed.items()}}


def traced(seed: int, seconds: float, tally: Tally, tracer) -> dict:
    """Warm-up, then an untraced and a traced sweep of each seed.

    Returns per-sweep wall times of both kinds and the metadata of
    every traced estimate; the tracer keeps the spans.
    """
    import layers

    reference = load_reference()
    untraced, traced_walls, metas = [], [], []
    order = cycle(seed_order(seed))
    _checked_sweep(next(order), reference, tally)
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        pool_seed = next(order)

        def traced_sweep():
            layers.install(tracer)
            try:
                return _checked_sweep(pool_seed, reference, tally)
            finally:
                tracer.uninstall()

        # alternate which of the pair runs first, so neither kind
        # always meets the warmer interpreter
        if len(untraced) % 2 == 0:
            plain = _checked_sweep(pool_seed, reference, tally)
            done = traced_sweep()
        else:
            done = traced_sweep()
            plain = _checked_sweep(pool_seed, reference, tally)
        if plain is None or done is None:
            continue
        same = [e.pfail for e in estimates(plain[0])] == \
            [e.pfail for e in estimates(done[0])]
        tally.check(same, f"tracing changed sweep seed {pool_seed}")
        untraced.append(plain[1])
        traced_walls.append(done[1])
        metas.extend(e.metadata for e in estimates(done[0]))
    return {"untraced": untraced, "traced": traced_walls, "metas": metas}


def write_reference() -> None:
    sweeps = {}
    for pool_seed in POOL:
        result, wall = sweep(pool_seed)
        sweeps[str(pool_seed)] = [
            {"point": name, "pfail": e.pfail,
             "ci_halfwidth": e.ci_halfwidth,
             "n_simulations": e.n_simulations}
            for name, e in zip(point_names(), estimates(result))]
        print(f"seed {pool_seed}: {wall:.2f} s, "
              f"{total_sims(result)} sims", flush=True)
    REFERENCE.write_text(json.dumps(
        {"scale": _scale(), "sweeps": sweeps}, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        raise SystemExit(__doc__)
    write_reference()
