"""service-mix: a real ``ecripse serve`` daemon driven over HTTP.

The daemon runs with two workers on a fresh state root.  One
closed-loop client (one request outstanding) repeats a cycle:

1. submit a fresh ``kind="array"`` job with a distinct direct pfail
   (zero simulations: pure service overhead plus one durable write) and
   follow its event stream until the server closes it;
2. submit the same spec again, which the result cache must answer;
3. ``GET /healthz``;
4. ``GET /jobs`` (rereads every record, so it slows as the store grows).

Beside the cycles, a fixed set of quick estimate jobs runs one at a
time, submitted without waiting, so the cheap requests meet real
compute and checkpoint writes.  The estimate specs are the same in
every run, so every run carries the same background load; ``--seed``
drives the foreground stream (the pfail of each array job).

Checks: every fresh job ends ``done``; every duplicate comes back
``cached`` with the original's pfail, CI and simulation count;
``/healthz`` says ok; ``/jobs`` lists every job submitted so far.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from contextlib import nullcontext

import numpy as np

from repro.service.client import RetryPolicy, ServiceClient

from common import ROOT, child_env, fresh_dir, pid_peak_rss_mb
from summary import Tally, median

WORKERS = 2
ESTIMATE_SPECS = tuple(
    {"kind": "estimate", "quick": True, "alpha": 0.5, "seed": seed,
     "target_relative_error": 0.5} for seed in range(1, 7))
ARRAY_CONFIG = {"capacity_mbit": 1000.0}

#: untimed cycles before measuring (first-request imports in the daemon).
WARMUP_CYCLES = 2

#: a run that cannot finish its estimate jobs within this many
#: ``--seconds`` gives up on them and counts them as failed.
ESTIMATE_PATIENCE = 4


class Daemon:
    """One ``ecripse serve`` subprocess on a fresh root."""

    def __init__(self, name: str) -> None:
        self.root = fresh_dir(name)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner", "serve",
             "--root", str(self.root), "--port", "0",
             "--workers", str(WORKERS)],
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
        try:
            line = self.proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.client = ServiceClient(line.split()[-1],
                                        retry=RetryPolicy(attempts=1))
            deadline = time.monotonic() + 60
            while True:
                try:
                    self.client.healthz()
                    break
                except Exception:  # not up yet; bounded by deadline
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def stop(self) -> int:
        """SIGTERM (the daemon drains), wait, kill if it hangs; then
        delete the state root."""
        self.proc.terminate()
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.root, ignore_errors=True)
        return code


def probe_setup() -> float:
    """Fresh daemon process to its first ``/healthz`` 200."""
    daemon = Daemon("probe")
    daemon.stop()
    return daemon.setup_s


class Session:
    """The client loop of one run, with every measurement it takes."""

    def __init__(self, daemon: Daemon, seed: int, tally: Tally,
                 tracer=None) -> None:
        self.client = daemon.client
        self.tally = tally
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.pfails: set[float] = set()
        self.submitted = 0
        self.cycles: list[dict] = []
        self.pending = list(ESTIMATE_SPECS)
        self.live: tuple[str, dict] | None = None
        self.estimates: list[dict] = []

    # -- one closed-loop cycle ----------------------------------------
    def _timed(self, what: str, call, traced: bool):
        """``call()`` and its wall time in ms, as a span if ``traced``."""
        with self.tracer.span(what) if traced else nullcontext():
            start = time.perf_counter()
            result = call()
        return result, (time.perf_counter() - start) * 1e3

    def _fresh_pfail(self) -> float:
        while True:
            pfail = float(10.0 ** self.rng.uniform(-12.0, -6.0))
            if pfail not in self.pfails:
                self.pfails.add(pfail)
                return pfail

    def cycle(self, traced: bool = False) -> dict | None:
        spec = {"kind": "array", "pfail": self._fresh_pfail(),
                "array": ARRAY_CONFIG}
        tally = self.tally
        start = time.perf_counter()
        try:
            (record, events), job_ms = self._timed(
                "service.job", lambda: self._submit_and_follow(spec),
                traced)
            end_at = time.time()
            duplicate, hit_ms = self._timed(
                "service.hit", lambda: self.client.submit(spec), traced)
            self.submitted += 1
            health, healthz_ms = self._timed(
                "service.healthz", self.client.healthz, traced)
            jobs, list_ms = self._timed("service.list", self.client.jobs,
                                        traced)
            wall_ms = (time.perf_counter() - start) * 1e3
            # The record, not the stream, is the durable truth: the
            # stream may close before its terminal event is written.
            original = _find(jobs, record["id"])
            tally.check(original["state"] == "done",
                        f"array job {record['id']} is "
                        f"{original['state']}")
            tally.check(_same_result(duplicate, original),
                        f"duplicate of {record['id']} not served from "
                        f"the cache: {duplicate}")
            tally.check(health.get("status") == "ok",
                        f"healthz said {health.get('status')}")
            tally.check(len(jobs) == self.submitted,
                        f"GET /jobs listed {len(jobs)} of "
                        f"{self.submitted} jobs")
            history = _history(original)
            self._tend_estimate(jobs)
        except Exception as exc:  # a failed request, counted, loop goes on
            tally.error("service cycle", exc)
            return None
        return {"wall_ms": wall_ms, "job_ms": job_ms, "hit_ms": hit_ms,
                "healthz_ms": healthz_ms, "list_ms": list_ms,
                "queue_wait_ms":
                    (history["running"] - history["queued"]) * 1e3,
                "run_ms": (history["done"] - history["running"]) * 1e3,
                "stream_lag_ms": (end_at - history["done"]) * 1e3,
                "stream_saw_done": bool(events)
                and events[-1]["kind"] == "done",
                "jobs_in_store": len(jobs), "traced": traced}

    def _submit_and_follow(self, spec: dict):
        record = self.client.submit(spec)
        self.submitted += 1
        return record, list(self.client.stream_events(record["id"]))

    # -- the background estimate jobs ---------------------------------
    def _submit_next_estimate(self) -> None:
        spec = self.pending.pop(0)
        record = self.client.submit(spec)
        self.submitted += 1
        self.live = (record["id"], spec)

    def _tend_estimate(self, jobs: list[dict]) -> None:
        """Settle a finished estimate job and start the next one."""
        if self.live is None:
            if self.pending:
                self._submit_next_estimate()
            return
        job_id, spec = self.live
        record = _find(jobs, job_id)
        if record["state"] not in ("done", "failed", "cancelled", "dead"):
            return
        self.live = None
        ok = self.tally.check(record["state"] == "done",
                              f"estimate job {job_id} ended "
                              f"{record['state']}")
        if ok:
            duplicate = self.client.submit(spec)
            self.submitted += 1
            self.tally.check(_same_result(duplicate, record),
                             f"duplicate of estimate {job_id} not served "
                             f"from the cache: {duplicate}")
            self.estimates.append(self._estimate_facts(record))
        if self.pending:
            self._submit_next_estimate()

    def _estimate_facts(self, record: dict) -> dict:
        history = _history(record)
        events = self.client.events(record["id"])
        return {"sims": record["n_simulations"],
                "run_s": history["done"] - history["running"],
                "job_s": history["done"] - history["queued"],
                "checkpoints": sum(e["kind"] == "checkpoint"
                                   for e in events),
                "metadata": self.client.result(record["id"])["metadata"]}

    @property
    def estimates_busy(self) -> bool:
        return self.live is not None or bool(self.pending)

    def give_up_estimates(self) -> None:
        for _ in range(len(self.pending) + (self.live is not None)):
            self.tally.check(False, "estimate job did not finish in time")


def _find(jobs: list[dict], job_id: str) -> dict:
    return next(job for job in jobs if job["id"] == job_id)


def _history(record: dict) -> dict[str, float]:
    """First time the record entered each state."""
    seen: dict[str, float] = {}
    for state, at in record["history"]:
        seen.setdefault(state, at)
    return seen


def _same_result(duplicate: dict, original: dict) -> bool:
    return (duplicate.get("cached") is True
            and duplicate.get("state") == "done"
            and all(duplicate.get(key) == original.get(key)
                    for key in ("pfail", "ci_halfwidth", "n_simulations")))


def run_session(seed: int, seconds: float, tally: Tally,
                tracer=None) -> dict:
    """Start a daemon, drive the mix for ``seconds``, stop the daemon.

    With a ``tracer``, every other timed cycle records client spans.
    """
    daemon = Daemon(f"serve-{seed}")
    try:
        session = Session(daemon, seed, tally, tracer)
        for _ in range(WARMUP_CYCLES):
            session.cycle()
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and not session.estimates_busy:
                break
            if elapsed >= ESTIMATE_PATIENCE * seconds:
                session.give_up_estimates()
                break
            traced = tracer is not None and len(session.cycles) % 2 == 1
            facts = session.cycle(traced)
            if facts is not None:
                session.cycles.append(facts)
        peak_rss_mb = pid_peak_rss_mb(daemon.proc.pid)
    finally:
        code = daemon.stop()
    tally.check(code == 0, f"daemon exited {code} on SIGTERM")
    return {"cycles": session.cycles, "estimates": session.estimates,
            "peak_rss_mb": peak_rss_mb}


def measure(seed: int, seconds: float, tally: Tally) -> dict:
    out = run_session(seed, seconds, tally)
    cycles, estimates = out["cycles"], out["estimates"]
    return {"wall_s": median(c["wall_ms"] for c in cycles) / 1e3,
            "sims": median(e["sims"] for e in estimates),
            "samples_per_s": median(e["sims"] / e["run_s"]
                                    for e in estimates),
            "peak_rss_mb": out["peak_rss_mb"],
            "cycles": cycles, "estimates": estimates}


def layer_metrics(cycles: list[dict], estimates: list[dict]) -> dict:
    """The service and checkpoint per-layer metrics of one session."""
    def med(key):
        return median(c[key] for c in cycles)

    return {
        "service.queue_wait_ms": med("queue_wait_ms"),
        "service.run_ms": med("run_ms"),
        "service.stream_lag_ms": med("stream_lag_ms"),
        "service.jobs_in_store": max(
            (c["jobs_in_store"] for c in cycles), default=0),
        "service.job_p50_ms": med("job_ms"),
        "service.hit_p50_ms": med("hit_ms"),
        "service.healthz_p50_ms": med("healthz_ms"),
        "service.list_p50_ms": med("list_ms"),
        "service.estimate_job_s": median(e["job_s"] for e in estimates),
        "service.streams_without_done": float(
            sum(not c["stream_saw_done"] for c in cycles)),
        "checkpoint.saves": median(e["checkpoints"] for e in estimates),
    }

