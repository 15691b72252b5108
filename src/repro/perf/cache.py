"""The simulation memo cache.

:class:`SolveCache` memoises butterfly-solve results keyed on the exact
ΔVth bytes of each sample plus a *fingerprint* of everything else that
determines the solve (cell parameter cards, geometry, supply, grid,
margin levels, bisection depths).  Identical shift vectors recur
naturally: particle-filter resampling duplicates positions verbatim,
discrete RTN occupancy draws collide, and the Fig. 8 duty-ratio sweep
re-evaluates the shared boundary under every bias condition.  A hit
returns the exact floats the original solve produced, so cached and
uncached runs are bit-identical.

The cache is LRU-bounded, thread-safe (the thread backend labels chunks
concurrently through one evaluator) and deliberately *empty after
pickling*: the process backend ships the evaluator to workers per task,
and a growing cache inside those pickles would drown the run in IPC.
State snapshots (:meth:`state`/:meth:`restore_state`) ride estimator
checkpoints, and :meth:`save`/:meth:`load` persist the cache on disk
through the same temp-then-rename discipline as
:mod:`repro.analysis.persistence`.
"""

from __future__ import annotations

import io
import os
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

#: resolution levels a cache entry may be stored at: the exact solve,
#: the adaptive screen and the intermediate depths of the adaptive
#: label cascade (:data:`repro.perf.adaptive.CASCADE_DEPTHS`).
#: Snapshots store a level by its index here, so levels are only ever
#: appended.
LEVELS = ("exact", "coarse", "depth-12", "depth-16", "depth-20",
          "depth-24", "depth-32")


class SolveCache:
    """LRU memo of per-sample lobe margins.

    Parameters
    ----------
    fingerprint:
        Hex id of the solve configuration (see
        :meth:`repro.sram.evaluator.CellEvaluator.solve_fingerprint`).
        Entries are only meaningful under the exact configuration that
        produced them, so restore/load reject mismatched fingerprints.
    max_entries:
        LRU capacity; inserting beyond it evicts least-recently-used
        entries.
    """

    def __init__(self, fingerprint: str, max_entries: int = 100_000):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.fingerprint = str(fingerprint)
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[bytes, tuple[float, float]] = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    @staticmethod
    def _key(level: str, row: np.ndarray) -> bytes:
        return level.encode() + b"|" + row.tobytes()

    def lookup(self, level: str, dvth: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch lookup; returns ``(hit_mask, rnm0, rnm1)``.

        ``rnm0``/``rnm1`` are only meaningful where ``hit_mask`` is
        true; missed rows are left at 0.
        """
        if level not in LEVELS:
            raise ValueError(f"unknown cache level {level!r}")
        dvth = np.ascontiguousarray(dvth, dtype=float)
        n = dvth.shape[0]
        hit = np.zeros(n, dtype=bool)
        rnm0 = np.zeros(n)
        rnm1 = np.zeros(n)
        with self._lock:
            for i in range(n):
                entry = self._data.get(self._key(level, dvth[i]))
                if entry is None:
                    continue
                self._data.move_to_end(self._key(level, dvth[i]))
                hit[i] = True
                rnm0[i], rnm1[i] = entry
            self.hits += int(hit.sum())
            self.misses += int(n - hit.sum())
        return hit, rnm0, rnm1

    def store(self, level: str, dvth: np.ndarray, rnm0: np.ndarray,
              rnm1: np.ndarray) -> None:
        """Insert solved rows (evicting LRU entries beyond capacity)."""
        if level not in LEVELS:
            raise ValueError(f"unknown cache level {level!r}")
        dvth = np.ascontiguousarray(dvth, dtype=float)
        with self._lock:
            for i in range(dvth.shape[0]):
                self._data[self._key(level, dvth[i])] = (
                    float(rnm0[i]), float(rnm1[i]))
                self._data.move_to_end(self._key(level, dvth[i]))
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                self.evictions += 1

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counter snapshot for telemetry/perf reports.

        Taken under the lock so the thread backend never reads counters
        torn across a concurrent :meth:`lookup` update.
        """
        with self._lock:
            return {"cache_entries": len(self._data),
                    "cache_hits": self.hits,
                    "cache_misses": self.misses,
                    "cache_evictions": self.evictions}

    # ------------------------------------------------------------------
    # pickling: workers start cold (see module docstring)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        with self._lock:
            return {"fingerprint": self.fingerprint,
                    "max_entries": self.max_entries}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["fingerprint"], state["max_entries"])

    # ------------------------------------------------------------------
    # checkpoint snapshots
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Codec-safe snapshot (rides estimator checkpoints).

        Entries are packed into arrays in LRU order (least recent
        first), so a restore rebuilds the identical eviction order.
        """
        with self._lock:
            n = len(self._data)
            levels = np.zeros(n, dtype=np.uint8)
            keys = np.zeros((n, 6))
            values = np.zeros((n, 2))
            for i, (key, value) in enumerate(self._data.items()):
                level, _, raw = key.partition(b"|")
                levels[i] = LEVELS.index(level.decode())
                keys[i] = np.frombuffer(raw, dtype=float)
                values[i] = value
            return {"fingerprint": self.fingerprint,
                    "max_entries": self.max_entries,
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "levels": levels, "keys": keys, "values": values}

    def restore_state(self, state: dict) -> bool:
        """Restore a :meth:`state` snapshot.

        Returns ``False`` (leaving the cache untouched) when the
        snapshot was taken under a different solve fingerprint -- stale
        entries would silently corrupt results, an empty cache only
        costs speed.
        """
        if str(state["fingerprint"]) != self.fingerprint:
            return False
        levels = np.asarray(state["levels"], dtype=np.uint8)
        keys = np.ascontiguousarray(state["keys"], dtype=float)
        values = np.asarray(state["values"], dtype=float)
        if keys.ndim != 2 or keys.shape[1] != 6 or values.shape != (
                keys.shape[0], 2) or levels.shape != (keys.shape[0],):
            raise ValueError(
                f"inconsistent cache snapshot shapes: keys {keys.shape}, "
                f"values {values.shape}, levels {levels.shape}")
        with self._lock:
            self.max_entries = int(state["max_entries"])
            self.hits = int(state["hits"])
            self.misses = int(state["misses"])
            self.evictions = int(state["evictions"])
            self._data.clear()
            for i in range(keys.shape[0]):
                self._data[self._key(LEVELS[levels[i]], keys[i])] = (
                    float(values[i, 0]), float(values[i, 1]))
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                self.evictions += 1
        return True

    # ------------------------------------------------------------------
    # on-disk persistence (one file per fingerprint)
    # ------------------------------------------------------------------
    @staticmethod
    def _file(directory: str | Path, fingerprint: str) -> Path:
        return Path(directory) / f"solve-cache-{fingerprint}.npz"

    def save(self, directory: str | Path) -> Path:
        """Atomically write the cache under ``directory``.

        The write goes through a temp file plus :func:`os.replace`, so
        a concurrent reader never sees a torn archive; a per-fingerprint
        lock file additionally serialises concurrent writers (two
        service jobs sharing a solve-cache directory), so one job's
        publish cannot interleave with another's temp-file reuse.
        """
        from repro.checkpoint.lockfile import FileLock

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        state = self.state()
        buffer = io.BytesIO()
        np.savez(buffer,
                 meta=np.array([state["max_entries"], state["hits"],
                                state["misses"], state["evictions"]],
                               dtype=np.int64),
                 fingerprint=np.frombuffer(
                     self.fingerprint.encode(), dtype=np.uint8),
                 levels=state["levels"], keys=state["keys"],
                 values=state["values"])
        path = self._file(directory, self.fingerprint)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with FileLock(path.with_name(path.name + ".lock")):
            tmp.write_bytes(buffer.getvalue())
            os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, directory: str | Path, fingerprint: str,
             max_entries: int = 100_000) -> "SolveCache":
        """Load the cache for ``fingerprint``, or a fresh one.

        A missing or unreadable file degrades to an empty cache -- the
        cache is pure acceleration, never a correctness dependency.
        """
        cache = cls(fingerprint, max_entries=max_entries)
        path = cls._file(directory, fingerprint)
        try:
            with np.load(path) as pack:
                stored = bytes(pack["fingerprint"]).decode()
                meta = pack["meta"]
                cache.restore_state({
                    "fingerprint": stored,
                    "max_entries": max_entries,
                    "hits": int(meta[1]), "misses": int(meta[2]),
                    "evictions": int(meta[3]),
                    "levels": pack["levels"], "keys": pack["keys"],
                    "values": pack["values"]})
        except (OSError, KeyError, ValueError):
            pass
        return cache
