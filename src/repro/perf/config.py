"""Hot-path acceleration knobs.

:class:`PerfConfig` selects how aggressively the margin evaluator may
trade per-sample work for speed.  Every setting is *result-neutral* by
construction: the adaptive cascade deepens every row whose exact
margin enclosure still straddles zero (see :mod:`repro.perf.adaptive`)
and the solve cache returns the exact floats a fresh solve would
produce, so estimates are bit-identical whether acceleration is on or
off.  The config therefore deliberately does **not** participate in
checkpoint fingerprints, just like
:class:`~repro.runtime.config.ExecutionConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PerfConfig:
    """Acceleration policy for the margin-evaluation hot path.

    Parameters
    ----------
    adaptive:
        Label every batch through the enclosure cascade: screen at a
        reduced bisection depth, then resume only the rows whose exact
        margin enclosure still straddles zero through deeper levels
        until each sign is settled (default on; ``False`` restores the
        fixed-budget exact path).  The depths are the fixed
        :data:`repro.perf.adaptive.CASCADE_DEPTHS`; the settling rule
        is a proof, not a tolerance, so it has no knob.
    cache_entries:
        LRU capacity of the :class:`~repro.perf.cache.SolveCache`
        (entries, not bytes; one entry is ~100 B).  0 disables caching.
    cache_path:
        Optional directory for on-disk cache persistence: caches are
        loaded from it at evaluator construction and saved back by
        :func:`repro.perf.save_registered_caches` (the CLI does this
        after every run), one file per solve fingerprint.
    batched:
        Fuse both butterfly sides into one ``(2B, G)`` array program
        per bisection step and run the buffered (allocation-free)
        device-model path.  Bit-identical by construction (elementwise
        over rows; same ufuncs in the same order); off reproduces the
        per-side legacy loop.
    array_backend:
        Array namespace for the solver hot path: ``"numpy"`` (default),
        ``"numba"`` (jitted softplus kernels, verified bit-identical at
        resolve time) or any importable Array-API namespace such as
        ``"cupy"`` (capability-probed, documented tolerance).  Unknown
        or unusable backends silently fall back to numpy -- results
        must never depend on which accelerators are installed (see
        :mod:`repro.xp`).
    label_batch:
        Optional override of the evaluator's per-solver-call row cap
        (default: :data:`repro.perf.batch.SLICE_ROWS`, 256, sized so a
        slice's scratch stays cache-resident).  Purely a memory/speed
        trade -- slicing is row-independent, so any value returns
        bit-identical labels.
    """

    adaptive: bool = True
    cache_entries: int = 100_000
    cache_path: str | None = None
    batched: bool = True
    array_backend: str = "numpy"
    label_batch: int | None = None

    def __post_init__(self) -> None:
        if self.cache_entries < 0:
            raise ValueError("cache_entries must be >= 0")
        if not self.array_backend:
            raise ValueError("array_backend must be a backend name")
        if self.label_batch is not None and self.label_batch < 1:
            raise ValueError("label_batch must be >= 1")

    @property
    def caching(self) -> bool:
        return self.cache_entries > 0

    @classmethod
    def exact(cls) -> "PerfConfig":
        """The unaccelerated legacy path (``--exact-eval``).

        Disables adaptivity, caching and side fusion, reproducing the
        per-side fixed-budget solve -- the reference every acceleration
        is gated bit-identical against in ``bench_hotpath``.
        """
        return cls(adaptive=False, cache_entries=0, batched=False)

    def with_(self, **changes) -> "PerfConfig":
        """Return a copy with ``changes`` applied (dataclass replace)."""
        return replace(self, **changes)
