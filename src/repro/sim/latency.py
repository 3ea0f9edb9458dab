"""Unpredictable memory-latency modeling, and the engines' one
load-timing seam.

The paper's evaluation uses single-cycle instructions, but its
*argument* for unordered dataflow rests on irregular workloads having
"unpredictable latency" that stalls ordered pipelines (Sec. II-C).
The engines accept a ``load_latency`` knob: 1 keeps the paper's
idealized timing; L > 1 gives every load a deterministic
pseudo-random latency in [1, L] (a cache-hit/miss mix keyed by the
accessed address), letting the harness measure how each token-
synchronization scheme tolerates memory variance.

:func:`load_timing` is where a run's timing model is chosen, once per
engine: ``None`` for idealized loads, otherwise a :class:`LoadTiming`
whose per-array ``(probe, base)`` bindings make the stateless hash
above and the stateful cache model (:mod:`repro.sim.cache`) look
alike. Every interpreter closure and generated kernel body delays a
load by ``probe(base + index)``, so neither knows which model runs.
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError

#: A per-array timing binding: ``probe(base + index)`` is the latency
#: of one access (or, for stores, just updates the model).
Probe = Tuple[Optional[Callable[[int], int]], int]

#: The binding of an untimed access: idealized single-cycle loads, and
#: stores under any model that does not observe them.
UNTIMED: Probe = (None, 0)

#: Array name -> stable 32-bit hash. Python's ``hash(str)`` is
#: randomized per process (PYTHONHASHSEED), which made latency>1 runs
#: unreproducible across processes; crc32 keeps the same hit/miss mix
#: everywhere and lets golden metrics pin variable-latency runs.
_ARRAY_HASH: dict = {}

#: The memo is keyed by arbitrary program array names, so a
#: long-lived sweep process over many generated programs could grow
#: it without bound; real programs use a handful of arrays, so the
#: bound only trips on pathological name churn (then crc32 is simply
#: recomputed).
_ARRAY_HASH_LIMIT = 4096


def _array_hash(array: str) -> int:
    h = _ARRAY_HASH.get(array)
    if h is None:
        if len(_ARRAY_HASH) >= _ARRAY_HASH_LIMIT:
            # Evict a single entry, not the whole memo: wiping all
            # 4096 thrashed the hot arrays every time generated-name
            # churn tripped the bound.
            _ARRAY_HASH.popitem()
        h = _ARRAY_HASH[array] = zlib.crc32(array.encode("utf-8"))
    return h


def load_delay(load_latency: int, array: str, index: int) -> int:
    """Latency of one load, deterministic in (array, index).

    Returns 1 when ``load_latency <= 1`` (the paper's idealized
    model); otherwise a pseudo-random value in [1, load_latency],
    skewed so roughly half the accesses are fast (cache-hit-like).
    The value is stable across host processes (no builtin ``hash``).
    """
    if load_latency <= 1:
        return 1
    h = (_array_hash(array) * 1000003 + index * 2654435761) & 0xFFFFFFFF
    h ^= h >> 15
    if h & 1:
        return 1  # hit
    return 2 + (h >> 8) % (load_latency - 1)


class LoadTiming:
    """One run's load timing, bound per array.

    ``load(array)`` and ``store(array)`` return the array's ``(probe,
    base)``; a store probe is None when the model does not observe
    stores. ``miss_latency`` is the delay at or above which a load
    counts as a last-level miss, and ``miss_until`` the one-slot box
    the engines advance past each miss's due cycle for the profiler's
    hit/miss memory-stall split. Built by :func:`load_timing`.
    """

    __slots__ = ("load", "store", "miss_latency", "miss_until")

    def __init__(self, load: Callable[[str], Probe],
                 store: Callable[[str], Probe], miss_latency: int,
                 miss_until: Optional[List[int]]) -> None:
        self.load = load
        self.store = store
        self.miss_latency = miss_latency
        self.miss_until = miss_until


def load_timing(memory, load_latency: int = 1,
                cache=None) -> Optional[LoadTiming]:
    """The run's load timing over ``memory``; None when loads take
    the paper's idealized single cycle.

    With a :class:`~repro.sim.cache.CacheModel` every load delays by
    the model's flat-address probe at the array's layout base, and
    stores probe it too (write-allocate, still single-cycle). Under
    ``load_latency > 1`` a load's probe is the :func:`load_delay`
    hash with the array bound and base 0; stores are untimed, and no
    hash delay reaches ``miss_latency``, so profiles keep one
    unsplit ``memory_stall``. The two models are mutually exclusive.
    """
    if cache is not None:
        if load_latency > 1:
            raise SimulationError(
                "cache= and load_latency>1 are mutually exclusive: "
                "the cache model replaces the hash-based load-delay "
                "model")
        load_probe, store_probe = cache.load_probe(), cache.store_probe()
        # An unbound array binds base 0 and never reaches a probe:
        # Memory.load/Memory.store raise first.
        bases = memory.layout()
        return LoadTiming(
            lambda array: (load_probe, bases.get(array, 0)),
            lambda array: (store_probe, bases.get(array, 0)),
            cache.miss_latency, [0])
    if load_latency <= 1:
        return None
    return LoadTiming(
        lambda array: (partial(load_delay, load_latency, array), 0),
        lambda array: UNTIMED, load_latency + 1, None)
