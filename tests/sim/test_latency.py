"""Unit tests for the memory-latency model and the load-timing seam."""

import pytest

from repro.errors import SimulationError
from repro.harness.runner import PAPER_SYSTEMS
from repro.sim import latency
from repro.sim.cache import CacheConfig, CacheModel
from repro.sim.latency import UNTIMED, load_delay, load_timing
from repro.sim.memory import Memory
from repro.sim.queued.engine import QueuedEngine
from repro.sim.tagged.engine import TaggedEngine
from repro.sim.tagged.tagspace import TyrPolicy
from repro.sim.vector.engine import DataParallelEngine
from repro.sim.window.engine import WindowEngine
from repro.workloads import build_workload


def test_array_hash_memo_evicts_one_entry_not_all(monkeypatch):
    """Overflowing the memo must evict a single entry, not wipe all
    of them (the seed's ``clear()`` thrashed the hot arrays on every
    generated-name churn)."""
    monkeypatch.setattr(latency, "_ARRAY_HASH", {})
    monkeypatch.setattr(latency, "_ARRAY_HASH_LIMIT", 8)
    for i in range(8):
        load_delay(16, f"arr{i}", 0)
    assert len(latency._ARRAY_HASH) == 8
    load_delay(16, "overflow", 0)            # trips the bound
    assert len(latency._ARRAY_HASH) == 8     # one out, one in
    assert "overflow" in latency._ARRAY_HASH
    survivors = [f"arr{i}" in latency._ARRAY_HASH for i in range(8)]
    assert survivors.count(True) == 7        # exactly one evicted


def test_latency_one_is_identity():
    assert load_delay(1, "A", 0) == 1
    assert load_delay(0, "A", 99) == 1


def test_latency_deterministic_and_bounded():
    for idx in range(200):
        a = load_delay(16, "A", idx)
        b = load_delay(16, "A", idx)
        assert a == b
        assert 1 <= a <= 16


def test_latency_mixes_hits_and_misses():
    delays = [load_delay(16, "A", i) for i in range(200)]
    assert any(d == 1 for d in delays)
    assert any(d > 4 for d in delays)


def test_latency_varies_by_array():
    assert any(
        load_delay(16, "A", i) != load_delay(16, "B", i)
        for i in range(50)
    )


@pytest.mark.parametrize("machine", PAPER_SYSTEMS + ("ooo", "datapar"))
def test_all_machines_correct_under_latency(machine):
    wl = build_workload("smv", "tiny")
    res = wl.run_checked(machine, load_latency=8)
    assert res.completed


@pytest.mark.parametrize("machine", PAPER_SYSTEMS)
def test_latency_never_speeds_execution_up(machine):
    wl = build_workload("dmv", "tiny")
    fast = wl.run_checked(machine, load_latency=1)
    slow = wl.run_checked(machine, load_latency=16)
    assert slow.cycles >= fast.cycles


def test_tagged_dataflow_tolerates_latency_best():
    wl = build_workload("tc", "small")
    factors = {}
    for machine in ("ordered", "tyr"):
        base = wl.run_checked(machine, load_latency=1,
                              sample_traces=False)
        slow = wl.run_checked(machine, load_latency=16,
                              sample_traces=False)
        factors[machine] = slow.cycles / base.cycles
    assert factors["tyr"] < factors["ordered"]


def test_latency_preserves_ordered_fifo_semantics():
    """Variable-latency responses must re-enter queues in issue order
    (head-of-line blocking): results stay oracle-exact."""
    for name in ("smv", "spmspm", "tc", "spmspv-scatter"):
        wl = build_workload(name, "tiny")
        res = wl.run_checked("ordered", load_latency=13)
        assert res.completed


# ---------------------------------------------------------------------------
# load_timing: the one place a run's load-timing model is chosen.

SPEC = "line=4,miss=60,l1=4x2x1"


def _memory():
    return Memory({"A": list(range(40)), "B": list(range(24))})


def test_load_timing_unit_latency_is_none():
    assert load_timing(_memory(), 1) is None
    assert load_timing(_memory(), 0, None) is None


def test_load_timing_hash_probe_is_load_delay():
    timing = load_timing(_memory(), 9)
    for array in ("A", "B", "unbound"):
        probe, base = timing.load(array)
        assert base == 0
        for i in range(300):
            assert probe(base + i) == load_delay(9, array, i)
        # The hash model leaves stores untimed.
        assert timing.store(array) == UNTIMED
    # No hash delay reaches the miss latency, and there is no miss box:
    # profiles keep one unsplit memory_stall.
    assert timing.miss_latency > 9
    assert timing.miss_until is None


def test_load_timing_cache_probe_matches_access_load():
    config = CacheConfig.parse("line=4,miss=60,l1=4x2x1,l2=8x2x5")
    mem = _memory()
    model, twin = CacheModel(config, mem), CacheModel(config, mem)
    timing = load_timing(mem, 1, model)
    assert timing.miss_latency == 60
    assert timing.miss_until == [0]
    accesses = [("A", i) for i in range(0, 40, 3)] \
        + [("B", i) for i in range(23, -1, -2)] \
        + [("A", i) for i in range(39, 0, -5)]
    for array, i in accesses:
        probe, base = timing.load(array)
        assert probe(base + i) == twin.access_load(array, i)
        sprobe, sbase = timing.store(array)
        sprobe(sbase + i)
        twin.access_store(array, i)
    assert (model.load_hits, model.load_misses) == \
        (twin.load_hits, twin.load_misses)
    assert (model.store_hits, model.store_misses) == \
        (twin.store_hits, twin.store_misses)
    assert model.stats(100) == twin.stats(100)


#: Every engine class, constructed directly (no harness check).
_ENGINES = {
    "tagged": lambda cw, mem, **kw: TaggedEngine(cw.tagged, mem,
                                                 TyrPolicy(4), **kw),
    "queued": lambda cw, mem, **kw: QueuedEngine(cw.flat, mem, **kw),
    "window": lambda cw, mem, **kw: WindowEngine(cw.program, mem, **kw),
    "vector": lambda cw, mem, **kw: DataParallelEngine(cw.program, mem,
                                                       **kw),
}


@pytest.mark.parametrize("engine", sorted(_ENGINES))
def test_engines_reject_cache_with_load_latency(engine):
    cw = build_workload("dmv", "tiny").compiled
    mem = _memory()
    model = CacheModel(CacheConfig.parse(SPEC), mem)
    with pytest.raises(SimulationError, match="mutually exclusive"):
        _ENGINES[engine](cw, mem, load_latency=4, cache=model)
