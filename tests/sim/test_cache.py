"""Unit tests for the stateful cache-hierarchy memory model."""

import pytest

from repro.errors import MemoryError_, SimulationError
from repro.harness.runner import PAPER_SYSTEMS
from repro.sim.cache import CacheConfig, CacheLevel, CacheModel
from repro.sim.memory import Memory
from repro.workloads import build_workload


# ---------------------------------------------------------------- config

def test_parse_roundtrips_through_spec():
    cfg = CacheConfig.parse("line=8,miss=100,l1=64x4x1,l2=256x8x6")
    assert cfg.line == 8
    assert cfg.miss_latency == 100
    assert [lvl.spec() for lvl in cfg.levels] == ["l1=64x4x1",
                                                  "l2=256x8x6"]
    assert CacheConfig.parse(cfg.spec()) == cfg


def test_parse_defaults_line_and_miss():
    cfg = CacheConfig.parse("l1=16x2x1")
    assert cfg.line == 8
    assert cfg.miss_latency == 100


@pytest.mark.parametrize("spec", [
    "line=3,miss=100,l1=4x2x1",     # line not a power of two
    "line=8,miss=100",              # no levels
    "l1=4x2x1,l1=8x2x1",            # duplicate level name
    "l1=0x2x1",                     # sets < 1
    "l1=4x2x0",                     # hit latency < 1
    "l1=4x2x5,l2=8x2x2",            # hit latencies decrease outward
    "miss=4,l1=4x2x4",              # miss not above the last hit
    "l1=4x2",                       # malformed geometry
    "bogus",                        # not key=value
])
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(SimulationError):
        CacheConfig.parse(spec)


def test_coerce_forms_agree():
    cfg = CacheConfig.parse("line=4,miss=60,l1=8x2x1")
    assert CacheConfig.coerce(None) is None
    assert CacheConfig.coerce(cfg) is cfg
    assert CacheConfig.coerce("line=4,miss=60,l1=8x2x1") == cfg
    assert CacheConfig.coerce(
        {"line": 4, "miss": 60, "l1": "8x2x1"}) == cfg
    with pytest.raises(SimulationError):
        CacheConfig.coerce(42)


def test_config_is_immutable_value():
    cfg = CacheConfig(4, 60, (CacheLevel("l1", 8, 2, 1),))
    assert cfg.line_shift == 2
    with pytest.raises(Exception):
        cfg.line = 8


# ----------------------------------------------------------------- model

def _model(spec, arrays):
    mem = Memory(arrays)
    return CacheModel(CacheConfig.parse(spec), mem)


def test_cold_miss_then_hit_within_line():
    m = _model("line=4,miss=60,l1=4x2x1", {"A": [0] * 64})
    assert m.access_load("A", 0) == 60       # cold miss
    assert m.access_load("A", 3) == 1        # same line: hit
    assert m.access_load("A", 4) == 60       # next line: miss
    assert m.load_hits[0] == 1
    assert m.load_misses[0] == 2


def test_lru_eviction_order():
    # Direct-mapped... no: 1 set, 2 ways, line of 1 word -> pure LRU
    # over two lines.
    m = _model("line=1,miss=60,l1=1x2x1", {"A": [0] * 8})
    assert m.access_load("A", 0) == 60
    assert m.access_load("A", 1) == 60
    assert m.access_load("A", 0) == 1        # touch 0: now MRU
    assert m.access_load("A", 2) == 60       # evicts 1 (LRU), not 0
    assert m.access_load("A", 0) == 1        # 0 survived
    assert m.access_load("A", 1) == 60       # 1 was evicted


def test_hit_at_outer_level_fills_inner():
    m = _model("line=1,miss=60,l1=1x1x1,l2=4x4x5", {"A": [0] * 8})
    assert m.access_load("A", 0) == 60       # miss everywhere, fill all
    assert m.access_load("A", 1) == 60       # evicts 0 from the 1-line l1
    assert m.access_load("A", 0) == 5        # l1 miss, l2 hit
    assert m.access_load("A", 0) == 1        # the l2 hit refilled l1
    assert m.load_hits == [1, 1]
    assert m.load_misses == [3, 2]           # A[1] was cold in l2 too


def test_store_write_allocates_for_later_loads():
    m = _model("line=4,miss=60,l1=4x2x1", {"A": [0] * 64})
    m.access_store("A", 0)
    assert m.store_misses[0] == 1
    assert m.access_load("A", 1) == 1        # the store pulled the line in
    m.access_store("A", 2)
    assert m.store_hits[0] == 1


def test_arrays_share_one_flat_address_space():
    # B starts right after A (8 words), so A[6..7] and B[0..1] share a
    # 4-word line boundary region: A[7] and B[0] are adjacent words.
    m = _model("line=4,miss=60,l1=16x2x1", {"A": [0] * 8, "B": [0] * 8})
    assert m.memory.base_of("A") == 0
    assert m.memory.base_of("B") == 8
    assert m.access_load("A", 4) == 60       # line covering words 4..7
    assert m.access_load("A", 7) == 1
    assert m.access_load("B", 0) == 60       # words 8..11: a new line
    assert m.access_load("B", 3) == 1


def test_non_power_of_two_sets_still_index():
    m = _model("line=1,miss=60,l1=3x1x1", {"A": [0] * 9})
    for i in range(9):
        m.access_load("A", i)
    assert m.load_misses[0] == 9
    assert m.access_load("A", 8) == 1


def test_stats_payload_shape_and_rates():
    m = _model("line=4,miss=60,l1=4x2x1", {"A": [0] * 64})
    m.access_load("A", 0)
    m.access_load("A", 1)
    m.access_store("A", 2)
    stats = m.stats(instructions=1000)
    assert stats["spec"] == "line=4,miss=60,l1=4x2x1"
    assert stats["line_words"] == 4
    assert stats["miss_latency"] == 60
    (lvl,) = stats["levels"]
    assert lvl["name"] == "l1"
    assert lvl["geometry"] == "4x2x1"
    assert lvl["loads"] == 2 and lvl["load_hits"] == 1
    assert lvl["stores"] == 1 and lvl["store_hits"] == 1
    assert lvl["hit_rate"] == pytest.approx(2 / 3)
    assert lvl["mpki"] == pytest.approx(1.0)
    import json
    json.dumps(stats)                        # fully serializable


def test_model_is_deterministic():
    seq = [("A", i * 3 % 16) for i in range(50)]
    out = []
    for _ in range(2):
        m = _model("line=2,miss=60,l1=2x2x1", {"A": [0] * 16})
        out.append([m.access_load(a, i) for a, i in seq])
    assert out[0] == out[1]


@pytest.mark.parametrize("spec", [
    "line=4,miss=60,l1=8x2x1",              # one level, masked sets
    "line=2,miss=30,l1=3x2x1",              # one level, 3 sets
    "line=1,miss=40,l1=1x4x1",              # one set, pure LRU
    "line=4,miss=90,l1=4x1x1,l2=16x4x6",    # two levels
    "line=2,miss=90,l1=5x2x1,l2=6x3x4",     # two levels, 5/6 sets
])
def test_flat_probes_match_access_calls(spec):
    """The kernels' flat-address probes replay exactly what
    ``access_load``/``access_store`` do: latency sequence, per-level
    counters and directory state."""
    import random
    arrays = {"A": [0] * 37, "B": [0] * 64, "C": [0] * 5}
    ref = _model(spec, arrays)
    flat = _model(spec, arrays)
    bases = flat.memory.layout()
    load, store = flat.load_probe(), flat.store_probe()
    rng = random.Random(spec)
    names = sorted(arrays)
    for _ in range(3000):
        name = rng.choice(names)
        index = rng.randrange(len(arrays[name]))
        if rng.random() < 0.25:
            ref.access_store(name, index)
            store(bases[name] + index)
        else:
            assert load(bases[name] + index) == \
                ref.access_load(name, index)
    for attr in ("load_hits", "load_misses", "store_hits",
                 "store_misses"):
        assert getattr(flat, attr) == getattr(ref, attr), attr
    assert flat._sets == ref._sets
    assert [list(way) for level in flat._sets for way in level] == \
        [list(way) for level in ref._sets for way in level]  # LRU order
    assert flat.stats(1000) == ref.stats(1000)


# -------------------------------------------------- memory regressions

def test_memory_rejects_bool_indices():
    mem = Memory({"A": [1, 2, 3]})
    with pytest.raises(MemoryError_, match="bool"):
        mem.load("A", True)
    with pytest.raises(MemoryError_, match="bool"):
        mem.store("A", False, 9)
    assert mem.load("A", 1) == 2             # real ints still work


def test_base_of_layout_tracks_rebinds():
    mem = Memory({"A": [0] * 4, "B": [0] * 4})
    assert mem.base_of("B") == 4
    mem.bind("A", [0] * 10)                  # layout invalidated
    assert mem.base_of("B") == 10
    assert mem.layout() == {"A": 0, "B": 10}
    with pytest.raises(MemoryError_):
        mem.base_of("missing")


# ------------------------------------------------------ engine plumbing

SPEC = "line=4,miss=60,l1=16x2x1"


@pytest.mark.parametrize("machine", PAPER_SYSTEMS + ("ooo", "datapar"))
def test_all_machines_correct_with_cache(machine):
    wl = build_workload("smv", "tiny")
    res = wl.run_checked(machine, cache=SPEC, sample_traces=False)
    assert res.completed
    cache = res.extra["cache"]
    assert cache["spec"] == SPEC
    (l1,) = cache["levels"]
    assert l1["loads"] > 0
    assert 0.0 <= l1["hit_rate"] <= 1.0


def test_cache_excludes_load_latency():
    wl = build_workload("dmv", "tiny")
    with pytest.raises(SimulationError, match="mutually exclusive"):
        wl.run_checked("tyr", cache=SPEC, load_latency=8)


@pytest.mark.parametrize("machine", PAPER_SYSTEMS + ("ooo", "datapar"))
def test_kernels_match_interpreter_with_cache(machine):
    wl = build_workload("smv", "tiny")
    a = wl.run_checked(machine, cache=SPEC, sample_traces=False,
                       codegen=False)
    b = wl.run_checked(machine, cache=SPEC, sample_traces=False,
                       codegen=True)
    assert (a.cycles, a.instructions, a.peak_live) == \
        (b.cycles, b.instructions, b.peak_live)
    assert a.extra["cache"] == b.extra["cache"]


def test_cache_makes_locality_visible():
    """The point of the model: a bigger L1 must not hit less."""
    wl = build_workload("smv", "tiny")
    small = wl.run_checked("tyr", cache="line=4,miss=60,l1=2x2x1",
                           sample_traces=False)
    big = wl.run_checked("tyr", cache="line=4,miss=60,l1=64x2x1",
                         sample_traces=False)
    rate = lambda r: r.extra["cache"]["levels"][0]["hit_rate"]  # noqa
    assert rate(big) > rate(small)
    assert big.cycles < small.cycles


def test_summary_mentions_hit_rate():
    wl = build_workload("dmv", "tiny")
    res = wl.run_checked("tyr", cache=SPEC, sample_traces=False)
    text = res.summary()
    assert "l1_hit=" in text
    assert "l1_mpki=" in text


@pytest.mark.parametrize("machine", ("tyr", "ordered", "seqdf",
                                     "datapar"))
def test_profiled_cache_run_conserves_and_splits(machine):
    wl = build_workload("smv", "tiny")
    plain = wl.run_checked(machine, cache=SPEC, sample_traces=False)
    prof_res = wl.run_checked(machine, cache=SPEC, profile=True,
                              sample_traces=False)
    assert prof_res.cycles == plain.cycles
    prof = prof_res.extra["profile"]
    prof.validate()
    assert sum(prof.stall_cycles.values()) == prof_res.cycles
    split = prof.memory_stall_split
    if prof.stall_cycles.get("memory_stall"):
        assert split.get("hit", 0) + split.get("miss", 0) == \
            prof.stall_cycles["memory_stall"]
