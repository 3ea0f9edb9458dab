"""Unit tests for the parallel job runner, the result cache and the
compile memo."""

import os

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.harness.cache import ResultCache
from repro.harness.pool import (
    RunSpec,
    cache_key,
    canonical_config,
    precompile_specs,
    run_batch,
    run_one,
    run_specs,
    spec_for,
)
from repro.harness.sweep import sweep_tags
from repro.sim.metrics import ExecutionResult
from repro.workloads import build_workload


def _same_result(a: ExecutionResult, b: ExecutionResult) -> bool:
    return (a.cycles == b.cycles
            and a.instructions == b.instructions
            and a.results == b.results
            and a.ipc_trace == b.ipc_trace
            and a.live_trace == b.live_trace
            and a.extra["declared_results"]
            == b.extra["declared_results"])


def test_canonical_config_sorts_and_flattens_dicts():
    a = canonical_config({"tags": 8, "tag_overrides": {"b": 2, "a": 4}})
    b = canonical_config({"tag_overrides": {"a": 4, "b": 2}, "tags": 8})
    assert a == b
    assert a == (("tag_overrides", (("a", 4), ("b", 2))), ("tags", 8))


def test_spec_roundtrips_workload_identity():
    wl = build_workload("dmv", "tiny")
    spec = spec_for(wl, "tyr", {"tags": 4})
    assert spec == RunSpec(
        workload="dmv", scale="tiny", seed=0, params=(("n", 8),),
        machine="tyr", config=(("tags", 4),), check=True,
    )


def test_run_one_matches_direct_run():
    wl = build_workload("dmv", "tiny")
    direct = wl.run_checked("tyr", tags=4)
    pooled = run_one(spec_for(wl, "tyr", {"tags": 4}))
    assert _same_result(direct, pooled)


def test_parallel_matches_serial():
    wl = build_workload("dmv", "tiny")
    serial = sweep_tags(wl, (2, 4, 8))
    parallel = sweep_tags(wl, (2, 4, 8), jobs=4)
    for tags in (2, 4, 8):
        assert _same_result(serial[tags], parallel[tags])


def test_cache_key_sensitivity():
    wl = build_workload("dmv", "tiny")
    base = cache_key(spec_for(wl, "tyr", {"tags": 4}))
    assert base == cache_key(spec_for(wl, "tyr", {"tags": 4}))
    assert base != cache_key(spec_for(wl, "tyr", {"tags": 8}))
    assert base != cache_key(spec_for(wl, "seqdf", {"tags": 4}))
    assert base != cache_key(spec_for(wl, "tyr", {"tags": 4},
                                      check=False))
    other = build_workload("dmv", "tiny", n=6)
    assert base != cache_key(spec_for(other, "tyr", {"tags": 4}))


def test_cache_round_trip(tmp_path):
    cache = ResultCache(str(tmp_path))
    wl = build_workload("dmv", "tiny")
    specs = [spec_for(wl, m, {"tags": 4}) for m in ("tyr", "vn")]
    cold = run_specs(specs, cache=cache)
    assert (cache.hits, cache.misses) == (0, 2)
    warm = run_specs(specs, cache=cache)
    assert (cache.hits, cache.misses) == (2, 2)
    for a, b in zip(cold, warm):
        assert _same_result(a, b)


def test_cache_hit_skips_engines(tmp_path, monkeypatch):
    """A warm cache returns results without constructing any engine."""
    cache = ResultCache(str(tmp_path))
    wl = build_workload("dmv", "tiny")
    specs = [spec_for(wl, "tyr", {"tags": 4}),
             spec_for(wl, "seqdf", {})]
    cold = run_specs(specs, cache=cache)

    import repro.harness.runner as runner

    def explode(*args, **kwargs):
        raise AssertionError("engine invoked on a cache hit")

    for engine in ("TaggedEngine", "QueuedEngine", "WindowEngine",
                   "DataParallelEngine"):
        monkeypatch.setattr(runner, engine, explode)
    warm = run_specs(specs, cache=cache)
    for a, b in zip(cold, warm):
        assert _same_result(a, b)


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    wl = build_workload("dmv", "tiny")
    spec = spec_for(wl, "tyr", {"tags": 4})
    run_specs([spec], cache=cache)
    entry = cache._path(cache_key(spec))
    with open(entry, "wb") as fh:
        fh.write(b"not a pickle")
    assert _same_result(run_specs([spec], cache=cache)[0],
                        run_one(spec))


def test_instances_share_lowerings(monkeypatch):
    """The compile memo: a second workload of the same program gets
    the first's tagged and flat graphs (the very same objects) without
    elaborating or flattening, and runs on them bit-identically."""
    import repro.harness.runner as runner

    first = build_workload("dmv", "tiny")
    tagged, flat = first.compiled.tagged, first.compiled.flat
    cold = [first.run_checked(m, tags=4) for m in ("tyr", "ordered")]

    def rebuilt(program):
        raise AssertionError("memoized lowering rebuilt")

    monkeypatch.setattr(runner, "elaborate", rebuilt)
    monkeypatch.setattr(runner, "flatten", rebuilt)
    second = build_workload("dmv", "tiny")
    assert second.compiled is not first.compiled
    assert second.compiled.tagged is tagged
    assert second.compiled.flat is flat
    warm = [second.run_checked(m, tags=4) for m in ("tyr", "ordered")]
    for a, b in zip(cold, warm):
        assert _same_result(a, b)


def test_precompile_materializes_machine_artifacts(monkeypatch):
    """After precompile_specs, every lowering and kernel module the
    specs need is in the compile memo: a fresh workload of the same
    program (as a forked worker would rebuild) compiles nothing."""
    import repro.harness.runner as runner
    from repro.sim import codegen

    wl = build_workload("dmv", "tiny")
    specs = [spec_for(wl, "tyr", {"tags": 4}),
             spec_for(wl, "ordered", {}),
             spec_for(wl, "vn", {})]
    precompile_specs(specs)

    def rebuilt(*args):
        raise AssertionError("precompiled lowering rebuilt")

    monkeypatch.setattr(runner, "elaborate", rebuilt)
    monkeypatch.setattr(runner, "flatten", rebuilt)
    monkeypatch.setattr(codegen, "generate_source", rebuilt)
    fresh = build_workload("dmv", "tiny").compiled
    fresh.tagged, fresh.flat  # noqa: B018 -- memo hits
    for family in ("tagged", "flat", "window"):
        fresh.kernels(family)
    for spec in specs:
        assert _same_result(run_one(spec), wl.run_checked(
            spec.machine, **dict(spec.config)))


def test_result_cache_root_holds_results_only(tmp_path):
    """Compiled lowerings never reach the disk: a cached sweep writes
    result entries and no ``plans/`` store."""
    cache = ResultCache(str(tmp_path))
    wl = build_workload("dmv", "tiny")
    run_specs([spec_for(wl, "tyr", {"tags": 4})], cache=cache)
    assert not os.path.exists(os.path.join(cache.root, "plans"))
    assert os.listdir(cache.root)


def test_failures_carry_run_context():
    wl = build_workload("dmv", "tiny")
    spec = spec_for(wl, "unordered-bounded", {"total_tags": 1},
                    check=False)
    with pytest.raises(DeadlockError) as exc:
        run_one(spec)
    message = str(exc.value)
    assert "workload=dmv/tiny" in message
    assert "machine=unordered-bounded" in message
    assert "total_tags=1" in message


def test_failures_never_cached(tmp_path):
    cache = ResultCache(str(tmp_path))
    wl = build_workload("dmv", "tiny")
    spec = spec_for(wl, "unordered-bounded", {"total_tags": 1},
                    check=False)
    out = run_specs([spec], cache=cache, tolerate=(DeadlockError,))
    assert isinstance(out[0], DeadlockError)
    assert cache.get(cache_key(spec)) is None


def test_tolerated_errors_in_parallel():
    wl = build_workload("dmv", "tiny")
    runs = [(wl, "unordered-bounded", {"total_tags": total}, False)
            for total in (1, 256)]
    out = run_batch(runs, jobs=2, tolerate=(DeadlockError,))
    assert isinstance(out[0], DeadlockError)
    assert isinstance(out[1], ExecutionResult) and out[1].completed


def test_untolerated_errors_propagate():
    wl = build_workload("dmv", "tiny")
    with pytest.raises(SimulationError):
        run_batch([(wl, "unordered-bounded", {"total_tags": 1}, False)])
