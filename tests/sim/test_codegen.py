"""Unit tests for the generated plan kernels (:mod:`repro.sim.codegen`).

The differential fuzz suite (tests/properties) pins bit-identity on
random programs; these tests cover the machinery around the generators:
source determinism, cache artifacts and their failure fallbacks, the
``TYR_REPRO_DUMP_KERNELS`` hook, and the rules for when engines fall
back to the closure interpreters.
"""

import ast
import pickle
import re
import tracemalloc
import types

import pytest

from repro.errors import DeadlockError
from repro.harness.cache import CompileCache
from repro.harness.pool import precompile_specs, spec_for
from repro.harness.runner import KERNEL_FAMILY, CompiledWorkload
from repro.sim import codegen
from repro.sim.codegen.core import (CHUNK_MARK, CHUNK_NODES, DUMP_ENV,
                                    FAMILIES, compile_chunks,
                                    module_name)
from repro.sim.profile import RunProfile
from repro.sim.queued import QueuedEngine
from repro.sim.tagged import TaggedEngine, UnboundedGlobalPolicy
from repro.sim.vector import DataParallelEngine
from repro.sim.window import WindowEngine
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def wl():
    return build_workload("dmv", "tiny")


# ---------------------------------------------------------------- source


def test_generate_source_deterministic(wl):
    """Source is a pure function of the plan: two independent compiles
    of the same program emit byte-identical modules."""
    twin = build_workload("dmv", "tiny")
    for family in FAMILIES:
        a = codegen.generate_source(family, wl.compiled)
        b = codegen.generate_source(family, twin.compiled)
        assert a == b, family


def test_source_has_bind_entry_points(wl):
    for family in FAMILIES:
        source = codegen.generate_source(family, wl.compiled)
        binder = "bind_steps" if family == "vector" else "bind_fires"
        assert f"def {binder}(E)" in source, family
        if family != "vector":
            assert "def run_loop(E)" in source, family


# ------------------------------------------------------------- artifacts


def test_artifact_round_trip(wl):
    source = codegen.generate_source("tagged", wl.compiled)
    mod = codegen.compile_kernels(source, "tagged", "rt-original")
    art = pickle.loads(pickle.dumps(mod.artifact()))
    assert art["family"] == "tagged"
    assert art["source"] == source
    # A distinct fingerprint forces the restore path past the
    # per-process module memo.
    restored = codegen.load_kernels(art, "tagged", "rt-restored")
    assert restored is not None
    assert restored.ns["__name__"] == module_name("tagged",
                                                  "rt-restored")
    assert "bind_fires" in restored.ns and "run_loop" in restored.ns


def test_corrupt_marshal_recompiles_from_source(wl):
    source = codegen.generate_source("flat", wl.compiled)
    art = codegen.compile_kernels(source, "flat",
                                  "rt-marshal").artifact()
    art["marshal"] = b"not a code object"
    mod = codegen.load_kernels(art, "flat", "rt-marshal-corrupt")
    assert mod is not None
    assert "bind_fires" in mod.ns


def test_unusable_artifacts_return_none():
    assert codegen.load_kernels("junk", "tagged", "rt-junk-1") is None
    assert codegen.load_kernels({"source": 42}, "tagged",
                                "rt-junk-2") is None
    assert codegen.load_kernels({"source": "def bind_fires(E:",
                                 "python": (0, 0)},
                                "tagged", "rt-junk-3") is None


@pytest.mark.parametrize("damage", ["python", "marshal", "one-code"])
def test_stale_artifacts_recompile_in_chunks(wl, damage):
    """A mismatched ``python`` tag, a corrupt payload, or a pre-chunk
    single code object all fall back to the chunked source recompile,
    and the restored kernels still run bit-identically."""
    import marshal

    source = codegen.generate_source("tagged", wl.compiled)
    art = codegen.compile_kernels(source, "tagged",
                                  "rt-stale").artifact()
    if damage == "python":
        art["python"] = (2, 7)
    elif damage == "marshal":
        art["marshal"] = art["marshal"][:-7]
    else:
        art["marshal"] = marshal.dumps(compile(source, "m", "exec"))
    mod = codegen.load_kernels(art, "tagged", f"rt-stale-{damage}")
    assert mod is not None
    assert isinstance(mod.code, tuple)
    assert len(mod.code) == source.count(CHUNK_MARK) + 1
    cw = CompiledWorkload(wl.compiled.program)
    cw._kernels["tagged"] = mod
    gen = cw.run("tyr", wl.fresh_memory(), wl.args)
    ref = cw.run("tyr", wl.fresh_memory(), wl.args, codegen=False)
    assert (gen.cycles, gen.instructions, gen.peak_live, gen.results) \
        == (ref.cycles, ref.instructions, ref.peak_live, ref.results)


def _chunks(source):
    return source.split(CHUNK_MARK + "\n")


def test_kernels_compile_in_bounded_chunks():
    """Every family's bind entry point is split into ``_bind_<k>``
    chunks of at most CHUNK_NODES nodes, compiled one by one into a
    tuple of code objects."""
    wl = build_workload("tc", "tiny")
    node_line = {"tagged": r"^    # node \d+:", "flat": r"^    # node \d+:",
                 "window": r"^    # \S+ op \d+:"}
    for family in FAMILIES:
        source = codegen.generate_source(family, wl.compiled)
        mod = codegen.compile_kernels(source, family, f"chunks-{family}")
        chunks = _chunks(source)
        assert len(chunks) > 3, family
        assert len(mod.code) == len(chunks), family
        assert all(isinstance(c, types.CodeType) for c in mod.code)
        pattern = node_line.get(family)
        if pattern is None:
            continue                    # vector chunks hold whole blocks
        counts = [len(re.findall(pattern, c, re.M)) for c in chunks]
        assert max(counts) <= CHUNK_NODES, family
        assert sum(counts) == sum(1 for _ in re.finditer(
            pattern, source, re.M))


def test_chunked_compile_bounds_peak_memory():
    """The point of chunking: compile() holds one chunk's AST at a
    time instead of the whole module's."""
    wl = build_workload("tc", "tiny")
    source = codegen.generate_source("tagged", wl.compiled)
    tracemalloc.start()
    try:
        compile(source, "whole", "exec")
        whole = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        compile_chunks(source, "chunked")
        chunked = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunked * 2 < whole


def test_dump_kernels_env(wl, monkeypatch, tmp_path):
    monkeypatch.setenv(DUMP_ENV, str(tmp_path))
    for family in FAMILIES:
        source = codegen.generate_source(family, wl.compiled)
        # Fresh fingerprint: memoized modules skip the dump.
        codegen.compile_kernels(source, family, "dumptest0000")
        dumped = tmp_path / f"{family}-dumptest0000.py"
        # One whole, valid module: the chunk markers are comments.
        assert dumped.read_text() == source
        ast.parse(dumped.read_text())
        assert CHUNK_MARK in source


def test_kernels_consult_plan_cache(wl, tmp_path, monkeypatch):
    cache = CompileCache(str(tmp_path))
    first = CompiledWorkload(wl.compiled.program)
    first.plan_cache = cache
    mod = first.kernels("tagged")
    stored = cache.get_plan(first.fingerprint, "kernels-tagged")
    assert stored is not None and stored["source"] == mod.source
    # A second workload must load the artifact, never regenerate.
    monkeypatch.setattr(
        codegen, "generate_source",
        lambda *a: pytest.fail("regenerated despite cached artifact"))
    second = CompiledWorkload(wl.compiled.program)
    second.plan_cache = cache
    assert second.kernels("tagged").source == mod.source


# -------------------------------------------------------------- fallback


def test_traced_and_profiled_runs_never_touch_kernels(wl, monkeypatch):
    """Profiled, traced, and occupancy-tracked runs carry hooks the
    kernels omit; the runner must not even request kernels for them
    (nor when codegen=False)."""
    cw = CompiledWorkload(wl.compiled.program)
    monkeypatch.setattr(
        cw, "kernels",
        lambda family: pytest.fail("kernels requested on a "
                                   "fallback path"))
    for kwargs in ({"profile": True}, {"record_trace": True},
                   {"track_occupancy": True}, {"codegen": False}):
        res = cw.run("tyr", wl.fresh_memory(), wl.args, **kwargs)
        assert res.completed


def test_profiled_engines_keep_interpreter_tables(wl):
    """Engines given kernels still interpret when profiling: the
    profiler wraps per-op closures the generated code inlines away."""
    cw = wl.compiled
    mem = wl.fresh_memory
    tagged = TaggedEngine(cw.tagged, mem(), UnboundedGlobalPolicy(),
                          profile=True, kernels=cw.kernels("tagged"))
    assert tagged._kernels is None
    queued = QueuedEngine(cw.flat, mem(), profile=True,
                          kernels=cw.kernels("flat"))
    assert queued._kernels is None
    window = WindowEngine(cw.program, mem(), profile=True,
                          kernels=cw.kernels("window"))
    assert window._kernels is None
    # The vector engine swaps its step tables rather than a loop:
    # generated tables hold one whole-block function per block,
    # interpreted tables one closure per op.
    vec_gen = DataParallelEngine(cw.program, mem(),
                                 kernels=cw.kernels("vector"))
    assert all(len(t) == 1 for t in vec_gen._ticked.values())
    vec_prof = DataParallelEngine(cw.program, mem(), profile=True,
                                  kernels=cw.kernels("vector"))
    assert any(len(t) > 1 for t in vec_prof._ticked.values())


@pytest.mark.parametrize("app", ["smv", "spmspv", "tc"])
def test_tagged_kernels_match_at_narrow_widths(app):
    """Direct deposits: width-limited cycles keep ready entries across
    cycles and tiny pools starve allocations; the ready order (hence
    every metric) must still match the interpreter's."""
    wl = build_workload(app, "tiny")
    for machine, tags in (("tyr", 4), ("tyr", 2), ("unordered", 64)):
        for width in (1, 3):
            for cache in (None, "line=4,miss=60,l1=4x2x1"):
                runs = []
                for codegen_on in (False, True):
                    try:
                        res = wl.compiled.run(
                            machine, wl.fresh_memory(), wl.args,
                            issue_width=width, tags=tags, cache=cache,
                            sample_traces=False, codegen=codegen_on)
                    except DeadlockError as err:
                        runs.append(str(err))
                        continue
                    runs.append((res.cycles, res.instructions,
                                 res.peak_live, res.results,
                                 res.extra.get("cache")))
                assert runs[0] == runs[1], (machine, tags, width, cache)


def test_codegen_flag_matches_interpreter(wl, monkeypatch):
    """One machine per family: the interpreter matches the kernels,
    validates its profile on every run, and attaches it only under
    ``profile=True``."""
    validated = []
    original = RunProfile.validate

    def counting_validate(self):
        validated.append(self.machine)
        original(self)
    monkeypatch.setattr(RunProfile, "validate", counting_validate)
    for machine in ("tyr", "ordered", "vn", "datapar"):
        del validated[:]
        interp = wl.compiled.run(machine, wl.fresh_memory(), wl.args,
                                 codegen=False)
        assert validated, machine
        assert "profile" not in interp.extra
        gen = wl.compiled.run(machine, wl.fresh_memory(), wl.args,
                              codegen=True)
        assert "profile" not in gen.extra
        assert (gen.cycles, gen.instructions, gen.results) == \
            (interp.cycles, interp.instructions, interp.results)
        prof = wl.compiled.run(machine, wl.fresh_memory(), wl.args,
                               codegen=False, profile=True)
        profile = prof.extra["profile"]
        profile.validate()
        assert (profile.cycles, profile.instructions) == \
            (interp.cycles, interp.instructions)


# --------------------------------------------------------------- harness


def test_precompile_skips_kernels_for_interpreted_specs(wl, monkeypatch):
    """Profiled and occupancy-tracked specs interpret, so precompiling
    them must never build kernels; default specs still get theirs,
    once per family."""
    monkeypatch.setattr(
        CompiledWorkload, "kernels",
        lambda self, family: pytest.fail("kernels requested for a "
                                         "spec that interprets"))
    machines = ("tyr", "ordered", "seqdf", "datapar")
    for config in ({"profile": True}, {"track_occupancy": True}):
        precompile_specs([spec_for(wl, m, config) for m in machines])
    requested = []
    monkeypatch.setattr(CompiledWorkload, "kernels",
                        lambda self, family: requested.append(family))
    precompile_specs([spec_for(wl, "tyr", {"profile": True}),
                      spec_for(wl, "tyr", {"tags": 8}),
                      spec_for(wl, "kbounded"),
                      spec_for(wl, "ordered", {"track_occupancy": True})])
    assert requested == ["tagged"]


def test_every_machine_has_a_family(wl):
    from repro.harness.runner import MACHINES
    assert set(KERNEL_FAMILY) == set(MACHINES)
    assert set(KERNEL_FAMILY.values()) == set(FAMILIES)
