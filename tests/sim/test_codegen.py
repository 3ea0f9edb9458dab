"""Unit tests for the generated plan kernels (:mod:`repro.sim.codegen`).

The differential fuzz suite (tests/properties) pins bit-identity on
random programs; these tests cover the machinery around the generators:
source determinism, chunked compilation, the compile memo that shares
one module per program, the ``TYR_REPRO_DUMP_KERNELS`` hook, and the
rules for when engines fall back to the closure interpreters.
"""

import ast
import re
import tracemalloc
import types

import pytest

from repro.errors import DeadlockError
from repro.harness.pool import precompile_specs, spec_for
from repro.harness.runner import KERNEL_FAMILY, CompiledWorkload
from repro.sim import codegen
from repro.sim.codegen.core import (CHUNK_MARK, CHUNK_NODES, DUMP_ENV,
                                    FAMILIES, compile_chunks)
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


# ------------------------------------------------------------- compiling


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
        # compile_kernels dumps every module it compiles; the memo in
        # CompiledWorkload.kernels compiles each program's module once.
        codegen.compile_kernels(source, family, "dumptest0000")
        dumped = tmp_path / f"{family}-dumptest0000.py"
        # One whole, valid module: the chunk markers are comments.
        assert dumped.read_text() == source
        ast.parse(dumped.read_text())
        assert CHUNK_MARK in source


def test_instances_share_kernel_modules(monkeypatch):
    """Every CompiledWorkload of one program gets the same compiled
    module per family from the compile memo: a second instance never
    regenerates source, and runs through the shared kernels exactly as
    the first instance does."""
    first = build_workload("dmv", "tiny")
    mods = {family: first.compiled.kernels(family)
            for family in FAMILIES}
    machines = ("tyr", "ordered", "seqdf", "datapar")
    cold = [first.run_checked(m) for m in machines]
    monkeypatch.setattr(
        codegen, "generate_source",
        lambda *a: pytest.fail("regenerated a memoized module"))
    second = build_workload("dmv", "tiny")
    assert second.compiled is not first.compiled
    for family, mod in mods.items():
        assert second.compiled.kernels(family) is mod, family
    for machine, a in zip(machines, cold):
        b = second.run_checked(machine)
        assert (a.cycles, a.instructions, a.peak_live, a.results) == \
            (b.cycles, b.instructions, b.peak_live, b.results), machine


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
