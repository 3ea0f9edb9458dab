"""Differential fuzz: generated plan kernels vs closure interpreters.

The AOT kernels (:mod:`repro.sim.codegen`) restructure every engine's
hot loop; the closure interpreters remain the reference semantics.
These properties pin bit-identity on random programs across all
machine models: metrics, traces, memory, results -- and, on the
machines that can fail, the failure itself (same exception type and
message either way).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.frontend.lower import lower_module
from repro.harness.runner import MACHINES, CompiledWorkload
from repro.sim.memory import Memory
from repro.workloads.randomprog import random_memory, random_module

SEEDS = st.integers(min_value=0, max_value=100_000)
#: Narrow widths leave ready entries queued across cycles (the tagged
#: kernels deposit tokens directly into wait stores, so this is where
#: their ordering could drift from the interpreter's); tiny tag pools
#: add tag starvation and deadlock diagnoses to the comparison.
WIDTHS = st.sampled_from([1, 2, 3, 128])
TAGS = st.sampled_from([2, 4, 64])
_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _observe(seed: int, machine: str, codegen: bool,
             **kwargs) -> dict:
    """Everything one run exposes, or the failure it raises."""
    cw = CompiledWorkload(lower_module(random_module(seed)))
    mem = Memory(random_memory())
    try:
        res = cw.run(machine, mem, [3, 5], codegen=codegen, **kwargs)
    except ReproError as err:
        return {"error": (type(err).__name__, str(err)),
                "memory": mem.snapshot()}
    out = {
        "cycles": res.cycles,
        "instructions": res.instructions,
        "peak_live": res.peak_live,
        "mean_live": res.mean_live,
        "results": res.results,
        "completed": res.completed,
        "ipc": list(res.ipc_trace),
        "live": list(res.live_trace),
        "memory": mem.snapshot(),
    }
    prof = res.extra.get("profile")
    if prof is not None:
        out["stalls"] = dict(prof.stall_cycles)
        out["node_cycles"] = dict(prof.node_cycles)
    return out


@given(seed=SEEDS, machine=st.sampled_from(MACHINES), width=WIDTHS,
       tags=TAGS)
@_SETTINGS
def test_kernels_match_interpreter(seed, machine, width, tags):
    kwargs = {"issue_width": width, "tags": tags}
    interp = _observe(seed, machine, codegen=False, **kwargs)
    gen = _observe(seed, machine, codegen=True, **kwargs)
    assert gen == interp


@given(seed=SEEDS, machine=st.sampled_from(MACHINES),
       latency=st.sampled_from([4, 8]), width=WIDTHS, tags=TAGS)
@_SETTINGS
def test_kernels_match_interpreter_variable_latency(seed, machine,
                                                    latency, width,
                                                    tags):
    kwargs = {"load_latency": latency, "issue_width": width,
              "tags": tags}
    interp = _observe(seed, machine, codegen=False, **kwargs)
    gen = _observe(seed, machine, codegen=True, **kwargs)
    assert gen == interp


@given(seed=SEEDS,
       machine=st.sampled_from(("tyr", "ordered", "seqdf", "datapar")))
@_SETTINGS
def test_profiled_runs_agree_and_conserve(seed, machine):
    """``codegen=True`` falls back to the interpreter under profiling,
    so the full stall taxonomy must match a ``codegen=False`` profiled
    run exactly (and both validate conservation in ``finish``)."""
    interp = _observe(seed, machine, codegen=False, profile=True,
                      load_latency=4)
    gen = _observe(seed, machine, codegen=True, profile=True,
                   load_latency=4)
    assert gen == interp
    if "stalls" in gen:
        assert sum(gen["stalls"].values()) == gen["cycles"]
