"""Property-based checks of the paper's theorems on random programs.

Random structured programs (nested loops, data-dependent whiles,
branches, calls, memory read-modify-writes) are executed on every
machine model and compared against the sequential reference
interpreter. In particular:

* Theorem 1 (deadlock freedom): TYR completes with only **two tags per
  concurrent block**, on arbitrary programs.
* Theorem 2 (bounded state): live tokens never exceed ``T * N * M``
  (asserted inside the engine via ``check_token_bound``).
"""

import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError
from repro.frontend.lower import lower_module
from repro.harness.runner import CompiledWorkload
from repro.ir.interp import ReferenceInterpreter
from repro.sim.memory import Memory
from repro.workloads.randomprog import random_memory, random_module

SEEDS = st.integers(min_value=0, max_value=100_000)
# CI's deadlock-smoke job raises the search budget well past the
# local default; see .github/workflows/ci.yml.
_SETTINGS = settings(
    max_examples=int(os.environ.get("TYR_REPRO_HYPOTHESIS_EXAMPLES",
                                    "60")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _reference(cw):
    mem = Memory(random_memory())
    res = ReferenceInterpreter(cw.program, mem).run(cw.entry_args([3, 5]))
    return cw.declared_results(res.results), mem.snapshot()


def _compile(seed):
    return CompiledWorkload(lower_module(random_module(seed)))


@given(seed=SEEDS)
@_SETTINGS
def test_theorem1_tyr_two_tags_never_deadlocks(seed):
    cw = _compile(seed)
    want, want_mem = _reference(cw)
    mem = Memory(random_memory())
    res = cw.run("tyr", mem, [3, 5], tags=2, check_token_bound=True)
    assert res.completed
    assert res.extra["declared_results"] == want
    assert mem.snapshot() == want_mem


@given(seed=SEEDS, tags=st.integers(min_value=2, max_value=7))
# Seed 66869 at tags=4 starved sibling loop pools under the pre-fix
# gate (speculative pops left only one tag free, blocking ready
# external allocates); keep the falsifying example pinned forever.
@example(seed=66869, tags=4)
@_SETTINGS
def test_theorem2_token_bound_holds_at_any_tag_count(seed, tags):
    cw = _compile(seed)
    mem = Memory(random_memory())
    res = cw.run("tyr", mem, [3, 5], tags=tags, check_token_bound=True)
    assert res.completed
    bound = cw.tagged.token_bound(tags)
    assert res.peak_live <= bound + cw.tagged.max_inputs * len(
        cw.tagged.nodes
    )


@given(seed=SEEDS)
@_SETTINGS
def test_unordered_dataflow_matches_reference(seed):
    cw = _compile(seed)
    want, want_mem = _reference(cw)
    mem = Memory(random_memory())
    res = cw.run("unordered", mem, [3, 5])
    assert res.completed
    assert res.extra["declared_results"] == want
    assert mem.snapshot() == want_mem


@given(seed=SEEDS)
# All-immediate ops materialized off the block trigger instead of
# their own control region: seed 2765 fired an untaken branch's
# SELECTs, seed 1540 fired a loop-body constant once per activation.
@example(seed=1540)
@example(seed=2765)
@_SETTINGS
def test_ordered_dataflow_matches_reference(seed):
    cw = _compile(seed)
    want, want_mem = _reference(cw)
    mem = Memory(random_memory())
    res = cw.run("ordered", mem, [3, 5])
    assert res.completed
    assert res.extra["declared_results"] == want
    assert mem.snapshot() == want_mem


@given(seed=SEEDS)
@_SETTINGS
def test_window_machines_match_reference(seed):
    cw = _compile(seed)
    want, want_mem = _reference(cw)
    for machine in ("vn", "seqdf"):
        mem = Memory(random_memory())
        res = cw.run(machine, mem, [3, 5])
        assert res.completed
        assert res.extra["declared_results"] == want
        assert mem.snapshot() == want_mem


@given(seed=SEEDS)
@_SETTINGS
def test_vn_never_exceeds_one_ipc(seed):
    cw = _compile(seed)
    res = cw.run("vn", Memory(random_memory()), [3, 5])
    assert not res.ipc_trace or max(res.ipc_trace) <= 1


@given(seed=SEEDS, args=st.tuples(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
))
@_SETTINGS
def test_argument_values_do_not_break_machines(seed, args):
    """Vary entry arguments, not just program shape."""
    cw = _compile(seed)
    mem0 = Memory(random_memory())
    ref = ReferenceInterpreter(cw.program, mem0).run(
        cw.entry_args(list(args))
    )
    want = cw.declared_results(ref.results)
    mem = Memory(random_memory())
    res = cw.run("tyr", mem, list(args), tags=2)
    assert res.completed
    assert res.extra["declared_results"] == want
    assert mem.snapshot() == mem0.snapshot()
