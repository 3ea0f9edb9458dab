"""Trace and occupancy instrumentation of the tagged interpreter.

``record_trace`` and ``track_occupancy`` only observe a run: the
recorded dynamic execution graph and store occupancy are pinned in
``golden_traces.json`` (see ``capture_golden_traces.py``), and an
instrumented run must simulate exactly what a plain interpreted run
simulates.
"""

import json

import pytest

from repro.ir.ops import Op
from repro.workloads.registry import build_workload

from tests.sim.capture_golden_traces import (
    OUT,
    PIN_VARIANTS,
    describe,
    instrumented_run,
    pin_keys,
)

with open(OUT) as _fh:
    GOLDEN = json.load(_fh)


def test_golden_file_covers_every_pin():
    assert sorted(GOLDEN) == sorted(pin_keys())


@pytest.mark.parametrize("key", pin_keys())
def test_trace_and_occupancy_identical_to_golden(key):
    assert describe(key) == GOLDEN[key]


def _observable(result):
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "peak_live": result.peak_live,
        "live_trace": list(result.live_trace),
        "results": result.extra["declared_results"],
        "pool_stats": result.extra["pool_stats"],
    }


@pytest.mark.parametrize("name", ("dmv", "smv", "bfs", "tc"))
def test_instrumented_runs_match_plain_interpreter(name):
    wl = build_workload(name, "tiny")
    for machine, options in (("tyr", {"tags": 4}), ("unordered", {}),
                             ("kbounded", {})):
        for variant in PIN_VARIANTS.values():
            def run(**flags):
                result, _ = wl.run(machine, codegen=False, **options,
                                   **variant, **flags)
                return _observable(result)

            plain = run()
            for flags in ({"record_trace": True},
                          {"track_occupancy": True},
                          {"record_trace": True,
                           "track_occupancy": True}):
                assert run(**flags) == plain, (machine, variant, flags)


def test_late_ready_token_does_not_leak_into_next_allocate():
    """An allocate whose ready token arrives after its pop consumes
    that token in a control firing with no trace event of its own.
    Its producer must not become an input edge of the next allocate
    event at the same (node, tag)."""
    _, engine = instrumented_run("bfs/tiny/tyr/default",
                                 record_trace=True)
    trace = engine.trace
    assert len(trace.edges) == 8705
    inputs = {}
    for src, dst in trace.edges:
        inputs.setdefault(dst, []).append(src)
    last_allocate = {}
    for event in trace.events:
        if event.op != "allocate":
            continue
        key = (event.node_id, event.tag)
        previous = last_allocate.get(key, -1)
        assert all(src > previous
                   for src in inputs.get(event.event_id, ())), event
        last_allocate[key] = event.event_id


def _static_flows(graph):
    """(producer node, consumer node) pairs a token can travel: the
    graph's edges, every route-table destination, and -- since an
    allocate's late control firing forwards its ready token and
    records no event -- each ready-token producer of an allocate to
    that allocate's control consumers."""
    flows = set()
    ready_producers = {}
    for nd in graph.nodes:
        dests = [d for port in nd.out_edges for d in port]
        for table_dests in (nd.attrs.get("route_table") or {}).values():
            dests += list(table_dests)
        for dest, port in dests:
            flows.add((nd.node_id, dest))
            if graph.nodes[dest].op is Op.ALLOCATE and port == 1:
                ready_producers.setdefault(dest, []).append(nd.node_id)
    for alloc, producers in ready_producers.items():
        for dest, _ in graph.nodes[alloc].out_edges[1]:
            flows.update((p, dest) for p in producers)
    return flows


@pytest.mark.parametrize("key", pin_keys())
def test_every_trace_edge_follows_a_static_flow(key):
    _, engine = instrumented_run(key, record_trace=True)
    flows = _static_flows(engine.graph)
    events = engine.trace.events
    stray = [(src, dst) for src, dst in engine.trace.edges
             if (events[src].node_id, events[dst].node_id) not in flows]
    assert not stray


@pytest.mark.parametrize("key", ["bfs/tiny/tyr/default",
                                 "tc/tiny/unordered/default",
                                 "tc/tiny/tyr/load_latency=6"])
def test_every_token_source_is_consumed(key):
    """After a completed traced run no producer is left waiting for a
    consumer: every emitted token became an edge or was consumed by
    an allocate control firing."""
    result, engine = instrumented_run(key, record_trace=True)
    assert result.completed
    assert not engine._producers
