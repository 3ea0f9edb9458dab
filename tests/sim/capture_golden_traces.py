"""Regenerate ``golden_traces.json`` (trace and occupancy pins).

The engine-metrics goldens pin what a run computes; this file pins
what the tagged interpreter's instrumentation *records*: the dynamic
execution graph of ``record_trace`` (every event and every token edge,
in order, folded into one digest) and the per-tag-space
``peak_store_occupancy`` of ``track_occupancy``, across workloads,
tag policies, and the two delay models (hashed ``load_latency`` and
the stateful cache hierarchy). Each record comes from one run with
both instrumentation modes on, so the pins also cover their
composition.

Only regenerate this file from an engine state known to record
correct traces, never to make a failing pin pass::

    PYTHONPATH=src python tests/sim/capture_golden_traces.py
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.sim.cache import CacheConfig, CacheModel
from repro.sim.tagged import (
    KBoundedPolicy,
    TaggedEngine,
    TyrPolicy,
    UnboundedGlobalPolicy,
)
from repro.workloads.registry import build_workload

PIN_WORKLOADS = ("dmv", "smv", "bfs", "tc")

#: Machine name -> tag policy factory (tyr at 4 tags so the pools
#: actually throttle; kbounded at the runner's default).
PIN_POLICIES = {
    "tyr": lambda: TyrPolicy(4),
    "unordered": UnboundedGlobalPolicy,
    "kbounded": lambda: KBoundedPolicy(64),
}

#: Variant name -> engine options (``cache`` is a spec string).
PIN_VARIANTS = {
    "default": {},
    "load_latency=6": {"load_latency": 6},
    "cache": {"cache": "line=4,miss=60,l1=8x2x1"},
}

OUT = os.path.join(os.path.dirname(__file__), "golden_traces.json")


def pin_keys():
    return [f"{name}/tiny/{machine}/{variant}"
            for name in PIN_WORKLOADS
            for machine in PIN_POLICIES
            for variant in PIN_VARIANTS]


def instrumented_run(key, **flags):
    """Run pin ``key`` on a directly built :class:`TaggedEngine`
    (``flags`` are its instrumentation options); returns
    ``(result, engine)``."""
    name, scale, machine, variant = key.split("/")
    wl = build_workload(name, scale)
    options = dict(PIN_VARIANTS[variant])
    memory = wl.fresh_memory()
    spec = options.pop("cache", None)
    if spec is not None:
        options["cache"] = CacheModel(CacheConfig.coerce(spec), memory)
    engine = TaggedEngine(wl.compiled.tagged, memory,
                          PIN_POLICIES[machine](), **options, **flags)
    result = engine.run(wl.compiled.entry_args(wl.args))
    return result, engine


def trace_digest(trace):
    """SHA-256 over every event and every edge of ``trace``, in
    recording order."""
    h = hashlib.sha256()
    for e in trace.events:
        h.update(repr((e.event_id, e.cycle, e.node_id, e.block, e.op,
                       e.tag)).encode())
    h.update(repr(trace.edges).encode())
    return h.hexdigest()


def describe(key):
    result, engine = instrumented_run(key, record_trace=True,
                                      track_occupancy=True)
    assert result.completed, key
    return {
        "events": len(engine.trace.events),
        "edges": len(engine.trace.edges),
        "trace_sha256": trace_digest(engine.trace),
        "peak_store_occupancy": dict(
            sorted(result.extra["peak_store_occupancy"].items())),
    }


def capture():
    return {key: describe(key) for key in pin_keys()}


if __name__ == "__main__":
    golden = capture()
    with open(OUT, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} trace pins to {OUT}")
