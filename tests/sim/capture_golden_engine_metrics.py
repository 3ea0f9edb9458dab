"""Regenerate ``golden_engine_metrics.json`` (engine-equivalence oracle).

The golden file pins the exact metrics (cycles, instructions, peak and
mean live state, declared results, tag-pool statistics) that the
tagged and queued engines produced at the seed commit, for every
workload in :mod:`repro.workloads.registry` under every tagged policy.
The equivalence suite (``test_engine_equivalence.py``) replays the
same runs and asserts bit-identical numbers, so hot-path rewrites of
the engines cannot silently change simulated behavior.

Only regenerate this file from an engine state known to be
semantically correct (originally: seed commit b70ce7e), never to make
a failing equivalence test pass::

    PYTHONPATH=src python tests/sim/capture_golden_engine_metrics.py
"""

from __future__ import annotations

import json
import os

from repro.workloads.registry import (
    EXTRA_WORKLOADS,
    WORKLOAD_NAMES,
    build_workload,
)

#: Every registered workload, at the scale used for the golden runs.
GOLDEN_RUNS = (
    [(name, "tiny") for name in WORKLOAD_NAMES + EXTRA_WORKLOADS]
    + [("dmv", "small"), ("smv", "small")]
)

#: ``large``-scale equivalence pins (PR 3): every engine must stay
#: bit-identical at sweep scale, not just on tiny inputs.  These
#: replay in a few seconds but are marked ``slow`` in the equivalence
#: suite so they are opt-in locally and exercised in CI.  ``dconv`` is
#: excluded: its large configuration legitimately deadlocks under
#: k-bounding (the paper's point), so it cannot run on every machine.
GOLDEN_LARGE_RUNS = (
    ("dmv", "large"),
    ("smv", "large"),
    ("bfs", "large"),
)

#: Tagged policies under test plus the queued (ordered) engine.
GOLDEN_MACHINES = ("tyr", "unordered", "kbounded", "ordered")

#: Window-engine machines (vn/ooo/seqdf) and the data-parallel
#: machine, pinned before the PR 2 hot-path rewrite of
#: :mod:`repro.sim.window.engine`.
GOLDEN_WINDOW_MACHINES = ("vn", "ooo", "seqdf", "datapar")

#: Non-default engine configurations that must also stay identical.
GOLDEN_VARIANTS = (
    {"sample_traces": False},
    {"track_occupancy": True},
    {"load_latency": 6},
)

#: Variants exercised on the window/data-parallel machines
#: (``track_occupancy`` only instruments the tagged wait-match store).
GOLDEN_WINDOW_VARIANTS = (
    {"sample_traces": False},
    {"load_latency": 6},
)

#: Both load-timing models on a workload whose every machine issues
#: scalar loads (dmv's datapar run vectorizes all of them): the
#: ``load_latency`` hash and the stateful cache model, pinned on every
#: golden machine before the engines shared one timed LOAD body.
GOLDEN_TIMED_RUN = ("smv", "tiny")
GOLDEN_TIMED_VARIANTS = (
    {"load_latency": 6},
    {"cache": "line=4,miss=60,l1=4x2x1"},
)

#: Window-geometry variants (seqdf only: vn/ooo pin their own
#: window/width in the runner; datapar takes lanes from issue_width).
GOLDEN_SEQDF_VARIANTS = (
    {"window": 2},
    {"window": 4, "issue_width": 8},
    {"issue_width": 4},
)

OUT = os.path.join(os.path.dirname(__file__),
                   "golden_engine_metrics.json")


def run_key(name, scale, machine, variant):
    parts = [name, scale, machine]
    parts += [f"{k}={v}" for k, v in sorted(variant.items())]
    return "/".join(parts)


def describe(result):
    rec = {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "peak_live": result.peak_live,
        "mean_live": result.mean_live,
        "results": list(result.extra["declared_results"]),
    }
    if "pool_stats" in result.extra:
        rec["pool_stats"] = sorted(
            [s.name, s.capacity, s.peak_in_use, s.total_allocations]
            for s in result.extra["pool_stats"]
        )
        rec["leftover_tags_in_use"] = (
            result.extra["leftover_tags_in_use"]
        )
    if result.extra.get("peak_store_occupancy"):
        rec["peak_store_occupancy"] = dict(
            sorted(result.extra["peak_store_occupancy"].items())
        )
    if "fetch_stall_decider_cycles" in result.extra:
        rec["fetch_stall_decider_cycles"] = (
            result.extra["fetch_stall_decider_cycles"]
        )
        rec["fetch_stall_window_cycles"] = (
            result.extra["fetch_stall_window_cycles"]
        )
    if "cache" in result.extra:
        rec["cache"] = [
            [lvl["name"], lvl["loads"], lvl["load_hits"],
             lvl["stores"], lvl["store_hits"]]
            for lvl in result.extra["cache"]["levels"]
        ]
    return rec


def large_keys():
    """Golden keys belonging to the ``large``-scale (slow) runs."""
    return {
        run_key(name, scale, machine, {})
        for name, scale in GOLDEN_LARGE_RUNS
        for machine in GOLDEN_MACHINES + GOLDEN_WINDOW_MACHINES
    }


def capture_large():
    """Replay only the ``large``-scale golden runs."""
    golden = {}
    for name, scale in GOLDEN_LARGE_RUNS:
        wl = build_workload(name, scale)
        for machine in GOLDEN_MACHINES + GOLDEN_WINDOW_MACHINES:
            res = wl.run_checked(machine)
            golden[run_key(name, scale, machine, {})] = describe(res)
    return golden


def capture(include_large=True):
    golden = {}
    if include_large:
        golden.update(capture_large())
    for name, scale in GOLDEN_RUNS:
        wl = build_workload(name, scale)
        for machine in GOLDEN_MACHINES + GOLDEN_WINDOW_MACHINES:
            res = wl.run_checked(machine)
            golden[run_key(name, scale, machine, {})] = describe(res)
    # Variant configurations on one representative workload each.
    wl = build_workload("dmv", "tiny")
    for machine in GOLDEN_MACHINES:
        for variant in GOLDEN_VARIANTS:
            if machine == "ordered" and "track_occupancy" in variant:
                continue  # queued engine has no wait-match store
            res, mem = wl.run(machine, **variant)
            golden[run_key("dmv", "tiny", machine, variant)] = (
                describe(res)
            )
    for machine in GOLDEN_WINDOW_MACHINES:
        for variant in GOLDEN_WINDOW_VARIANTS:
            res, mem = wl.run(machine, **variant)
            golden[run_key("dmv", "tiny", machine, variant)] = (
                describe(res)
            )
    for variant in GOLDEN_SEQDF_VARIANTS:
        res, mem = wl.run("seqdf", **variant)
        golden[run_key("dmv", "tiny", "seqdf", variant)] = (
            describe(res)
        )
    name, scale = GOLDEN_TIMED_RUN
    wl = build_workload(name, scale)
    for machine in GOLDEN_MACHINES + GOLDEN_WINDOW_MACHINES:
        for variant in GOLDEN_TIMED_VARIANTS:
            res = wl.run_checked(machine, **variant)
            golden[run_key(name, scale, machine, variant)] = (
                describe(res)
            )
    return golden


if __name__ == "__main__":
    golden = capture()
    with open(OUT, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} golden records to {OUT}")
