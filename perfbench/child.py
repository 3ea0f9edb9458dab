"""One measurement process: cold set-up, then a closed loop of ops.

``run.py`` starts this script in a fresh interpreter so set-up starts
from a cold process (no lowered programs, no compiled kernels, an
empty result cache). It prints ``READY`` once set-up is done and, in
the ``run`` and ``traced`` modes, one JSON line with its measurements
when the loop ends::

    python3 perfbench/child.py --workload paper-matrix --seed 1 \\
        --mode run --seconds 30 --work perfbench/out/tmp

Modes:

``setup``   set up and exit (a set-up time sample).
``run``     untraced: every op goes through ``run_specs`` with
            ``jobs=2``; pool numbers come from each op's run log.
``traced``  in-process (``jobs=1``): the client calls each layer's
            public functions itself, inside spans; every other op
            runs with tracing off, to measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pickle
import resource
import statistics
import sys
import time
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import gmean, tail  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import SCALE, WORKLOADS  # noqa: E402

from repro.harness.cache import ResultCache  # noqa: E402
from repro.harness.pool import (  # noqa: E402
    RunOptions,
    cache_key,
    precompile_specs,
    run_specs,
    spec_for,
)
from repro.harness.runlog import RunLog  # noqa: E402
from repro.harness.runner import KERNEL_FAMILY  # noqa: E402
from repro.workloads import build_workload  # noqa: E402

#: One client, two workers: the machine has two cores.
JOBS = 2
#: Wall-clock bound per spec; a hang counts as a failed spec.
SPEC_TIMEOUT_S = 30.0
#: Kernel family -> engine layer name.
SIM_LAYER = {"tagged": "tagged", "flat": "queued", "window": "window",
             "vector": "vector"}


def sim_stats(result):
    """Simulated statistics that must repeat exactly for one spec."""
    cache = result.extra.get("cache")
    l1 = cache["levels"][0] if cache else None
    return (result.cycles, result.instructions, result.peak_live,
            l1["loads"] if l1 else None, l1["load_hits"] if l1 else None)


class Session:
    """Set-up state and the op loop shared by both measuring modes."""

    def __init__(self, workload, work_dir: str, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.instances = {}
        self.cache = (ResultCache(os.path.join(work_dir, "results"))
                      if workload.cached else None)
        self.seen = {}
        self.mix = {}
        self.attempted = self.failed = self.nondeterministic = 0
        self.errors = []
        self.precompile_s = None

    # -- set-up --------------------------------------------------------
    def setup_runs(self):
        ops = list(self.wl.fill_ops())
        for p in range(self.wl.mix_passes):
            ops += self.wl.pass_ops(p)
        return [run for op in ops for run in op.runs]

    def machines_by_instance(self):
        machines = defaultdict(set)
        for run in self.setup_runs():
            machines[(run.app, run.data_seed)].add(run.machine)
        return machines

    def setup(self):
        """Untraced set-up: build every instance, then precompile the
        whole op mix the way ``run_specs`` does before it forks."""
        for app, ds in self.wl.instances():
            self.instances[(app, ds)] = build_workload(app, SCALE,
                                                       seed=ds)
        specs = [self.spec(run) for run in self.setup_runs()]
        t0 = time.perf_counter()
        precompile_specs(specs)
        self.precompile_s = time.perf_counter() - t0
        for op in self.wl.fill_ops():
            self.run_op(op, in_mix=True)

    def spec(self, run, fresh=None):
        return spec_for(self.instance(run, fresh), run.machine,
                        run.kwargs())

    def instance(self, run, fresh=None):
        key = (run.app, run.data_seed)
        inst = self.instances.get(key)
        return inst if inst is not None else fresh[key]

    # -- accounting ----------------------------------------------------
    def observe(self, spec, result, in_mix: bool) -> None:
        self.attempted += 1
        if isinstance(result, BaseException):
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(result).__name__}: "
                                   f"{str(result)[:300]}")
            return
        stats = sim_stats(result)
        prev = self.seen.setdefault(spec, stats)
        if prev != stats:
            self.nondeterministic += 1
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"nondeterministic: {spec.describe()}"
                                   f" {prev} != {stats}")
        if in_mix:
            self.mix[spec] = stats

    # -- untraced ops --------------------------------------------------
    def run_op(self, op, in_mix: bool):
        """Submit one sweep through the harness and wait for it."""
        buf = io.StringIO()
        opts = RunOptions(timeout=SPEC_TIMEOUT_S, run_log=RunLog(buf))
        t0 = time.perf_counter()
        fresh = {(r.app, r.data_seed): build_workload(r.app, SCALE,
                                                      seed=r.data_seed)
                 for r in op.fresh}
        specs = [self.spec(run, fresh) for run in op.all_runs()]
        results = run_specs(specs, jobs=JOBS, cache=self.cache,
                            tolerate=(Exception,), options=opts)
        wall = time.perf_counter() - t0
        events = [json.loads(line)
                  for line in buf.getvalue().splitlines()]
        hits = {e["index"] for e in events if e["event"] == "cache-hit"}
        instrs = 0
        for i, (spec, res) in enumerate(zip(specs, results)):
            self.observe(spec, res, in_mix)
            if i not in hits and not isinstance(res, BaseException):
                instrs += res.instructions
        return {"kind": op.kind, "wall": wall, "specs": len(specs),
                "hits": len(hits), "sim_instrs": instrs,
                "pool": pool_stats(events, wall)}

    # -- traced ops ----------------------------------------------------
    def build_traced(self, app, ds, machines):
        """Build and compile one instance, one span per layer call."""
        tr = self.tracer
        with tr.span("workloads.build"):
            inst = build_workload(app, SCALE, seed=ds)
        with tr.span("frontend.lower"):
            compiled = inst.compiled
        families = sorted({KERNEL_FAMILY[m] for m in machines})
        if "tagged" in families:
            with tr.span("compiler.elaborate"):
                compiled.tagged  # noqa: B018 -- force the lowering
        if "flat" in families:
            with tr.span("compiler.flatten"):
                compiled.flat  # noqa: B018 -- force the lowering
        for family in families:
            with tr.span("codegen.kernels"):
                compiled.kernels(family)
        return inst

    def setup_traced(self):
        tr = self.tracer
        with tr.span("setup"):
            machines = self.machines_by_instance()
            for app, ds in self.wl.instances():
                self.instances[(app, ds)] = self.build_traced(
                    app, ds, machines[(app, ds)])
            specs = [self.spec(run) for run in self.setup_runs()]
            with tr.span("harness.pool.precompile"):
                precompile_specs(specs)
            for op in self.wl.fill_ops():
                self.traced_op(op, in_mix=True)

    def traced_op(self, op, in_mix: bool, layers=None):
        """The in-process equivalent of one ``run_specs`` call, with a
        span around each layer call. ``layers`` collects counts."""
        tr = self.tracer
        t0 = time.perf_counter()
        with tr.span("op"):
            fresh = {}
            for run in op.fresh:
                key = (run.app, run.data_seed)
                if key not in fresh:
                    fresh[key] = self.build_traced(
                        run.app, run.data_seed,
                        {r.machine for r in op.fresh})
            for run in op.all_runs():
                self.traced_spec(self.instance(run, fresh), run, in_mix,
                                 layers)
        return time.perf_counter() - t0

    def traced_spec(self, inst, run, in_mix, layers):
        tr = self.tracer
        spec = spec_for(inst, run.machine, run.kwargs())
        key = None
        if self.cache is not None:
            with tr.span("harness.cache.key"):
                key = cache_key(spec)
            with tr.span("harness.cache.get"):
                hit = self.cache.get(key)
            if layers is not None:
                layers["cache_hits" if hit is not None
                       else "cache_misses"] += 1
            if hit is not None:
                self.observe(spec, hit, in_mix)
                return
        family = SIM_LAYER[KERNEL_FAMILY[run.machine]]
        try:
            with tr.span(f"sim.{family}.run") as span:
                result, memory = inst.run(run.machine, **run.kwargs())
            if span is not None:
                span.count = result.instructions
            with tr.span("workloads.check"):
                inst.check(memory, result.extra["declared_results"])
        except Exception as err:  # counted, like a failed pool spec
            self.observe(spec, err, in_mix)
            return
        self.observe(spec, result, in_mix)
        with tr.span("sim.metrics.pickle"):
            size = len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        if self.cache is not None:
            with tr.span("harness.cache.put"):
                self.cache.put(key, result)
        if layers is not None and tr.enabled:
            layers["result_bytes"].append(size)
            cstats = result.extra.get("cache")
            if cstats is not None:
                l1 = cstats["levels"][0]
                layers["l1_loads"] += l1["loads"]
                layers["l1_hits"] += l1["load_hits"]
                layers["l1_instrs"] += result.instructions


def pool_stats(events, wall):
    """Queue wait per spec, worker busy share and pool overhead for one
    op, from its run-log events (None when no spec reached the pool)."""
    queued = {e["index"]: e["t"] for e in events if e["event"] == "queued"}
    started = {}
    busy = defaultdict(float)
    for e in events:
        if e["event"] == "started":
            started.setdefault(e["index"], e["t"])
        elif e["event"] == "finished":
            busy[e["worker"]] += e["wall_s"]
    if not busy:
        return None
    return {"queue_wait": [started[i] - queued[i] for i in started
                           if i in queued],
            "busy_frac": sum(busy.values()) / (len(busy) * wall),
            "overhead": wall - max(busy.values())}


def loop(session, seconds, one_op):
    """Closed loop: whole passes until ``seconds`` have passed (and at
    least the workload's mix passes have run)."""
    wl = session.wl
    records = []
    end = time.perf_counter() + seconds
    p = 0
    while p < max(1, wl.mix_passes) or time.perf_counter() < end:
        for op in wl.pass_ops(p):
            rec = one_op(op, p < wl.mix_passes, len(records))
            rec["pass"] = p
            records.append(rec)
        p += 1
    return records


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def summarize_run(session, records):
    """End-to-end metrics of an untraced loop."""
    passes = defaultdict(lambda: [0.0, 0, 0])
    for r in records:
        acc = passes[r["pass"]]
        acc[0] += r["wall"]
        acc[1] += r["specs"]
        acc[2] += r["sim_instrs"]
    walls = [r["wall"] for r in records]
    tail_s, tail_pct = tail(walls)
    mix = list(session.mix.values())
    metrics = {
        "sim_instrs_per_s": statistics.median(
            a[2] / a[0] for a in passes.values()),
        "specs_per_s": statistics.median(
            a[1] / a[0] for a in passes.values()),
        "sweep_latency_p50_s": statistics.median(walls),
        "sweep_latency_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb(),
        "sim_cycles_gmean": gmean([s[0] for s in mix]),
        "peak_live_gmean": gmean([s[2] for s in mix]),
    }
    l1 = [s for s in mix if s[3] is not None]
    fig12 = {}
    if session.wl.fig12_context:
        cycles = defaultdict(dict)
        for spec, stats in session.mix.items():
            cycles[(spec.workload, spec.seed)][spec.machine] = stats[0]
        for machine in ("vn", "seqdf", "ordered", "unordered"):
            fig12[machine] = gmean([c[machine] / c["tyr"]
                                    for c in cycles.values()])
    pools = [r["pool"] for r in records if r["pool"]]
    info = {
        "ops": len(records), "passes": len(passes),
        "tail_percentile": tail_pct,
        "mix_specs": len(mix),
        "fig12_ratios": fig12,
        "l1_hit_rate": (sum(s[4] for s in l1) / sum(s[3] for s in l1)
                        if l1 else None),
        "hits": sum(r["hits"] for r in records),
        "specs": sum(r["specs"] for r in records),
        "pool": {
            "queue_wait_s": [w for p in pools for w in p["queue_wait"]],
            "busy_frac": [p["busy_frac"] for p in pools],
            "overhead_s": [p["overhead"] for p in pools],
        },
    }
    return metrics, info


def summarize_traced(session, records, layers):
    tr = session.tracer
    traced_ops = {r["index"] for r in records if r["traced"]}
    op_table = tr.layer_table("op", traced_ops)
    setup_table = tr.layer_table("setup")
    by_kind = defaultdict(lambda: ([], []))
    for r in records:
        by_kind[r["kind"]][r["traced"]].append(r["wall"])
    both = [(statistics.median(t), statistics.median(u))
            for u, t in by_kind.values() if t and u]
    family = {}
    for span in tr.spans:
        if (span.name.startswith("sim.") and span.name.endswith(".run")
                and span.op in traced_ops
                and tr.root_of(span).name == "op"):
            acc = family.setdefault(span.name[4:-4], [[], 0])
            acc[0].append(span.dur)
            acc[1] += span.count
    return {
        "op_table": op_table,
        "setup_table": setup_table,
        "overhead_s": (sum(t - u for t, u in both) / len(both)
                       if both else 0.0),
        "overhead_frac": (sum(t for t, _ in both)
                          / sum(u for _, u in both) - 1.0
                          if both else 0.0),
        "families": {name: {"run_s": statistics.median(durs),
                            "instrs_per_s": instrs / sum(durs)}
                     for name, (durs, instrs) in family.items()},
        "cache_hits": layers["cache_hits"],
        "cache_misses": layers["cache_misses"],
        "result_bytes": (statistics.median(layers["result_bytes"])
                         if layers["result_bytes"] else 0),
        "l1_loads": layers["l1_loads"],
        "l1_hit_rate": (layers["l1_hits"] / layers["l1_loads"]
                        if layers["l1_loads"] else 0.0),
        "l1_mpki": (1000.0 * (layers["l1_loads"] - layers["l1_hits"])
                    / layers["l1_instrs"]
                    if layers["l1_instrs"] else 0.0),
        # One codegen.kernels span per (program, family) built.
        "kernels_built": setup_table.get("codegen.kernels",
                                         {}).get("calls", 0),
        "ops": len(records),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "run", "traced"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans", help="file receiving the traced spans")
    args = ap.parse_args(argv)

    session = Session(WORKLOADS[args.workload](args.seed), args.work,
                      Tracer() if args.mode == "traced" else None)
    if args.mode == "traced":
        session.setup_traced()
    else:
        session.setup()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "run":
        records = loop(session, args.seconds,
                       lambda op, in_mix, k: session.run_op(op, in_mix))
        metrics, info = summarize_run(session, records)
        info["precompile_s"] = session.precompile_s
    else:
        layers = defaultdict(int, result_bytes=[])

        def one(op, in_mix, k):
            traced = k % 2 == 1
            session.tracer.enabled = traced
            session.tracer.op = k
            wall = session.traced_op(op, in_mix, layers)
            return {"kind": op.kind, "wall": wall, "traced": traced,
                    "index": k}

        records = loop(session, args.seconds, one)
        session.tracer.enabled = True
        metrics, info = {}, summarize_traced(session, records, layers)
        if args.spans:
            session.tracer.dump(args.spans)
    print(json.dumps({"metrics": metrics, "info": info,
                      "attempted": session.attempted,
                      "failed": session.failed,
                      "nondeterministic": session.nondeterministic,
                      "errors": session.errors}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
