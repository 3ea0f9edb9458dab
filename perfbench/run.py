"""The repository benchmark: closed-loop sweeps through the harness.

Run from the repository root::

    python3 perfbench/run.py --workload paper-matrix --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: it starts cold
set-up-only processes plus one measuring process (each a fresh
interpreter, see ``child.py``) and reports ``setup_s`` as the median
of their set-up times. ``--trace 1`` gives the per-layer metrics: an
untraced run (for the pool's run-log numbers) and a traced in-process
run, each for half of ``--seconds``; the spans land in
``perfbench/out/spans-<workload>-seed<seed>.jsonl``.

Every metric is printed by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--out FILE`` also appends the result to
a JSON-lines file that ``compare.py`` reads. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Cold set-ups per end-to-end run (the measuring process is one).
SETUP_SAMPLES = 3
#: Every child must finish within this many seconds of the start.
BUDGET_S = 170.0
#: Paper Fig. 12 gmean speedups of TYR (context only; see README.md).
PAPER_FIG12 = {"vn": 68.0, "seqdf": 22.7, "ordered": 21.7,
               "unordered": 0.77}


class BenchError(Exception):
    pass


def spawn(args, deadline):
    """Run one ``child.py``; returns (seconds from start to ``READY``,
    parsed JSON payload or None)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py")] + args
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    ready = []
    lines = []

    def read():
        for line in proc.stdout:
            if line.strip() == "READY" and not ready:
                ready.append(time.perf_counter() - t0)
            elif line.strip():
                lines.append(line)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[:6]} exceeded the time budget")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join()
        proc.stdout.close()
    if proc.returncode != 0 or not ready:
        raise BenchError(f"child {args[:6]} failed "
                         f"(exit code {proc.returncode})")
    return ready[0], json.loads(lines[-1]) if lines else None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def child_args(args, mode, work, seconds=0.0):
    return ["--workload", args.workload, "--seed", str(args.seed),
            "--mode", mode, "--work", work,
            "--seconds", repr(seconds)]


def measure_e2e(args, work, deadline):
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        ready, _ = spawn(child_args(args, "setup",
                                    os.path.join(work, f"setup{i}")),
                         deadline)
        setups.append(ready)
    ready, out = spawn(child_args(args, "run", os.path.join(work, "run"),
                                  args.seconds), deadline)
    setups.append(ready)
    values = dict(out["metrics"], setup_s=statistics.median(setups))
    info = dict(out["info"], setup_samples=setups)
    return values, info, [out]


def layer_metrics(run_info, t):
    """Per-layer metric values from the untraced run's run-log numbers
    and the traced run's spans."""
    ops, setup = t["op_table"], t["setup_table"]

    def med(table, name):
        return table.get(name, {}).get("median_s", 0.0)

    def frac(table, name):
        return table.get(name, {}).get("self_frac", 0.0)

    values = {}
    for layer in ("workloads.build", "frontend.lower",
                  "compiler.elaborate", "compiler.flatten",
                  "codegen.kernels"):
        values[layer + "_s"] = med(setup, layer)
        values[layer + ".self_frac"] = frac(setup, layer)
    values["codegen.kernels_built"] = t["kernels_built"]
    values["harness.pool.precompile_s"] = run_info["precompile_s"]
    values["harness.pool.precompile.self_frac"] = frac(
        setup, "harness.pool.precompile")
    for family in ("tagged", "queued", "window", "vector"):
        fam = t["families"].get(family, {})
        values[f"sim.{family}.run_s"] = fam.get("run_s", 0.0)
        values[f"sim.{family}.instrs_per_s"] = fam.get("instrs_per_s",
                                                       0.0)
        values[f"sim.{family}.run.self_frac"] = frac(
            ops, f"sim.{family}.run")
    values["sim.cache.loads"] = t["l1_loads"]
    values["sim.cache.l1_hit_rate"] = t["l1_hit_rate"]
    values["sim.cache.l1_mpki"] = t["l1_mpki"]
    values["sim.metrics.result_bytes"] = t["result_bytes"]
    values["sim.metrics.pickle_s"] = med(ops, "sim.metrics.pickle")
    values["sim.metrics.pickle.self_frac"] = frac(ops,
                                                  "sim.metrics.pickle")
    pool = run_info["pool"]
    for name, key in (("queue_wait_s", "queue_wait_s"),
                      ("worker_busy_frac", "busy_frac"),
                      ("overhead_s", "overhead_s")):
        values["harness.pool." + name] = (statistics.median(pool[key])
                                          if pool[key] else 0.0)
    for op in ("key", "get", "put"):
        values[f"harness.cache.{op}_s"] = med(ops, f"harness.cache.{op}")
        values[f"harness.cache.{op}.self_frac"] = frac(
            ops, f"harness.cache.{op}")
    hits, misses = t["cache_hits"], t["cache_misses"]
    values["harness.cache.hits"] = hits
    values["harness.cache.misses"] = misses
    values["harness.cache.hit_ratio"] = (hits / (hits + misses)
                                         if hits + misses else 0.0)
    values["workloads.check_s"] = med(ops, "workloads.check")
    values["workloads.check.self_frac"] = frac(ops, "workloads.check")
    values["bench.op.self_frac"] = frac(ops, "op")
    values["trace.overhead_s"] = t["overhead_s"]
    values["trace.overhead_frac"] = t["overhead_frac"]
    return values


def measure_layers(args, work, deadline):
    half = args.seconds / 2.0
    _, run_out = spawn(child_args(args, "run", os.path.join(work, "run"),
                                  half), deadline)
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}"
                              ".jsonl")
    _, tr_out = spawn(child_args(args, "traced",
                                 os.path.join(work, "traced"), half)
                      + ["--spans", spans], deadline)
    values = layer_metrics(run_out["info"], tr_out["info"])
    info = {"spans": os.path.relpath(spans, ROOT),
            "op_table": tr_out["info"]["op_table"],
            "setup_table": tr_out["info"]["setup_table"]}
    return values, info, [run_out, tr_out]


def print_table(title, table):
    print(f"  {title}: self time per layer")
    print(f"    {'layer':28} {'calls':>6} {'median ms':>10} "
          f"{'self s':>8} {'share':>7}")
    for name, row in sorted(table.items(),
                            key=lambda kv: -kv[1]["self_s"]):
        print(f"    {name:28} {row['calls']:6d} "
              f"{1000 * row['median_s']:10.3f} {row['self_s']:8.3f} "
              f"{row['self_frac']:7.1%}")


def report(args, values, units, info, attempted, failed):
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  seconds {args.seconds:g}")
    for name, value in values.items():
        print(f"  {name:36} {value:.6g} {units[name]}")
    print(f"  {'error_rate':36} {failed / attempted:.6g} "
          f"failed/attempted ({failed}/{attempted} specs)")
    if args.trace == 0:
        print(f"  sweep_latency_tail_s is p{info['tail_percentile']:.1f}"
              f" of {info['ops']} ops ({info['passes']} passes); "
              f"setup samples {['%.3f' % s for s in info['setup_samples']]}")
        if info["l1_hit_rate"] is not None:
            print(f"  {'l1_hit_rate':36} {info['l1_hit_rate']:.6g} "
                  f"load hits/loads (simulated, {info['mix_specs']} "
                  f"specs)")
        if info["hits"]:
            print(f"  result-cache hits {info['hits']}/{info['specs']} "
                  f"specs ({info['hits'] / info['specs']:.1%})")
        ratios = info.get("fig12_ratios")
        if ratios:
            print("  context only -- the model is not validated against "
                  "hardware; no error figure is implied:")
            for machine, ratio in ratios.items():
                print(f"    modelled cycles {machine}/tyr {ratio:.3g}x "
                      f"(paper Fig. 12: {PAPER_FIG12[machine]}x)")
    else:
        print_table("set-up", info["setup_table"])
        print_table("ops (traced ops only)", info["op_table"])
        print(f"  tracing overhead {values['trace.overhead_s']:.4g} s "
              f"per op ({values['trace.overhead_frac']:+.2%}); "
              f"spans in {info['spans']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the result to this JSON-lines "
                                  "file (for compare.py)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"error: no repro sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    e2e, layers = load_spec()
    deadline = time.monotonic() + BUDGET_S
    work = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        measure = measure_layers if args.trace else measure_e2e
        values, info, outs = measure(args, work, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = layers if args.trace else e2e
    missing = set(names) - set(values)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}",
              file=sys.stderr)
        return 1
    values = {name: values[name] for name in names}
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    for o in outs:
        for err in o["errors"]:
            print(f"  failure: {err}", file=sys.stderr)
    report(args, values, {n: m["unit"] for n, m in names.items()}, info,
           attempted, failed)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value,
                                 "unit": names[name]["unit"]}
                          for name, value in values.items()}}
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload,
                                 "seed": args.seed, "trace": args.trace,
                                 "seconds": args.seconds,
                                 "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
