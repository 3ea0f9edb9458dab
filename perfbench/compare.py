"""Compare two result sets of the benchmark, one row per workload.

Each result set is a JSON-lines file that ``run.py --out FILE`` appends
to (one record per ``--trace 0`` run). Run the parent commit and the
change with the same ``--seconds`` and the same seeds, alternating
which side runs first, then::

    python3 perfbench/compare.py base.jsonl change.jsonl

For every end-to-end metric the table shows each side's median and
quartiles, the change/base ratio next to the base value, and the
fraction of seed-matched pairs the change won (ties count for
neither). The verdict follows the rule the benchmark is built on:

``better``      the change won at least 9 in 10 pairs and the medians
                differ by more than the base's inter-quartile distance;
``worse``       the change's median is worse than the base's by more
                than the metric's bound in ``BENCHMARK.json``;
``unresolved``  a side's run-to-run spread (IQR / median) is wider than
                the bound, unless every change run beats every base run;
``same``        otherwise: no worse than the bound allows.

Exits 1 when any metric is ``worse`` or a run reported wrong outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import quartiles, spread  # noqa: E402

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def load(path):
    """workload -> metric -> [(seed, value)] plus the failed-run count."""
    runs = defaultdict(lambda: defaultdict(list))
    bad = 0
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"] != 0:
                continue
            bad += not rec["result"]["correct"]
            for name, m in rec["result"]["metrics"].items():
                runs[rec["workload"]][name].append((rec["seed"],
                                                    m["value"]))
    return runs, bad


def pairs(base, change):
    """Seed-matched (base, change) value pairs, in run order."""
    pending = defaultdict(list)
    for seed, value in base:
        pending[seed].append(value)
    out = []
    for seed, value in change:
        if pending[seed]:
            out.append((pending[seed].pop(0), value))
    return out


def verdict(base, change, bound, higher):
    b = [v for _, v in base]
    c = [v for _, v in change]
    sign = 1.0 if higher else -1.0
    matched = pairs(base, change)
    wins = sum(sign * (cv - bv) > 0 for bv, cv in matched)
    won = wins / len(matched) if matched else None
    bq1, bmed, bq3 = quartiles(b)
    cmed = quartiles(c)[1]
    if sign * (cmed - bmed) < -bound * abs(bmed):
        return "worse", won
    if spread(b) > bound or spread(c) > bound:
        if min(sign * v for v in c) > max(sign * v for v in b):
            return "better", won
        return "unresolved", won
    if (won is not None and won >= WIN_SHARE
            and abs(cmed - bmed) > bq3 - bq1 and sign * (cmed - bmed) > 0):
        return "better", won
    return "same", won


def _fmt(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    base, base_bad = load(args.base)
    change, change_bad = load(args.change)
    status = 0
    if base_bad or change_bad:
        print(f"runs with wrong outputs: base {base_bad}, "
              f"change {change_bad}")
        status = 1
    for workload in sorted(set(base) | set(change)):
        print(f"\n{workload}")
        print(f"  {'metric':22} {'base median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'change/base':>12} "
              f"{'won':>6}  verdict")
        for m in metrics:
            b = base[workload].get(m["name"])
            c = change[workload].get(m["name"])
            if not b or not c:
                print(f"  {m['name']:22} missing on one side")
                continue
            result, won = verdict(b, c, m["bound"],
                                  m["better"] == "higher")
            status |= result == "worse"
            bq = quartiles([v for _, v in b])
            cq = quartiles([v for _, v in c])
            ratio = cq[1] / bq[1] if bq[1] else float("nan")
            shown = "n/a" if won is None else f"{won:.0%}"
            print(f"  {m['name']:22} {_fmt(bq):>34} {_fmt(cq):>34} "
                  f"{ratio:7.3f}x of {bq[1]:.4g} {m['unit']} "
                  f"{shown:>6}  {result} (bound {m['bound']:.0%}, "
                  f"runs {len(b)}/{len(c)})")
    return status


if __name__ == "__main__":
    sys.exit(main())
