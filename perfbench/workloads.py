"""The benchmark's three sweep workloads, generated from one seed.

A workload is a stream of *ops*. One op is one sweep a user submits:
a list of runs (workload instance x machine x config) that the client
hands to the harness in one call and waits for. Ops come in *passes*;
every pass covers the workload's whole op mix once, in a seeded order,
so a run that measures whole passes always measures the same mix.

Inputs come only from ``build_workload(..., seed=)``; the data seeds,
the op order and the fresh configs of ``resweep-warm`` are all derived
from the benchmark seed, so the same seed gives the same ops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Documented default seed, used while writing a change.
DEFAULT_SEED = 1
#: Held-out seed: confirm a claim on it after the change is written.
HELD_OUT_SEED = 7919

SCALE = "default"
#: Table II apps (the paper's seven).
APPS = ("dmv", "dmm", "dconv", "smv", "spmspv", "spmspm", "tc")
#: The paper's five systems plus the data-parallel machine, so all
#: four engine families (window, queued, tagged, vector) run.
MATRIX_MACHINES = ("vn", "seqdf", "ordered", "unordered", "tyr",
                   "datapar")
MATRIX_CONFIG = {"tags": 64, "sample_traces": True}

#: ext-locality's irregular apps and their minimal TYR tag counts.
LOCALITY_APPS = ("smv", "spmspv", "tc")
LOCALITY_TYR_TAGS = {"smv": 4, "spmspv": 4, "tc": 64}
LOCALITY_MACHINES = ("tyr", "unordered")
LOCALITY_CACHES = tuple(f"line=4,miss=60,l1={sets}x2x1"
                        for sets in (4, 8, 16, 32))

#: Tag counts for resweep-warm's fresh (missing) configs; the filled
#: cache holds only tags=64, so every one of these is new.
FRESH_TAGS = (80, 96, 112, 128, 160, 192)
#: Positions in a resweep-warm pass whose op also carries fresh specs.
FRESH_POSITIONS = (2, 5)
FRESH_PER_OP = 2


@dataclass(frozen=True)
class Run:
    """One spec before it is built: an instance key plus machine and
    run config. ``data_seed`` selects the instance."""

    app: str
    data_seed: int
    machine: str
    config: Tuple[Tuple[str, object], ...]

    def kwargs(self) -> Dict[str, object]:
        return dict(self.config)


@dataclass
class Op:
    """One submitted sweep. ``runs`` use instances built in set-up;
    ``fresh`` runs need an instance built when the op is submitted."""

    kind: str
    runs: List[Run]
    fresh: List[Run] = field(default_factory=list)

    def all_runs(self) -> List[Run]:
        return self.runs + self.fresh


def _run(app, data_seed, machine, config) -> Run:
    return Run(app, data_seed, machine, tuple(sorted(config.items())))


def _matrix_op(app: str, data_seed: int) -> Op:
    return Op(app, [_run(app, data_seed, m, MATRIX_CONFIG)
                    for m in MATRIX_MACHINES])


class Workload:
    """Base: ``passes`` of ops over instances built in set-up."""

    name = ""
    #: Whether ops go through a result cache.
    cached = False
    #: Passes whose distinct specs (with the fill ops') define the
    #: simulated metrics (``sim_cycles_gmean`` ...); every run measures
    #: at least these, and at least one pass.
    mix_passes = 1
    #: Print the modelled Fig. 12 cycle ratios as context.
    fig12_context = False

    def __init__(self, seed: int):
        self.seed = seed

    def _order(self, items, p: int) -> list:
        items = list(items)
        random.Random(f"{self.name}/{self.seed}/order/{p}").shuffle(items)
        return items

    def data_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def instances(self) -> List[Tuple[str, int]]:
        """(app, data seed) pairs built in set-up."""
        raise NotImplementedError

    def fill_ops(self) -> List[Op]:
        """Ops run in set-up to fill the result cache."""
        return []

    def pass_ops(self, p: int) -> List[Op]:
        raise NotImplementedError


class PaperMatrix(Workload):
    """Table II apps on all four engine families with traces on: the
    engines and the trace recorder do the work; the cache model and
    the result cache are bypassed."""

    name = "paper-matrix"
    #: Data sets per app; pass p uses data set p % DATA_SETS.
    DATA_SETS = 2
    mix_passes = DATA_SETS
    fig12_context = True

    def instances(self):
        return [(app, self.data_seed(d)) for d in range(self.DATA_SETS)
                for app in APPS]

    def pass_ops(self, p):
        ds = self.data_seed(p % self.DATA_SETS)
        return [_matrix_op(app, ds) for app in self._order(APPS, p)]


class LocalityL1(Workload):
    """ext-locality's L1-size sweeps with traces off: the cache-hierarchy
    model does the work that paper-matrix bypasses."""

    name = "locality-l1"
    DATA_SETS = 2
    mix_passes = DATA_SETS

    def instances(self):
        return [(app, self.data_seed(d)) for d in range(self.DATA_SETS)
                for app in LOCALITY_APPS]

    def pass_ops(self, p):
        ds = self.data_seed(p % self.DATA_SETS)
        ops = []
        for app, machine in self._order(
                [(a, m) for a in LOCALITY_APPS
                 for m in LOCALITY_MACHINES], p):
            extra = ({"tags": LOCALITY_TYR_TAGS[app]}
                     if machine == "tyr" else {})
            ops.append(Op(f"{app}/{machine}", [
                _run(app, ds, machine,
                     {"cache": spec, "sample_traces": False, **extra})
                for spec in LOCALITY_CACHES]))
        return ops


class ResweepWarm(Workload):
    """Re-submitted paper-matrix sweeps against a result cache filled in
    set-up, ~9 in 10 specs hit: cache get/put and pool dispatch do the
    work, the engines only run the fresh specs."""

    name = "resweep-warm"
    cached = True
    #: The mix is the filled sweeps; fresh specs differ in app and tags
    #: from seed to seed and are left out of the simulated metrics.
    mix_passes = 0

    def instances(self):
        return [(app, self.data_seed(0)) for app in APPS]

    def fill_ops(self):
        return [_matrix_op(app, self.data_seed(0)) for app in APPS]

    def pass_ops(self, p):
        ops = []
        for i, app in enumerate(self._order(APPS, p)):
            op = _matrix_op(app, self.data_seed(0))
            if i in FRESH_POSITIONS:
                # Fresh data seed per op (never repeated in a run) and
                # tag counts the filled cache does not hold: all miss.
                j = p * len(FRESH_POSITIONS) + FRESH_POSITIONS.index(i)
                rng = random.Random(f"{self.name}/{self.seed}/fresh/{j}")
                ds = self.data_seed(1 + j)
                op.fresh = [_run(app, ds, "tyr",
                                 dict(MATRIX_CONFIG, tags=tags))
                            for tags in rng.sample(FRESH_TAGS,
                                                   FRESH_PER_OP)]
                op.kind = app + "+fresh"
            ops.append(op)
        return ops


WORKLOADS = {cls.name: cls for cls in (PaperMatrix, LocalityL1,
                                        ResweepWarm)}
