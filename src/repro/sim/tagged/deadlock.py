"""Deadlock diagnosis for tagged dataflow (paper Fig. 11).

When a tagged machine quiesces with live tokens or pending allocations,
the engine raises :class:`repro.errors.DeadlockError` carrying a
:class:`DeadlockDiagnosis`. Beyond the raw occupancy dump (which
allocations were pending against which tag space, how each pool was
occupied, how many tokens were stranded), the diagnosis now embeds a
**wait-for graph** reconstructed at quiesce by :func:`analyze_deadlock`:

* ``alloc:<nid>@<tag>`` -- a pending tag allocation, waiting on a pool;
* ``pool:<name>`` -- a tag pool, waiting on the retirement of each tag
  it has handed out;
* ``ctx:<block>@<tag>`` -- a live context holding a tag, waiting on its
  own starved allocations (the free barrier joins them), on arguments
  from its allocator (if it was popped speculatively and its ready join
  has not fired), and on the results of contexts it spawned.

A cycle in this graph is the deadlock, reported edge by edge by
:meth:`DeadlockDiagnosis.explain`; when no cycle exists the reachable
*sink* contexts -- holders with no outstanding wait the allocation
rules know about -- are the starvation-without-cycle proof (the
signature of the ``drop="ready"`` ablation, where contexts received
tags before their inputs existed). The violated rule is classified
from the pools' ``honor_ready`` / ``honor_spare`` / ``gated`` flags,
which are authoritative: they are exactly what the ablation policies
toggle.

Every field is built from primitives (strings, ints, tuples) so a
diagnosis pickles across the pool-worker boundary byte-for-byte;
``__reduce__`` pins that contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

#: Machine-readable verdicts for :attr:`DeadlockDiagnosis.violated_rule`.
RULE_READY = "ready"    # Lemma 1 (ready gating) was disabled
RULE_SPARE = "spare"    # Lemma 2 (spare-tag reserve) was disabled
RULE_GREEDY = "greedy"  # no gating at all (bounded greedy pool)
RULE_NONE = "none"      # all rules honored -- should be impossible

_RULE_TEXT = {
    RULE_READY: (
        "Lemma 1 (ready gating) disabled: tags were handed to "
        "contexts whose inputs did not yet exist, so holders cannot "
        "make progress and never retire"
    ),
    RULE_SPARE: (
        "Lemma 2 (spare-tag reserve) disabled: an external allocate "
        "consumed the tag reserved for a loop's backedge, so "
        "iterations already in flight cannot advance"
    ),
    RULE_GREEDY: (
        "no gated allocation: a bounded pool handed out its last tag "
        "to dependent work (the paper's Fig. 11 baseline)"
    ),
    RULE_NONE: (
        "all allocation rules were honored; under Theorem 2 this "
        "deadlock should be impossible -- please report it"
    ),
}


@dataclass
class PendingAllocation:
    node_id: int
    block: str  # block whose tag space is exhausted
    parent_tag: object
    ready: bool
    spare: bool
    #: Block the allocate node itself lives in (the waiting context's
    #: block); ``""`` on diagnoses from before the analyzer existed.
    parent_block: str = ""
    #: Gate arithmetic at quiesce: free tags available vs. tags the
    #: allocation rule demands (:meth:`TagPool.tags_needed`).
    free: int = 0
    need: int = 0

    def __reduce__(self):
        return (
            self.__class__,
            tuple(getattr(self, f.name) for f in fields(self)),
        )


@dataclass
class DeadlockDiagnosis:
    cycle: int
    live_tokens: int
    pending_allocations: List[PendingAllocation] = field(
        default_factory=list
    )
    pool_occupancy: Dict[str, Tuple[int, Optional[int]]] = field(
        default_factory=dict
    )  # pool name -> (in use, capacity)
    #: Allocation-policy description (``TyrPolicy.describe()`` etc.).
    policy: str = ""
    #: One of :data:`RULE_READY` / :data:`RULE_SPARE` /
    #: :data:`RULE_GREEDY` / :data:`RULE_NONE` (or ``""`` on legacy
    #: diagnoses built without the analyzer).
    violated_rule: str = ""
    #: Wait-for graph: node id -> human-readable label.
    wait_nodes: Dict[str, str] = field(default_factory=dict)
    #: Wait-for graph edges as ``(src, dst, why)`` triples.
    wait_edges: List[Tuple[str, str, str]] = field(default_factory=list)
    #: The extracted wait cycle (node ids, first edge implied from the
    #: last back to the first), or ``None`` if no cycle exists.
    wait_cycle: Optional[List[str]] = None
    #: Starvation-without-cycle proof: reachable contexts that hold
    #: tags yet have no outstanding wait the allocation rules explain.
    starved_sinks: List[str] = field(default_factory=list)
    #: Set when the progress watchdog (not the quiesce check) tripped:
    #: consecutive zero-progress cycles observed before raising.
    watchdog_cycles: Optional[int] = None

    def __reduce__(self):
        return (
            self.__class__,
            tuple(getattr(self, f.name) for f in fields(self)),
        )

    # ------------------------------------------------------------------
    def culprits(self) -> List[str]:
        """Blocking regions (pool / block names), most culpable first.

        With a wait cycle: the regions on the cycle, in cycle order.
        Without one: the starved pools, then the blocks of the sink
        contexts that hold their tags.
        """
        names: List[str] = []

        def add(name: str) -> None:
            if name and name not in names:
                names.append(name)

        if self.wait_cycle:
            for node in self.wait_cycle:
                kind, _, rest = node.partition(":")
                if kind == "pool":
                    add(rest)
                elif kind == "ctx":
                    add(rest.rsplit("@", 1)[0])
        else:
            for p in self.pending_allocations:
                add(p.block)
            for node in self.starved_sinks:
                kind, _, rest = node.partition(":")
                if kind == "ctx":
                    add(rest.rsplit("@", 1)[0])
        return names

    def describe(self) -> str:
        lines = [
            f"deadlock at cycle {self.cycle}: {self.live_tokens} live "
            f"tokens, {len(self.pending_allocations)} pending tag "
            f"allocations"
        ]
        if self.watchdog_cycles is not None:
            lines[0] += (
                f" (progress watchdog: {self.watchdog_cycles} "
                f"consecutive cycles without progress)"
            )
        for name, (used, cap) in sorted(self.pool_occupancy.items()):
            cap_s = "unbounded" if cap is None else str(cap)
            lines.append(f"  pool {name}: {used}/{cap_s} tags in use")
        by_space: Dict[str, int] = {}
        for p in self.pending_allocations:
            by_space[p.block] = by_space.get(p.block, 0) + 1
        for space, count in sorted(by_space.items()):
            lines.append(f"  {count} allocation(s) starved for {space!r}")
        return "\n".join(lines)

    def explain(self) -> str:
        """Full report: culprits, wait cycle, violated rule."""
        lines = [self.describe()]
        if self.policy:
            lines.append(f"allocation policy: {self.policy}")
        if self.violated_rule:
            lines.append(
                f"violated rule: {_RULE_TEXT.get(self.violated_rule, self.violated_rule)}"
            )
        culprits = self.culprits()
        if culprits:
            lines.append("culprit regions: " + ", ".join(culprits))
        if self.wait_cycle:
            lines.append(
                f"wait cycle ({len(self.wait_cycle)} nodes):"
            )
            cyc = self.wait_cycle
            why = {(s, d): w for s, d, w in self.wait_edges}
            for i, node in enumerate(cyc):
                nxt = cyc[(i + 1) % len(cyc)]
                reason = why.get((node, nxt), "waits on")
                label = self.wait_nodes.get(node, node)
                lines.append(f"  {label}")
                lines.append(f"    --[{reason}]-->")
            lines.append(
                f"  back to {self.wait_nodes.get(cyc[0], cyc[0])}"
            )
        elif self.wait_nodes:
            lines.append(
                "no wait cycle: starvation without circular waiting"
            )
            for node in self.starved_sinks:
                lines.append(
                    f"  stuck holder: {self.wait_nodes.get(node, node)}"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
def analyze_deadlock(engine, watchdog: Optional[int] = None
                     ) -> DeadlockDiagnosis:
    """Reconstruct the wait-for graph from a quiesced tagged engine.

    Reads only the engine's public-ish tables (``_alloc_state``,
    ``pool.holders``, node attribute tables); it never mutates state,
    so it is safe to call from the watchdog on a machine that is not
    fully quiesced.
    """
    diag = DeadlockDiagnosis(
        cycle=engine.metrics.cycles,
        live_tokens=engine._livebox[0],
        pool_occupancy={
            p.name: (p.in_use, p.capacity)
            for p in engine._unique_pools
        },
        policy=engine.policy.describe(),
        watchdog_cycles=watchdog,
    )

    nodes: Dict[str, str] = {}
    edges: Dict[Tuple[str, str], str] = {}

    def ctx_id(block: str, tag: object) -> str:
        return f"ctx:{block}@{tag}"

    def add_edge(src: str, dst: str, why: str) -> None:
        edges.setdefault((src, dst), why)

    # Tag provenance: (alloc nid, parent tag) -> (child block, tag).
    child_of: Dict[Tuple[int, object], Tuple[str, object]] = {}
    for pool in engine._unique_pools:
        if pool.capacity is None:
            continue
        pool_node = f"pool:{pool.name}"
        cap = pool.capacity
        nodes[pool_node] = (
            f"tag pool {pool.name} ({pool.in_use}/{cap} in use)"
        )
        for tag, (anid, ptag) in pool.holders.items():
            block = engine._attrs[anid]["tagspace"]
            child_of[(anid, ptag)] = (block, tag)

    # Context nodes for every held tag, plus edges: the pool waits on
    # each holder's retirement; a holder whose ready join has not
    # fired waits on its allocator's context for its arguments; every
    # allocator context waits on the results of contexts it spawned
    # into *other* blocks (their result joins feed its free barrier).
    for pool in engine._unique_pools:
        if pool.capacity is None:
            continue
        pool_node = f"pool:{pool.name}"
        for tag, (anid, ptag) in pool.holders.items():
            block = engine._attrs[anid]["tagspace"]
            cnode = ctx_id(block, tag)
            pblock = engine._block[anid]
            st = engine._alloc_state.get((anid, ptag))
            speculative = st is not None and st.popped and not st.ready
            label = (
                f"context {block}@{tag} (spawned by allocate #{anid} "
                f"from {pblock}@{ptag}"
            )
            if speculative:
                label += ", still awaiting its arguments"
            nodes[cnode] = label + ")"
            add_edge(pool_node, cnode,
                     f"tag {tag} not retired")
            pnode = ctx_id(pblock, ptag)
            nodes.setdefault(
                pnode, f"context {pblock}@{ptag}"
            )
            if speculative:
                # The child popped before its inputs existed; it can
                # do nothing until the allocator context produces them.
                add_edge(cnode, pnode,
                         "awaits arguments from its allocator")
            if pblock != block:
                # External spawn: the allocator's free barrier joins
                # the child's results, so it waits for the child.
                add_edge(pnode, cnode,
                         "awaits results of spawned context")

    # Pending (un-popped) allocations: the waiting context's free
    # barrier joins the allocate's outputs, so the context waits on
    # the allocation, and the allocation waits on its starved pool.
    for (nid, ptag), st in engine._alloc_state.items():
        if not (st.request and not st.popped):
            continue
        pool = engine._alloc_pool[nid]
        spare = engine._alloc_spare[nid]
        need = pool.tags_needed(st.ready, spare)
        free = pool.free_count if pool.capacity is not None else 0
        pblock = engine._block[nid]
        diag.pending_allocations.append(PendingAllocation(
            node_id=nid,
            block=pool.name,
            parent_tag=ptag,
            ready=st.ready,
            spare=spare,
            parent_block=pblock,
            free=free,
            need=need,
        ))
        anode = f"alloc:{nid}@{ptag}"
        kind = "ready" if st.ready else "speculative"
        if spare:
            kind += ", spare"
        nodes[anode] = (
            f"allocate #{nid} in {pblock}@{ptag} -> "
            f"{engine._attrs[nid]['tagspace']} ({kind}; needs {need} "
            f"free, {free} available)"
        )
        pool_node = f"pool:{pool.name}"
        if pool_node not in nodes:
            cap_s = ("unbounded" if pool.capacity is None
                     else str(pool.capacity))
            nodes[pool_node] = (
                f"tag pool {pool.name} ({pool.in_use}/{cap_s} in use)"
            )
        add_edge(anode, pool_node,
                 f"starved: needs {need} free, has {free}")
        pnode = ctx_id(pblock, ptag)
        nodes.setdefault(pnode, f"context {pblock}@{ptag}")
        add_edge(pnode, anode, "free barrier joins this allocate")

    diag.wait_nodes = nodes
    diag.wait_edges = [(s, d, w) for (s, d), w in edges.items()]

    # Cycle extraction: DFS from each starved allocation. The cycle,
    # if any, is the deadlock; otherwise the reachable sinks prove
    # starvation without circular waiting.
    adj: Dict[str, List[str]] = {}
    for (s, d), _ in edges.items():
        adj.setdefault(s, []).append(d)
    starts = [f"alloc:{p.node_id}@{p.parent_tag}"
              for p in diag.pending_allocations]
    diag.wait_cycle = _find_cycle(adj, starts)
    if diag.wait_cycle is None:
        sinks: List[str] = []
        seen: set = set()
        stack = list(starts)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            succs = adj.get(node, [])
            if not succs and node.startswith("ctx:"):
                sinks.append(node)
            stack.extend(succs)
        diag.starved_sinks = sorted(sinks)

    # Classify the violated rule from the starved pools' flags --
    # authoritative, because the ablation policies toggle exactly
    # these flags.
    starved_pools = {engine._alloc_pool[p.node_id]
                     for p in diag.pending_allocations}
    if any(not p.honor_ready for p in starved_pools):
        diag.violated_rule = RULE_READY
    elif any(not p.honor_spare for p in starved_pools):
        diag.violated_rule = RULE_SPARE
    elif any(not p.gated and p.capacity is not None
             for p in starved_pools):
        diag.violated_rule = RULE_GREEDY
    else:
        diag.violated_rule = RULE_NONE
    return diag


def _find_cycle(adj: Dict[str, List[str]],
                starts: List[str]) -> Optional[List[str]]:
    """Iterative DFS cycle extraction reachable from ``starts``."""
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[str, int] = {}
    for root in starts:
        if color.get(root, WHITE) is not WHITE:
            continue
        path: List[str] = []
        stack: List[Tuple[str, int]] = [(root, 0)]
        while stack:
            node, i = stack.pop()
            if i == 0:
                color[node] = GREY
                path.append(node)
            succs = adj.get(node, [])
            advanced = False
            while i < len(succs):
                nxt = succs[i]
                i += 1
                c = color.get(nxt, WHITE)
                if c == GREY:
                    # Found a back edge: slice the cycle out of path.
                    start = path.index(nxt)
                    return path[start:]
                if c == WHITE:
                    stack.append((node, i))
                    stack.append((nxt, 0))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
    return None
