"""Execution engine for tagged (unordered) dataflow graphs.

Idealized timing per the paper's methodology (Sec. VI): every
instruction takes one cycle, up to ``issue_width`` instructions fire
per cycle (multiple dynamic instances of the same static instruction
may fire together), and tokens produced in a cycle become visible the
next cycle. IPC and live-token counts are sampled every cycle.

Token matching is the textbook wait-match store: tokens are buffered
per (static instruction, tag) until the firing rule is satisfied.
``allocate`` follows TYR's special firing rule (paper Sec. IV-A); its
interaction with the tag pools is what differentiates the architectures
(see :mod:`repro.sim.tagged.tagspace`).

Hot path: default runs execute the generated plan kernels
(:mod:`repro.sim.codegen.tagged`), which specialize the cycle loop and
every node's firing for one plan. This module is the reference
interpreter they are diffed against, and the only path for profiled,
traced and occupancy-tracked runs. Its layout (see
docs/ARCHITECTURE.md, "Simulator performance") still avoids needless
work: the wait-match store is *slot-indexed* -- one store per static
instruction, keyed by tag -- instead of one dict keyed by
``(nid, tag)`` tuples; firing goes through a per-node dispatch table
of closures specialized at construction (no per-firing branching on
``Op``); and emission appends ``(dest, port, tag, data)`` tokens into
a persistent pending buffer whose ``append`` is captured once per
node. Those closures are the only per-node firing code: trace and
occupancy instrumentation wrap them at construction, observing the
wait-store entry a firing consumes and the slice of the pending
buffer it appends, so an uninstrumented run calls them bare. The one
interpreted cycle loop always drives an
:class:`~repro.sim.profile.EngineProfiler`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError, TokenBoundExceeded
from repro.compiler.graph import TaggedGraph
from repro.ir.ops import OP_INFO, Op
from repro.sim.latency import UNTIMED, load_timing
from repro.sim.memory import Memory
from repro.sim.metrics import ExecutionResult, MetricsRecorder
from repro.sim.profile import EngineProfiler
from repro.sim.tagged.deadlock import analyze_deadlock
from repro.sim.tagged.trace import ExecutionTrace
from repro.sim.tagged.tagspace import PoolStats, TagPolicy, TagPool
from repro.sim.watchdog import watchdog_horizon

#: Tag of the machine-level root context (never allocated from a pool).
ROOT_TAG = -1

# Ready-queue actions.
_FIRE = 0
_ALLOC_POP = 1
_ALLOC_CTL = 2

# Deposit kinds (per-node firing-rule selector for the drain loop).
_DEP_PLAIN = 0
_DEP_MERGE = 1
_DEP_ALLOC = 2


class _AllocState:
    __slots__ = ("request", "ready", "popped", "scheduled",
                 "ctl_scheduled", "waiting")

    def __init__(self):
        self.request = False
        self.ready = False
        self.popped = False
        self.scheduled = False
        self.ctl_scheduled = False
        self.waiting = False


class TaggedEngine:
    """Simulates one execution of an elaborated graph.

    The engine binds ``memory`` and the graph tables into per-node
    closures at construction; neither may be swapped afterwards.
    """

    def __init__(self, graph: TaggedGraph, memory: Memory,
                 policy: TagPolicy, issue_width: int = 128,
                 sample_traces: bool = True,
                 check_token_bound: bool = False,
                 track_occupancy: bool = False,
                 record_trace: bool = False,
                 load_latency: int = 1,
                 max_cycles: int = 50_000_000,
                 profile: bool = False,
                 kernels=None,
                 cache=None):
        self.graph = graph
        self.memory = memory
        self.policy = policy
        self.issue_width = issue_width
        self.max_cycles = max_cycles
        #: The run's load timing (repro.sim.latency.load_timing): None
        #: for idealized loads, else per-array (probe, base) bindings
        #: over the load_delay hash or the cache model.
        self._timing = load_timing(memory, load_latency, cache)
        #: First cycle index no longer stalled by the latest last-level
        #: miss (None unless the cache model times loads); the
        #: interpreted loop splits memory_stall into hit/miss at it.
        self._miss_until = (self._timing.miss_until
                            if self._timing is not None else None)
        self.metrics = MetricsRecorder(sample_traces=sample_traces)
        self._profile = profile

        self.pools: Dict[str, TagPool] = policy.build_pools(
            graph.blocks, graph.tag_overrides
        )
        self._unique_pools: List[TagPool] = []
        seen = set()
        for pool in self.pools.values():
            if id(pool) not in seen:
                seen.add(id(pool))
                self._unique_pools.append(pool)

        # Flattened node tables for speed.
        n = len(graph.nodes)
        self._op: List[Op] = [nd.op for nd in graph.nodes]
        self._imms: List[Dict[int, object]] = [nd.imms for nd in graph.nodes]
        self._edges: List[List[List[Tuple[int, int]]]] = [
            nd.out_edges for nd in graph.nodes
        ]
        self._n_token_ports: List[int] = [
            len(nd.token_ports) for nd in graph.nodes
        ]
        self._n_inputs: List[int] = [nd.n_inputs for nd in graph.nodes]
        self._attrs: List[Dict[str, object]] = [
            nd.attrs for nd in graph.nodes
        ]
        self._block: List[str] = [nd.block for nd in graph.nodes]
        self._alloc_pool: Dict[int, TagPool] = {}
        self._alloc_spare: Dict[int, bool] = {}
        self._free_pool: Dict[int, TagPool] = {}
        for nd in graph.nodes:
            if nd.op is Op.ALLOCATE:
                self._alloc_pool[nd.node_id] = self.pools[
                    nd.attrs["tagspace"]
                ]
                self._alloc_spare[nd.node_id] = bool(nd.attrs["spare"])
            elif nd.op is Op.FREE:
                self._free_pool[nd.node_id] = self.pools[
                    nd.attrs["tagspace"]
                ]

        # Dynamic state. The containers below are captured by the
        # per-node closures and MUST stay the same objects for the
        # engine's lifetime (mutate in place, never rebind).
        #: Slot-indexed wait-match store: node id -> tag -> {port: data}.
        self._wait: List[Dict[object, Dict[int, object]]] = [
            {} for _ in range(n)
        ]
        self._alloc_state: Dict[Tuple[int, object], _AllocState] = {}
        self._ready: Deque[Tuple[int, object, int]] = deque()
        self._pending: List[tuple] = []
        self._waiters: Dict[int, Deque[Tuple[int, object]]] = {
            id(p): deque() for p in self._unique_pools
        }
        self._dirty_pools: List[TagPool] = []
        #: cycle index -> pending deposits maturing that cycle (timed
        #: loads in flight).
        self._delayed: Dict[int, List[tuple]] = {}
        self._livebox: List[int] = [0]
        self._results: Dict[int, object] = {}

        # Optional dynamic-execution-graph recording (paper Figs. 4/5):
        # every firing becomes an event; token flows become edges.
        self.trace = ExecutionTrace() if record_trace else None
        #: (dest nid, port, tag) -> event id of the firing that emitted
        #: the token bound there (tracing only); the consuming firing
        #: pops the entries of the ports it consumes.
        self._producers: Dict[Tuple[int, int, object], int] = {}

        # Optional per-tag-space wait-match store occupancy tracking
        # (the paper's "Problem #2": token store implementability).
        self._track_occupancy = track_occupancy
        self._occupancy: Dict[str, int] = {}
        self._peak_occupancy: Dict[str, int] = {}
        if track_occupancy:
            for b in list(graph.blocks) + ["<root>"]:
                self._occupancy[b] = 0
                self._peak_occupancy[b] = 0

        self._token_bound: Optional[int] = None
        if check_token_bound:
            caps = [p.capacity for p in self._unique_pools]
            if all(c is not None for c in caps):
                # Theorem 2: T*N*M with T the largest tag space, plus
                # the root context's tokens.
                t = max(caps)
                self._token_bound = (
                    graph.token_bound(t) + graph.max_inputs * n
                )

        #: Generated plan kernels (repro.sim.codegen). Used only on
        #: unprofiled, uninstrumented runs; every other configuration
        #: interprets, which is the reference semantics.
        self._kernels = None
        if kernels is not None and not (profile or record_trace
                                        or track_occupancy):
            self._kernels = kernels
            self._fire_fns = kernels.ns["bind_fires"](self)
        else:
            # The per-node closures are the only firing code. Trace and
            # occupancy instrumentation is selected once, here, as a
            # thin wrapper around each closure (and, for tracing,
            # around the two allocate actions); an uninstrumented run
            # calls the bare closures.
            fires = [self._make_fire(nid) for nid in range(n)]
            if track_occupancy:
                fires = [self._count_occupancy(nid, fire)
                         for nid, fire in enumerate(fires)]
            if record_trace:
                fires = [self._trace_fire(nid, fire)
                         for nid, fire in enumerate(fires)]
                self._trace_allocates()
            self._fire_fns: List[Callable] = fires
        #: Stall/hotspot attribution, driven by the interpreted loop on
        #: every interpreted run (the kernels carry no hooks).
        self._profiler = (EngineProfiler() if self._kernels is None
                          else None)
        #: Firing-rule selector used by the deposit drain loop.
        self._dkind: List[int] = [
            _DEP_ALLOC if op is Op.ALLOCATE
            else _DEP_MERGE if op is Op.MERGE
            else _DEP_PLAIN
            for op in self._op
        ]
        #: Per-node deposit table: (kind, wait store, #token ports,
        #: imms) in one slot so the drain loop does one fetch per token.
        self._dep = [
            (self._dkind[nid], self._wait[nid],
             self._n_token_ports[nid], self._imms[nid])
            for nid in range(n)
        ]

    # ------------------------------------------------------------------
    # ``_live`` stays addressable for diagnostics/tests while the hot
    # closures mutate the underlying one-slot box directly.
    @property
    def _live(self) -> int:
        return self._livebox[0]

    @_live.setter
    def _live(self, value: int) -> None:
        self._livebox[0] = value

    # ------------------------------------------------------------------
    def run(self, args: List[object]) -> ExecutionResult:
        if len(args) != len(self.graph.entry_sources):
            raise SimulationError(
                f"entry takes {len(self.graph.entry_sources)} args, "
                f"got {len(args)}"
            )
        pending = self._pending
        for value, dests in zip(args, self.graph.entry_sources):
            for dest_id, port in dests:
                pending.append((dest_id, port, ROOT_TAG, value))
                self._livebox[0] += 1
        self._apply_pending()

        if self._kernels is not None:
            completed = self._kernels.ns["run_loop"](self)
        else:
            completed = self._run_loop()

        results = tuple(
            self._results.get(i)
            for i in range(len(self.graph.result_nodes))
        )
        extra = {
            "policy": self.policy.describe(),
            "issue_width": self.issue_width,
            "peak_store_occupancy": dict(self._peak_occupancy),
            "pool_stats": [
                PoolStats(p.name, p.capacity, p.peak_in_use,
                          p.total_allocations)
                for p in self._unique_pools
            ],
            "leftover_tags_in_use": sum(
                p.in_use for p in self._unique_pools
            ),
        }
        if self._profiler is not None:
            op = self._op
            block = self._block
            profile = self._profiler.finish(
                "tagged", self.metrics.cycles,
                self.metrics.instructions,
                lambda nid: f"{op[nid].value}@{block[nid]}#{nid}",
            )
            if self._profile:
                extra["profile"] = profile
        return self.metrics.result("tagged", completed, results, extra)

    def _run_loop(self) -> bool:
        """The interpreted cycle loop, with stall/hotspot attribution.

        The profiler only observes: every ``sample`` pairs with
        exactly one ``end_cycle`` and every ``sample_idle`` batch with
        one ``idle``, which is what makes the reason counts sum to
        ``cycles``.
        """
        prof = self._profiler
        end_cycle = prof.end_cycle
        metrics = self.metrics
        sample = metrics.sample
        ready = self._ready
        livebox = self._livebox
        run_cycle = self._run_cycle
        token_bound = self._token_bound
        max_cycles = self.max_cycles
        wd_horizon = watchdog_horizon(max_cycles)
        idle_streak = 0
        miss_until = self._miss_until
        while True:
            if not ready:
                if self._delayed:
                    # Memory in flight: burn cycles until it returns.
                    before = metrics.cycles
                    self._stall_for_memory()
                    prof.memory_stall(before, metrics.cycles,
                                      miss_until)
                    continue
                if self._is_finished():
                    return True
                self._raise_deadlock()
            fired, width_limited, tag_blocked = run_cycle()
            sample(fired, livebox[0])
            if fired:
                end_cycle("width_limited" if width_limited
                          else "fired")
            elif tag_blocked:
                end_cycle("tag_starved")
            elif livebox[0] > 0 or self._pending or self._delayed:
                end_cycle("waiting_operands")
            else:
                end_cycle("idle")
            if fired:
                idle_streak = 0
            else:
                idle_streak += 1
                if idle_streak >= wd_horizon and not self._delayed:
                    self._raise_deadlock(watchdog=idle_streak)
            if (token_bound is not None
                    and livebox[0] > token_bound):
                raise TokenBoundExceeded(
                    f"live tokens {livebox[0]} exceed Theorem 2 bound "
                    f"{token_bound}"
                )
            if metrics.cycles >= max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={self.max_cycles}"
                )

    def _stall_for_memory(self) -> None:
        """Idle until the earliest in-flight load response matures.

        Equivalent to sampling ``(0, live)`` once per stalled cycle,
        but batched; unlike the original per-cycle loop it enforces
        ``max_cycles`` and the Theorem-2 token bound, so a simulation
        can no longer spin past its cycle budget inside a memory
        stall.
        """
        metrics = self.metrics
        due = min(self._delayed)
        live = self._livebox[0]
        if self.max_cycles <= due:
            metrics.sample_idle(live, self.max_cycles - metrics.cycles)
            raise SimulationError(
                f"exceeded max_cycles={self.max_cycles}"
            )
        metrics.sample_idle(live, due + 1 - metrics.cycles)
        if self._token_bound is not None and live > self._token_bound:
            raise TokenBoundExceeded(
                f"live tokens {live} exceed Theorem 2 bound "
                f"{self._token_bound}"
            )
        if metrics.cycles >= self.max_cycles:
            raise SimulationError(
                f"exceeded max_cycles={self.max_cycles}"
            )
        self._pending.extend(self._delayed.pop(due))
        self._drain_pending_fast()

    # ------------------------------------------------------------------
    def _is_finished(self) -> bool:
        return (not self._pending and not self._delayed
                and self._livebox[0] == 0 and not self._alloc_state)

    def _raise_deadlock(self, watchdog: "int | None" = None) -> None:
        diagnosis = analyze_deadlock(self, watchdog=watchdog)
        raise DeadlockError(diagnosis.describe(), diagnosis)

    # ------------------------------------------------------------------
    def _run_cycle(self) -> Tuple[int, bool, bool]:
        """Issue up to ``issue_width`` ready entries, then deposit.

        Returns ``(fired, width_limited, tag_blocked)``:
        ``width_limited`` when ready work remained after the issue
        budget ran out, ``tag_blocked`` when an allocate pop failed on
        an exhausted tag pool this cycle.
        """
        prof_fire = self._profiler.fire
        fired = 0
        budget = self.issue_width
        ready = self._ready
        popleft = ready.popleft
        fire_fns = self._fire_fns
        tag_blocked = False
        while ready and budget > 0:
            nid, tag, action = popleft()
            if action == _FIRE:
                fire_fns[nid](tag)
                fired += 1
                budget -= 1
                prof_fire(nid)
            elif action == _ALLOC_POP:
                if self._fire_alloc_pop(nid, tag):
                    fired += 1
                    budget -= 1
                    prof_fire(nid)
                else:
                    tag_blocked = True
            else:  # _ALLOC_CTL
                self._fire_alloc_ctl(nid, tag)
                fired += 1
                budget -= 1
                prof_fire(nid)
        width_limited = budget == 0 and bool(ready)
        self._apply_pending()
        return fired, width_limited, tag_blocked

    def _apply_pending(self) -> None:
        matured = self._delayed.pop(self.metrics.cycles, None)
        if matured:
            self._pending.extend(matured)
        if self._pending:
            self._drain_pending_fast()
        if self._dirty_pools:
            dirty = self._dirty_pools[:]
            del self._dirty_pools[:]
            for pool in dirty:
                self._wake_waiters(pool)

    def _drain_pending_fast(self) -> None:
        """Deposit every buffered token.

        ``_dep`` packs each node's firing-rule selector, wait-store
        slot, token-port count, and immediates into one tuple so a
        deposit costs a single table fetch.
        """
        pending = self._pending
        if self._track_occupancy:
            self._count_deposits()
        dep = self._dep
        ready_append = self._ready.append
        for nid, port, tag, data in pending:
            kind, store, n_ports, imms = dep[nid]
            if kind == _DEP_PLAIN:
                entry = store.get(tag)
                if entry is None:
                    store[tag] = {port: data}
                    if n_ports == 1:
                        ready_append((nid, tag, _FIRE))
                else:
                    entry[port] = data
                    if len(entry) == n_ports:
                        ready_append((nid, tag, _FIRE))
            elif kind == _DEP_MERGE:
                entry = store.get(tag)
                if entry is None:
                    store[tag] = entry = {}
                entry[port] = data
                if 0 in entry:
                    want = 1 if entry[0] else 2
                    if want in entry or want in imms:
                        ready_append((nid, tag, _FIRE))
            else:  # _DEP_ALLOC
                self._deposit_alloc(nid, port, tag)
        del pending[:]

    def _emit(self, nid: int, port: int, tag: object,
              data: object) -> None:
        edges = self._edges[nid][port]
        if not edges:
            return  # token discarded (no consumers)
        append = self._pending.append
        for dest_id, dest_port in edges:
            append((dest_id, dest_port, tag, data))
        self._livebox[0] += len(edges)

    # ------------------------------------------------------------------
    # Allocate state machine (paper Sec. IV-A firing rule)
    # ------------------------------------------------------------------
    def _deposit_alloc(self, nid: int, port: int, tag: object) -> None:
        key = (nid, tag)
        st = self._alloc_state.get(key)
        if st is None:
            st = _AllocState()
            self._alloc_state[key] = st
        if port == 0:
            st.request = True
        else:
            st.ready = True
            if st.popped and not st.ctl_scheduled:
                st.ctl_scheduled = True
                self._ready.append((nid, tag, _ALLOC_CTL))
                return
        if st.request and not st.popped and not st.scheduled:
            pool = self._alloc_pool[nid]
            if pool.can_pop(st.ready, self._alloc_spare[nid]):
                st.scheduled = True
                # A stale queue entry (if any) is skipped by
                # _wake_waiters since waiting is cleared here.
                st.waiting = False
                self._ready.append((nid, tag, _ALLOC_POP))
            elif not st.waiting:
                st.waiting = True
                self._waiters[id(pool)].append(key)

    def _fire_alloc_pop(self, nid: int, tag: object) -> bool:
        key = (nid, tag)
        st = self._alloc_state[key]
        pool = self._alloc_pool[nid]
        st.scheduled = False
        if not pool.can_pop(st.ready, self._alloc_spare[nid]):
            # Another allocation took the tag this cycle; wait for a
            # free.
            if not st.waiting:
                st.waiting = True
                self._waiters[id(pool)].append(key)
            return False
        new_tag = pool.pop()
        if pool.capacity is not None:
            pool.holders[new_tag] = (nid, tag)
        st.popped = True
        st.waiting = False
        self._livebox[0] -= 1  # the request token is consumed
        self._emit(nid, 0, tag, new_tag)
        if st.ready:
            self._livebox[0] -= 1  # the ready token is consumed
            self._emit(nid, 1, tag, 0)
            del self._alloc_state[key]
        return True

    def _fire_alloc_ctl(self, nid: int, tag: object) -> None:
        key = (nid, tag)
        self._livebox[0] -= 1  # consume the late ready token
        self._emit(nid, 1, tag, 0)
        del self._alloc_state[key]

    def _wake_waiters(self, pool: TagPool) -> None:
        waiters = self._waiters[id(pool)]
        if not waiters:
            return
        still_waiting: Deque[Tuple[int, object]] = deque()
        while waiters:
            key = waiters.popleft()
            st = self._alloc_state.get(key)
            if st is None or st.popped or st.scheduled or not st.waiting:
                continue
            nid = key[0]
            if pool.can_pop(st.ready, self._alloc_spare[nid]):
                st.scheduled = True
                st.waiting = False
                self._ready.append((key[0], key[1], _ALLOC_POP))
            else:
                still_waiting.append(key)
        self._waiters[id(pool)] = still_waiting

    # ------------------------------------------------------------------
    # Ordinary instruction firing: per-node dispatch closures
    # ------------------------------------------------------------------
    def _make_fire(self, nid: int) -> Callable[[object], None]:
        """Build the firing closure for node ``nid`` (fast path).

        All per-node constants -- wait store slot, output edge lists,
        immediates, attributes, the pending buffer's ``append`` -- are
        bound here, once, so a firing does no table lookups and no
        opcode dispatch.
        """
        op = self._op[nid]
        store = self._wait[nid]
        livebox = self._livebox
        append = self._pending.append
        edges = self._edges[nid]
        imms = self._imms[nid]
        attrs = self._attrs[nid]
        n_in = self._n_inputs[nid]

        if op is Op.MERGE:
            edges0 = edges[0]
            n0 = len(edges0)

            def fire_merge(tag):
                entry = store.pop(tag)
                livebox[0] -= len(entry)
                chosen = 1 if entry[0] else 2
                data = entry[chosen] if chosen in entry else imms[chosen]
                for d in edges0:
                    append((d[0], d[1], tag, data))
                livebox[0] += n0
            return fire_merge

        if op is Op.STEER:
            edges0, edges1 = edges[0], edges[1]
            n0, n1 = len(edges0), len(edges1)
            sense = bool(attrs["sense"])
            imm0, imm1 = imms.get(0), imms.get(1)

            def fire_steer(tag):
                entry = store.pop(tag)
                livebox[0] -= len(entry)
                d = entry[0] if 0 in entry else imm0
                value = entry[1] if 1 in entry else imm1
                if bool(d) == sense:
                    for e in edges0:
                        append((e[0], e[1], tag, value))
                    livebox[0] += n0
                for e in edges1:
                    append((e[0], e[1], tag, 0))
                livebox[0] += n1
            return fire_steer

        if op is Op.LOAD:
            edges0, edges1 = edges[0], edges[1]
            n0, n1 = len(edges0), len(edges1)
            array = attrs["array"]
            mem_load = self.memory.load
            timing = self._timing
            probe, base = (timing.load(array) if timing is not None
                           else UNTIMED)
            miss_latency = timing.miss_latency if timing is not None \
                else 0
            miss_until = self._miss_until
            metrics = self.metrics
            delayed = self._delayed

            def fire_load(tag):
                entry = store.pop(tag)
                livebox[0] -= len(entry)
                addr = entry[0] if 0 in entry else imms[0]
                value = mem_load(array, addr)
                if probe is None or (delay := probe(base + addr)) <= 1:
                    for e in edges0:
                        append((e[0], e[1], tag, value))
                    for e in edges1:
                        append((e[0], e[1], tag, 0))
                else:
                    due = metrics.cycles + delay - 1
                    if delay >= miss_latency \
                            and due + 1 > miss_until[0]:
                        miss_until[0] = due + 1
                    bucket = delayed.get(due)
                    if bucket is None:
                        delayed[due] = bucket = []
                    for e in edges0:
                        bucket.append((e[0], e[1], tag, value))
                    for e in edges1:
                        bucket.append((e[0], e[1], tag, 0))
                livebox[0] += n0 + n1
            return fire_load

        if op is Op.STORE:
            edges0 = edges[0]
            n0 = len(edges0)
            array = attrs["array"]
            mem_store = self.memory.store
            probe, base = (self._timing.store(array)
                           if self._timing is not None else UNTIMED)

            def fire_store(tag):
                entry = store.pop(tag)
                livebox[0] -= len(entry)
                addr = entry[0] if 0 in entry else imms[0]
                value = entry[1] if 1 in entry else imms[1]
                mem_store(array, addr, value)
                if probe is not None:
                    probe(base + addr)
                for e in edges0:
                    append((e[0], e[1], tag, 0))
                livebox[0] += n0
            return fire_store

        if op is Op.JOIN:
            edges0 = edges[0]
            n0 = len(edges0)

            def fire_join(tag):
                entry = store.pop(tag)
                livebox[0] -= len(entry)
                value = entry[0] if 0 in entry else imms[0]
                for e in edges0:
                    append((e[0], e[1], tag, value))
                livebox[0] += n0
            return fire_join

        if op is Op.CHANGE_TAG:
            edges1 = edges[1]
            n1 = len(edges1)
            table = attrs.get("route_table")
            if table is None:
                edges0 = edges[0]
                n0 = len(edges0)

                def fire_change_tag(tag):
                    entry = store.pop(tag)
                    livebox[0] -= len(entry)
                    new_tag = entry[0] if 0 in entry else imms[0]
                    data = entry[1] if 1 in entry else imms[1]
                    for e in edges0:
                        append((e[0], e[1], new_tag, data))
                    livebox[0] += n0
                    for e in edges1:
                        append((e[0], e[1], tag, 0))
                    livebox[0] += n1
                return fire_change_tag

            # Dynamic-destination changeTag (multi-caller returns).
            table_get = table.get

            def fire_change_tag_routed(tag):
                entry = store.pop(tag)
                livebox[0] -= len(entry)
                new_tag = entry[0] if 0 in entry else imms[0]
                data = entry[1] if 1 in entry else imms[1]
                ret = entry[2] if 2 in entry else imms[2]
                dests = table_get(ret, ())
                for e in dests:
                    append((e[0], e[1], new_tag, data))
                livebox[0] += len(dests)
                for e in edges1:
                    append((e[0], e[1], tag, 0))
                livebox[0] += n1
            return fire_change_tag_routed

        if op is Op.EXTRACT_TAG:
            edges0 = edges[0]
            n0 = len(edges0)

            def fire_extract_tag(tag):
                entry = store.pop(tag)
                livebox[0] -= len(entry)
                for e in edges0:
                    append((e[0], e[1], tag, tag))
                livebox[0] += n0
            return fire_extract_tag

        if op is Op.FREE:
            pool = self._free_pool[nid]
            dirty = self._dirty_pools

            def fire_free(tag):
                entry = store.pop(tag)
                livebox[0] -= len(entry)
                pool.push(tag)
                if pool not in dirty:
                    dirty.append(pool)
            return fire_free

        info = OP_INFO[op]
        if not info.pure:
            op_name = op.value

            def fire_illegal(tag):
                raise SimulationError(f"cannot execute {op_name}")
            return fire_illegal

        # Pure arithmetic/logic: specialize the common shapes, keep a
        # generic closure for the rest (immediates, results, 3-ary).
        ev = info.evaluate
        edges0 = edges[0]
        n0 = len(edges0)
        result_idx = attrs.get("result_index")
        results = self._results

        if result_idx is None and not imms and n_in == 2:
            def fire_pure2(tag):
                entry = store.pop(tag)
                livebox[0] -= 2
                value = ev(entry[0], entry[1])
                for d in edges0:
                    append((d[0], d[1], tag, value))
                livebox[0] += n0
            return fire_pure2

        if result_idx is None and not imms and n_in == 1:
            def fire_pure1(tag):
                entry = store.pop(tag)
                livebox[0] -= 1
                value = ev(entry[0])
                for d in edges0:
                    append((d[0], d[1], tag, value))
                livebox[0] += n0
            return fire_pure1

        if result_idx is None and n_in == 2 and len(imms) == 1:
            if 0 in imms:
                imm0 = imms[0]

                def fire_pure_imm0(tag):
                    entry = store.pop(tag)
                    livebox[0] -= 1
                    value = ev(imm0, entry[1])
                    for d in edges0:
                        append((d[0], d[1], tag, value))
                    livebox[0] += n0
                return fire_pure_imm0
            imm1 = imms[1]

            def fire_pure_imm1(tag):
                entry = store.pop(tag)
                livebox[0] -= 1
                value = ev(entry[0], imm1)
                for d in edges0:
                    append((d[0], d[1], tag, value))
                livebox[0] += n0
            return fire_pure_imm1

        def fire_pure(tag):
            entry = store.pop(tag)
            livebox[0] -= len(entry)
            value = ev(*[
                entry[p] if p in entry else imms[p] for p in range(n_in)
            ])
            if result_idx is not None:
                results[result_idx] = value
            for d in edges0:
                append((d[0], d[1], tag, value))
            livebox[0] += n0
        return fire_pure

    # ------------------------------------------------------------------
    # Instrumentation: wrappers around the firing closures, selected
    # once at construction
    # ------------------------------------------------------------------
    def _count_occupancy(self, nid: int,
                         fire: Callable[[object], None]
                         ) -> Callable[[object], None]:
        """Wrap ``fire`` to take its entry's tokens out of the block's
        store occupancy before the closure pops the entry (deposits
        are added per drain by :meth:`_count_deposits`)."""
        occupancy = self._occupancy
        block = self._block[nid]
        store = self._wait[nid]

        def counted(tag):
            occupancy[block] -= len(store[tag])
            fire(tag)
        return counted

    def _count_deposits(self) -> None:
        """Add the pending tokens bound for wait stores (every
        destination but an ALLOCATE) to their blocks' occupancy.
        Nothing fires during a drain, so occupancy only rises within
        one and the per-batch peak equals the per-deposit peak."""
        occupancy = self._occupancy
        block = self._block
        dkind = self._dkind
        for token in self._pending:
            nid = token[0]
            if dkind[nid] != _DEP_ALLOC:
                occupancy[block[nid]] += 1
        peak = self._peak_occupancy
        for b, occ in occupancy.items():
            if occ > peak[b]:
                peak[b] = occ

    def _take_sources(self, nid: int, tag: object,
                      ports: Iterable[int]) -> Dict[int, int]:
        """Pop the producing events of the tokens ``(nid, tag)``
        consumes on ``ports``; root-context inputs have none."""
        take = self._producers.pop
        sources = {}
        for port in ports:
            src = take((nid, port, tag), -1)
            if src >= 0:
                sources[port] = src
        return sources

    def _trace_fire(self, nid: int, fire: Callable[[object], None]
                    ) -> Callable[[object], None]:
        """Wrap ``fire`` to record each firing as a trace event.

        The event's input edges come from the producers of the
        entry's tokens; every token the closure emits -- the slice of
        ``_pending`` it appended -- is mapped to the event. A LOAD's
        tokens may be delayed past ``_pending`` instead, so its wrapper
        maps all of its static out-edges, which it always emits on
        with the firing tag.
        """
        record = self.trace.record
        producers = self._producers
        take_sources = self._take_sources
        pending = self._pending
        store = self._wait[nid]
        metrics = self.metrics
        block = self._block[nid]
        op_name = self._op[nid].value

        if self._op[nid] is Op.LOAD:
            outputs = self._edges[nid][0] + self._edges[nid][1]

            def traced_load(tag):
                event = record(metrics.cycles, nid, block, op_name, tag,
                               take_sources(nid, tag, store[tag]))
                fire(tag)
                for dest, port in outputs:
                    producers[dest, port, tag] = event
            return traced_load

        def traced(tag):
            event = record(metrics.cycles, nid, block, op_name, tag,
                           take_sources(nid, tag, store[tag]))
            start = len(pending)
            fire(tag)
            for token in pending[start:]:
                producers[token[:3]] = event
        return traced

    def _trace_allocates(self) -> None:
        """Shadow the two allocate actions with traced wrappers (as
        instance attributes, so :meth:`_run_cycle` is unchanged).

        A successful pop is an ``allocate`` event consuming the request
        and, if it has arrived, the ready token. The late control
        firing records no event: it consumes the ready token and
        forwards that token's producer to the control tokens it emits.
        """
        pop = self._fire_alloc_pop
        ctl = self._fire_alloc_ctl
        record = self.trace.record
        producers = self._producers
        take_sources = self._take_sources
        pending = self._pending
        alloc_state = self._alloc_state
        metrics = self.metrics
        block = self._block

        def traced_pop(nid, tag):
            ports = (0, 1) if alloc_state[nid, tag].ready else (0,)
            start = len(pending)
            if not pop(nid, tag):
                return False
            event = record(metrics.cycles, nid, block[nid], "allocate",
                           tag, take_sources(nid, tag, ports))
            for token in pending[start:]:
                producers[token[:3]] = event
            return True

        def traced_ctl(nid, tag):
            src = producers.pop((nid, 1, tag), -1)
            start = len(pending)
            ctl(nid, tag)
            if src >= 0:
                for token in pending[start:]:
                    producers[token[:3]] = src

        self._fire_alloc_pop = traced_pop
        self._fire_alloc_ctl = traced_ctl
