"""AOT kernel generator for elaborated tagged graphs.

Emits one module per :class:`~repro.compiler.graph.TaggedGraph` with

* ``bind_fires(E)`` -- one flat function per static node, the exact
  firing rule of :meth:`TaggedEngine._make_fire` with the operand
  slots, immediates and livebox deltas unrolled into straight-line
  code, plus the two firing actions of each ALLOCATE (the engine's
  ``_fire_alloc_pop`` / ``_fire_alloc_ctl``). Runtime objects
  (wait-store slots, the pending buffer's ``append``, memory, tag
  pools) enter as default arguments, so the function body runs on
  ``LOAD_FAST`` only. Output tokens are *deposited directly* into
  their destination's wait-store slot; only the ready entry a
  completed entry produces goes to the pending list. Tokens to
  :func:`deferred_nodes` stay ``(dest, port, tag, data)`` 4-tuples
  for the drain (docs/ARCHITECTURE.md section 4 has the argument why
  the ready order is unchanged).
* ``run_loop(E)`` -- the engine's cycle loop with ``_run_cycle``,
  ``_apply_pending``, ``_drain_pending_fast``, ``_deposit_alloc`` and
  ``_wake_waiters`` fused into one frame, specialized to the
  firing-rule kinds the graph actually contains (graphs without
  allocate/free/merge nodes drop those branches).

The generated code must stay *bit-identical* to the closure
interpreter: every livebox delta, deposit ordering, and exception
message mirrors ``sim/tagged/engine.py`` -- the golden engine records
and the differential fuzz suite pin this.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.compiler.graph import TaggedGraph
from repro.ir.ops import OP_INFO, Op
from repro.sim.codegen.core import (Writer, array_ref, chunk_items,
                                    emit_bind, lit, pure_expr,
                                    safe_literal)

Bind = Tuple[str, str]


def deferred_nodes(graph: TaggedGraph) -> Set[int]:
    """Destinations whose tokens stay deferred 4-tuples in the kernels.

    MERGE and ALLOCATE nodes keep their drain-time firing rules (the
    allocate rule reads the tag pools as they stand at the end of the
    cycle). Every node a route-table CHANGE_TAG can emit to receives
    tokens whose destination is only known at run time, so *all* its
    tokens are deferred: mixing direct and deferred deposits into one
    wait-store entry could complete it at a different pending-list
    position than the interpreter does.
    """
    deferred: Set[int] = set()
    for nd in graph.nodes:
        if nd.op in (Op.MERGE, Op.ALLOCATE):
            deferred.add(nd.node_id)
        elif nd.op is Op.CHANGE_TAG:
            table = nd.attrs.get("route_table")
            for dests in (table or {}).values():
                deferred.update(dest for dest, _ in dests)
    return deferred


class _Fn:
    """One node's firing function(s) being emitted: bodies first, then
    the ``def`` lines with the collected default-argument binds."""

    def __init__(self, graph: TaggedGraph, nid: int,
                 deferred: Set[int]) -> None:
        self.graph = graph
        self.nid = nid
        self.deferred = deferred
        self.binds: List[Bind] = []
        self._seen: Set[str] = set()
        #: Set once the node may emit a deferred 4-tuple; its firing
        #: function then returns 1 so the run loop drains the cycle's
        #: pending list token by token instead of moving it wholesale.
        self.mixed = False

    def bind(self, name: str, expr: str) -> str:
        if name not in self._seen:
            self._seen.add(name)
            self.binds.append((name, expr))
        return name

    def operand(self, port: int) -> str:
        """Source for one input operand, mirroring
        ``entry[p] if p in entry else imms[p]`` with the immediate
        inlined (token-only ports collapse to ``entry[p]``)."""
        imms = self.graph.nodes[self.nid].imms
        if port in imms:
            value = imms[port]
            if safe_literal(value):
                ref = lit(value)
            else:
                ref = self.bind(f"i{port}", f"imms[{self.nid}][{port}]")
            return f"(entry[{port}] if {port} in entry else {ref})"
        return f"entry[{port}]"

    def edges(self, b: Writer, edges, tag: str, data: str) -> None:
        """Deliver one output port's tokens.

        Plain destinations are deposited straight into their wait
        store (``_drain_pending_fast``'s plain rule with the port
        count resolved here) and only the ready entry goes to the
        pending list, at the position the token itself would have
        had; deferred destinations get the 4-tuple as before.
        """
        for dest, port in edges:
            if dest in self.deferred:
                b(f"append(({dest}, {port}, {tag}, {data}))")
                self.mixed = True
                continue
            store = self.bind(f"s{dest}", f"wait[{dest}]")
            token_ports = self.graph.nodes[dest].token_ports
            n_ports = len(token_ports)
            if token_ports == [port]:
                # An entry holding only this port is complete on
                # arrival, whether or not one existed.
                b(f"{store}[{tag}] = {{{port}: {data}}}")
                b(f"append(({dest}, {tag}, 0))")
                continue
            b(f"got = {store}.get({tag})")
            b("if got is None:")
            b(f"    {store}[{tag}] = {{{port}: {data}}}")
            b("else:")
            b(f"    got[{port}] = {data}")
            b(f"    if len(got) == {n_ports}:")
            b(f"        append(({dest}, {tag}, 0))")

    def define(self, w: Writer, body: Writer, extra: List[Bind] = (),
               *, pop: bool = True, name: str = "f") -> None:
        """Write ``def <name><nid>(tag, binds...)`` and its body. A
        firing function (``f``) that may emit deferred tokens returns
        1; the allocate actions return their own codes."""
        parts = ["tag"]
        if pop:
            parts.append(f"pop=wait[{self.nid}].pop")
        parts += [f"{n}={expr}" for n, expr in self.binds]
        parts += [f"{n}={expr}" for n, expr in extra]
        w(f"def {name}{self.nid}({', '.join(parts)}):")
        w.indent()
        w.splice(body)
        if self.mixed and name == "f":
            w("return 1")
        w.dedent()


def _live_delta(b: Writer, delta: int, taken: str = "") -> None:
    """One livebox update: ``delta`` tokens emitted minus ``taken``
    (an expression, e.g. ``len(entry)``) consumed. Within a cycle the
    live count is read only at its end, so a firing's consume and emit
    deltas fold into one update."""
    if taken:
        b(f"livebox[0] += {delta} - {taken}" if delta
          else f"livebox[0] -= {taken}")
    elif delta:
        b(f"livebox[0] += {delta}" if delta > 0
          else f"livebox[0] -= {-delta}")


def _emit_allocate(w: Writer, graph: TaggedGraph, nid: int,
                   deferred: Set[int], mixed: Set[str]) -> None:
    """The allocate state machine's firing actions for node ``nid``:
    ``p<nid>`` is :meth:`TaggedEngine._fire_alloc_pop` and ``c<nid>``
    :meth:`TaggedEngine._fire_alloc_ctl`, with the site's pool gate
    (:meth:`TagPool.gate`) and output edges resolved (tokens deposited
    directly).
    ``p<nid>`` returns 0 when the pool refuses, else 1, or 2 when it
    may have emitted a deferred token; ``c<nid>`` returns 1 in that
    case. Either kind that may is recorded in ``mixed`` ("p"/"c")."""
    nd = graph.nodes[nid]
    edges0, edges1 = nd.out_edges[0], nd.out_edges[1]
    state = [("state", "alloc_state"), ("livebox", "livebox"),
             ("append", "append")]

    fn = _Fn(graph, nid, deferred)
    b = Writer()
    b(f"key = ({nid}, tag)")
    b("st = state[key]")
    b("st.scheduled = False")
    b("if len(free) < (ready_need if st.ready else spec_need):")
    b("    if not st.waiting:")
    b("        st.waiting = True")
    b("        waiters[id(pool)].append(key)")
    b("    return 0")
    b("new_tag = pool.pop()")
    b("if pool.capacity is not None:")
    b("    pool.holders[new_tag] = key")
    b("st.popped = True")
    b("st.waiting = False")
    _live_delta(b, len(edges0) - 1)      # the request token is consumed
    fn.edges(b, edges0, "tag", "new_tag")
    b("if st.ready:")
    b.indent()
    _live_delta(b, len(edges1) - 1)      # the ready token is consumed
    fn.edges(b, edges1, "tag", "0")
    b("del state[key]")
    b.dedent()
    b(f"return {2 if fn.mixed else 1}")
    if fn.mixed:
        mixed.add("p")
    fn.define(w, b, state + [("pool", f"E._alloc_pool[{nid}]"),
                             ("waiters", "waiters"),
                             ("free", f"gates[{nid}][0]"),
                             ("ready_need", f"gates[{nid}][1]"),
                             ("spec_need", f"gates[{nid}][2]")],
              pop=False, name="p")
    w(f"pops[{nid}] = p{nid}")

    fn = _Fn(graph, nid, deferred)
    b = Writer()
    _live_delta(b, len(edges1) - 1)      # the late ready token
    fn.edges(b, edges1, "tag", "0")
    b(f"del state[({nid}, tag)]")
    if fn.mixed:
        b("return 1")
        mixed.add("c")
    fn.define(w, b, state, pop=False, name="c")
    w(f"ctls[{nid}] = c{nid}")


def _emit_node(w: Writer, graph: TaggedGraph, nid: int,
               deferred: Set[int], mixed: Set[str]) -> None:
    """Emit node ``nid``'s firing function(s), recording in ``mixed``
    which kinds ("f", "p", "c") may emit a deferred token (see
    :attr:`_Fn.mixed`)."""
    nd = graph.nodes[nid]
    op = nd.op
    imms = nd.imms
    edges = nd.out_edges
    attrs = nd.attrs
    n_in = nd.n_inputs
    fn = _Fn(graph, nid, deferred)
    w(f"# node {nid}: {op.value} @{nd.block}")

    def consume(b: Writer, emitted: int, taken: int = 0) -> None:
        """Pop the entry and account for the ``emitted`` output tokens
        every firing produces, minus the ``taken`` tokens consumed
        (``len(entry)`` unless the shape fixes it)."""
        b("entry = pop(tag)")
        if taken:
            _live_delta(b, emitted - taken)
        else:
            _live_delta(b, emitted, "len(entry)")

    def finish() -> None:
        w(f"fns[{nid}] = f{nid}")
        w()
        if fn.mixed:
            mixed.add("f")

    if op in (Op.MERGE, Op.STEER, Op.LOAD, Op.STORE, Op.JOIN,
              Op.CHANGE_TAG, Op.EXTRACT_TAG) or OP_INFO[op].pure:
        fn.bind("append", "append")
        fn.bind("livebox", "livebox")

    if op is Op.MERGE:
        edges0 = edges[0]
        if imms:
            fn.bind("im", lit(imms) if safe_literal(imms)
                    else f"imms[{nid}]")
        b = Writer()
        consume(b, len(edges0))
        b("chosen = 1 if entry[0] else 2")
        if imms:
            b("data = entry[chosen] if chosen in entry else im[chosen]")
        else:
            b("data = entry[chosen]")
        fn.edges(b, edges0, "tag", "data")
        fn.define(w, b)
        finish()
        return

    if op is Op.STEER:
        edges0, edges1 = edges[0], edges[1]
        sense = bool(attrs["sense"])
        dexpr = fn.operand(0)
        vexpr = fn.operand(1)
        b = Writer()
        consume(b, len(edges1))
        if edges0:
            b(f"if {dexpr}:" if sense else f"if not {dexpr}:")
            b.indent()
            b(f"value = {vexpr}")
            fn.edges(b, edges0, "tag", "value")
            _live_delta(b, len(edges0))
            b.dedent()
        fn.edges(b, edges1, "tag", "0")
        fn.define(w, b)
        finish()
        return

    if op is Op.LOAD:
        edges0, edges1 = edges[0], edges[1]
        arr, arr_src = array_ref(attrs["array"], fn.bind,
                                 f"attrs[{nid}]['array']")
        fn.bind("mem_load", "mem_load")
        addr = fn.operand(0)
        # Timing is a run parameter, not part of the plan: the one
        # LOAD body branches on the (probe, base) the run's load
        # timing binds for the array (repro.sim.latency.load_timing).
        # A None probe means idealized single-cycle loads.
        fn.bind("data", f"arrays.get({arr_src}, ())")
        fn.bind("memory", "memory")
        b = Writer()
        consume(b, len(edges0) + len(edges1))
        # Memory.load inlined: a plain in-bounds int index reads the
        # array and counts the load; anything else (bool, other types,
        # out of bounds, unbound array: data is then ()) goes through
        # Memory.load for its exact result or error.
        b(f"addr = {addr}")
        b("if addr.__class__ is int and 0 <= addr < len(data):")
        b("    memory.loads += 1")
        b("    value = data[addr]")
        b("else:")
        b(f"    value = mem_load({arr}, addr)")
        b("if probe is None or (delay := probe(base + addr)) <= 1:")
        b.indent()
        fn.edges(b, edges0, "tag", "value")
        fn.edges(b, edges1, "tag", "0")
        if not (edges0 or edges1):
            b("pass")
        b.dedent()
        b("else:")
        b.indent()
        b("due = metrics.cycles + delay - 1")
        b("bucket = delayed.get(due)")
        b("if bucket is None:")
        b("    delayed[due] = bucket = []")
        for dest_id, dest_port in edges0:
            b(f"bucket.append(({dest_id}, {dest_port}, tag, value))")
        for dest_id, dest_port in edges1:
            b(f"bucket.append(({dest_id}, {dest_port}, tag, 0))")
        b.dedent()
        w(f"probe, base = timing.load({arr_src}) if timing else UNTIMED")
        fn.define(w, b, [
            ("metrics", "metrics"), ("delayed", "delayed"),
            ("probe", "probe"), ("base", "base")])
        finish()
        return

    if op is Op.STORE:
        edges0 = edges[0]
        arr, arr_src = array_ref(attrs["array"], fn.bind,
                                 f"attrs[{nid}]['array']")
        fn.bind("mem_store", "mem_store")
        addr = fn.operand(0)
        value = fn.operand(1)
        # Stores probe the cache model too (write-allocate) but stay
        # single-cycle; other timings bind no store probe.
        b = Writer()
        consume(b, len(edges0))
        b(f"addr = {addr}")
        b(f"mem_store({arr}, addr, {value})")
        b("if probe is not None:")
        b("    probe(base + addr)")
        fn.edges(b, edges0, "tag", "0")
        w(f"probe, base = timing.store({arr_src}) if timing "
          "else UNTIMED")
        fn.define(w, b, [("probe", "probe"), ("base", "base")])
        finish()
        return

    if op is Op.JOIN:
        edges0 = edges[0]
        value = fn.operand(0)
        b = Writer()
        consume(b, len(edges0))
        if edges0:
            b(f"value = {value}")
            fn.edges(b, edges0, "tag", "value")
        fn.define(w, b)
        finish()
        return

    if op is Op.CHANGE_TAG:
        edges1 = edges[1]
        table = attrs.get("route_table")
        new_tag = fn.operand(0)
        data = fn.operand(1)
        b = Writer()
        if table is None:
            edges0 = edges[0]
            consume(b, len(edges0) + len(edges1))
            b(f"new_tag = {new_tag}")
            b(f"data = {data}")
            fn.edges(b, edges0, "new_tag", "data")
        else:
            ret = fn.operand(2)
            fn.bind("table_get", f"attrs[{nid}]['route_table'].get")
            consume(b, len(edges1))
            b(f"new_tag = {new_tag}")
            b(f"data = {data}")
            b(f"dests = table_get({ret}, ())")
            b("for e in dests:")
            b("    append((e[0], e[1], new_tag, data))")
            b("livebox[0] += len(dests)")
            fn.mixed = True
        fn.edges(b, edges1, "tag", "0")
        fn.define(w, b)
        finish()
        return

    if op is Op.EXTRACT_TAG:
        edges0 = edges[0]
        b = Writer()
        consume(b, len(edges0))
        fn.edges(b, edges0, "tag", "tag")
        fn.define(w, b)
        finish()
        return

    if op is Op.FREE:
        b = Writer()
        consume(b, 0)
        b("pool.push(tag)")
        b("if pool not in dirty:")
        b("    dirty.append(pool)")
        fn.define(w, b, [("pool", f"E._free_pool[{nid}]"),
                         ("dirty", "dirty"), ("livebox", "livebox")])
        finish()
        return

    if op is Op.ALLOCATE:
        _emit_allocate(w, graph, nid, deferred, mixed)

    info = OP_INFO[op]
    if not info.pure:
        # ALLOCATE is dispatched through its pop/ctl functions, never
        # through fns[...]; anything else non-pure is illegal in a
        # tagged graph. Mirror the interpreter's guard closure.
        b = Writer()
        b(f"raise SimulationError({lit('cannot execute ' + op.value)})")
        fn.define(w, b, pop=False)
        finish()
        return

    # Pure arithmetic/logic. Mirror the interpreter's shape selection
    # exactly (the shapes differ in their livebox deltas).
    edges0 = edges[0]
    result_idx = attrs.get("result_index")

    def value_expr(args: List[str]) -> str:
        expr = pure_expr(op, args)
        if expr is None:
            fn.bind("ev", f"OP_INFO[Op.{op.name}].evaluate")
            return f"ev({', '.join(args)})"
        return expr

    b = Writer()
    n0 = len(edges0)
    if result_idx is None and not imms and n_in == 2:
        expr = value_expr(["entry[0]", "entry[1]"])
        consume(b, n0, 2)
    elif result_idx is None and not imms and n_in == 1:
        expr = value_expr(["entry[0]"])
        consume(b, n0, 1)
    elif result_idx is None and n_in == 2 and len(imms) == 1:
        port = 0 if 0 in imms else 1
        if safe_literal(imms[port]):
            imm = lit(imms[port])
        else:
            imm = fn.bind(f"i{port}", f"imms[{nid}][{port}]")
        expr = value_expr([imm, "entry[1]"] if port == 0
                          else ["entry[0]", imm])
        consume(b, n0, 1)
    else:
        expr = value_expr([fn.operand(p) for p in range(n_in)])
        if result_idx is not None:
            fn.bind("results", "results")
        consume(b, n0)
    b(f"value = {expr}")
    if result_idx is not None:
        b(f"results[{result_idx}] = value")
    fn.edges(b, edges0, "tag", "value")
    fn.define(w, b)
    finish()


def generate(graph: TaggedGraph) -> str:
    """Source of the generated kernel module for ``graph``."""
    n = len(graph.nodes)
    ops = {nd.op for nd in graph.nodes}
    has_alloc = Op.ALLOCATE in ops
    has_merge = Op.MERGE in ops
    has_free = Op.FREE in ops

    w = Writer()
    w('"""Generated tagged-graph kernels '
      f'({n} nodes, {len(graph.blocks)} tag spaces).'
      '\n\nEmitted by repro.sim.codegen.tagged; regenerated from the'
      '\nplan, never edited. The closure interpreter in'
      '\nsim/tagged/engine.py is the bit-identical reference."""')
    w("from collections import deque")
    w()
    w("from repro.errors import SimulationError, TokenBoundExceeded")
    w("from repro.ir.ops import OP_INFO, Op")
    w("from repro.sim.latency import UNTIMED")
    w("from repro.sim.tagged.engine import _AllocState")
    w("from repro.sim.watchdog import watchdog_horizon")
    w()
    w()
    deferred = deferred_nodes(graph)
    prelude = [
        "wait = E._wait",
        "livebox = E._livebox",
        "append = E._pending.append",
        "imms = E._imms",
        "attrs = E._attrs",
        "results = E._results",
        "memory = E.memory",
        "arrays = memory._arrays",
        "mem_load = memory.load",
        "mem_store = memory.store",
        "metrics = E.metrics",
        "delayed = E._delayed",
        "timing = E._timing",
        "dirty = E._dirty_pools",
        f"fns = [None] * {n}",
    ]

    if has_alloc:
        prelude += ["alloc_state = E._alloc_state",
                    "waiters = E._waiters",
                    "gates = {nid: pool.gate(E._alloc_spare[nid]) "
                    "for nid, pool in E._alloc_pool.items()}",
                    "pops = {}",
                    "ctls = {}",
                    "E._codegen_alloc = (pops, ctls, gates)"]
    mixed: Set[str] = set()

    def chunk(nids):
        def body(w: Writer) -> None:
            for nid in nids:
                _emit_node(w, graph, nid, deferred, mixed)
        return body

    emit_bind(w, "bind_fires",
              "Bind per-node firing kernels to a live TaggedEngine.",
              prelude, [chunk(c) for c in chunk_items(range(n))], "fns")
    w.chunk()
    w("def run_loop(E):")
    w.indent()
    w('"""The engine cycle loop with _run_cycle, _apply_pending and')
    w('_drain_pending_fast fused into one frame."""')
    w("metrics = E.metrics")
    w("ready = E._ready")
    w("popleft = ready.popleft")
    w("ready_append = ready.append")
    w("ready_extend = ready.extend")
    w("mixed = False")
    w("livebox = E._livebox")
    w("pending = E._pending")
    w("dep = E._dep")
    w("delayed = E._delayed")
    w("fire_fns = E._fire_fns")
    w("token_bound = E._token_bound")
    w("max_cycles = E.max_cycles")
    w("wd_horizon = watchdog_horizon(max_cycles)")
    w("idle_streak = 0")
    w("issue_width = E.issue_width")
    if has_alloc:
        # The allocate state machine's drain-time halves,
        # _deposit_alloc and _wake_waiters, are inlined below, with
        # TagPool.can_pop read from each site's gate.
        w("pops, ctls, gates = E._codegen_alloc")
        w("alloc_state = E._alloc_state")
        w("alloc_pool = E._alloc_pool")
        w("waiters = E._waiters")
    if has_free:
        w("dirty = E._dirty_pools")
    # MetricsRecorder.sample is inlined into frame locals, committed
    # back in the finally. metrics.cycles is synchronized at the end
    # of every cycle when loads are timed (the probed fire rules read
    # it mid-cycle) and around _stall_for_memory, which both reads
    # and mutates the recorder.
    w("sync = E._timing is not None")
    w("sample_traces = metrics.sample_traces")
    w("ipc_vals = metrics.ipc_trace._values")
    w("ipc_counts = metrics.ipc_trace._counts")
    w("live_vals = metrics.live_trace._values")
    w("live_counts = metrics.live_trace._counts")
    w("cycles = metrics.cycles")
    w("instructions = metrics.instructions")
    w("peak_live = metrics._peak_live")
    w("live_sum = metrics._live_sum")
    w("try:")
    w.indent()
    w("while True:")
    w.indent()
    w("if not ready:")
    w.indent()
    w("if delayed:")
    w.indent()
    w("metrics.cycles = cycles")
    w("metrics.instructions = instructions")
    w("metrics._peak_live = peak_live")
    w("metrics._live_sum = live_sum")
    w("try:")
    w.indent()
    w("E._stall_for_memory()")
    w.dedent()
    w("finally:")
    w.indent()
    w("cycles = metrics.cycles")
    w("peak_live = metrics._peak_live")
    w("live_sum = metrics._live_sum")
    w.dedent()
    w("continue")
    w.dedent()
    w("if E._is_finished():")
    w.indent()
    w("return True")
    w.dedent()
    w("metrics.cycles = cycles")
    w("metrics.instructions = instructions")
    w("E._raise_deadlock()")
    w.dedent()
    w("fired = 0")
    w("budget = issue_width")
    w("while ready and budget > 0:")
    w.indent()
    w("nid, tag, action = popleft()")
    fire = ["if fire_fns[nid](tag):", "    mixed = True"] \
        if "f" in mixed else ["fire_fns[nid](tag)"]
    if has_alloc:
        w("if action == 0:")
        w.indent()
        for line in fire:
            w(line)
        w("fired += 1")
        w("budget -= 1")
        w.dedent()
        w("elif action == 1:")
        w.indent()
        w("popped = pops[nid](tag)")
        w("if popped:")
        w.indent()
        if "p" in mixed:
            w("if popped == 2:")
            w("    mixed = True")
        w("fired += 1")
        w("budget -= 1")
        w.dedent()
        w.dedent()
        w("else:")
        w.indent()
        if "c" in mixed:
            w("if ctls[nid](tag):")
            w("    mixed = True")
        else:
            w("ctls[nid](tag)")
        w("fired += 1")
        w("budget -= 1")
        w.dedent()
    else:
        for line in fire:
            w(line)
        w("fired += 1")
        w("budget -= 1")
    w.dedent()
    # The pending list holds, in emission order, ready entries of
    # directly deposited tokens (3-tuples, moved to ``ready`` as-is)
    # and deferred tokens (4-tuples, deposited below). A cycle that
    # emitted no deferred token moves the whole list at once; tokens
    # maturing this cycle follow it either way.
    w("if pending and not mixed:")
    w.indent()
    w("ready_extend(pending)")
    w("del pending[:]")
    w.dedent()
    w("mixed = False")
    w("matured = delayed.pop(cycles, None) if delayed else None")
    w("if matured:")
    w.indent()
    w("pending.extend(matured)")
    w.dedent()
    w("if pending:")
    w.indent()
    w("for item in pending:")
    w.indent()
    w("if len(item) == 3:")
    w.indent()
    w("ready_append(item)")
    w("continue")
    w.dedent()
    w("nid, port, tag, data = item")
    w("kind, store, n_ports, imms = dep[nid]")
    # Deposit branches only for the firing-rule kinds present.
    plain_dep = [
        "entry = store.get(tag)",
        "if entry is None:",
        "    store[tag] = {port: data}",
        "    if n_ports == 1:",
        "        ready_append((nid, tag, 0))",
        "else:",
        "    entry[port] = data",
        "    if len(entry) == n_ports:",
        "        ready_append((nid, tag, 0))",
    ]
    merge_dep = [
        "entry = store.get(tag)",
        "if entry is None:",
        "    store[tag] = entry = {}",
        "entry[port] = data",
        "if 0 in entry:",
        "    want = 1 if entry[0] else 2",
        "    if want in entry or want in imms:",
        "        ready_append((nid, tag, 0))",
    ]
    branches = [("kind == 0", plain_dep)]
    if has_merge:
        branches.append(("kind == 1", merge_dep))
    alloc_dep = [
        "key = (nid, tag)",
        "st = alloc_state.get(key)",
        "if st is None:",
        "    st = alloc_state[key] = _AllocState()",
        "if port == 0:",
        "    st.request = True",
        "else:",
        "    st.ready = True",
        "    if st.popped and not st.ctl_scheduled:",
        "        st.ctl_scheduled = True",
        "        ready_append((nid, tag, 2))",
        "        continue",
        "if st.request and not st.popped and not st.scheduled:",
        "    free, ready_need, spec_need = gates[nid]",
        "    if len(free) >= (ready_need if st.ready else spec_need):",
        "        st.scheduled = True",
        "        st.waiting = False",
        "        ready_append((nid, tag, 1))",
        "    elif not st.waiting:",
        "        st.waiting = True",
        "        waiters[id(alloc_pool[nid])].append(key)",
    ]
    if has_alloc:
        branches.append((None, alloc_dep))
    if len(branches) == 1:
        for line in branches[0][1]:
            w(line)
    else:
        for i, (cond, body) in enumerate(branches):
            if i == 0:
                w(f"if {cond}:")
            elif cond is None or i == len(branches) - 1:
                w("else:")
            else:
                w(f"elif {cond}:")
            w.indent()
            for line in body:
                w(line)
            w.dedent()
    w.dedent()
    w("del pending[:]")
    w.dedent()
    if has_free and not has_alloc:
        # No allocate site: nothing ever waits on a pool.
        w("if dirty:")
        w("    del dirty[:]")
    elif has_free:
        w("if dirty:")
        w.indent()
        w("for pool in dirty:")
        w.indent()
        # TaggedEngine._wake_waiters, inlined (it never dirties a
        # pool itself, so the list is cleared after the walk).
        for line in [
            "queue = waiters[id(pool)]",
            "if not queue:",
            "    continue",
            "still_waiting = deque()",
            "while queue:",
            "    key = queue.popleft()",
            "    st = alloc_state.get(key)",
            "    if (st is None or st.popped or st.scheduled",
            "            or not st.waiting):",
            "        continue",
            "    free, ready_need, spec_need = gates[key[0]]",
            "    if len(free) >= (ready_need if st.ready else spec_need):",
            "        st.scheduled = True",
            "        st.waiting = False",
            "        ready_append((key[0], key[1], 1))",
            "    else:",
            "        still_waiting.append(key)",
            "waiters[id(pool)] = still_waiting",
        ]:
            w(line)
        w.dedent()
        w("del dirty[:]")
        w.dedent()
    w("live = livebox[0]")
    w("cycles += 1")
    w("instructions += fired")
    w("if fired:")
    w.indent()
    w("idle_streak = 0")
    w.dedent()
    w("elif not delayed:")
    w.indent()
    w("idle_streak += 1")
    w("if idle_streak >= wd_horizon:")
    w.indent()
    w("metrics.cycles = cycles")
    w("metrics.instructions = instructions")
    w("E._raise_deadlock(watchdog=idle_streak)")
    w.dedent()
    w.dedent()
    w("if live > peak_live:")
    w.indent()
    w("peak_live = live")
    w.dedent()
    w("live_sum += live")
    w("if sample_traces:")
    w.indent()
    w("if ipc_counts and ipc_vals[-1] == fired:")
    w.indent()
    w("ipc_counts[-1] += 1")
    w.dedent()
    w("else:")
    w.indent()
    w("ipc_vals.append(fired)")
    w("ipc_counts.append(1)")
    w.dedent()
    w("if live_counts and live_vals[-1] == live:")
    w.indent()
    w("live_counts[-1] += 1")
    w.dedent()
    w("else:")
    w.indent()
    w("live_vals.append(live)")
    w("live_counts.append(1)")
    w.dedent()
    w.dedent()
    w("if sync:")
    w.indent()
    w("metrics.cycles = cycles")
    w.dedent()
    w("if token_bound is not None and live > token_bound:")
    w.indent()
    w("raise TokenBoundExceeded(")
    w("    f\"live tokens {live} exceed Theorem 2 bound \"")
    w("    f\"{token_bound}\")")
    w.dedent()
    w("if cycles >= max_cycles:")
    w.indent()
    w("raise SimulationError(f\"exceeded max_cycles={max_cycles}\")")
    w.dedent()
    w.dedent()
    w.dedent()
    w("finally:")
    w.indent()
    w("metrics.cycles = cycles")
    w("metrics.instructions = instructions")
    w("metrics._peak_live = peak_live")
    w("metrics._live_sum = live_sum")
    w("if sample_traces:")
    w.indent()
    w("metrics.ipc_trace._length = cycles")
    w("metrics.live_trace._length = cycles")
    w.dedent()
    w.dedent()
    w.dedent()
    return w.source()
