"""AOT kernel generator for flat (ordered-dataflow) graphs.

Emits one module per :class:`~repro.compiler.flatten.FlatGraph` with

* ``bind_fires(E)`` -- one flat try-fire function per static node,
  the exact firing rule of :meth:`QueuedEngine._make_try_fire` with
  the per-port FIFO checks, fresh-map keys, back-pressure probes and
  destination pushes unrolled (fresh keys become integer literals,
  destination deques become default arguments).
* ``run_loop(E)`` -- the engine's cycle loop with the
  ``MetricsRecorder.sample`` body inlined into frame locals that are
  committed back in a ``finally`` (the idiom of the window engine's
  interpreted loop). ``metrics.cycles`` is synchronized every cycle
  when loads are timed because the probed load firing rules and
  ``_deliver_memory_responses`` read it, and committed / reloaded
  around ``_stall_for_memory`` (which mutates the recorder).

Bit-identical to the closure interpreter by construction; the golden
records and the differential fuzz suite pin it.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.compiler.flatten import FlatGraph
from repro.ir.ops import OP_INFO, Op
from repro.sim.codegen.core import (Writer, array_ref, chunk_items,
                                    emit_bind, lit, pure_expr,
                                    safe_literal)

Bind = Tuple[str, str]

#: Above this fan-out a destination port's pushes stay a loop over the
#: engine's descriptor list instead of being unrolled.
_UNROLL_CAP = 4


class _Node:
    """Per-node emission state.

    The firing-rule body is emitted into a sub-:class:`Writer` first;
    referencing a FIFO, immediate, or destination registers the
    corresponding default-argument bind, and :meth:`compose` then
    writes the ``def`` line with the full bind list and splices the
    body under it.
    """

    def __init__(self, graph: FlatGraph, nid: int,
                 stride: int) -> None:
        self.nd = graph.nodes[nid]
        self.nid = nid
        self.stride = stride
        self.binds: List[Bind] = []
        self._seen: set = set()

    def _bind(self, name: str, expr: str) -> str:
        if name not in self._seen:
            self._seen.add(name)
            self.binds.append((name, expr))
        return name

    # -- input ports ---------------------------------------------------
    def is_imm(self, port: int) -> bool:
        return port in self.nd.imms

    def fifo(self, port: int) -> str:
        return self._bind(f"f{port}", f"fifos[{self.nid}][{port}]")

    def key(self, port: int) -> int:
        return self.nid * self.stride + port

    def imm(self, port: int) -> str:
        value = self.nd.imms[port]
        if safe_literal(value):
            return lit(value)
        return self._bind(f"i{port}", f"imms[{self.nid}][{port}]")

    def avail(self, w: Writer, port: int) -> None:
        """Head-of-FIFO availability check for a token port.

        Same-cycle pushes are subtracted via a dense dirty-tracked
        counter list instead of the interpreter's dict (same
        visibility semantics, cheaper indexing).
        """
        w(f"if len({self.fifo(port)}) - fresh[{self.key(port)}]"
          " <= 0:")
        w.indent()
        w("return False")
        w.dedent()

    def operand(self, w: Writer, port: int, var: str) -> None:
        """Availability check + head capture for one input port."""
        if self.is_imm(port):
            w(f"{var} = {self.imm(port)}")
        else:
            self.avail(w, port)
            w(f"{var} = {self.fifo(port)}[0]")

    # -- output ports --------------------------------------------------
    def dests(self, port: int):
        return self.nd.out_edges[port]

    def unrolled(self, port: int) -> bool:
        return len(self.dests(port)) <= _UNROLL_CAP

    def dest_fifo(self, port: int, j: int) -> str:
        dest_id, dest_port = self.dests(port)[j]
        return self._bind(f"g{port}_{j}",
                          f"fifos[{dest_id}][{dest_port}]")

    def dest_list(self, port: int) -> str:
        return self._bind(f"dd{port}", f"dests[{self.nid}][{port}]")

    def backpressure(self, w: Writer, port: int) -> None:
        if not self.dests(port):
            return
        if self.unrolled(port):
            for j in range(len(self.dests(port))):
                w(f"if len({self.dest_fifo(port, j)}) >= depth:")
                w.indent()
                w("return False")
                w.dedent()
        else:
            w(f"for f, k, d in {self.dest_list(port)}:")
            w.indent()
            w("if len(f) >= depth:")
            w.indent()
            w("return False")
            w.dedent()
            w.dedent()

    def push(self, w: Writer, port: int, value: str) -> None:
        """Push ``value`` to every destination of ``port`` (appends,
        fresh-count bumps, next-candidate adds, livebox credit)."""
        dests = self.dests(port)
        if not dests:
            return
        if self.unrolled(port):
            for j, (dest_id, dest_port) in enumerate(dests):
                g = self.dest_fifo(port, j)
                k = dest_id * self.stride + dest_port
                w(f"{g}.append({value})")
                w(f"fresh[{k}] += 1")
                w(f"dirty_append({k})")
                w(f"nc_add({dest_id})")
        else:
            w(f"for f, k, d in {self.dest_list(port)}:")
            w.indent()
            w(f"f.append({value})")
            w("fresh[k] += 1")
            w("dirty_append(k)")
            w("nc_add(d)")
            w.dedent()
        w(f"livebox[0] += {len(dests)}")

    def pops(self, w: Writer, ports: List[int]) -> None:
        """Pop the token ports among ``ports`` and wake producers
        (the interpreter's ``popped`` flag resolved at generation
        time)."""
        token_ports = [p for p in ports if not self.is_imm(p)]
        for p in token_ports:
            w(f"{self.fifo(p)}.popleft()")
        if token_ports:
            # One coalesced livebox decrement: the intermediate values
            # are unobservable between pops.
            w(f"livebox[0] -= {len(token_ports)}")
            w("nc_update(prod)")

    def compose(self, w: Writer, body: Writer,
                extra: List[Bind]) -> str:
        """Write ``def t{nid}(binds...)`` + the emitted body."""
        name = f"t{self.nid}"
        parts = [f"{n}={e}" for n, e in self.binds + extra]
        parts += ["fresh=fresh_list", "dirty_append=dirty_append",
                  "nc_add=nc_add", "nc_update=nc_update",
                  f"prod=producers[{self.nid}]",
                  "livebox=livebox", "depth=depth"]
        w(f"def {name}({', '.join(parts)}):")
        w.indent()
        w.splice(body)
        w.dedent()
        return name


def _emit_node(w: Writer, graph: FlatGraph, nid: int,
               stride: int) -> None:
    node = _Node(graph, nid, stride)
    nd = node.nd
    op = nd.op
    imms = nd.imms
    n_in = nd.n_inputs
    w(f"# node {nid}: {op.value}")

    if op is Op.MU:
        b = Writer()
        b(f"if mu[{nid}] == 0:")
        b.indent()
        node.operand(b, 0, "value")
        node.backpressure(b, 0)
        node.pops(b, [0])
        node.push(b, 0, "value")
        b(f"mu[{nid}] = 1")
        b("return True")
        b.dedent()
        node.operand(b, 2, "d2")
        node.operand(b, 1, "back")
        b("if d2:")
        b.indent()
        node.backpressure(b, 0)
        node.pops(b, [2, 1])
        node.push(b, 0, "back")
        b.dedent()
        b("else:")
        b.indent()
        node.pops(b, [2, 1])
        b(f"mu[{nid}] = 0")
        b.dedent()
        b("return True")
        name = node.compose(w, b, [("mu", "mu_state")])
        w(f"fns[{nid}] = {name}")
        w()
        return

    if op is Op.MERGE:
        b = Writer()
        node.operand(b, 0, "d0")
        b("if d0:")
        b.indent()
        for chosen in (1, 2):
            node.operand(b, chosen, "value")
            node.backpressure(b, 0)
            node.pops(b, [0, chosen])
            node.push(b, 0, "value")
            b("return True")
            b.dedent()
            if chosen == 1:
                b("else:")
                b.indent()
        name = node.compose(w, b, [])
        w(f"fns[{nid}] = {name}")
        w()
        return

    if op is Op.STEER:
        sense = bool(nd.attrs["sense"])
        b = Writer()
        node.operand(b, 0, "d0")
        node.operand(b, 1, "value")
        b("if d0:" if sense else "if not d0:")
        b.indent()
        node.backpressure(b, 0)
        node.pops(b, [0, 1])
        node.push(b, 0, "value")
        b.dedent()
        b("else:")
        b.indent()
        node.pops(b, [0, 1])
        if all(node.is_imm(p) for p in (0, 1)):
            b("pass")
        b.dedent()
        b("return True")
        name = node.compose(w, b, [])
        w(f"fns[{nid}] = {name}")
        w()
        return

    if op is Op.LOAD:
        arr, src = array_ref(nd.attrs["array"], node._bind,
                             f"attrs[{nid}]['array']")
        # Timing is a run parameter: emit both firing rules, pick at
        # bind time. Under unit latency nothing ever enters the
        # in-flight map, so the fast rule drops those checks; the
        # probed rule delays by the (probe, base) the run's load
        # timing binds for the array.
        fast = Writer()
        for p in range(n_in):
            node.operand(fast, p, f"a{p}")
        node.backpressure(fast, 0)
        node.backpressure(fast, 1)
        node.pops(fast, list(range(n_in)))
        fast(f"value = mem_load({arr}, a0)")
        node.push(fast, 0, "value")
        node.push(fast, 1, "0")
        fast("return True")

        probed = Writer()
        for p in range(n_in):
            node.operand(probed, p, f"a{p}")
        node.backpressure(probed, 0)
        node.backpressure(probed, 1)
        node.pops(probed, list(range(n_in)))
        probed(f"value = mem_load({arr}, a0)")
        probed("delay = probe(base + a0)")
        probed(f"if delay <= 1 and {nid} not in inflight:")
        probed.indent()
        node.push(probed, 0, "value")
        node.push(probed, 1, "0")
        if not (node.dests(0) or node.dests(1)):
            probed("pass")
        probed.dedent()
        probed("else:")
        probed.indent()
        probed("due = metrics.cycles + delay - 1")
        probed(f"queue = inflight.get({nid})")
        probed("if queue is None:")
        probed.indent()
        probed(f"inflight[{nid}] = queue = deque()")
        # A new queue's head may mature before every other head; an
        # append behind an existing head never can (head-of-line
        # blocking), so only this arm can lower the delivery bound.
        probed("if due < due_box[0]:")
        probed.indent()
        probed("due_box[0] = due")
        probed.dedent()
        probed.dedent()
        probed("queue.append((due, value))")
        probed.dedent()
        probed("return True")

        w("if timing is None:")
        w.indent()
        node.compose(w, fast, [("mem_load", "mem_load")])
        w.dedent()
        w("else:")
        w.indent()
        w(f"probe, base = timing.load({src})")
        name = node.compose(
            w, probed,
            [("mem_load", "mem_load"), ("inflight", "inflight"),
             ("metrics", "metrics"), ("probe", "probe"),
             ("base", "base"), ("deque", "deque"),
             ("due_box", "due_box")])
        w.dedent()
        w(f"fns[{nid}] = {name}")
        w()
        return

    if op is Op.STORE:
        arr, src = array_ref(nd.attrs["array"], node._bind,
                             f"attrs[{nid}]['array']")
        b = Writer()
        for p in range(n_in):
            node.operand(b, p, f"a{p}")
        node.backpressure(b, 0)
        node.pops(b, list(range(n_in)))
        b(f"mem_store({arr}, a0, a1)")
        node.push(b, 0, "0")
        b("return True")

        # Stores probe the cache model too (write-allocate) but stay
        # single-cycle; pick the body at bind time like LOAD.
        cb = Writer()
        for p in range(n_in):
            node.operand(cb, p, f"a{p}")
        node.backpressure(cb, 0)
        node.pops(cb, list(range(n_in)))
        cb(f"mem_store({arr}, a0, a1)")
        cb("probe(base + a0)")
        node.push(cb, 0, "0")
        cb("return True")

        w(f"probe, base = timing.store({src}) if timing else UNTIMED")
        w("if probe is None:")
        w.indent()
        node.compose(w, b, [("mem_store", "mem_store")])
        w.dedent()
        w("else:")
        w.indent()
        name = node.compose(w, cb, [("mem_store", "mem_store"),
                                    ("probe", "probe"),
                                    ("base", "base")])
        w.dedent()
        w(f"fns[{nid}] = {name}")
        w()
        return

    info = OP_INFO[op]
    if not info.pure:
        w(f"def t{nid}():")
        w.indent()
        w("raise SimulationError("
          f"{lit('cannot execute ' + op.value + ' (flat)')})")
        w.dedent()
        w(f"fns[{nid}] = t{nid}")
        w()
        return

    # Pure arithmetic/logic; mirror the interpreter's shapes.
    result_idx = nd.attrs.get("result_index")
    extra: List[Bind] = []

    def value_expr(args: List[str]) -> str:
        expr = pure_expr(op, args)
        if expr is None:
            extra.append(("ev", f"OP_INFO[Op.{op.name}].evaluate"))
            return f"ev({', '.join(args)})"
        return expr

    if result_idx is None and n_in == 2 and not imms:
        expr = value_expr(["a", "b"])
        b = Writer()
        node.avail(b, 0)
        node.avail(b, 1)
        node.backpressure(b, 0)
        b(f"a = {node.fifo(0)}.popleft()")
        b(f"b = {node.fifo(1)}.popleft()")
        b("livebox[0] -= 2")
        b("nc_update(prod)")
        b(f"value = {expr}")
        node.push(b, 0, "value")
        b("return True")
        name = node.compose(w, b, extra)
        w(f"fns[{nid}] = {name}")
        w()
        return

    if result_idx is None and n_in == 1 and not imms:
        expr = value_expr(["a"])
        b = Writer()
        node.avail(b, 0)
        node.backpressure(b, 0)
        b(f"a = {node.fifo(0)}.popleft()")
        b("livebox[0] -= 1")
        b("nc_update(prod)")
        b(f"value = {expr}")
        node.push(b, 0, "value")
        b("return True")
        name = node.compose(w, b, extra)
        w(f"fns[{nid}] = {name}")
        w()
        return

    expr = value_expr([f"a{p}" for p in range(n_in)])
    if result_idx is not None:
        extra.append(("results", "results"))
    b = Writer()
    for p in range(n_in):
        node.operand(b, p, f"a{p}")
    node.backpressure(b, 0)
    node.pops(b, list(range(n_in)))
    b(f"value = {expr}")
    if result_idx is not None:
        b(f"results[{result_idx}] = value")
    node.push(b, 0, "value")
    b("return True")
    name = node.compose(w, b, extra)
    w(f"fns[{nid}] = {name}")
    w()


def generate(graph: FlatGraph) -> str:
    """Source of the generated kernel module for ``graph``."""
    n = len(graph.nodes)
    stride = max((nd.n_inputs for nd in graph.nodes),
                 default=1) or 1
    has_mu = any(nd.op is Op.MU for nd in graph.nodes)

    w = Writer()
    w('"""Generated flat-graph kernels '
      f'({n} nodes, fresh-key stride {stride}).'
      '\n\nEmitted by repro.sim.codegen.queued; regenerated from the'
      '\nplan, never edited. The closure interpreter in'
      '\nsim/queued/engine.py is the bit-identical reference."""')
    w("from collections import deque")
    w("from sys import maxsize")
    w()
    w("from repro.errors import SimulationError")
    w("from repro.sim.watchdog import watchdog_horizon")
    w("from repro.ir.ops import OP_INFO, Op")
    w("from repro.sim.latency import UNTIMED")
    w()
    w()
    # Same-cycle token visibility: a dense counter list (indexed by
    # the engine's int fresh keys) with an explicit dirty list, reset
    # by the generated run_loop each cycle. Replaces E._fresh for the
    # generated path only.
    prelude = [
        "fifos = E._fifos",
        "dests = E._dests",
        "producers = E._producers",
        "imms = E._imms",
        "attrs = E._attrs",
        "results = E._results",
        f"fresh_list = [0] * {n * stride}",
        "dirty = []",
        "dirty_append = dirty.append",
        "E._codegen_fresh = (fresh_list, dirty)",
        "nc_add = E._next_candidates.add",
        "nc_update = E._next_candidates.update",
        "livebox = E._livebox",
        "depth = E.queue_depth",
        "mem_load = E.memory.load",
        "mem_store = E.memory.store",
        "metrics = E.metrics",
        "inflight = E._inflight",
        "due_box = E._due_box",
        "timing = E._timing",
    ]
    if has_mu:
        prelude.append("mu_state = E._mu_state")
    prelude.append(f"fns = [None] * {n}")

    def chunk(nids):
        def body(w: Writer) -> None:
            for nid in nids:
                _emit_node(w, graph, nid, stride)
        return body

    emit_bind(w, "bind_fires",
              "Bind per-node try-fire kernels to a live QueuedEngine.",
              prelude, [chunk(c) for c in chunk_items(range(n))], "fns")
    w.chunk()
    w("def run_loop(E):")
    w.indent()
    w('"""The engine cycle loop with MetricsRecorder.sample inlined')
    w('into frame locals (committed back in the finally)."""')
    w("metrics = E.metrics")
    w("nc = E._next_candidates")
    w("nc_add = nc.add")
    w("nc_clear = nc.clear")
    w("fresh_list, dirty = E._codegen_fresh")
    w("dirty_append = dirty.append")
    w("dests = E._dests")
    w("livebox = E._livebox")
    w("try_fns = tuple(E._try_fire_fns)")
    w("issue_width = E.issue_width")
    w("max_cycles = E.max_cycles")
    w("wd_horizon = watchdog_horizon(max_cycles)")
    w("idle_streak = 0")
    w("inflight = E._inflight")
    w("due_box = E._due_box")
    w("stall = E._stall_for_memory")
    w("sync = E._timing is not None")
    w("sample_traces = metrics.sample_traces")
    # RLETrace.append inlined below; _length for both traces always
    # equals the cycle count, so it is committed in the finally.
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
    w("candidates = sorted(nc)")
    w("nc_clear()")
    w("if dirty:")
    w.indent()
    w("for k in dirty:")
    w.indent()
    w("fresh_list[k] = 0")
    w.dedent()
    w("del dirty[:]")
    w.dedent()
    # Inline _deliver_memory_responses against the dense fresh list
    # (``now`` is the local cycle counter; the invariant
    # metrics.cycles == cycles holds whenever loads can be in flight).
    # Skipped outright until the earliest queue head matures -- no
    # head can be due before due_box[0] (head-of-line blocking), so
    # cycles without a maturing load never scan the in-flight map.
    w("if inflight and cycles >= due_box[0]:")
    w.indent()
    w("done = None")
    w("for lnid, queue in inflight.items():")
    w.indent()
    w("while queue and queue[0][0] <= cycles:")
    w.indent()
    w("_, value = queue.popleft()")
    w("for f, k, d in dests[lnid][0]:")
    w.indent()
    w("f.append(value)")
    w("fresh_list[k] += 1")
    w("dirty_append(k)")
    w("nc_add(d)")
    w.dedent()
    w("livebox[0] += len(dests[lnid][0])")
    w("for f, k, d in dests[lnid][1]:")
    w.indent()
    w("f.append(0)")
    w("fresh_list[k] += 1")
    w("dirty_append(k)")
    w("nc_add(d)")
    w.dedent()
    w("livebox[0] += len(dests[lnid][1])")
    w.dedent()
    w("if not queue:")
    w.indent()
    w("if done is None:")
    w.indent()
    w("done = []")
    w.dedent()
    w("done.append(lnid)")
    w.dedent()
    w.dedent()
    w("if done is not None:")
    w.indent()
    w("for lnid in done:")
    w.indent()
    w("del inflight[lnid]")
    w.dedent()
    w.dedent()
    w("due_box[0] = min((q[0][0] for q in inflight.values()),")
    w("                 default=maxsize)")
    w.dedent()
    w("fired = 0")
    # When the issue width covers every candidate the budget can
    # never run out mid-scan (it only decrements on fires), so the
    # common wide-issue case skips the budget bookkeeping entirely.
    w("if issue_width >= len(candidates):")
    w.indent()
    w("for nid in candidates:")
    w.indent()
    w("if try_fns[nid]():")
    w.indent()
    w("fired += 1")
    w("nc_add(nid)")
    w.dedent()
    w.dedent()
    w.dedent()
    w("else:")
    w.indent()
    w("budget = issue_width")
    w("for nid in candidates:")
    w.indent()
    w("if budget == 0:")
    w.indent()
    w("nc_add(nid)")
    w.dedent()
    w("elif try_fns[nid]():")
    w.indent()
    w("fired += 1")
    w("budget -= 1")
    w("nc_add(nid)")
    w.dedent()
    w.dedent()
    w.dedent()
    w("if fired == 0 and not nc:")
    w.indent()
    w("if inflight:")
    w.indent()
    # _stall_for_memory reads and mutates the recorder: commit the
    # locals, run it, and reload what it changed -- in an inner
    # finally so a max_cycles raise inside the stall still leaves
    # the outer commit writing current values.
    w("metrics.cycles = cycles")
    w("metrics.instructions = instructions")
    w("metrics._peak_live = peak_live")
    w("metrics._live_sum = live_sum")
    w("try:")
    w.indent()
    w("stall()")
    w.dedent()
    w("finally:")
    w.indent()
    w("cycles = metrics.cycles")
    w("peak_live = metrics._peak_live")
    w("live_sum = metrics._live_sum")
    w.dedent()
    w("continue")
    w.dedent()
    w("if livebox[0] == 0:")
    w.indent()
    w("return True")
    w.dedent()
    w("E._raise_deadlock()")
    w.dedent()
    w("live = livebox[0]")
    w("cycles += 1")
    w("instructions += fired")
    w("if fired:")
    w.indent()
    w("idle_streak = 0")
    w.dedent()
    w("elif not inflight:")
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
