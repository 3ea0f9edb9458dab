"""AOT kernel generator for block-window machines (vn/ooo/seqdf).

Emits one module per :class:`~repro.ir.program.ContextProgram` with

* ``bind_fires(E)`` -- the per-block firing tables of
  :meth:`WindowEngine._make_fire` as flat functions: output keys,
  consumer descriptors, immediates and live-token deltas become
  literals, and the ``X if port in entry else imm`` operand probes are
  resolved at generation time (a port is statically either a literal
  or a token port, and every token port is present at fire time).
* ``run_loop(E)`` -- the engine's already-inlined cycle loop with the
  per-cycle ``RLETrace.append`` bodies additionally inlined (both
  trace ``_length`` fields always equal the cycle count, so they are
  committed in the ``finally``).

Bit-identical to the closure interpreter by construction; the golden
records and the differential fuzz suite pin it.
"""

from __future__ import annotations

from itertools import groupby
from typing import List, Tuple

from repro.ir.ops import OP_INFO, Op
from repro.ir.program import ContextProgram
from repro.sim.codegen.core import (Writer, array_ref, chunk_items,
                                    emit_bind, lit, pure_expr,
                                    safe_literal)
from repro.sim.window.plan import BlockPlan, OpPlan, build_plans

Bind = Tuple[str, str]

#: Above this fan-out a port's consumer appends stay a loop over the
#: bound descriptor tuple instead of being unrolled.
_UNROLL_CAP = 6


class _Fn:
    """One firing function being emitted (body first, then the ``def``
    line with the collected default-argument binds)."""

    def __init__(self, bplan: BlockPlan, p: OpPlan, prefix: str) -> None:
        self.bplan = bplan
        self.p = p
        self.name = f"{prefix}_{p.op_id}"
        self.binds: List[Bind] = []
        self._seen: set = set()

    def bind(self, name: str, expr: str) -> str:
        if name not in self._seen:
            self._seen.add(name)
            self.binds.append((name, expr))
        return name

    def imm(self, port: int) -> str:
        value = self.p.imms[port]
        if safe_literal(value):
            return lit(value)
        return self.bind(f"im{port}",
                         f"bops[{self.p.op_id}].imms[{port}]")

    def operand(self, port: int) -> str:
        """Statically resolved ``entry[port] if port in entry else
        imms.get(port)`` (a port is literal xor token, and every token
        port is deposited before a firing; a port that is neither --
        e.g. an inputless term decider -- reads as None, exactly like
        the interpreter's ``imms.get``)."""
        if port in self.p.imms:
            return self.imm(port)
        if port in self.p.token_ports:
            return f"entry[{port}]"
        return "None"

    def cons(self, port: int):
        key = (self.p.op_id, port)
        return tuple(self.bplan.consumers.get(key, ()))

    def out(self, w: Writer, port: int, value: str,
            delta: int) -> None:
        """Inline publish: env write, consumer fan-out, live delta,
        subscription drain -- exactly :meth:`WindowEngine._publish`'s
        order, with the interpreter's per-op delta."""
        key = (self.p.op_id, port)
        cons = self.cons(port)
        w(f"inst.env[{lit(key)}] = {value}")
        if cons and all(safe_literal(c) for c in cons):
            if len(cons) <= _UNROLL_CAP:
                for c in cons:
                    w(f"append((inst, {lit(c)}, {value}))")
            else:
                name = self.bind(
                    f"cons{port}",
                    f"tuple(plan.consumers.get({lit(key)}, ()))")
                w(f"for d in {name}:")
                w.indent()
                w(f"append((inst, d, {value}))")
                w.dedent()
        elif cons:
            name = self.bind(
                f"cons{port}",
                f"tuple(plan.consumers.get({lit(key)}, ()))")
            w(f"for d in {name}:")
            w.indent()
            w(f"append((inst, d, {value}))")
            w.dedent()
        if delta:
            w(f"livebox[0] += {delta}")
        w("if inst.subs:")
        w.indent()
        w(f"subs = inst.subs.pop({lit(key)}, None)")
        w("if subs:")
        w.indent()
        w("for target, target_key in subs:")
        w.indent()
        w(f"forward(target, target_key, {value})")
        w.dedent()
        w.dedent()
        w.dedent()

    def compose(self, w: Writer, body: Writer,
                extra: List[Bind]) -> str:
        parts = ["inst"]
        parts += [f"{n}={e}" for n, e in self.binds + extra]
        parts += ["append=append", "livebox=livebox",
                  "forward=forward"]
        w(f"def {self.name}({', '.join(parts)}):")
        w.indent()
        w.splice(body)
        w.dedent()
        return self.name


def _emit_fire(w: Writer, bplan: BlockPlan, p: OpPlan,
               prefix: str) -> str:
    """Emit the firing function(s) for one op; returns the name bound
    into the block's table."""
    fn = _Fn(bplan, p, prefix)
    oid = p.op_id
    op = p.op
    n0 = len(fn.cons(0))
    n1 = len(fn.cons(1))
    n_t = len(p.token_ports)
    d0 = n0 - n_t
    d1 = n1 - n_t
    w(f"# {bplan.name} op {oid}: "
      f"{'term' if oid == bplan.term_id else op.value}")

    if oid == bplan.term_id:
        b = Writer()
        b(f"entry = inst.wait.pop({oid}, NO)")
        if n_t:
            b(f"livebox[0] -= {n_t}")
        b(f"inst.fired.add({oid})")
        b("inst.term_fired = True")
        b(f"inst.term_decision = {fn.operand(0)}")
        name = fn.compose(w, b, [("NO", "_NO_ENTRY")])
        w()
        return name

    if op is Op.SPAWN:
        w(f"def {fn.name}(inst):")
        w.indent()
        w("raise SimulationError(")
        w("    'spawn is a transfer point, not an instruction')")
        w.dedent()
        w()
        return fn.name

    if op is Op.MERGE:
        b = Writer()
        b(f"entry = inst.wait.pop({oid}, NO)")
        b("livebox[0] -= len(entry)")
        b(f"inst.fired.add({oid})")
        b("chosen = 1 if entry[0] else 2")
        if p.imms:
            im = fn.bind("im", f"bops[{oid}].imms")
            b(f"value = entry[chosen] if chosen in entry "
              f"else {im}[chosen]")
        else:
            b("value = entry[chosen]")
        fn.out(b, 0, "value", n0)
        name = fn.compose(w, b, [("NO", "_NO_ENTRY")])
        w()
        return name

    if op is Op.STEER:
        sense = bool(p.attrs["sense"])
        b = Writer()
        b(f"entry = inst.wait.pop({oid}, NO)")
        b(f"inst.fired.add({oid})")
        b(f"decider = {fn.operand(0)}")
        b(f"value = {fn.operand(1)}")
        b("if decider:" if sense else "if not decider:")
        b.indent()
        fn.out(b, 0, "value", n0)
        b.dedent()
        fn.out(b, 1, "0", d1)
        name = fn.compose(w, b, [("NO", "_NO_ENTRY")])
        w()
        return name

    if op is Op.LOAD:
        arr, src = array_ref(p.attrs["array"], fn.bind,
                             f"bops[{oid}].attrs['array']")
        # Timing is a run parameter: emit both rules, pick at bind
        # time (matching the interpreter's probe-is-None branch). The
        # probed rule delays by the (probe, base) the run's load
        # timing binds for the array.
        fast = Writer()
        fast(f"entry = inst.wait.pop({oid}, NO)")
        fast(f"inst.fired.add({oid})")
        fast(f"addr = {fn.operand(0)}")
        fast(f"value = mem_load({arr}, addr)")
        fn.out(fast, 0, "value", d0)
        fn.out(fast, 1, "0", n1)

        probed = Writer()
        probed(f"entry = inst.wait.pop({oid}, NO)")
        if n_t:
            probed(f"livebox[0] -= {n_t}")
        probed(f"addr = {fn.operand(0)}")
        probed(f"value = mem_load({arr}, addr)")
        probed("delay = probe(base + addr)")
        probed("if delay <= 1:")
        probed.indent()
        probed(f"publish(inst, {lit((oid, 0))}, value)")
        probed(f"publish(inst, {lit((oid, 1))}, 0)")
        probed.dedent()
        probed("else:")
        probed.indent()
        probed("due = metrics.cycles + delay - 1")
        probed("bucket = delayed.get(due)")
        probed("if bucket is None:")
        probed.indent()
        probed("delayed[due] = bucket = []")
        probed.dedent()
        probed(f"bucket.append((inst, {lit((oid, 0))}, value))")
        probed(f"bucket.append((inst, {lit((oid, 1))}, 0))")
        probed.dedent()

        w("if timing is None:")
        w.indent()
        fn.compose(w, fast,
                   [("NO", "_NO_ENTRY"), ("mem_load", "mem_load")])
        w.dedent()
        w("else:")
        w.indent()
        w(f"probe, base = timing.load({src})")
        fn.compose(
            w, probed,
            [("NO", "_NO_ENTRY"), ("mem_load", "mem_load"),
             ("publish", "publish"), ("metrics", "metrics"),
             ("delayed", "delayed"), ("probe", "probe"),
             ("base", "base")])
        w.dedent()
        w()
        return fn.name

    if op is Op.STORE:
        arr, src = array_ref(p.attrs["array"], fn.bind,
                             f"bops[{oid}].attrs['array']")
        b = Writer()
        b(f"entry = inst.wait.pop({oid}, NO)")
        b(f"inst.fired.add({oid})")
        b(f"addr = {fn.operand(0)}")
        b(f"value = {fn.operand(1)}")
        b(f"mem_store({arr}, addr, value)")
        fn.out(b, 0, "0", d0)

        # Stores probe the cache model too (write-allocate) but stay
        # single-cycle; pick the body at bind time like LOAD.
        cb = Writer()
        cb(f"entry = inst.wait.pop({oid}, NO)")
        cb(f"inst.fired.add({oid})")
        cb(f"addr = {fn.operand(0)}")
        cb(f"value = {fn.operand(1)}")
        cb(f"mem_store({arr}, addr, value)")
        cb("probe(base + addr)")
        fn.out(cb, 0, "0", d0)

        w(f"probe, base = timing.store({src}) if timing else UNTIMED")
        w("if probe is None:")
        w.indent()
        fn.compose(
            w, b, [("NO", "_NO_ENTRY"), ("mem_store", "mem_store")])
        w.dedent()
        w("else:")
        w.indent()
        name = fn.compose(
            w, cb, [("NO", "_NO_ENTRY"), ("mem_store", "mem_store"),
                    ("probe", "probe"), ("base", "base")])
        w.dedent()
        w()
        return name

    info = OP_INFO[op]
    if not info.pure:
        w(f"def {fn.name}(inst):")
        w.indent()
        w("raise SimulationError("
          f"{lit('cannot execute ' + op.value)})")
        w.dedent()
        w()
        return fn.name

    # Pure arithmetic/logic. The interpreter's shape split
    # (pure2/pure1/imm variants/generic) only changes which operand
    # expressions appear; statically resolving the ports covers every
    # shape. Ops without an entry default preserve the interpreter's
    # KeyError on a spurious firing.
    n_in = len(p.inputs)
    args = [fn.operand(port) for port in range(n_in)]
    expr = pure_expr(op, args)
    extra: List[Bind] = []
    if expr is None:
        extra.append(("ev", f"OP_INFO[Op.{op.name}].evaluate"))
        expr = f"ev({', '.join(args)})"
    b = Writer()
    if ((not p.imms and n_in in (1, 2))
            or (n_in == 2 and len(p.imms) == 1)):
        # The interpreter's specialized pure shapes pop without a
        # default; preserve the KeyError on a spurious firing.
        b(f"entry = inst.wait.pop({oid})")
    else:
        b(f"entry = inst.wait.pop({oid}, NO)")
        extra.append(("NO", "_NO_ENTRY"))
    b(f"inst.fired.add({oid})")
    b(f"value = {expr}")
    fn.out(b, 0, "value", d0)
    name = fn.compose(w, b, extra)
    w()
    return name


def generate(program: ContextProgram) -> str:
    """Source of the generated kernel module for ``program``."""
    plans = build_plans(program)

    w = Writer()
    w('"""Generated block-window kernels '
      f'({len(plans)} blocks).'
      '\n\nEmitted by repro.sim.codegen.window; regenerated from the'
      '\nplan, never edited. The closure interpreter in'
      '\nsim/window/engine.py is the bit-identical reference."""')
    w("from repro.errors import SimulationError")
    w("from repro.sim.watchdog import watchdog_horizon")
    w("from repro.ir.ops import OP_INFO, Op")
    w("from repro.sim.latency import UNTIMED")
    w()
    w("_NO_ENTRY = {}")
    w()
    w()
    prelude = [
        "livebox = E._livebox",
        "append = E._pending.append",
        "forward = E._forward",
        "mem_load = E.memory.load",
        "mem_store = E.memory.store",
        "metrics = E.metrics",
        "delayed = E._delayed",
        "publish = E._publish",
        "timing = E._timing",
        "plans = E.plans",
        "tables = {}",
    ]
    # One item per op (an op-less block still needs its empty table);
    # a block split across chunks re-fetches its plan per segment.
    items = [(bi, bname, bplan, p)
             for bi, (bname, bplan) in enumerate(plans.items())
             for p in (bplan.ops or [None])]

    def chunk(part):
        def body(w: Writer) -> None:
            for (bi, bname, bplan), group in groupby(
                    part, key=lambda item: item[:3]):
                ops = [p for *_, p in group if p is not None]
                first = not ops or ops[0] is bplan.ops[0]
                w(f"# block {bname!r}")
                w(f"plan = plans[{lit(bname)}]")
                w("bops = plan.ops")
                names = [_emit_fire(w, bplan, p, f"f{bi}") for p in ops]
                w(f"tables[{lit(bname)}] {'=' if first else '+='} "
                  f"[{', '.join(names)}]")
                w()
        return body

    emit_bind(w, "bind_fires",
              "Bind per-block firing tables to a live WindowEngine.",
              prelude, [chunk(c) for c in chunk_items(items)], "tables")
    w.chunk()
    w("def run_loop(E):")
    w.indent()
    w('"""The engine cycle loop (already locals-accumulated in the')
    w('interpreter) with RLETrace.append inlined."""')
    w("completed = False")
    w("metrics = E.metrics")
    w("livebox = E._livebox")
    w("ready = E._ready")
    w("popleft = ready.popleft")
    w("ready_append = ready.append")
    w("pending = E._pending")
    w("retire = E._retire")
    w("retire_popleft = retire.popleft")
    w("delayed = E._delayed")
    w("fetch = E._fetch")
    w("publish = E._publish")
    w("status = E._op_status")
    w("maybe_release = E._maybe_release")
    w("issue_width = E.issue_width")
    w("fetch_width = E.fetch_width")
    w("max_cycles = E.max_cycles")
    w("wd_horizon = watchdog_horizon(max_cycles)")
    w("idle_streak = 0")
    w("sync_cycles = E._timing is not None")
    w("traces = metrics.sample_traces")
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
    w("fired = 0")
    w("if ready:")
    w.indent()
    w("budget = issue_width")
    w("while ready and budget > 0:")
    w.indent()
    w("inst, op_id = popleft()")
    w("inst.fires[op_id](inst)")
    w("fired += 1")
    w("budget -= 1")
    w.dedent()
    w.dedent()
    w("progressed = False")
    w("while retire:")
    w.indent()
    w("entry = retire[0]")
    w("inst = entry[0]")
    w("ops = entry[1]")
    w("pos = entry[2]")
    w("n = len(ops)")
    w("fired_set = inst.fired")
    w("while pos < n:")
    w.indent()
    w("oid = ops[pos]")
    w("if oid in fired_set:")
    w.indent()
    w("pos += 1")
    w("continue")
    w.dedent()
    w("if (not inst.plan.guarded[oid]")
    w("        or status(inst, oid) == 'pending'):")
    w.indent()
    w("break")
    w.dedent()
    w("pos += 1")
    w.dedent()
    w("if pos < n:")
    w.indent()
    w("entry[2] = pos")
    w("break")
    w.dedent()
    w("retire_popleft()")
    w("inst.live_slices -= 1")
    w("progressed = True")
    w("maybe_release(inst)")
    w.dedent()
    w("fc = fetch_width")
    w("while fc:")
    w.indent()
    w("if not fetch():")
    w.indent()
    w("break")
    w.dedent()
    w("progressed = True")
    w("fc -= 1")
    w.dedent()
    w("if delayed:")
    w.indent()
    w("matured = delayed.pop(cycles, None)")
    w("if matured:")
    w.indent()
    w("for inst, key, value in matured:")
    w.indent()
    w("publish(inst, key, value)")
    w.dedent()
    w.dedent()
    w.dedent()
    w("if pending:")
    w.indent()
    w("for inst, c, value in pending:")
    w.indent()
    w("op_id = c[0]")
    w("wait = inst.wait")
    w("entry = wait.get(op_id)")
    w("if entry is None:")
    w.indent()
    w("wait[op_id] = entry = {c[1]: value}")
    w("n_have = 1")
    w.dedent()
    w("else:")
    w.indent()
    w("entry[c[1]] = value")
    w("n_have = len(entry)")
    w.dedent()
    w("if c[2]:")
    w.indent()
    w("if 0 not in entry:")
    w.indent()
    w("continue")
    w.dedent()
    w("want = 1 if entry[0] else 2")
    w("if want not in entry and not c[5][want - 1]:")
    w.indent()
    w("continue")
    w.dedent()
    w.dedent()
    w("elif n_have != c[3]:")
    w.indent()
    w("continue")
    w.dedent()
    w("if c[4] in inst.fetched:")
    w.indent()
    w("ready_append((inst, op_id))")
    w.dedent()
    w("else:")
    w.indent()
    w("inst.armed.add(op_id)")
    w.dedent()
    w.dedent()
    w("del pending[:]")
    w.dedent()
    w("if fired == 0 and not progressed and not ready:")
    w.indent()
    w("idle_streak += 1")
    w("if idle_streak >= wd_horizon and (")
    w("        not delayed or min(delayed) < cycles):")
    w.indent()
    w("metrics.cycles = cycles")
    w("metrics.instructions = instructions")
    w("E._raise_deadlock(watchdog=idle_streak)")
    w.dedent()
    w("if delayed:")
    w.indent()
    w("cycles += 1")
    w("metrics.cycles = cycles")
    w("live = livebox[0]")
    w("if live > peak_live:")
    w.indent()
    w("peak_live = live")
    w.dedent()
    w("live_sum += live")
    w("if traces:")
    w.indent()
    w("if ipc_counts and ipc_vals[-1] == 0:")
    w.indent()
    w("ipc_counts[-1] += 1")
    w.dedent()
    w("else:")
    w.indent()
    w("ipc_vals.append(0)")
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
    w("continue")
    w.dedent()
    w("if E._is_finished():")
    w.indent()
    w("completed = True")
    w("break")
    w.dedent()
    w("E._raise_deadlock()")
    w.dedent()
    w("else:")
    w.indent()
    w("idle_streak = 0")
    w.dedent()
    w("cycles += 1")
    w("if sync_cycles:")
    w.indent()
    w("metrics.cycles = cycles")
    w.dedent()
    w("instructions += fired")
    w("live = livebox[0]")
    w("if live > peak_live:")
    w.indent()
    w("peak_live = live")
    w.dedent()
    w("live_sum += live")
    w("if traces:")
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
    w("if traces:")
    w.indent()
    w("metrics.ipc_trace._length = cycles")
    w("metrics.live_trace._length = cycles")
    w.dedent()
    w.dedent()
    w("return completed")
    w.dedent()
    return w.source()
