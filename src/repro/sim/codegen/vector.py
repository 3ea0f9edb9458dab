"""AOT kernel generator for the data-parallel (vector) machine.

The interpreter walks each block as a tuple of per-op step closures
(:meth:`DataParallelEngine._make_step`).  The generated module instead
emits **one straight-line function per block** -- region branches
become real ``if`` statements, operand slots and array names become
literals, and pure opcodes inline their expression templates -- so a
block activation is a single call instead of a closure per op.

``bind_steps(E)`` returns the ``(ticked, silent)`` table dicts the
engine stores as ``_ticked``/``_silent``; each block maps to a
1-tuple, which keeps :meth:`DataParallelEngine._exec_block` and
:meth:`~DataParallelEngine._exec_vector_loop` unchanged.  Blocks
containing loads or stores are emitted twice -- idealized, and probed
through the per-array ``(probe, base)`` of the engine's load timing
(:func:`repro.sim.latency.load_timing`, which covers both the
``load_latency`` hash and the cache model) -- and selected at bind
time; probed loads fast-forward their stall through the
``_stall_scalar_load`` O(1) path.  Spawned loops are classified
vector-vs-scalar at generation time (``classify_loop`` is a pure
function of the program).

Profiled runs never bind kernels (the profiler wraps the interpreter's
per-op ticks), so generated ticks are always the plain recorder.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.ops import OP_INFO, Op
from repro.ir.program import BlockKind, ContextProgram
from repro.sim.codegen.core import (Writer, chunk_items, emit_bind, lit,
                                    pure_expr, safe_literal)
from repro.sim.vector.analysis import classify_loop
from repro.sim.vector.plan import VecIf, VecOp, build_vec_plans

Bind = Tuple[str, str]


class _Binder:
    """Collects the default-argument binds of one block function."""

    def __init__(self) -> None:
        self.binds: List[Bind] = []
        self._seen: set = set()
        #: Bind-time statements run before the ``def`` (the per-array
        #: load-timing lookups).
        self.setup: List[str] = []
        #: (load|store, array) -> its bound (probe, base) names.
        self.probes: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def need(self, name: str, expr: str) -> str:
        if name not in self._seen:
            self._seen.add(name)
            self.binds.append((name, expr))
        return name

    def probe(self, kind: str, array: str) -> Tuple[str, str]:
        """The ``(probe, base)`` names the run's load timing binds for
        ``kind`` (``load`` or ``store``) accesses to ``array``."""
        names = self.probes.get((kind, array))
        if names is None:
            k = len(self.probes)
            names = self.probes[kind, array] = (f"p{k}", f"base{k}")
            self.setup.append(f"{names[0]}, {names[1]} = "
                              f"timing.{kind}({lit(array)})")
            for name in names:
                self.need(name, name)
        return names


def _emit_items(w: Writer, b: _Binder, items, mode: str,
                ctx) -> None:
    """Emit the body for a tuple of region items.

    ``mode`` is ``ticked`` (idealized loads), ``probed`` (loads and
    stores timed by the run's per-array ``(probe, base)``) or
    ``silent`` (vector body, no ticks; vector-body memory bypasses the
    load timing like the interpreter's silent steps).
    """
    ticked = mode != "silent"
    for item in items:
        if isinstance(item, VecIf):
            d = item.decider_slot
            if item.then_items:
                w(f"if env[{d}]:")
                w.indent()
                _emit_items(w, b, item.then_items, mode, ctx)
                w.dedent()
                if item.else_items:
                    w("else:")
                    w.indent()
                    _emit_items(w, b, item.else_items, mode, ctx)
                    w.dedent()
            elif item.else_items:
                w(f"if not env[{d}]:")
                w.indent()
                _emit_items(w, b, item.else_items, mode, ctx)
                w.dedent()
            continue

        assert isinstance(item, VecOp)
        op = item.op
        ins = item.in_slots
        outs = item.out_slots

        if op is Op.SPAWN:
            _emit_spawn(w, b, item, ticked, ctx)
            continue

        if ticked:
            b.need("tick", "tick")
            b.need("live", "live")

        if op is Op.LOAD:
            array = item.attrs["array"]
            arr = lit(array) if safe_literal(array) else b.need(
                "ld_array", "None")  # pragma: no cover - names are str
            b.need("mem_load", "mem_load")
            if mode == "probed":
                b.need("stall", "stall")
                b.need("miss_latency", "timing.miss_latency")
                probe, base = b.probe("load", array)
                w("tick(1, live)")
                w(f"index = env[{ins[0]}]")
                w(f"env[{outs[0]}] = mem_load({arr}, index)")
                w(f"env[{outs[1]}] = 0")
                w(f"delay = {probe}({base} + index)")
                w("if delay > 1:")
                w.indent()
                w("stall(delay - 1, live, delay >= miss_latency)")
                w.dedent()
            else:
                if ticked:
                    w("tick(1, live)")
                w(f"env[{outs[0]}] = mem_load({arr}, env[{ins[0]}])")
                w(f"env[{outs[1]}] = 0")
            continue

        if op is Op.STORE:
            array = item.attrs["array"]
            arr = lit(array)
            b.need("mem_store", "mem_store")
            if ticked:
                w("tick(1, live)")
            w(f"mem_store({arr}, env[{ins[0]}], env[{ins[1]}])")
            if mode == "probed":
                probe, base = b.probe("store", array)
                w(f"if {probe} is not None:")
                w(f"    {probe}({base} + env[{ins[0]}])")
            w(f"env[{outs[0]}] = 0")
            continue

        if op is Op.STEER:
            # Pass-through of the value operand (control is resolved
            # by the region tree).
            if ticked:
                w("tick(1, live)")
            w(f"env[{outs[0]}] = env[{ins[1]}]")
            w(f"env[{outs[1]}] = 0")
            continue

        if op is Op.MERGE:
            if ticked:
                w("tick(1, live)")
            w(f"env[{outs[0]}] = (env[{ins[1]}] if env[{ins[0]}]"
              f" else env[{ins[2]}])")
            continue

        info = OP_INFO[op]
        if not info.pure:
            where = "" if ticked else " in a vector body"
            w("raise SimulationError(")
            w(f"    {lit('cannot execute ' + op.value + where)})")
            continue

        args = [f"env[{s}]" for s in ins]
        expr = pure_expr(op, args)
        if expr is None:
            ev = b.need(f"ev_{op.name.lower()}",
                        f"OP_INFO[Op.{op.name}].evaluate")
            expr = f"{ev}({', '.join(args)})"
        if ticked:
            w("tick(1, live)")
        w(f"env[{outs[0]}] = {expr}")


def _emit_spawn(w: Writer, b: _Binder, item: VecOp, ticked: bool,
                ctx) -> None:
    if not ticked:
        # classify_loop rejects loops containing transfer points.
        w("raise SimulationError(")
        w("    'cannot execute spawn in a vector body')")
        return
    program, plans, counters = ctx
    callee = item.attrs["callee"]
    callee_kind = program.block(callee).kind
    is_vec = (callee_kind is BlockKind.LOOP
              and classify_loop(program.block(callee)) is not None)
    j = counters[0]
    counters[0] += 1
    cp = b.need(f"cp{j}", f"plans[{lit(callee)}]")
    arg_list = ", ".join(f"env[{s}]" for s in item.in_slots)
    n_res = len(plans[callee].term_results)
    if is_vec:
        vi = b.need(f"vi{j}", f"vector_info[{lit(callee)}]")
        b.need("exec_vector", "exec_vector")
        w(f"r = exec_vector({cp}, {vi}, [{arg_list}])")
    else:
        if callee_kind is BlockKind.LOOP:
            b.need("E", "E")
            w("E.scalar_trips += 1")
        b.need("exec_block", "exec_block")
        w(f"r = exec_block({cp}, [{arg_list}])")
    for k, slot in enumerate(item.out_slots[:n_res]):
        w(f"env[{slot}] = r[{k}]")


def _has_memory(items) -> bool:
    """Does a region tree hold a LOAD or STORE (a timed access)?"""
    for item in items:
        if isinstance(item, VecIf):
            if (_has_memory(item.then_items)
                    or _has_memory(item.else_items)):
                return True
        elif item.op is Op.LOAD or item.op is Op.STORE:
            return True
    return False


def _emit_block_fn(w: Writer, name: str, plan, mode: str,
                   ctx) -> None:
    body = Writer()
    b = _Binder()
    _emit_items(body, b, plan.items, mode, ctx)
    if not body._lines:
        body("pass")
    params = ["env"] + [f"{n}={e}" for n, e in b.binds]
    for line in b.setup:
        w(line)
    w(f"def {name}({', '.join(params)}):")
    w.indent()
    w.splice(body)
    w.dedent()
    w()


def _n_ops(items) -> int:
    """Ops in a region tree (the chunk weight of a block)."""
    return sum(_n_ops(item.then_items) + _n_ops(item.else_items)
               if isinstance(item, VecIf) else 1 for item in items)


def _emit_block(w: Writer, bi: int, bname: str, plan,
                program: ContextProgram, ctx) -> None:
    """One block's step functions and their table entries."""
    w(f"# block {bname!r}")
    if _has_memory(plan.items):
        w("if timing is None:")
        w.indent()
        _emit_block_fn(w, f"tb{bi}", plan, "ticked", ctx)
        w.dedent()
        w("else:")
        w.indent()
        _emit_block_fn(w, f"tb{bi}", plan, "probed", ctx)
        w.dedent()
    else:
        _emit_block_fn(w, f"tb{bi}", plan, "ticked", ctx)
    w(f"ticked[{lit(bname)}] = (tb{bi},)")
    if classify_loop(program.block(bname)) is not None:
        _emit_block_fn(w, f"sb{bi}", plan, "silent", ctx)
        w(f"silent[{lit(bname)}] = (sb{bi},)")
    w()


def generate(program: ContextProgram) -> str:
    """Source of the generated kernel module for ``program``."""
    plans = build_vec_plans(program)
    ctx = (program, plans, [0])

    w = Writer()
    w('"""Generated data-parallel kernels '
      f'({len(plans)} blocks).'
      '\n\nEmitted by repro.sim.codegen.vector; regenerated from the'
      '\nplan, never edited. The step-closure interpreter in'
      '\nsim/vector/engine.py is the bit-identical reference."""')
    w("from repro.errors import SimulationError")
    w("from repro.ir.ops import OP_INFO, Op")
    w()
    w()
    prelude = [
        "tick = E._tick",
        "stall = E._stall_scalar_load",
        "live = E._scalar_live",
        "mem_load = E.memory.load",
        "mem_store = E.memory.store",
        "timing = E._timing",
        "plans = E.plans",
        "vector_info = E.vector_info",
        "exec_block = E._exec_block",
        "exec_vector = E._exec_vector_loop",
        "ticked = {}",
        "silent = {}",
    ]

    def chunk(blocks):
        def body(w: Writer) -> None:
            for bi, bname, plan in blocks:
                _emit_block(w, bi, bname, plan, program, ctx)
        return body

    # Blocks are emitted whole, so a chunk holds whole blocks of at
    # most CHUNK_NODES ops in total (or one larger block).
    blocks = [(bi, bname, plan)
              for bi, (bname, plan) in enumerate(plans.items())]
    emit_bind(w, "bind_steps",
              "Bind whole-block step tables to a live engine; returns "
              "the ``(ticked, silent)`` dicts for "
              "``_ticked``/``_silent``.",
              prelude,
              [chunk(c) for c in chunk_items(
                  blocks, lambda blk: _n_ops(blk[2].items))],
              "ticked, silent")
    return w.source()
