"""Shared infrastructure for ahead-of-time plan kernels.

The per-family generators (:mod:`~repro.sim.codegen.tagged`,
``queued``, ``window``, ``vector``) emit one Python module per lowered
plan: a flat function per static node's firing rule plus a specialized
cycle loop. This module holds what they share:

* :class:`Writer` -- tiny indentation-aware source emitter;
* :func:`safe_literal` / :func:`lit` -- which immediate values may be
  inlined into source as literals (everything else is bound from the
  engine's tables at bind time);
* :func:`pure_expr` -- inline expression templates for the pure
  opcodes whose :func:`~repro.ir.ops.OP_INFO` evaluators are simple
  operators (``DIV``/``MOD`` keep their checked evaluator calls);
* :func:`emit_bind` -- the chunked layout of every module's bind
  entry point: a ``_bind_env(E)`` prelude plus ``_bind_<k>(env)``
  functions of at most :data:`CHUNK_NODES` nodes each, separated by
  :data:`CHUNK_MARK` comment lines;
* :class:`KernelModule` + :func:`compile_kernels` -- compile
  generated source chunk by chunk into a bindable module (memoized per
  program and family by
  :meth:`~repro.harness.runner.CompiledWorkload.kernels`).

Chunked compilation bounds peak memory: ``compile()`` holds the whole
AST of its input at once, about 100 bytes per source byte, so a
whole-module compile of a large tagged kernel peaks at several MB of
AST. Compiling marker-delimited chunks one at a time holds at most one
chunk's AST; the dumped module is still the one valid source file.

Generated source is a *pure deterministic function of the lowered
plan*: no runtime object ever leaks into it. Runtime state (wait
stores, the pending buffer, memory, tag pools) is bound afterwards by
calling the module's ``bind_*`` entry points with the live engine, so
one compiled module serves every run of the same program. Set
``TYR_REPRO_DUMP_KERNELS=<dir>`` to dump each generated module to
``<dir>/<family>-<fingerprint12>.py`` for inspection.
"""

from __future__ import annotations

import os
import re
from types import CodeType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir.ops import Op

#: Environment variable naming a directory to dump generated source to.
DUMP_ENV = "TYR_REPRO_DUMP_KERNELS"

#: Kernel families (also the compile-memo kind suffixes).
FAMILIES = ("tagged", "flat", "window", "vector")

#: Top-level comment line that starts a separately compiled chunk.
CHUNK_MARK = "# -- chunk --"

#: Most static nodes (ops) one generated ``_bind_<k>`` defines.
CHUNK_NODES = 24


class Writer:
    """Indentation-aware source accumulator."""

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._depth = 0

    def w(self, line: str = "") -> None:
        if line:
            self._lines.append("    " * self._depth + line)
        else:
            self._lines.append("")

    #: Writers are callable: ``w("line")`` == ``w.w("line")``.
    __call__ = w

    def indent(self) -> None:
        self._depth += 1

    def dedent(self) -> None:
        self._depth -= 1

    def splice(self, body: "Writer") -> None:
        """Append another writer's lines at the current indentation."""
        pad = "    " * self._depth
        self._lines.extend(pad + line if line else line
                           for line in body._lines)

    def chunk(self) -> None:
        """Start a new separately compiled chunk (top level only)."""
        assert self._depth == 0
        self._lines.append(CHUNK_MARK)

    def source(self) -> str:
        return "\n".join(self._lines) + "\n"


_SAFE_SCALARS = (bool, int, float, str, bytes, type(None))


def safe_literal(value: object) -> bool:
    """May ``value`` be inlined into generated source via ``repr``?

    Only types whose repr round-trips exactly and cheaply qualify;
    anything else (pools, route tables, arbitrary objects) is fetched
    from the engine's tables at bind time instead.
    """
    if isinstance(value, _SAFE_SCALARS):
        return True
    if isinstance(value, tuple):
        return all(safe_literal(v) for v in value)
    if isinstance(value, dict):
        return all(safe_literal(k) and safe_literal(v)
                   for k, v in value.items())
    return False


def lit(value: object) -> str:
    """The source form of a safe literal."""
    assert safe_literal(value), value
    return repr(value)


#: Inline expression templates for pure opcodes. ``{0}``/``{1}``/``{2}``
#: are the operand expressions in port order. Each template is exactly
#: equivalent to the evaluator in :data:`repro.ir.ops._PURE` (e.g.
#: ``_bool(a < b)`` == ``1 if a < b else 0`` for ints). DIV/MOD are
#: deliberately absent: their evaluators raise SimulationError on zero
#: and stay as bound calls.
_PURE_EXPR: Dict[Op, str] = {
    Op.ADD: "({0} + {1})",
    Op.SUB: "({0} - {1})",
    Op.MUL: "({0} * {1})",
    Op.SHL: "({0} << {1})",
    Op.SHR: "({0} >> {1})",
    Op.BAND: "({0} & {1})",
    Op.BOR: "({0} | {1})",
    Op.BXOR: "({0} ^ {1})",
    Op.NOT: "(0 if {0} else 1)",
    Op.NEG: "(-{0})",
    Op.LT: "(1 if {0} < {1} else 0)",
    Op.LE: "(1 if {0} <= {1} else 0)",
    Op.GT: "(1 if {0} > {1} else 0)",
    Op.GE: "(1 if {0} >= {1} else 0)",
    Op.EQ: "(1 if {0} == {1} else 0)",
    Op.NE: "(1 if {0} != {1} else 0)",
    Op.MIN: "min({0}, {1})",
    Op.MAX: "max({0}, {1})",
    Op.SELECT: "({1} if {0} else {2})",
    Op.COPY: "{0}",
}


def array_ref(array: object, bind: Callable[[str, str], str],
              expr: str) -> Tuple[str, str]:
    """``(body ref, bind-time expr)`` for a LOAD/STORE array: its
    literal when safe, else a default argument ``array`` bound from
    ``expr`` (the engine-table lookup). The bind-time form feeds the
    per-run lookups, e.g. ``timing.load(<expr>)`` for the array's
    load-timing probe."""
    if safe_literal(array):
        return lit(array), lit(array)
    return bind("array", expr), expr


def pure_expr(op: Op, args: List[str]) -> Optional[str]:
    """The inline expression for pure ``op`` over operand sources,
    or None when the op must go through its bound evaluator."""
    template = _PURE_EXPR.get(op)
    if template is None:
        return None
    return template.format(*args)


_ASSIGNED = re.compile(r"([A-Za-z_]\w*) = ")


def chunk_items(items: Sequence, weight: Callable[[object], int]
                = lambda item: 1) -> List[list]:
    """Pack ``items`` in order into chunks of total ``weight`` at most
    :data:`CHUNK_NODES` (an item heavier than that gets its own)."""
    chunks: List[list] = []
    cur: list = []
    total = 0
    for item in items:
        wt = weight(item)
        if cur and total + wt > CHUNK_NODES:
            chunks.append(cur)
            cur, total = [], 0
        cur.append(item)
        total += wt
    if cur:
        chunks.append(cur)
    return chunks


def emit_bind(w: Writer, name: str, doc: str, prelude: Sequence[str],
              chunks: Sequence[Callable[[Writer], None]],
              result: str) -> None:
    """Emit the bind entry point ``name(E)`` as separately compiled
    chunks.

    ``prelude`` statements run once, in ``_bind_env(E)``; ``E`` and
    every name a ``name = ...`` prelude line assigns are handed to each
    ``_bind_<k>(env)`` as locals, where ``chunks[k]`` emits its body.
    ``name(E)`` runs the chunks in order and returns ``result`` (an
    expression over the prelude names).
    """
    names = ["E"] + [m.group(1) for m in map(_ASSIGNED.match, prelude)
                     if m is not None]
    unpack = f"{', '.join(names)} = env"
    w.chunk()
    w("def _bind_env(E):")
    w.indent()
    for line in prelude:
        w(line)
    w(f"return ({', '.join(names)})")
    w.dedent()
    w()
    w()
    for k, body in enumerate(chunks):
        w.chunk()
        w(f"def _bind_{k}(env):")
        w.indent()
        w(unpack)
        body(w)
        w.dedent()
        w()
        w()
    w.chunk()
    w(f"def {name}(E):")
    w.indent()
    w(f'"""{doc}"""')
    w("env = _bind_env(E)")
    for k in range(len(chunks)):
        w(f"_bind_{k}(env)")
    w(unpack)
    w(f"return {result}")
    w.dedent()
    w()
    w()


def compile_chunks(source: str, filename: str) -> Tuple[CodeType, ...]:
    """Compile ``source`` one :data:`CHUNK_MARK`-delimited chunk at a
    time. Each chunk is padded with blank lines so line numbers in
    tracebacks match the whole (dumped) module."""
    codes = []
    lines = source.split("\n")
    start = 0
    for end in [i for i, line in enumerate(lines)
                if line == CHUNK_MARK] + [len(lines)]:
        if end > start:
            text = "\n" * start + "\n".join(lines[start:end]) + "\n"
            codes.append(compile(text, filename, "exec"))
        start = end
    return tuple(codes)


def module_name(family: str, fingerprint: str) -> str:
    return f"<kernels:{family}:{fingerprint[:12]}>"


def dump_kernel_source(source: str, family: str,
                       fingerprint: str) -> Optional[str]:
    """Write generated source to ``$TYR_REPRO_DUMP_KERNELS`` (if set).

    Returns the path written, or None when dumping is disabled.
    """
    directory = os.environ.get(DUMP_ENV)
    if not directory:
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory,
                        f"{family}-{fingerprint[:12]}.py")
    with open(path, "w") as fh:
        fh.write(source)
    return path


class KernelModule:
    """One compiled generated module, ready to bind to engines.

    ``ns`` is the exec'd module namespace; engines call
    ``ns["bind_fires"](engine)`` (or ``bind_steps`` for the vector
    family) at construction and dispatch their cycle loop through
    ``ns["run_loop"]``. ``code`` is the tuple of per-chunk code
    objects, executed in order into ``ns``.
    """

    __slots__ = ("family", "fingerprint", "code", "ns")

    def __init__(self, family: str, fingerprint: str,
                 code: Tuple[CodeType, ...]) -> None:
        self.family = family
        self.fingerprint = fingerprint
        self.code = code
        self.ns: Dict[str, object] = {
            "__name__": module_name(family, fingerprint),
        }
        for chunk in code:
            exec(chunk, self.ns)


def compile_kernels(source: str, family: str,
                    fingerprint: str) -> KernelModule:
    """Compile generated ``source`` into a bindable module, dumping
    the source first when ``$TYR_REPRO_DUMP_KERNELS`` is set."""
    dump_kernel_source(source, family, fingerprint)
    code = compile_chunks(source, module_name(family, fingerprint))
    return KernelModule(family, fingerprint, code)
