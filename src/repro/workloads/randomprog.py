"""Random structured-program generator for property-based testing.

Generates arbitrary (but terminating) programs over the frontend AST:
nested counted loops, bounded data-dependent while loops, forward
branches, function calls, and chained memory read-modify-writes. The
test suite uses these to check the paper's theorems empirically:

* **Theorem 1** -- TYR with two tags per concurrent block completes
  every generated program with results identical to the sequential
  reference interpreter;
* **Theorem 2** -- live tokens never exceed ``T * N * M``.

Termination is guaranteed by construction: for-loop trip counts are
bounded small, and while loops always decrement an explicit bounded
counter. Indices into the single memory array are masked to its
power-of-two length, and division is never generated, so no run can
fault. Values stay bounded too: every product is emitted as
``(a * b) & 0xFFFF``, so no loop can square a value over and over;
the other operators widen a value by at most one bit per executed op,
which keeps every run's big-integer arithmetic cheap.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.frontend.ast import (
    ArraySpec,
    Assign,
    BinOp,
    Call,
    Cond,
    Const,
    Expr,
    For,
    Function,
    If,
    LoadExpr,
    Module,
    Name,
    Return,
    Store,
    While,
)

#: The memory array's (power-of-two) length.
MEM_LEN = 16

#: Mask applied to every generated product (see the module docstring).
PRODUCT_MASK = 0xFFFF

_SAFE_BINOPS = ("+", "-", "*", "min", "max", "&", "|", "^")
_COMPARES = ("<", "<=", ">", ">=", "==", "!=")


class _Generator:
    def __init__(self, rng: random.Random, allow_memory: bool,
                 allow_calls: bool, max_depth: int):
        self.rng = rng
        self.allow_memory = allow_memory
        self.allow_calls = allow_calls
        self.max_depth = max_depth
        self._counter = 0
        self.helpers: List[Function] = []

    def fresh(self, hint: str = "t") -> str:
        self._counter += 1
        return f"{hint}{self._counter}"

    # ------------------------------------------------------------------
    def expr(self, vars_: List[str], depth: int = 0) -> Expr:
        rng = self.rng
        if depth >= 3 or rng.random() < 0.35:
            if vars_ and rng.random() < 0.7:
                return Name(rng.choice(vars_))
            return Const(rng.randint(-4, 9))
        kind = rng.random()
        if kind < 0.55:
            op = rng.choice(_SAFE_BINOPS)
            node = BinOp(op, self.expr(vars_, depth + 1),
                         self.expr(vars_, depth + 1))
            if op == "*":
                return BinOp("&", node, Const(PRODUCT_MASK))
            return node
        if kind < 0.75:
            op = rng.choice(_COMPARES)
            return BinOp(op, self.expr(vars_, depth + 1),
                         self.expr(vars_, depth + 1))
        if kind < 0.9 or not self.allow_memory:
            return Cond(self.cond(vars_, depth + 1),
                        self.expr(vars_, depth + 1),
                        self.expr(vars_, depth + 1))
        return LoadExpr("M", self.index(vars_, depth + 1))

    def cond(self, vars_: List[str], depth: int = 0) -> Expr:
        return BinOp(self.rng.choice(_COMPARES),
                     self.expr(vars_, depth + 1),
                     self.expr(vars_, depth + 1))

    def index(self, vars_: List[str], depth: int = 0) -> Expr:
        """A provably in-bounds index: (expr) & (MEM_LEN - 1)."""
        return BinOp("&", self.expr(vars_, depth), Const(MEM_LEN - 1))

    # ------------------------------------------------------------------
    def stmts(self, vars_: List[str], depth: int, budget: int,
              protected: frozenset = frozenset()) -> List[object]:
        rng = self.rng
        out: List[object] = []
        local = list(vars_)
        targets = [name for name in local if name not in protected]
        n = rng.randint(1, max(1, budget))
        for _ in range(n):
            roll = rng.random()
            if roll < 0.45 or depth >= self.max_depth:
                name = (rng.choice(targets)
                        if targets and rng.random() < 0.5
                        else self.fresh("v"))
                out.append(Assign(name, self.expr(local)))
                if name not in local:
                    local.append(name)
                    targets.append(name)
            elif roll < 0.6:
                then = self.stmts(local, depth + 1, budget // 2,
                                  protected)
                orelse = (self.stmts(local, depth + 1, budget // 2,
                                     protected)
                          if rng.random() < 0.6 else [])
                out.append(If(self.cond(local), then, orelse))
            elif roll < 0.8:
                # Counted loop; its counter is read-only in the body so
                # termination is structural.
                var = self.fresh("i")
                trip = rng.randint(0, 4)
                body = self.stmts(local + [var], depth + 1, budget // 2,
                                  protected | {var})
                out.append(For(var, 0, Const(trip), body))
            elif roll < 0.9 and local:
                # Bounded data-dependent while: the body may read but
                # never reassign the counter.
                counter = self.fresh("w")
                out.append(Assign(
                    counter, BinOp("&", self.expr(local), Const(7))
                ))
                body = self.stmts(local + [counter], depth + 1,
                                  budget // 2, protected | {counter})
                body.append(Assign(counter,
                                   BinOp("-", Name(counter), Const(1))))
                out.append(While(BinOp(">", Name(counter), Const(0)),
                                 body))
                local.append(counter)
                targets.append(counter)
            elif self.allow_memory and rng.random() < 0.7:
                out.append(Store("M", self.index(local),
                                 self.expr(local)))
            elif self.allow_calls and self.helpers:
                helper = rng.choice(self.helpers)
                target = self.fresh("r")
                args = [self.expr(local)
                        for _ in range(len(helper.params))]
                out.append(Call([target], helper.name, args))
                local.append(target)
                targets.append(target)
            else:
                out.append(Assign(self.fresh("v"), self.expr(local)))
        return out

    # ------------------------------------------------------------------
    def function(self, name: str, n_params: int,
                 budget: int) -> Function:
        params = [self.fresh("p") for _ in range(n_params)]
        body = self.stmts(params, 0, budget)
        # Return a value derived from definitely-assigned variables
        # (conditionally assigned ones may be undefined at the return).
        assigned = _definite_names(body) + params
        result = Name(assigned[-1])
        for extra in self.rng.sample(assigned,
                                     min(3, len(assigned))):
            result = BinOp("+", result, Name(extra))
        body.append(Return([result]))
        return Function(name, params, body)


def _definite_names(stmts) -> List[str]:
    """Top-level unconditional assignments only."""
    out: List[str] = []
    for s in stmts:
        if isinstance(s, Assign) and s.name not in out:
            out.append(s.name)
        elif isinstance(s, Call):
            out.extend(t for t in s.targets if t not in out)
    return out


def random_module(seed: int, max_depth: int = 3, budget: int = 6,
                  allow_memory: bool = True,
                  allow_calls: bool = True) -> Module:
    """Generate a deterministic random module for ``seed``."""
    rng = random.Random(seed)
    g = _Generator(rng, allow_memory, allow_calls, max_depth)
    functions: List[Function] = []
    if allow_calls and rng.random() < 0.6:
        helper = g.function(f"helper{seed & 0xffff}",
                            rng.randint(1, 2), budget // 2)
        g.helpers.append(helper)
        functions.append(helper)
    functions.append(g.function("main", 2, budget))
    arrays = [ArraySpec("M", length=MEM_LEN)] if allow_memory else []
    return Module(functions, arrays=arrays)


def random_memory() -> dict:
    """Initial memory image for generated programs."""
    return {"M": list(range(MEM_LEN))}
