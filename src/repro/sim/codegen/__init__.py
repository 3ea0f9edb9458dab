"""Ahead-of-time Python codegen for the engine hot loops (PR 7).

For each lowered plan this package emits specialized Python source --
one flat function per static node's firing rule plus a fused cycle
loop per engine family -- compiles it once, and lets the engines
dispatch through the generated kernels instead of the generic dispatch
closures. The closure interpreters remain the bit-identical reference
semantics (and the only path for traced/occupancy/profiled runs).

Families and their inputs:

========  =============================================  ==============
family    generated from                                 machines
========  =============================================  ==============
tagged    elaborated ``TaggedGraph``                     unordered,
                                                         unordered-
                                                         bounded, tyr,
                                                         kbounded
flat      flattened ``FlatGraph``                        ordered
window    ``build_plans(program)`` block plans           vn, ooo, seqdf
vector    ``build_vec_plans(program)`` + loop analysis   datapar
========  =============================================  ==============

Compiled modules live in the per-process compile memo of
:mod:`repro.harness.runner` under kind ``"kernels-<family>"``, so
``pool.precompile_specs`` generates them once in the sweep parent and
every forked worker inherits the warm compiled module. Set
``TYR_REPRO_DUMP_KERNELS=<dir>`` to dump the generated source for
inspection.
"""

from __future__ import annotations

from repro.sim.codegen.core import (
    DUMP_ENV,
    FAMILIES,
    KernelModule,
    compile_kernels,
    dump_kernel_source,
)

__all__ = [
    "DUMP_ENV",
    "FAMILIES",
    "KernelModule",
    "compile_kernels",
    "dump_kernel_source",
    "generate_source",
]


def generate_source(family: str, compiled) -> str:
    """Generated kernel source for one family of ``compiled`` (a
    :class:`~repro.harness.runner.CompiledWorkload`).

    Deterministic in the lowered plan: same program fingerprint, same
    source -- which is what lets every instance of one program share
    one compiled module.
    """
    if family == "tagged":
        from repro.sim.codegen.tagged import generate
        return generate(compiled.tagged)
    if family == "flat":
        from repro.sim.codegen.queued import generate
        return generate(compiled.flat)
    if family == "window":
        from repro.sim.codegen.window import generate
        return generate(compiled.program)
    if family == "vector":
        from repro.sim.codegen.vector import generate
        return generate(compiled.program)
    raise ValueError(f"unknown kernel family {family!r}")
