"""Canonical text form of a module.

print -> parse -> print is a fixpoint, and a pass's output depends only on
its input's printed form, so a transition table may key a module by the
digest of that form.  The printer reads only fields that dataclass equality
compares, so modules that are equal print alike: a pass whose output equals
its input changed nothing.  Any other output is printed, and its digest
compared with the input's, to decide whether the pass changed anything.
"""
from __future__ import annotations

from .types import (
    OPCODE_CLASS, InstrClass, IrBlock, IrFunction, IrInstruction, IrModule,
    Opcode, PragmaDirective, PragmaKind,
)


def print_instruction(ins: IrInstruction) -> str:
    op = ins.opcode
    head = f"%{ins.result} = " if ins.result is not None else ""
    if op is Opcode.ICMP:
        return f"{head}icmp {ins.pred} i32 {ins.operands[0]}, {ins.operands[1]}"
    if op is Opcode.SELECT:
        c, t, f = ins.operands
        return f"{head}select {c}, {ins.ir_type} {t}, {f}"
    if op is Opcode.PHI:
        pairs = ins.phi_incoming()
        body = ", ".join(f"[{v}, {label}]" for v, label in pairs)
        return f"{head}phi {ins.ir_type} {body}"
    if op is Opcode.LOAD:
        return f"{head}load {ins.ir_type} {ins.operands[0]}"
    if op is Opcode.STORE:
        return f"store i32 {ins.operands[0]}, {ins.operands[1]}"
    if op is Opcode.GETELEMENTPTR:
        return f"{head}getelementptr {ins.operands[0]}, {ins.operands[1]}"
    if OPCODE_CLASS[op] is InstrClass.CAST:
        # Supported casts are i1 <-> i32, so the source type follows from the result.
        src = "i1" if str(ins.ir_type) == "i32" else "i32"
        return f"{head}{op.value} {src} {ins.operands[0]} to {ins.ir_type}"
    if op is Opcode.CALL:
        args = ", ".join(str(a) for a in ins.operands)
        return f"{head}call {ins.ir_type} @{ins.callee}({args})"
    if op is Opcode.BR:
        return f"br {ins.operands[0]}"
    if op is Opcode.CONDBR:
        c, t, f = ins.operands
        return f"condbr {c}, {t}, {f}"
    if op is Opcode.RET:
        if not ins.operands:
            return "ret void"
        return f"ret {ins.ir_type} {ins.operands[0]}"
    # binary / bitwise
    return f"{head}{op.value} {ins.ir_type} {ins.operands[0]}, {ins.operands[1]}"


def _block_header(b: IrBlock) -> str:
    if b.loop_info is None:
        return f"block {b.label}:"
    li = b.loop_info
    suffix = ", header" if li.is_header else ""
    return f"block {b.label} loop({li.loop_id}, depth={li.depth}{suffix}):"


def _pragma(p: PragmaDirective) -> str:
    if p.kind is PragmaKind.UNROLL:
        return f"#pragma unroll(factor={p.factor}) loop={p.target}"
    if p.kind is PragmaKind.PIPELINE:
        return f"#pragma pipeline(ii={p.target_ii}) loop={p.target}"
    if p.kind is PragmaKind.ARRAY_PARTITION:
        return f"#pragma array_partition(factor={p.factor}) array=@{p.target}"
    return f"#pragma inline function=@{p.target}"


def print_function(fn: IrFunction) -> str:
    lines = []
    for p in fn.pragmas:
        lines.append(_pragma(p))
    params = ", ".join(f"%{pid}: {ty}" for pid, ty in fn.params)
    top = "top " if fn.is_top else ""
    lines.append(f"{top}func @{fn.name}({params}) -> {fn.return_type} {{")
    for b in fn.blocks:
        lines.append(_block_header(b))
        for ins in b.all_instructions():
            lines.append(f"  {print_instruction(ins)}")
    lines.append("}")
    return "\n".join(lines)


def print_module(m: IrModule) -> str:
    parts = []
    for g in m.global_arrays:
        line = f"global @{g.name} : i32[{g.length}]"
        if g.init is not None:
            line += " = {" + ", ".join(str(v) for v in g.init) + "}"
        parts.append(line)
    if m.global_arrays:
        parts.append("")
    for fn in m.functions:
        parts.append(print_function(fn))
        parts.append("")
    return "\n".join(parts).rstrip() + "\n"
