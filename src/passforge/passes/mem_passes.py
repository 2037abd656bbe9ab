"""Memory passes: mem2reg (store-to-load forwarding) and dse.

The dialect has no allocas to promote, so mem2reg here does the part that
still applies: values stored to an array element feed later loads of the same
element within a block.  Both passes reason about addresses as
(array, index-expression) pairs and treat differing index expressions on the
same array as potential aliases.
"""
from __future__ import annotations

from ..ir import IrModule, Opcode, pointer_target
from ..ir.types import Operand
from .rewrite import replace_all_uses


def _ptr_key(fn_defs, op: Operand) -> tuple[str, str] | None:
    """(array, index-repr) for a pointer, or None when unresolvable."""
    target = pointer_target(fn_defs, op)
    return None if target is None else (target[0], str(target[1]))


def run_mem2reg(m: IrModule) -> None:
    for fn in m.functions:
        defs = fn.defined_values()
        for b in fn.blocks:
            avail: dict[tuple[str, str], Operand] = {}
            for ins in list(b.instructions):
                op = ins.opcode
                if op is Opcode.CALL:
                    avail.clear()
                elif op is Opcode.STORE:
                    key = _ptr_key(defs, ins.operands[1])
                    if key is None:
                        avail.clear()
                        continue
                    for k in list(avail):
                        if k[0] == key[0] and k != key:
                            del avail[k]
                    avail[key] = ins.operands[0]
                elif op is Opcode.LOAD:
                    key = _ptr_key(defs, ins.operands[0])
                    if key is not None and key in avail:
                        replace_all_uses(fn, ins.result, avail[key])
                        b.instructions.remove(ins)


def run_dse(m: IrModule) -> None:
    """Delete stores overwritten later in the same block with no intervening
    read of that array; never increases instruction count."""
    for fn in m.functions:
        defs = fn.defined_values()
        for b in fn.blocks:
            overwritten: set[tuple[str, str]] = set()
            for ins in reversed(list(b.instructions)):
                op = ins.opcode
                if op is Opcode.CALL:
                    overwritten.clear()
                elif op is Opcode.LOAD:
                    key = _ptr_key(defs, ins.operands[0])
                    if key is None:
                        overwritten.clear()
                    else:
                        overwritten = {k for k in overwritten if k[0] != key[0]}
                elif op is Opcode.STORE:
                    key = _ptr_key(defs, ins.operands[1])
                    if key is None:
                        overwritten.clear()
                        continue
                    if key in overwritten:
                        b.instructions.remove(ins)
                    else:
                        overwritten.add(key)
