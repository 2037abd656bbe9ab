"""Canonical text form of a module.

print -> parse -> print is a fixpoint, and a pass's output depends only on
its input's printed form, so a transition table may key a module by the
digest of that form.  The printer reads only fields that dataclass equality
compares, so modules that are equal print alike: a pass whose output equals
its input changed nothing.  Any other output is printed, and its digest
compared with the input's, to decide whether the pass changed anything.

An instruction prints by its ``ir.types.OPCODES`` row, whose ``text`` is
compiled at import into one function returning an f-string, as
``dataclasses`` compiles ``__init__``: a type slot prints the instruction's
type, an operand slot its next operand, ``P`` its predicate, ``F``
``@callee``, a list its remaining operands, and any other slot itself.  The
rows are module constants, so no outside text reaches the compiler.  A
pragma prints by its ``PRAGMA_FORMS`` row.
"""
from __future__ import annotations

from collections.abc import Callable

from .types import (
    OPCODES, PRAGMA_FORMS, VOID, IrBlock, IrFunction, IrInstruction, IrModule,
    Opcode, OpInfo, PragmaDirective,
)

_OPERAND_SLOTS = ("V", "L", "A")
#: Tokens printed with no space before them, and after them.
_TIGHT_BEFORE, _TIGHT_AFTER = (",", ")", "]", "("), ("(", "[")
_FIELDS = {"T": "{ins.ir_type}", "Y": "{ins.ir_type}", "P": "{ins.pred}",
           "F": "@{ins.callee}", "*": "{rest}"}


def _operands(slots: list[str]) -> int:
    return sum(s in _OPERAND_SLOTS for s in slots)


def _fstring(slots: list[str], operand: str) -> str:
    """The f-string body printing ``slots``, whose k-th operand slot is
    ``operand.format(k)``, and ``*`` the joined list ``rest``."""
    out, k = "", 0
    for i, s in enumerate(slots):
        if i and s not in _TIGHT_BEFORE and slots[i - 1] not in _TIGHT_AFTER:
            out += " "
        if s in _OPERAND_SLOTS:
            out += "{" + operand.format(k) + "}"
            k += 1
        else:
            out += _FIELDS.get(s, s)
    return out


def _compile(opcode: Opcode, row: OpInfo) -> Callable[[IrInstruction], str]:
    """``print_instruction`` for ``opcode``.  Of several forms, it prints the
    first whose operand slots number the instruction's operands."""
    head = "" if row.result is VOID else \
        "{'' if ins.result is None else f'%{ins.result} = '}"
    body, setup = "", ""
    for slots in reversed(row.forms()):
        if "{" in slots:      # a list takes the rest, a tuple per item
            i, end = slots.index("{"), slots.index("}")
            item, width = slots[i + 1:end], _operands(slots[i + 1:end])
            setup = (f'    rest = ", ".join([f"{_fstring(item, "x{}")}" for '
                     f'{"".join(f"x{j}, " for j in range(width))}in '
                     f'zip(*[iter(o[{_operands(slots[:i])}:])] * {width})])\n')
            slots[i:end + 1] = ["*"]
        text = f'f"{head}{opcode.value} {_fstring(slots, "o[{}]")}"'
        body = f"{text} if len(o) == {_operands(slots)} else {body}" \
            if body else text
    source = (f"def print_{opcode.value}(ins):\n    o = ins.operands\n"
              f"{setup}    return {body}\n")
    namespace: dict = {}
    exec(source, namespace)
    return namespace[f"print_{opcode.value}"]


_PRINTERS = {op: _compile(op, row) for op, row in OPCODES.items()}


def print_instruction(ins: IrInstruction) -> str:
    return _PRINTERS[ins.opcode](ins)


def _block_header(b: IrBlock) -> str:
    if b.loop_info is None:
        return f"block {b.label}:"
    li = b.loop_info
    suffix = ", header" if li.is_header else ""
    return f"block {b.label} loop({li.loop_id}, depth={li.depth}{suffix}):"


def _pragma(p: PragmaDirective) -> str:
    form = PRAGMA_FORMS[p.kind]
    value = "" if form.param is None else \
        f"({form.param}={getattr(p, form.param)})"
    target = p.target if form.key == "loop" else f"@{p.target}"
    return f"#pragma {p.kind.value}{value} {form.key}={target}"


def print_function(fn: IrFunction) -> str:
    lines = [_pragma(p) for p in fn.pragmas]
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
