"""Reference interpreter: the semantic oracle for pass transformations.

Semantics are total and deterministic: 32-bit two's-complement arithmetic,
shift amounts masked to 5 bits, division by zero and the INT_MIN/-1 overflow
trap, and bounds-checked array access.  Execution is bounded by ``fuel``
(executed-instruction count) so differential tests terminate even when a buggy
pass introduces an infinite loop.  Arithmetic, compares and casts run their
row's fold in the opcode table (``types.OPCODES``), the one that sccp and
instcombine fold constants with, so the interpreter keeps no folding of its
own and cannot disagree with them.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .types import (
    OPCODES, Const, GlobalRef, IrFunction, IrModule, Opcode, wrap32,
)

DEFAULT_FUEL = 10**8

_MASK = 0xFFFFFFFF


class TrapError(Exception):
    """Defined runtime trap (division by zero, overflow, out of bounds)."""

    def __init__(self, kind: str, location: str):
        super().__init__(f"{kind} at {location}")
        self.kind = kind
        self.location = location


class FuelExhausted(Exception):
    pass


@dataclass
class ExecResult:
    return_value: int | None
    memory_digest: str
    dynamic_op_counts: dict[str, int]
    executed_instructions: int


@dataclass
class _Memory:
    arrays: dict[str, list[int]] = field(default_factory=dict)


class _Machine:
    def __init__(self, module: IrModule, memory: _Memory, fuel: int):
        self.module = module
        self.memory = memory
        self.fuel = fuel
        self.op_counts: dict[str, int] = {}
        self.executed = 0

    def charge(self, opcode: Opcode):
        if self.executed >= self.fuel:
            raise FuelExhausted(f"fuel limit {self.fuel} reached")
        self.executed += 1
        name = opcode.value
        self.op_counts[name] = self.op_counts.get(name, 0) + 1

    def run_function(self, fn: IrFunction, args: list) -> int | None:
        env: dict[str, object] = {}
        for (pid, _ty), arg in zip(fn.params, args):
            env[pid] = arg

        def value(op):      # a verified value slot holds nothing else
            return op.value if isinstance(op, Const) else env[op.id]

        bmap = fn.block_map()
        block = fn.entry
        prev_label: str | None = None
        loc = fn.name

        while True:
            loc = f"{fn.name}:{block.label}"
            # Phis read their inputs atomically against the incoming edge.
            phi_updates = []
            for ins in block.instructions:
                if ins.opcode is not Opcode.PHI:
                    break
                self.charge(Opcode.PHI)
                chosen = None
                for val, label in ins.phi_incoming():
                    if label == prev_label:
                        chosen = value(val)
                        break
                if chosen is None:
                    raise TrapError("phi-missing-incoming", loc)
                phi_updates.append((ins.result, chosen))
            for rid, v in phi_updates:
                env[rid] = v

            for ins in block.non_phis():
                op = ins.opcode
                self.charge(op)
                if op is Opcode.GETELEMENTPTR:
                    base = ins.operands[0]
                    idx = value(ins.operands[1])
                    name = (base.name if isinstance(base, GlobalRef)
                            else env[base.id][1])  # type: ignore[index]
                    env[ins.result] = ("elem", name, idx)
                elif op is Opcode.LOAD:
                    _, name, idx = value(ins.operands[0])  # type: ignore[misc]
                    arr = self.memory.arrays[name]
                    if not (0 <= idx < len(arr)):
                        raise TrapError("out-of-bounds", loc)
                    env[ins.result] = arr[idx]
                elif op is Opcode.STORE:
                    v = value(ins.operands[0])
                    _, name, idx = value(ins.operands[1])  # type: ignore[misc]
                    arr = self.memory.arrays[name]
                    if not (0 <= idx < len(arr)):
                        raise TrapError("out-of-bounds", loc)
                    arr[idx] = wrap32(v)  # type: ignore[arg-type]
                elif op is Opcode.SELECT:
                    c = value(ins.operands[0])
                    env[ins.result] = value(ins.operands[1]) if c else value(
                        ins.operands[2])
                elif op is Opcode.CALL:
                    callee = self.module.function(ins.callee)
                    rv = self.run_function(callee,
                                           [value(a) for a in ins.operands])
                    if ins.result is not None:
                        env[ins.result] = rv
                else:
                    vals = [value(o) for o in ins.operands]
                    folded = OPCODES[op].fold(vals, ins.pred)  # type: ignore[misc]
                    if folded is None:
                        raise TrapError("division", loc)
                    env[ins.result] = folded

            term = block.terminator
            assert term is not None
            self.charge(term.opcode)
            if term.opcode is Opcode.RET:
                if not term.operands:
                    return None
                return value(term.operands[0])  # type: ignore[return-value]
            if term.opcode is Opcode.BR:
                target = term.operands[0].label  # type: ignore[union-attr]
            else:
                c = value(term.operands[0])
                target = (term.operands[1] if c else term.operands[2]).label  # type: ignore[union-attr]
            prev_label = block.label
            block = bmap[target]


def check_inputs(module: IrModule, inputs) -> None:
    """Raise ValueError unless ``inputs`` matches the top function's
    signature: a list holding an int for each scalar parameter and a list
    of ``length`` ints for each array.  Bools and floats are not ints."""
    params = module.top.params
    if not isinstance(inputs, list) or len(inputs) != len(params):
        raise ValueError(f"expected a list of {len(params)} inputs, one per "
                         f"parameter of @{module.top.name}")
    for (pid, ty), val in zip(params, inputs):
        if ty.is_array and not (isinstance(val, list) and len(val) == ty.length
                                and all(type(v) is int for v in val)):
            raise ValueError(f"%{pid} takes a list of {ty.length} ints")
        if not ty.is_array and type(val) is not int:
            raise ValueError(f"%{pid} takes an int, not {val!r}")


def interpret(module: IrModule, inputs: list, fuel: int = DEFAULT_FUEL) -> ExecResult:
    """Run the top function on ``inputs``, which ``check_inputs`` accepts
    (ints for scalars, int lists for arrays)."""
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    check_inputs(module, inputs)
    top = module.top

    memory = _Memory()
    for g in module.global_arrays:
        init = list(g.init) if g.init is not None else [0] * g.length
        memory.arrays[g.name] = [wrap32(v) for v in init]

    args: list = []
    arg_arrays: list[str] = []
    for (pid, ty), val in zip(top.params, inputs):
        if ty.is_array:
            data = [wrap32(int(v)) for v in val]
            name = f"%{pid}"
            memory.arrays[name] = data
            args.append(("array", name))
            arg_arrays.append(name)
        else:
            args.append(wrap32(int(val)))

    machine = _Machine(module, memory, fuel)
    rv = machine.run_function(top, args)

    h = hashlib.sha256()
    for g in module.global_arrays:
        h.update(g.name.encode())
        h.update(b"".join((v & _MASK).to_bytes(4, "little")
                          for v in memory.arrays[g.name]))
    for name in arg_arrays:
        h.update(name.encode())
        h.update(b"".join((v & _MASK).to_bytes(4, "little")
                          for v in memory.arrays[name]))

    return ExecResult(rv, h.hexdigest(), dict(machine.op_counts),
                      machine.executed)
