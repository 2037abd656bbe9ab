"""Core data structures for the SSA mini-IR.

A module holds global arrays and functions; a function holds basic blocks of
instructions in SSA form.  Values are 32-bit (or 1-bit boolean) integers;
memory is limited to named, flat 1-D arrays addressed through
``getelementptr``.  Loop membership is annotated on blocks and cross-checked
against the CFG by the verifier.
"""
from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, replace


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class IrTypeKind(enum.Enum):
    I1 = "i1"
    I32 = "i32"
    PTR = "ptr"
    VOID = "void"
    ARRAY = "array"


@dataclass(frozen=True)
class IrType:
    kind: IrTypeKind
    length: int = 0  # arrays only

    def __str__(self) -> str:
        if self.kind is IrTypeKind.ARRAY:
            return f"i32[{self.length}]"
        return self.kind.value

    @property
    def is_array(self) -> bool:
        return self.kind is IrTypeKind.ARRAY


I1 = IrType(IrTypeKind.I1)
I32 = IrType(IrTypeKind.I32)
PTR = IrType(IrTypeKind.PTR)
VOID = IrType(IrTypeKind.VOID)


def array_type(length: int) -> IrType:
    return IrType(IrTypeKind.ARRAY, length)


# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueRef:
    """Use of an SSA value (instruction result or function parameter)."""
    id: str

    def __str__(self) -> str:
        return f"%{self.id}"


@dataclass(frozen=True)
class Const:
    value: int
    type: IrType = I32

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class GlobalRef:
    """Reference to a module-level array."""
    name: str

    def __str__(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True)
class LabelRef:
    """Block label operand (branch targets, phi incoming blocks)."""
    label: str

    def __str__(self) -> str:
        return self.label


Operand = ValueRef | Const | GlobalRef | LabelRef


# ---------------------------------------------------------------------------
# Opcodes and instruction classes
# ---------------------------------------------------------------------------

class Opcode(enum.Enum):
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SDIV = "sdiv"
    SREM = "srem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    ASHR = "ashr"
    ICMP = "icmp"
    SELECT = "select"
    PHI = "phi"
    LOAD = "load"
    STORE = "store"
    GETELEMENTPTR = "getelementptr"
    ZEXT = "zext"
    SEXT = "sext"
    TRUNC = "trunc"
    CALL = "call"
    BR = "br"
    CONDBR = "condbr"
    RET = "ret"


class InstrClass(enum.Enum):
    TERMINATOR = 0
    BINARY = 1
    BITWISE = 2
    COMPARE = 3
    MEMORY = 4
    CAST = 5
    PHI = 6
    SELECT = 7
    CALL = 8


#: Total map: every opcode belongs to exactly one class.
OPCODE_CLASS: dict[Opcode, InstrClass] = {
    Opcode.ADD: InstrClass.BINARY,
    Opcode.SUB: InstrClass.BINARY,
    Opcode.MUL: InstrClass.BINARY,
    Opcode.SDIV: InstrClass.BINARY,
    Opcode.SREM: InstrClass.BINARY,
    Opcode.AND: InstrClass.BITWISE,
    Opcode.OR: InstrClass.BITWISE,
    Opcode.XOR: InstrClass.BITWISE,
    Opcode.SHL: InstrClass.BITWISE,
    Opcode.ASHR: InstrClass.BITWISE,
    Opcode.ICMP: InstrClass.COMPARE,
    Opcode.SELECT: InstrClass.SELECT,
    Opcode.PHI: InstrClass.PHI,
    Opcode.LOAD: InstrClass.MEMORY,
    Opcode.STORE: InstrClass.MEMORY,
    Opcode.GETELEMENTPTR: InstrClass.MEMORY,
    Opcode.ZEXT: InstrClass.CAST,
    Opcode.SEXT: InstrClass.CAST,
    Opcode.TRUNC: InstrClass.CAST,
    Opcode.CALL: InstrClass.CALL,
    Opcode.BR: InstrClass.TERMINATOR,
    Opcode.CONDBR: InstrClass.TERMINATOR,
    Opcode.RET: InstrClass.TERMINATOR,
}

INSTR_CLASS_WIDTH = 9

TERMINATOR_OPCODES = {Opcode.BR, Opcode.CONDBR, Opcode.RET}

ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge")


def instr_class_one_hot(cls: InstrClass) -> list[float]:
    v = [0.0] * INSTR_CLASS_WIDTH
    v[cls.value] = 1.0
    return v


# ---------------------------------------------------------------------------
# Instructions, blocks, functions, module
# ---------------------------------------------------------------------------

@dataclass
class IrInstruction:
    """One SSA instruction.

    ``operands`` layout per opcode:
      binary/bitwise   [lhs, rhs]
      icmp             [lhs, rhs] with ``pred`` set
      select           [cond, true_val, false_val]
      phi              [val0, label0, val1, label1, ...]
      load             [ptr]
      store            [value, ptr]
      getelementptr    [array, index]
      zext/sext/trunc  [value]
      call             args only, callee in ``callee``
      br               [label]
      condbr           [cond, true_label, false_label]
      ret              [value] or [] for void
    """
    result: str | None
    opcode: Opcode
    operands: list[Operand]
    ir_type: IrType
    pred: str | None = None
    callee: str | None = None

    @property
    def instr_class(self) -> InstrClass:
        return OPCODE_CLASS[self.opcode]

    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATOR_OPCODES

    def value_uses(self) -> list[str]:
        """Ids of SSA values this instruction reads."""
        return [op.id for op in self.operands if isinstance(op, ValueRef)]

    def phi_incoming(self) -> list[tuple[Operand, str]]:
        assert self.opcode is Opcode.PHI
        pairs = []
        for i in range(0, len(self.operands), 2):
            label = self.operands[i + 1]
            assert isinstance(label, LabelRef)
            pairs.append((self.operands[i], label.label))
        return pairs

    def successors(self) -> list[str]:
        if self.opcode is Opcode.BR:
            return [self.operands[0].label]  # type: ignore[union-attr]
        if self.opcode is Opcode.CONDBR:
            return [self.operands[1].label, self.operands[2].label]  # type: ignore[union-attr]
        return []

    def clone(self) -> "IrInstruction":
        return IrInstruction(self.result, self.opcode, list(self.operands),
                             self.ir_type, self.pred, self.callee)


@dataclass
class LoopInfo:
    loop_id: int
    depth: int
    is_header: bool = False


@dataclass
class IrBlock:
    label: str
    instructions: list[IrInstruction] = field(default_factory=list)
    terminator: IrInstruction | None = None
    loop_info: LoopInfo | None = None

    def all_instructions(self) -> list[IrInstruction]:
        if self.terminator is None:
            return list(self.instructions)
        return self.instructions + [self.terminator]

    def phis(self) -> list[IrInstruction]:
        out = []
        for ins in self.instructions:
            if ins.opcode is Opcode.PHI:
                out.append(ins)
            else:
                break
        return out

    def non_phis(self) -> list[IrInstruction]:
        return [i for i in self.instructions if i.opcode is not Opcode.PHI]

    def successors(self) -> list[str]:
        return [] if self.terminator is None else self.terminator.successors()

    def clone(self) -> "IrBlock":
        li = None
        if self.loop_info is not None:
            li = LoopInfo(self.loop_info.loop_id, self.loop_info.depth,
                          self.loop_info.is_header)
        return IrBlock(self.label, [i.clone() for i in self.instructions],
                       self.terminator.clone() if self.terminator else None, li)


class PragmaKind(enum.Enum):
    UNROLL = "unroll"
    PIPELINE = "pipeline"
    INLINE = "inline"
    ARRAY_PARTITION = "array_partition"


@dataclass
class PragmaDirective:
    kind: PragmaKind
    target: int | str  # loop id, array name, or function name
    factor: int | None = None
    target_ii: int | None = None

    def clone(self) -> "PragmaDirective":
        return PragmaDirective(self.kind, self.target, self.factor, self.target_ii)


@dataclass
class IrFunction:
    name: str
    params: list[tuple[str, IrType]]
    return_type: IrType
    blocks: list[IrBlock] = field(default_factory=list)
    pragmas: list[PragmaDirective] = field(default_factory=list)
    is_top: bool = False

    def block_map(self) -> dict[str, IrBlock]:
        return {b.label: b for b in self.blocks}

    @property
    def entry(self) -> IrBlock:
        return self.blocks[0]

    def param_ids(self) -> set[str]:
        return {p for p, _ in self.params}

    def defined_values(self) -> dict[str, IrInstruction]:
        out: dict[str, IrInstruction] = {}
        for b in self.blocks:
            for ins in b.all_instructions():
                if ins.result is not None:
                    out[ins.result] = ins
        return out

    def clone(self) -> "IrFunction":
        return IrFunction(self.name, list(self.params), self.return_type,
                          [b.clone() for b in self.blocks],
                          [p.clone() for p in self.pragmas], self.is_top)


@dataclass
class GlobalArray:
    name: str
    elem_bits: int
    length: int
    init: list[int] | None = None

    def clone(self) -> "GlobalArray":
        return GlobalArray(self.name, self.elem_bits, self.length,
                           list(self.init) if self.init is not None else None)


def text_digest(text: str) -> str:
    """Digest of a printed module; equal for modules that print alike."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class IrModule:
    functions: list[IrFunction] = field(default_factory=list)
    global_arrays: list[GlobalArray] = field(default_factory=list)

    def function(self, name: str) -> IrFunction:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)

    @property
    def top(self) -> IrFunction:
        for f in self.functions:
            if f.is_top:
                return f
        raise ValueError("module has no top function")

    def global_map(self) -> dict[str, GlobalArray]:
        return {g.name: g for g in self.global_arrays}

    def clone(self) -> "IrModule":
        return IrModule([f.clone() for f in self.functions],
                        [g.clone() for g in self.global_arrays])

    def digest(self) -> str:
        from .printer import print_module
        return text_digest(print_module(self))
