"""Core data structures for the SSA mini-IR.

A module holds global arrays and functions; a function holds basic blocks of
instructions in SSA form.  Values are 32-bit (or 1-bit boolean) integers;
memory is limited to named, flat 1-D arrays addressed through
``getelementptr``.  Loop membership is annotated on blocks and cross-checked
against the CFG by the verifier.

``OPCODES`` is the opcode table: one ``OpInfo`` row per opcode holds its
feature class, purity, side effects, commutativity, constant fold, algebra
and text, whose slots give its operands' number and types.  Every
per-opcode fact is defined there once; the parser, verifier, printer,
interpreter and passes read the rows, or the sets derived from them below
the table, and ``fold_constant`` is a lookup in it.
``PREDICATES`` is icmp's: each predicate's test, negation and swap.
``PRAGMA_FORMS`` is the pragmas': each kind's parameter and target.

The rows' texts are the one statement of the IR's syntax, which
docs/ir_grammar.ebnf restates as a grammar; ``ir.parser`` matches them and
``ir.printer`` compiles them.  A ``text`` spells what follows the opcode
name as slots split by spaces: ``T`` a scalar type (i32, i1) and ``Y`` any
type, either the instruction's; ``V`` an operand, a %value or an i32
literal; ``L`` a label; ``A`` an array, a @global or a %parameter; ``P``
icmp's predicate; ``F`` the @callee; ``{ ... }`` a comma-separated list of
the enclosed slots, which takes the remaining operands and is empty only
where the token after it comes next; ``|`` between forms tried in order;
any other slot, a token as written.

A typed slot ``X:t`` reads as ``X`` to the parser and printer, and the
verifier checks its type ``t``: ``V:i1`` is an i1 operand, and ``Y:ret``
or ``void:ret`` a type that must be the function's return type.  An
untyped ``V`` has the nearest type before it: ``T`` or ``Y``, the
instruction's; a type token, as ``i32`` in ``P i32 V , V``; or after
``F``, the callee's parameter's.  A literal fits any scalar ``V``, and an
``A`` is a declared @global or an array %parameter.
"""
from __future__ import annotations

import hashlib
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class _EnumType(type):
    """Turns each public class attribute of a ``PlainEnum`` subclass into a
    member: an instance of the subclass holding the attribute's ``name``
    and ``value``.  It defines no ``__getattr__``, so ``Opcode.PHI`` is a
    plain class attribute read."""

    def __new__(mcs, name, bases, ns):
        body = {k: v for k, v in ns.items() if k.startswith("_")}
        cls = super().__new__(mcs, name, bases, {"__slots__": (), **body})
        members = []
        for key, value in ns.items():
            if key in body:
                continue
            m = object.__new__(cls)
            object.__setattr__(m, "name", key)
            object.__setattr__(m, "value", value)
            setattr(cls, key, m)
            members.append(m)
        cls._members = tuple(members)
        cls._by_value = {m.value: m for m in members}
        if len(cls._by_value) != len(members):
            raise TypeError(f"two members of {name} share a value")
        return cls

    def __call__(cls, value):
        """The member whose value is ``value``, as ``enum.Enum`` looks it up."""
        if type(value) is cls:
            return value
        try:
            return cls._by_value[value]
        except (KeyError, TypeError):
            raise ValueError(
                f"{value!r} is not a valid {cls.__qualname__}") from None

    def __iter__(cls):
        return iter(cls._members)

    def __len__(cls):
        return len(cls._members)

    def __setattr__(cls, name, value):
        if isinstance(cls.__dict__.get(name), cls):
            raise AttributeError(f"cannot reassign member {name!r}")
        super().__setattr__(name, value)

    def __delattr__(cls, name):
        if isinstance(cls.__dict__.get(name), cls):
            raise AttributeError(f"cannot delete member {name!r}")
        super().__delattr__(name)


class PlainEnum(metaclass=_EnumType):
    """An enumeration whose members are immutable, hash and compare by
    identity, and print, copy and pickle as ``enum.Enum`` members do; the
    class iterates over them in definition order."""
    __slots__ = ("name", "value")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{self} is read-only")

    __delattr__ = __setattr__

    def __reduce_ex__(self, protocol):
        return type(self), (self.value,)

    def __repr__(self) -> str:
        return f"<{self}: {self.value!r}>"

    def __str__(self) -> str:
        return f"{type(self).__name__}.{self.name}"

    def __format__(self, spec: str) -> str:
        return format(str(self), spec)


class IrTypeKind(PlainEnum):
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
#: The types a text may name, by name; a ``T`` slot takes the scalar ones.
SCALAR_TYPES = {"i32": I32, "i1": I1}
NAMED_TYPES = {**SCALAR_TYPES, "void": VOID, "ptr": PTR}


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

class Opcode(PlainEnum):
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


class InstrClass(PlainEnum):
    TERMINATOR = 0
    BINARY = 1
    BITWISE = 2
    COMPARE = 3
    MEMORY = 4
    CAST = 5
    PHI = 6
    SELECT = 7
    CALL = 8


INSTR_CLASS_WIDTH = 9


def wrap32(v: int) -> int:
    v &= 0xFFFFFFFF
    return v - (1 << 32) if v >= (1 << 31) else v


def _sdiv(a: int, b: int, rem: bool) -> int | None:
    """a / b rounded toward zero, or with ``rem`` its remainder; None when
    the division traps (b = 0, or INT_MIN / -1)."""
    if b == 0 or (a == -(2**31) and b == -1):
        return None
    q = abs(a) // abs(b) * (-1 if (a < 0) != (b < 0) else 1)
    return wrap32(a - b * q if rem else q)


class PredInfo(NamedTuple):
    """An icmp predicate's test; ``negation``, the predicate that holds when
    it does not; ``swap``, the one that holds on the operands exchanged."""
    test: Callable[[int, int], bool]
    negation: str
    swap: str


#: One row per icmp predicate: the one place a predicate fact is defined.
PREDICATES: dict[str, PredInfo] = {
    "eq": PredInfo(operator.eq, "ne", "eq"),
    "ne": PredInfo(operator.ne, "eq", "ne"),
    "slt": PredInfo(operator.lt, "sge", "sgt"),
    "sle": PredInfo(operator.le, "sgt", "sge"),
    "sgt": PredInfo(operator.gt, "sle", "slt"),
    "sge": PredInfo(operator.ge, "slt", "sle"),
}
ICMP_PREDICATES = tuple(PREDICATES)


class OpInfo(NamedTuple):
    """What the IR knows about one opcode: its feature class; whether it
    is pure (writes nothing and never traps, so a pass may hoist, clone or
    skip it), has side effects (writes memory or calls) or commutes; and
    its constant fold, from the operand values and an icmp predicate to
    the result (None on a trap), absent when it does not fold; its default
    latency in cycles, which ``qor.OpCostTable`` starts from; and its
    algebra: ``identity`` e with ``x op e = x``, ``absorber`` z with
    ``z op x = z`` (each on both sides when it commutes; no division has
    an absorber, as ``0 / 0`` traps); ``idempotent``: ``x op x = x``;
    ``self_fold``: ``x op x = 0 op 0``; its ``text`` (by default a binary
    operator's), whose slots give its operands; and ``result``, its type
    where the text has no type slot, ``VOID`` where it defines no value."""
    cls: InstrClass
    pure: bool = False
    side_effects: bool = False
    commutative: bool = False
    fold: Callable[[list[int], str | None], int | None] | None = None
    latency: int = 1
    identity: int | None = None
    absorber: int | None = None
    idempotent: bool = False
    self_fold: bool = False
    text: str = "T V , V"
    result: IrType | None = None

    def forms(self, typed: bool = False) -> list[list[str]]:
        """Each form of ``text`` as its slots, ``X:t`` as ``X`` unless typed."""
        return [[s if typed else s.partition(":")[0] for s in form.split()]
                for form in self.text.split("|")]


_BIN, _BIT, _CAST = InstrClass.BINARY, InstrClass.BITWISE, InstrClass.CAST
_MEM, _TERM = InstrClass.MEMORY, InstrClass.TERMINATOR

#: One row per opcode: the one place a per-opcode fact is defined.
OPCODES: dict[Opcode, OpInfo] = {
    Opcode.ADD: OpInfo(_BIN, True, commutative=True, identity=0,
                       fold=lambda v, p: wrap32(v[0] + v[1])),
    Opcode.SUB: OpInfo(_BIN, True, identity=0, self_fold=True,
                       fold=lambda v, p: wrap32(v[0] - v[1])),
    Opcode.MUL: OpInfo(_BIN, True, commutative=True, identity=1,
                       absorber=0, latency=3,
                       fold=lambda v, p: wrap32(v[0] * v[1])),
    Opcode.SDIV: OpInfo(_BIN, fold=lambda v, p: _sdiv(v[0], v[1], False),
                        latency=16, identity=1),
    Opcode.SREM: OpInfo(_BIN, fold=lambda v, p: _sdiv(v[0], v[1], True),
                        latency=16),
    Opcode.AND: OpInfo(_BIT, True, commutative=True, identity=-1,
                       absorber=0, idempotent=True,
                       fold=lambda v, p: wrap32(v[0] & v[1])),
    Opcode.OR: OpInfo(_BIT, True, commutative=True, identity=0,
                      absorber=-1, idempotent=True,
                      fold=lambda v, p: wrap32(v[0] | v[1])),
    Opcode.XOR: OpInfo(_BIT, True, commutative=True, identity=0,
                       self_fold=True, fold=lambda v, p: wrap32(v[0] ^ v[1])),
    Opcode.SHL: OpInfo(_BIT, True, identity=0, absorber=0,
                       fold=lambda v, p: wrap32(v[0] << (v[1] & 31))),
    Opcode.ASHR: OpInfo(_BIT, True, identity=0, absorber=0,
                        fold=lambda v, p: wrap32(v[0] >> (v[1] & 31))),
    Opcode.ICMP: OpInfo(InstrClass.COMPARE, True, self_fold=True, fold=(
        lambda v, p: int(PREDICATES[p or "eq"].test(v[0], v[1]))),
        text="P i32 V , V", result=I1),
    Opcode.SELECT: OpInfo(InstrClass.SELECT, True, text="V:i1 , T V , V"),
    Opcode.PHI: OpInfo(InstrClass.PHI, text="T { [ V , L ] }"),
    Opcode.LOAD: OpInfo(_MEM, latency=2, text="T V:ptr"),
    Opcode.STORE: OpInfo(_MEM, side_effects=True, text="i32 V , V:ptr",
                         result=VOID),
    Opcode.GETELEMENTPTR: OpInfo(_MEM, True, latency=0, text="A , V:i32",
                                 result=PTR),
    Opcode.ZEXT: OpInfo(_CAST, True, fold=lambda v, p: v[0] & 1, latency=0,
                        text="i1 V to i32", result=I32),
    Opcode.SEXT: OpInfo(_CAST, True, fold=lambda v, p: -1 if v[0] & 1 else 0,
                        latency=0, text="i1 V to i32", result=I32),
    Opcode.TRUNC: OpInfo(_CAST, True, fold=lambda v, p: v[0] & 1, latency=0,
                         text="i32 V to i1", result=I1),
    Opcode.CALL: OpInfo(InstrClass.CALL, side_effects=True, latency=0,
                        text="Y F ( { V } )"),
    Opcode.BR: OpInfo(_TERM, latency=0, text="L", result=VOID),
    Opcode.CONDBR: OpInfo(_TERM, latency=0, text="V:i1 , L , L", result=VOID),
    Opcode.RET: OpInfo(_TERM, latency=0, text="void:ret | Y:ret V",
                       result=VOID),
}

OPCODE_CLASS = {op: row.cls for op, row in OPCODES.items()}
TERMINATOR_OPCODES = {op for op, row in OPCODES.items()
                      if row.cls is InstrClass.TERMINATOR}
FOLDABLE = {op for op, row in OPCODES.items() if row.fold is not None}
PURE_OPS = {op for op, row in OPCODES.items() if row.pure}
#: Pure or folding, so trapping divisions too: removable when dead, and
#: equal when their operands are, but not hoistable.
PURE_OR_DIV = PURE_OPS | FOLDABLE


def fold_constant(opcode: Opcode, operands: list[int], pred: str | None = None):
    """The constant ``opcode`` computes from ``operands`` and an icmp's
    ``pred``; None when it traps.  Only for opcodes in ``FOLDABLE``."""
    return OPCODES[opcode].fold(operands, pred)  # type: ignore[misc]


def instr_class_one_hot(cls: InstrClass) -> list[float]:
    v = [0.0] * INSTR_CLASS_WIDTH
    v[cls.value] = 1.0
    return v


# ---------------------------------------------------------------------------
# Instructions, blocks, functions, module
# ---------------------------------------------------------------------------

@dataclass
class IrInstruction:
    """One SSA instruction.  ``operands`` follow the operand slots of its
    opcode's ``text``: select's are [cond, true, false], store's [value,
    ptr], getelementptr's [array, index], condbr's [cond, true label, false
    label] and phi's value, label pairs; ``pred`` holds icmp's predicate and
    ``callee`` call's function."""
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
        ops = self.operands
        return [(ops[i], ops[i + 1].label)  # type: ignore[union-attr]
                for i in range(0, len(ops), 2)]

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
        li = self.loop_info
        return IrBlock(self.label, [i.clone() for i in self.instructions],
                       self.terminator.clone() if self.terminator else None,
                       li and LoopInfo(li.loop_id, li.depth, li.is_header))


class PragmaKind(PlainEnum):
    UNROLL = "unroll"
    PIPELINE = "pipeline"
    INLINE = "inline"
    ARRAY_PARTITION = "array_partition"


class PragmaForm(NamedTuple):
    """A pragma's text: ``#pragma kind(param=value) key=target``, with no
    parentheses when ``param`` is None.  ``param`` names the
    ``PragmaDirective`` field of the value, which is at least ``least``; a
    ``loop`` target is a loop id, any other an ``@name``."""
    param: str | None
    least: int
    key: str


#: One row per pragma kind.  A bare ``inline``, with no target, names the
#: function that follows it.
PRAGMA_FORMS: dict[PragmaKind, PragmaForm] = {
    PragmaKind.UNROLL: PragmaForm("factor", 2, "loop"),
    PragmaKind.PIPELINE: PragmaForm("ii", 1, "loop"),
    PragmaKind.INLINE: PragmaForm(None, 0, "function"),
    PragmaKind.ARRAY_PARTITION: PragmaForm("factor", 1, "array"),
}


@dataclass
class PragmaDirective:
    kind: PragmaKind
    target: int | str  # loop id, array name, or function name
    factor: int | None = None
    ii: int | None = None

    def clone(self) -> "PragmaDirective":
        return PragmaDirective(self.kind, self.target, self.factor, self.ii)


@dataclass
class IrFunction:
    name: str
    params: list[tuple[str, IrType]]
    return_type: IrType
    blocks: list[IrBlock] = field(default_factory=list)
    pragmas: list[PragmaDirective] = field(default_factory=list)
    is_top: bool = False
    #: ``(shape, forest)`` memoized by ``ir.analysis.natural_loops``.  Not a
    #: field, so equality, ``repr`` and the printed form ignore it.
    loop_memo = None

    def block_map(self) -> dict[str, IrBlock]:
        return {b.label: b for b in self.blocks}

    @property
    def entry(self) -> IrBlock:
        return self.blocks[0]

    def param_ids(self) -> set[str]:
        return {p for p, _ in self.params}

    def defined_values(self) -> dict[str, IrInstruction]:
        return {ins.result: ins for b in self.blocks
                for ins in b.all_instructions() if ins.result is not None}

    def clone(self) -> "IrFunction":
        out = IrFunction(self.name, list(self.params), self.return_type,
                         [b.clone() for b in self.blocks],
                         [p.clone() for p in self.pragmas], self.is_top)
        out.loop_memo = self.loop_memo
        return out


@dataclass
class GlobalArray:
    name: str
    length: int
    init: list[int] | None = None

    def clone(self) -> "GlobalArray":
        return GlobalArray(self.name, self.length,
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
