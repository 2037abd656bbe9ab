"""Parser for the textual IR dialect.

The grammar is line oriented; the normative EBNF ships in docs/ir_grammar.ebnf.
An instruction's syntax after its opcode is its ``ir.types.OPCODES`` row's
``text``, which ``_match`` reads slot by slot (the slot letters are listed in
``ir.types``); a pragma's is its ``PRAGMA_FORMS`` row.  ``parse_module``
verifies the result before returning it, so a successfully parsed module is
always structurally valid.
"""
from __future__ import annotations

import re

from .types import (
    ICMP_PREDICATES, NAMED_TYPES, OPCODES, PRAGMA_FORMS, SCALAR_TYPES, VOID,
    Const, GlobalArray, GlobalRef, IrBlock, IrFunction, IrInstruction,
    IrModule, IrType, LabelRef, LoopInfo, Opcode, PragmaDirective, PragmaKind,
    ValueRef, array_type,
)


class IrSyntaxError(Exception):
    """Malformed IR text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}:{col}: {message}")
        self.line = line
        self.col = col


class VerifyError(Exception):
    """Structurally invalid module (verifier violations)."""

    def __init__(self, violations):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<value>%[A-Za-z][A-Za-z0-9_.]*)
  | (?P<global>@[A-Za-z][A-Za-z0-9_.]*)
  | (?P<number>-?[0-9]+)
  | (?P<arrow>->)
  | (?P<punct>[(){}\[\],:=])
  | (?P<ident>[A-Za-z][A-Za-z0-9_.]*)
    """,
    re.VERBOSE,
)


class _Line:
    """Token cursor over one source line from ``start``, columns 1-based."""

    def __init__(self, text: str, lineno: int, start: int = 0):
        self.lineno = lineno
        self.tokens: list[tuple[str, str, int]] = []
        pos = start
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise IrSyntaxError(f"unexpected character {text[pos]!r}",
                                    lineno, pos + 1)
            pos = m.end()
            kind = m.lastgroup
            if kind != "ws":
                self.tokens.append((kind, m.group(), m.start() + 1))
        self.idx = 0

    def peek(self):
        if self.idx < len(self.tokens):
            return self.tokens[self.idx]
        return (None, "", len(self.tokens) and self.tokens[-1][2] or 1)

    def next(self):
        tok = self.peek()
        if tok[0] is None:
            raise IrSyntaxError("unexpected end of line", self.lineno, tok[2])
        self.idx += 1
        return tok

    def accept(self, text: str) -> bool:
        kind, val, _ = self.peek()
        if kind is not None and val == text:
            self.idx += 1
            return True
        return False

    def expect(self, text: str):
        kind, val, col = self.peek()
        if kind is None or val != text:
            raise IrSyntaxError(f"expected {text!r}, found {val!r}",
                                self.lineno, col)
        self.idx += 1

    def i32(self) -> int:
        """The next token, an integer literal, which must lie in i32."""
        col, v = self.peek()[2], int(self.expect_kind("number"))
        if not -2**31 <= v < 2**31:
            raise IrSyntaxError(f"literal {v} is outside i32's "
                                "[-2^31, 2^31-1]", self.lineno, col)
        return v

    def expect_kind(self, kind: str) -> str:
        k, val, col = self.peek()
        if k != kind:
            raise IrSyntaxError(f"expected {kind}, found {val!r}",
                                self.lineno, col)
        self.idx += 1
        return val

    @property
    def done(self) -> bool:
        return self.idx >= len(self.tokens)

    def require_done(self):
        if not self.done:
            _, val, col = self.peek()
            raise IrSyntaxError(f"trailing tokens starting at {val!r}",
                                self.lineno, col)


def _parse_type(ln: _Line, types: dict[str, IrType] = SCALAR_TYPES,
                allow_array: bool = False) -> IrType:
    """One of ``types``, by name, or with ``allow_array`` also ``i32[N]``."""
    kind, val, col = ln.peek()
    if kind != "ident" or val not in types:
        raise IrSyntaxError(f"expected a type ({', '.join(types)}), "
                            f"found {val!r}", ln.lineno, col)
    ln.next()
    if allow_array and val == "i32" and ln.accept("["):
        length = int(ln.expect_kind("number"))
        ln.expect("]")
        return array_type(length)
    return types[val]


def _items(ln: _Line, close: str, read) -> list:
    """What ``read`` reads from each item of a comma-separated list, maybe
    empty, that the token ``close`` ends."""
    out = []
    while not ln.accept(close):
        if out:
            ln.expect(",")
        out.append(read())
    return out


def _parse_param(ln: _Line) -> tuple[str, IrType]:
    pid = ln.expect_kind("value")[1:]
    ln.expect(":")
    return pid, _parse_type(ln, allow_array=True)


def _parse_operand(ln: _Line, array: bool = False):
    """A ``%value``, or else an i32 literal, or with ``array`` a ``@global``."""
    kind, val, col = ln.peek()
    if kind == "value" or array and kind == "global":
        ln.next()
        return (ValueRef if kind == "value" else GlobalRef)(val[1:])
    if kind == "number" and not array:
        return Const(ln.i32())
    wanted = "array reference" if array else "value or constant"
    raise IrSyntaxError(f"expected {wanted}, found {val!r}", ln.lineno, col)


def _match(ln: _Line, slots: list[str], ins: IrInstruction) -> None:
    """Reads ``slots``, one form of an ``OPCODES`` row's ``text``, into
    ``ins``; the slot letters are ``ir.types``'."""
    i = 0
    while i < len(slots):
        s = slots[i]
        if s == "V" or s == "A":
            ins.operands.append(_parse_operand(ln, s == "A"))
        elif s == ",":
            ln.expect(",")
        elif s == "T" or s == "Y":
            ins.ir_type = _parse_type(ln, SCALAR_TYPES if s == "T"
                                      else NAMED_TYPES)
        elif s == "{":
            end = slots.index("}", i)
            item, after = slots[i + 1:end], slots[end + 1:end + 2]
            # A list is empty only where the token after it comes next.
            if not after or ln.peek()[1] != after[0]:
                _match(ln, item, ins)
                while ln.accept(","):
                    _match(ln, item, ins)
            i = end
        elif s == "L":
            ins.operands.append(LabelRef(ln.expect_kind("ident")))
        elif s == "P":
            col = ln.peek()[2]
            ins.pred = ln.expect_kind("ident")
            if ins.pred not in ICMP_PREDICATES:
                raise IrSyntaxError(f"unknown icmp predicate {ins.pred!r}",
                                    ln.lineno, col)
        elif s == "F":
            ins.callee = ln.expect_kind("global")[1:]
        else:
            ln.expect(s)
        i += 1


_OPCODE_NAMES = {op.value: op for op in Opcode}
#: Each opcode's alternative forms, each a list of slots.
_FORMS = {op: row.forms() for op, row in OPCODES.items()}


def _parse_instruction(ln: _Line) -> IrInstruction:
    """One instruction: ``%x = `` and then a producer, or a store or
    terminator alone, as the row's ``result`` says."""
    kind, val, col = ln.peek()
    result, first = None, col
    if kind == "value":
        result = val[1:]
        ln.next()
        ln.expect("=")
        kind, val, col = ln.peek()

    if kind != "ident":
        raise IrSyntaxError(f"expected an opcode, found {val!r}", ln.lineno, col)
    ln.next()
    opcode = _OPCODE_NAMES.get(val)
    if opcode is None:
        raise IrSyntaxError(f"unknown opcode {val!r}", ln.lineno, col)
    row, forms, start = OPCODES[opcode], _FORMS[opcode], ln.idx
    if (row.result is VOID) != (result is None):    # at the line's start
        raise IrSyntaxError(f"{val} defines no value, so takes no '%{result} ='"
                            if result else f"{val} defines a value, so needs "
                            "'%name ='", ln.lineno, first)
    # The first form that matches wins; the last one's error stands.
    for n, slots in enumerate(forms, 1):
        ins = IrInstruction(result, opcode, [], row.result)
        try:
            _match(ln, slots, ins)
            return ins
        except IrSyntaxError:
            if n == len(forms):
                raise
            ln.idx = start


_PRAGMA_KINDS = {kind.value: kind for kind in PragmaKind}


def _parse_pragma(ln: _Line) -> PragmaDirective:
    """A pragma line, read by its kind's ``PRAGMA_FORMS`` row."""
    ln.expect("pragma")
    _, name, col = ln.peek()
    kind = _PRAGMA_KINDS.get(ln.expect_kind("ident"))
    if kind is None:
        raise IrSyntaxError(f"unknown pragma kind {name!r}", ln.lineno, col)
    form = PRAGMA_FORMS[kind]
    pragma = PragmaDirective(kind, "")
    if form.param is not None:
        ln.expect("(")
        ln.expect(form.param)
        ln.expect("=")
        col = ln.peek()[2]
        value = int(ln.expect_kind("number"))
        if value < form.least:
            raise IrSyntaxError(f"{name} {form.param} must be >= {form.least}",
                                ln.lineno, col)
        ln.expect(")")
        setattr(pragma, form.param, value)
    # A bare pragma's target is set by the function that follows it.
    if form.param is not None or not ln.done:
        ln.expect(form.key)
        ln.expect("=")
        pragma.target = int(ln.expect_kind("number")) if form.key == "loop" \
            else ln.expect_kind("global")[1:]
    ln.require_done()
    return pragma


def _parse_block_header(ln: _Line) -> IrBlock:
    label = ln.expect_kind("ident")
    loop_info = None
    if ln.accept("loop"):
        ln.expect("(")
        loop_id = int(ln.expect_kind("number"))
        ln.expect(",")
        ln.expect("depth")
        ln.expect("=")
        depth = int(ln.expect_kind("number"))
        is_header = False
        if ln.accept(","):
            ln.expect("header")
            is_header = True
        ln.expect(")")
        loop_info = LoopInfo(loop_id, depth, is_header)
    ln.expect(":")
    ln.require_done()
    return IrBlock(label, loop_info=loop_info)


def parse_module(text: str, verify: bool = True) -> IrModule:
    """Parse IR text into a module; raises IrSyntaxError / VerifyError."""
    module = IrModule()
    pending_pragmas: list[PragmaDirective] = []
    current_fn: IrFunction | None = None
    current_block: IrBlock | None = None
    explicit_top = False

    # Lines end at "\n", or "\r\n"; no other character breaks a line.
    lines = text.replace("\r\n", "\n").removesuffix("\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        code = raw.partition(";")[0]
        if not code.strip(" \t"):
            continue
        if code.lstrip(" \t").startswith("#pragma"):
            ln = _Line(code, lineno, code.index("#") + 1)
            if current_fn is not None:
                raise IrSyntaxError("pragmas must precede the function",
                                    lineno, 1)
            pending_pragmas.append(_parse_pragma(ln))
            continue

        ln = _Line(code, lineno)
        kind, val, col = ln.peek()

        if kind == "ident" and val == "global" and current_fn is None:
            ln.next()
            name = ln.expect_kind("global")[1:]
            ln.expect(":")
            ty = _parse_type(ln, allow_array=True)
            if not ty.is_array:
                raise IrSyntaxError("globals must have an array type", lineno, col)
            init = None
            if ln.accept("="):
                ln.expect("{")
                init = _items(ln, "}", ln.i32)
            ln.require_done()
            module.global_arrays.append(GlobalArray(name, ty.length, init))
            continue

        if kind == "ident" and val in ("func", "top"):
            if current_fn is not None:
                raise IrSyntaxError("nested function definition", lineno, col)
            is_top = False
            if val == "top":
                ln.next()
                is_top = True
                explicit_top = True
            ln.expect("func")
            name = ln.expect_kind("global")[1:]
            ln.expect("(")
            params = _items(ln, ")", lambda: _parse_param(ln))
            ln.expect("->")
            ret_ty = _parse_type(ln, NAMED_TYPES)
            ln.expect("{")
            ln.require_done()
            current_fn = IrFunction(name, params, ret_ty, [],
                                    pending_pragmas, is_top)
            pending_pragmas = []
            # Bare inline pragmas bind to this function.
            for p in current_fn.pragmas:
                if p.kind is PragmaKind.INLINE and p.target == "":
                    p.target = name
            continue

        if kind == "punct" and val == "}":
            ln.next()
            ln.require_done()
            if current_fn is None:
                raise IrSyntaxError("unmatched '}'", lineno, col)
            if current_block is not None and current_block.terminator is None:
                raise IrSyntaxError(
                    f"block {current_block.label!r} has no terminator", lineno, col)
            module.functions.append(current_fn)
            current_fn = None
            current_block = None
            continue

        if current_fn is None:
            raise IrSyntaxError(f"unexpected {val!r} at module scope",
                                lineno, col)

        if kind == "ident" and val == "block":
            ln.next()
            if current_block is not None and current_block.terminator is None:
                raise IrSyntaxError(
                    f"block {current_block.label!r} has no terminator", lineno, col)
            current_block = _parse_block_header(ln)
            current_fn.blocks.append(current_block)
            continue

        if current_block is None:
            raise IrSyntaxError("instruction outside a block", lineno, col)
        if current_block.terminator is not None:
            raise IrSyntaxError("instruction after the block terminator",
                                lineno, col)
        ins = _parse_instruction(ln)
        ln.require_done()
        if ins.is_terminator:
            current_block.terminator = ins
        else:
            current_block.instructions.append(ins)

    if current_fn is not None:
        raise IrSyntaxError("unterminated function (missing '}')",
                            len(lines), 1)
    if pending_pragmas:
        raise IrSyntaxError("pragmas with no following function",
                            len(lines), 1)

    if not explicit_top and len(module.functions) == 1:
        module.functions[0].is_top = True

    if verify:
        from .verify import verify_module
        violations = verify_module(module)
        if violations:
            raise VerifyError(violations)
    return module
