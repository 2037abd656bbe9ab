"""Parser for the textual IR dialect.

The grammar is line oriented; the normative EBNF ships in docs/ir_grammar.ebnf.
``parse_module`` verifies the result before returning it, so a successfully
parsed module is always structurally valid.
"""
from __future__ import annotations

import re

from .types import (
    I1, I32, PTR, VOID, Const, GlobalArray, GlobalRef, IrBlock, IrFunction,
    InstrClass, IrInstruction, IrModule, IrType, LabelRef, LoopInfo, Opcode,
    OPCODE_CLASS, PragmaDirective, PragmaKind, ValueRef, array_type,
    ICMP_PREDICATES,
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
    (?P<ws>\s+)
  | (?P<value>%[A-Za-z0-9_.]+)
  | (?P<global>@[A-Za-z0-9_.]+)
  | (?P<number>-?\d+)
  | (?P<arrow>->)
  | (?P<punct>[(){}\[\],:=])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
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


def _parse_type(ln: _Line, allow_array: bool = False) -> IrType:
    kind, val, col = ln.peek()
    if kind != "ident":
        raise IrSyntaxError(f"expected a type, found {val!r}", ln.lineno, col)
    ln.next()
    if val == "i32":
        if allow_array and ln.accept("["):
            length = int(ln.expect_kind("number"))
            ln.expect("]")
            return array_type(length)
        return I32
    if val == "i1":
        return I1
    if val == "void":
        return VOID
    if val == "ptr":
        return PTR
    raise IrSyntaxError(f"unknown type {val!r}", ln.lineno, col)


def _parse_value_or_const(ln: _Line):
    kind, val, col = ln.peek()
    if kind == "value":
        ln.next()
        return ValueRef(val[1:])
    if kind == "number":
        return Const(ln.i32())
    raise IrSyntaxError(f"expected value or constant, found {val!r}",
                        ln.lineno, col)


def _parse_array_ref(ln: _Line):
    kind, val, col = ln.peek()
    if kind == "global":
        ln.next()
        return GlobalRef(val[1:])
    if kind == "value":
        ln.next()
        return ValueRef(val[1:])
    raise IrSyntaxError(f"expected array reference, found {val!r}",
                        ln.lineno, col)


_OPCODE_NAMES = {op.value: op for op in Opcode}


def _parse_instruction(ln: _Line) -> IrInstruction:
    kind, val, col = ln.peek()
    result = None
    if kind == "value":
        result = val[1:]
        ln.next()
        ln.expect("=")
        kind, val, col = ln.peek()

    if kind != "ident":
        raise IrSyntaxError(f"expected an opcode, found {val!r}", ln.lineno, col)
    op = val
    ln.next()
    opcode = _OPCODE_NAMES.get(op)
    if opcode is None:
        raise IrSyntaxError(f"unknown opcode {op!r}", ln.lineno, col)
    cls = OPCODE_CLASS[opcode]

    if cls is InstrClass.BINARY or cls is InstrClass.BITWISE:
        ty = _parse_type(ln)
        lhs = _parse_value_or_const(ln)
        ln.expect(",")
        rhs = _parse_value_or_const(ln)
        return IrInstruction(result, opcode, [lhs, rhs], ty)

    if op == "icmp":
        pred = ln.expect_kind("ident")
        if pred not in ICMP_PREDICATES:
            raise IrSyntaxError(f"unknown icmp predicate {pred!r}",
                                ln.lineno, col)
        _parse_type(ln)
        lhs = _parse_value_or_const(ln)
        ln.expect(",")
        rhs = _parse_value_or_const(ln)
        return IrInstruction(result, Opcode.ICMP, [lhs, rhs], I1, pred=pred)

    if op == "select":
        cond = _parse_value_or_const(ln)
        ln.expect(",")
        ty = _parse_type(ln)
        tv = _parse_value_or_const(ln)
        ln.expect(",")
        fv = _parse_value_or_const(ln)
        return IrInstruction(result, Opcode.SELECT, [cond, tv, fv], ty)

    if op == "phi":
        ty = _parse_type(ln)
        operands = []
        while True:
            ln.expect("[")
            v = _parse_value_or_const(ln)
            ln.expect(",")
            label = ln.expect_kind("ident")
            ln.expect("]")
            operands.extend([v, LabelRef(label)])
            if not ln.accept(","):
                break
        return IrInstruction(result, Opcode.PHI, operands, ty)

    if op == "load":
        ty = _parse_type(ln)
        ptr = _parse_value_or_const(ln)
        return IrInstruction(result, Opcode.LOAD, [ptr], ty)

    if op == "store":
        _parse_type(ln)
        v = _parse_value_or_const(ln)
        ln.expect(",")
        ptr = _parse_value_or_const(ln)
        return IrInstruction(None, Opcode.STORE, [v, ptr], VOID)

    if op == "getelementptr":
        arr = _parse_array_ref(ln)
        ln.expect(",")
        idx = _parse_value_or_const(ln)
        return IrInstruction(result, Opcode.GETELEMENTPTR, [arr, idx], PTR)

    if cls is InstrClass.CAST:
        _parse_type(ln)
        v = _parse_value_or_const(ln)
        ln.expect("to")
        dst_ty = _parse_type(ln)
        return IrInstruction(result, opcode, [v], dst_ty)

    if op == "call":
        ty = _parse_type(ln)
        callee = ln.expect_kind("global")[1:]
        ln.expect("(")
        args = []
        if not ln.accept(")"):
            while True:
                args.append(_parse_value_or_const(ln))
                if ln.accept(")"):
                    break
                ln.expect(",")
        return IrInstruction(result, Opcode.CALL, args, ty, callee=callee)

    if op == "br":
        label = ln.expect_kind("ident")
        return IrInstruction(None, Opcode.BR, [LabelRef(label)], VOID)

    if op == "condbr":
        cond = _parse_value_or_const(ln)
        ln.expect(",")
        t = ln.expect_kind("ident")
        ln.expect(",")
        f = ln.expect_kind("ident")
        return IrInstruction(None, Opcode.CONDBR,
                             [cond, LabelRef(t), LabelRef(f)], VOID)

    # ret, the one opcode left
    k, v, _ = ln.peek()
    if k == "ident" and v == "void":
        ln.next()
        return IrInstruction(None, Opcode.RET, [], VOID)
    ty = _parse_type(ln)
    val_op = _parse_value_or_const(ln)
    return IrInstruction(None, Opcode.RET, [val_op], ty)


def _parse_pragma(ln: _Line, lineno: int) -> PragmaDirective:
    ln.expect("pragma")
    kind = ln.expect_kind("ident")
    if kind == "unroll":
        ln.expect("(")
        ln.expect("factor")
        ln.expect("=")
        factor = int(ln.expect_kind("number"))
        ln.expect(")")
        ln.expect("loop")
        ln.expect("=")
        loop_id = int(ln.expect_kind("number"))
        if factor < 2:
            raise IrSyntaxError("unroll factor must be >= 2", lineno, 1)
        return PragmaDirective(PragmaKind.UNROLL, loop_id, factor=factor)
    if kind == "pipeline":
        ln.expect("(")
        ln.expect("ii")
        ln.expect("=")
        ii = int(ln.expect_kind("number"))
        ln.expect(")")
        ln.expect("loop")
        ln.expect("=")
        loop_id = int(ln.expect_kind("number"))
        if ii < 1:
            raise IrSyntaxError("pipeline target ii must be >= 1", lineno, 1)
        return PragmaDirective(PragmaKind.PIPELINE, loop_id, target_ii=ii)
    if kind == "array_partition":
        ln.expect("(")
        ln.expect("factor")
        ln.expect("=")
        factor = int(ln.expect_kind("number"))
        ln.expect(")")
        ln.expect("array")
        ln.expect("=")
        arr = ln.expect_kind("global")[1:]
        if factor < 1:
            raise IrSyntaxError("array_partition factor must be >= 1", lineno, 1)
        return PragmaDirective(PragmaKind.ARRAY_PARTITION, arr, factor=factor)
    if kind == "inline":
        # Bare form applies to the function that follows the pragma block.
        if ln.accept("function"):
            ln.expect("=")
            name = ln.expect_kind("global")[1:]
            return PragmaDirective(PragmaKind.INLINE, name)
        return PragmaDirective(PragmaKind.INLINE, "")
    raise IrSyntaxError(f"unknown pragma kind {kind!r}", lineno, 1)


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

    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.partition(";")[0]
        if not code.strip():
            continue
        if code.lstrip().startswith("#pragma"):
            ln = _Line(code, lineno, code.index("#") + 1)
            if current_fn is not None:
                raise IrSyntaxError("pragmas must precede the function",
                                    lineno, 1)
            pending_pragmas.append(_parse_pragma(ln, lineno))
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
                init = []
                if not ln.accept("}"):
                    while True:
                        init.append(ln.i32())
                        if ln.accept("}"):
                            break
                        ln.expect(",")
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
            params: list[tuple[str, IrType]] = []
            if not ln.accept(")"):
                while True:
                    pid = ln.expect_kind("value")[1:]
                    ln.expect(":")
                    pty = _parse_type(ln, allow_array=True)
                    params.append((pid, pty))
                    if ln.accept(")"):
                        break
                    ln.expect(",")
            ln.expect("->")
            ret_ty = _parse_type(ln)
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
                            len(text.splitlines()) or 1, 1)
    if pending_pragmas:
        raise IrSyntaxError("pragmas with no following function",
                            len(text.splitlines()) or 1, 1)

    if not explicit_top and len(module.functions) == 1:
        module.functions[0].is_top = True

    if verify:
        from .verify import verify_module
        violations = verify_module(module)
        if violations:
            raise VerifyError(violations)
    return module
