"""Parser, printer, verifier, interpreter, and the package's enumerations."""
import ast
import copy
import enum
import inspect
import pickle
import re
import string
import textwrap
from pathlib import Path

import numpy as np
import pytest

from passforge.corpus import case1_text, random_inputs
from passforge.graphs import NodeKind, Relation
from passforge.ir import (
    OPCODE_CLASS, OPCODES, Const, FuelExhausted, InstrClass, IrSyntaxError,
    LabelRef, Opcode, PragmaKind, TrapError, ValueRef, VerifyError,
    dedicated_preheader, fold_constant, interpret, natural_loops, parse_module,
    postorder, print_module, verify_module, wrap32,
)
from passforge.ir.types import (
    FOLDABLE, ICMP_PREDICATES, PREDICATES, PURE_OPS, PURE_OR_DIV,
    TERMINATOR_OPCODES, VOID, IrTypeKind, OpInfo, PlainEnum,
)
from passforge.passes import PassId


def test_minimal_identity_function():
    m = parse_module("func @f(%a: i32) -> i32 { block entry: ret i32 %a }"
                     .replace("{ ", "{\n").replace(" }", "\n}")
                     .replace("block entry: ", "block entry:\n"))
    assert len(m.functions) == 1
    fn = m.functions[0]
    assert fn.is_top  # single function is implicitly top
    assert len(fn.blocks) == 1
    assert len(fn.blocks[0].all_instructions()) == 1


def test_case1_source_has_nested_loops_and_trip_1482():
    m = parse_module(case1_text())
    forest = natural_loops(m.top)
    assert len(forest.loops) == 2
    inner = forest.by_id(2)
    assert inner is not None and inner.depth == 2
    from passforge.passes import loop_trip_count
    assert loop_trip_count(inner, m.top.defined_values(),
                           m.top.block_map()) == 1482


#: A loop ``hd``/``body`` that the entry's terminator ``entry`` reaches,
#: possibly through ``blocks``; ``incoming`` are its phi's entering values.
PREHEADER_SRC = """
top func @f(%c: i1) -> i32 {{
block entry:
  {entry}
{blocks}block hd loop(1, depth=1, header):
  %i = phi i32 {incoming}, [%i.next, body]
  %k = icmp slt i32 %i, 4
  condbr %k, body, done
block body loop(1, depth=1):
  %i.next = add i32 %i, 1
  br hd
block done:
  ret i32 0
}}
"""


@pytest.mark.parametrize("entry,blocks,incoming,want", [
    # ``pre`` is the header's one outside predecessor and branches only there.
    ("br pre", "block pre:\n  br hd\n", "[0, pre]", "pre"),
    # Two outside predecessors enter the header.
    ("condbr %c, a, b", "block a:\n  br hd\nblock b:\n  br hd\n",
     "[0, a], [1, b]", None),
    # The one outside predecessor also branches past the loop.
    ("condbr %c, hd, done", "", "[0, entry]", None),
], ids=["dedicated", "two-entries", "shared-entry"])
def test_dedicated_preheader(entry, blocks, incoming, want):
    m = parse_module(PREHEADER_SRC.format(entry=entry, blocks=blocks,
                                          incoming=incoming))
    pre = dedicated_preheader(m.top, natural_loops(m.top).loops[0])
    assert (None if pre is None else pre.label) == want


def test_missing_terminator_is_syntax_error():
    bad = """
top func @f(%a: i32) -> i32 {
block entry:
  %x = add i32 %a, 1
block next:
  ret i32 %x
}
"""
    with pytest.raises(IrSyntaxError):
        parse_module(bad)


def test_roundtrip_fixpoint(small_corpus):
    for _name, m in small_corpus:
        text = print_module(m)
        again = print_module(parse_module(text))
        assert again == text


def test_verifier_use_before_def():
    bad = """
top func @f(%a: i32) -> i32 {
block entry:
  %x = add i32 %y, 1
  %y = add i32 %a, 1
  ret i32 %x
}
"""
    m = parse_module(bad, verify=False)
    codes = {v.code for v in verify_module(m)}
    assert "use-before-def" in codes or "dominance" in codes


def test_verifier_pragma_target_missing():
    bad = """
#pragma unroll(factor=4) loop=9
top func @f(%a: i32) -> i32 {
block entry:
  ret i32 %a
}
"""
    m = parse_module(bad, verify=False)
    assert any(v.code == "pragma-target" for v in verify_module(m))


def test_parse_raises_verify_error_for_structural_problems():
    bad = """
top func @f(%a: i32) -> i32 {
block entry:
  condbr %a, entry, out
block out:
  ret i32 %a
}
"""
    # entry has a predecessor (the back edge targets it)
    with pytest.raises(VerifyError):
        parse_module(bad)


@pytest.mark.parametrize("factor", [-2, 0])
def test_array_partition_factor_below_one_is_a_syntax_error(factor):
    """A negative factor once parsed and then divided by zero in ``qor``, and
    a zero one silently meant one."""
    text = f"""
#pragma array_partition(factor={factor}) array=@a
top func @f(%a: i32[4]) -> i32 {{
block entry:
  ret i32 0
}}
"""
    with pytest.raises(IrSyntaxError, match="factor must be >= 1"):
        parse_module(text)


#: ``@g`` passes its array ``%a`` as both arrays of ``@f``.
ALIASING_CALL = """
top func @g(%a: i32[4]) -> i32 {
block entry:
  %r = call i32 @f(%a, %a)
  ret i32 %r
}
func @f(%x: i32[4], %y: i32[4]) -> i32 {
block entry:
  %px = getelementptr %x, 0
  %py = getelementptr %y, 0
"""


@pytest.mark.parametrize("pass_ids, body, before, after", [
    (["mem2reg"], """  store i32 1, %px
  store i32 2, %py
  %v = load i32 %px
  ret i32 %v
""", 2, 1),
    (["early_cse", "gvn"], """  store i32 0, %px
  %v1 = load i32 %px
  store i32 5, %py
  %v2 = load i32 %px
  %v = sub i32 %v2, %v1
  ret i32 %v
""", 5, 0),
    (["dse"], """  store i32 1, %px
  %v = load i32 %py
  store i32 2, %px
  ret i32 %v
""", 1, 0),
], ids=["mem2reg", "cse", "dse"])
def test_one_array_passed_twice_is_rejected(pass_ids, body, before, after):
    """These passes take distinct array names for distinct arrays, so each
    changes what ``@f`` returns when one array is both; the verifier
    rejects the call."""
    from passforge.passes import PassId, _IMPLS
    m = parse_module(ALIASING_CALL + body + "}\n", verify=False)
    assert [str(v) for v in verify_module(m)] == [
        "[call-arg] g:entry: call to @f passes one array twice"]
    zeros = [[0, 0, 0, 0]]
    assert interpret(m, zeros).return_value == before
    for p in pass_ids:
        out = m.clone()
        _IMPLS[PassId(p)](out)
        assert interpret(out, zeros).return_value == after


#: ``@g`` calls ``@f`` as ``caller`` says.
TYPED_CALL = """
top func @g(%a: i32[4], %i: i32) -> i32 {{
block entry:
  {caller}
  ret i32 %r
}}
func @f(%x: i32[4], %s: i32) -> i32 {{
block entry:
  %p = getelementptr %x, %s
  %v = load i32 %p
  ret i32 %v
}}
"""


@pytest.mark.parametrize("caller, wrong", [
    ("%r = call i32 @f(%i, %i)", ["call operand %i is i32, expected i32[4]"]),
    ("%r = call i32 @f(%a, %a)", ["call operand %a is i32[4], expected i32"]),
    ("%p = getelementptr %a, 0\n  %r = call i32 @f(%a, %p)",
     ["call operand %p is ptr, expected i32"]),
    ("%r = call i32 @f(0, 1)",
     ["call operand 0 is a literal, expected i32[4]"]),
    ("%v = add i32 %i, 1\n  %r = call i32 @f(%a, %v)", []),
    ("%r = call i32 @f(%a, 7)", []),
    ("%r = call i32 @f(%a, %nope)", []),
], ids=["scalar-to-array", "array-to-scalar", "pointer", "constant-array",
        "result", "constant", "undefined"])
def test_call_arguments_are_typed(caller, wrong):
    """Each argument must have its parameter's type.  An undefined one is
    reported once, as a use before its definition."""
    m = parse_module(TYPED_CALL.format(caller=caller), verify=False)
    assert [str(v) for v in verify_module(m) if v.code == "type"] == [
        f"[type] g:entry: {w}" for w in wrong]


def test_a_global_array_is_no_call_argument():
    text = """
global @t : i32[4]
top func @g(%a: i32[4]) -> i32 {
block entry:
  %r = call i32 @f(@t)
  ret i32 %r
}
func @f(%x: i32[4]) -> i32 {
block entry:
  ret i32 0
}
"""
    with pytest.raises(IrSyntaxError, match="expected value or constant"):
        parse_module(text)


@pytest.mark.parametrize("line, col", [
    ("%c = icmp slt i32 %a, 4294967296", 23),
    ("%c = icmp slt i32 4294967296, 1", 19),
    ("%c = icmp sgt i32 %a, -2147483649", 23),
    ("%c = icmp eq i32 %a, 2147483648", 22),
])
def test_literal_outside_i32_is_a_syntax_error(line, col):
    """Arithmetic would wrap such a literal and icmp would compare it
    unwrapped, so the parser refuses it, at its line and column."""
    text = f"func @f(%a: i32) -> i1 {{\nblock entry:\n{line}\n  ret i1 %c\n}}"
    with pytest.raises(IrSyntaxError, match="outside i32") as e:
        parse_module(text)
    assert (e.value.line, e.value.col) == (3, col)


@pytest.mark.parametrize("text, col", [
    ("func @f(%a: i32) -> i1 {\nblock entry:\n"
     "  %c = icmp slt i32 %a, 4294967296\n  ret i1 %c\n}", 25),
    ("\t#pragma unroll(factor=x) loop=1\n"
     "func @f() -> i32 {\nblock entry:\n  ret i32 0\n}", 24),
    ("   #pragma pipeline(ii=) loop=1\n"
     "func @f() -> i32 {\nblock entry:\n  ret i32 0\n}", 24),
    ("#pragma unroll(factor=1) loop=1\n"
     "func @f() -> i32 {\nblock entry:\n  ret i32 0\n}", 23),
    ("  #pragma pipeline(ii=0) loop=1\n"
     "func @f() -> i32 {\nblock entry:\n  ret i32 0\n}", 23),
    ("#pragma array_partition(factor=0) array=@g\n"
     "func @f() -> i32 {\nblock entry:\n  ret i32 0\n}", 32),
    ("\t#pragma frobnicate loop=1\n"
     "func @f() -> i32 {\nblock entry:\n  ret i32 0\n}", 10),
])
def test_syntax_error_columns_count_from_the_start_of_the_line(text, col):
    """An indented instruction or ``#pragma`` line reports the column of
    the offending token in the raw line, indentation and ``#`` included; a
    pragma's value out of range and an unknown pragma kind too."""
    with pytest.raises(IrSyntaxError) as e:
        parse_module(text)
    assert e.value.col == col


#: One instruction per opcode, a cast of each kind, ``ret void``, a call of
#: a void function with no arguments and a two-arm phi, as the printer
#: writes them.
EVERY_OPCODE = """\
global @g : i32[4] = {1, 2, 3, 4}

#pragma unroll(factor=2) loop=1
#pragma pipeline(ii=1) loop=1
#pragma array_partition(factor=2) array=@g
#pragma inline function=@h
top func @f(%a: i32, %b: i1, %p: i32[4]) -> i32 {
block entry:
  %s = add i32 %a, 1
  %t = sub i32 %s, %a
  %u = mul i32 %t, 3
  %v = sdiv i32 %u, 2
  %w = srem i32 %v, 5
  %x = and i32 %w, 7
  %y = or i32 %x, 8
  %z = xor i32 %y, -1
  %sh = shl i32 %z, 2
  %as = ashr i32 %sh, 1
  %c = icmp slt i32 %as, 10
  %se = select %c, i32 %as, 0
  %ze = zext i1 %c to i32
  %sx = sext i1 %b to i32
  %tr = trunc i32 %ze to i1
  %q = getelementptr @g, 1
  store i32 %se, %q
  %l = load i32 %q
  %r = call i32 @h(%l, %sx)
  %n = call void @k()
  %e = getelementptr %p, 0
  br head
block head loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i2, head]
  %i2 = add i32 %i, 1
  %cc = icmp ne i32 %i2, 4
  condbr %cc, head, out
block out:
  ret i32 %i2
}

func @h(%x: i32, %y: i32) -> i32 {
block entry:
  ret i32 %x
}

func @k() -> void {
block entry:
  ret void
}
"""


def test_every_opcode_round_trips_both_ways():
    m = parse_module(EVERY_OPCODE)
    assert print_module(m) == EVERY_OPCODE
    assert parse_module(print_module(m)) == m
    ins = [i for f in m.functions for b in f.blocks
           for i in b.all_instructions()]
    assert {i.opcode for i in ins} == set(Opcode)
    assert {len(i.operands) for i in ins if i.opcode is Opcode.CALL} == {0, 2}
    assert {len(i.operands) for i in ins if i.opcode is Opcode.RET} == {0, 1}
    assert [len(i.operands) for i in ins if i.opcode is Opcode.PHI] == [4]


def _fixed_arity(row: OpInfo) -> int | None:
    """The operand count of a row whose one form has no list, from its
    operand slots; None for a row that takes more than one count."""
    counts = {sum(s in ("V", "L", "A") for s in form) for form in row.forms()}
    return counts.pop() if len(counts) == 1 and "{" not in row.text else None


def test_each_brace_free_text_has_one_operand_slot_per_operand():
    """A list takes any number of operands; ret's two forms take none or
    one, as the verifier requires."""
    for op, row in OPCODES.items():
        counts = {sum(s in ("V", "L", "A") for s in form)
                  for form in row.forms()}
        if "{" in row.text:
            assert op in (Opcode.PHI, Opcode.CALL), op
        else:
            assert counts == ({0, 1} if op is Opcode.RET
                              else {OLD_ARITY[op]}), op


#: Where a row-driven instance sits: ``body`` holds it, ``%i``, ``%b``,
#: ``%p`` and ``%a`` are an i32, an i1, a ptr and an array, and ``@h``
#: takes an i32.
TYPED_SITE = """
func @h(%x: i32) -> i32 {{
block entry:
  ret i32 %x
}}
top func @f(%i: i32, %b: i1, %a: i32[4]) -> {ret} {{
block entry:
  %p = getelementptr %a, 0
  condbr %b, body, done
block body:
  {body}
block done:
  ret {value}
}}
"""
#: An operand of each type a slot may want, and one of another type.
TYPED_OPERANDS = {"i32": ("%i", "%b"), "i1": ("%b", "%i"), "ptr": ("%p", "%i"),
                  "A": ("%a", "%i")}


def _instances(op: Opcode) -> list[tuple[str, list[tuple[str, str]]]]:
    """For each form of ``op``'s row, a well-typed instance at
    ``TYPED_SITE``, and for each of its ``V`` and ``A`` slots, the instance
    with an operand of another type there, and that operand.  The
    instance's type is i32, as is ``@h``'s parameter; an untyped ``V`` has
    the nearest type before it."""
    row, out = OPCODES[op], []
    label = "done" if row.result is VOID else "entry"   # a branch's or phi's
    for form in row.forms(typed=True):
        tokens, wants, ty = [], [], None
        for slot in (s for s in form if s not in ("{", "}")):
            s, _, typed = slot.partition(":")
            if s in ("T", "Y", "F", "i32", "i1", "void"):
                ty = "i32" if s in ("T", "Y", "F") else s
            if s in ("V", "A"):
                wants.append((len(tokens), "A" if s == "A" else
                              typed if typed in TYPED_OPERANDS else ty))
            tokens.append({"T": "i32", "Y": "i32", "P": "slt", "F": "@h",
                           "L": label}.get(s, s))
        for k, want in wants:
            tokens[k] = TYPED_OPERANDS[want][0]
        result = "" if row.result is VOID else "%r = "
        text = result + " ".join([op.value] + tokens)
        wrong = []
        for k, want in wants:
            bad = list(tokens)
            bad[k] = TYPED_OPERANDS[want][1]
            wrong.append((result + " ".join([op.value] + bad), bad[k]))
        out.append((text, wrong))
    return out


def _at_site(op: Opcode, instance: str) -> str:
    body = instance if op in TERMINATOR_OPCODES else instance + "\n  br done"
    ret = "void" if instance == "ret void" else "i32"
    return TYPED_SITE.format(ret=ret, body=body,
                             value="void" if ret == "void" else "i32 0")


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.value)
def test_each_row_types_each_operand_slot(op):
    """A well-typed instance of each form of each row verifies; giving any
    one of its value or array slots an operand of another type is one
    ``type`` violation, at the block, naming that operand."""
    for text, wrong in _instances(op):
        assert verify_module(parse_module(_at_site(op, text))) == []
        for bad, operand in wrong:
            found = verify_module(parse_module(_at_site(op, bad),
                                               verify=False))
            assert [(v.code, v.where) for v in found] == [("type", "f:body")]
            assert f" operand {operand} is " in found[0].message


_OFF_GRAMMAR_BODY = ("func @f(%a: i32, %b: i1, %q: i32[4]) -> i32 {{\n"
                     "block entry:\n  %p = getelementptr %q, 0\n{line}\n"
                     "  ret i32 0\n}}")
_EMPTY_FN = "func @f() -> i32 {\nblock entry:\n  ret i32 0\n}"


@pytest.mark.parametrize("text, line, col", [
    (_OFF_GRAMMAR_BODY.format(line="  %x = add void %a, 1"), 4, 12),
    (_OFF_GRAMMAR_BODY.format(line="  %x = mul ptr %a, 1"), 4, 12),
    (_OFF_GRAMMAR_BODY.format(line="  %x = load void %p"), 4, 13),
    (_OFF_GRAMMAR_BODY.format(line="  %x = select %b, ptr %a, 0"), 4, 19),
    (_OFF_GRAMMAR_BODY.format(line="  %x = phi ptr [0, entry]"), 4, 12),
    (_OFF_GRAMMAR_BODY.format(line="  %c = icmp slt i1 %b, 1"), 4, 17),
    (_OFF_GRAMMAR_BODY.format(line="  store i1 1, %p"), 4, 9),
    (_OFF_GRAMMAR_BODY.format(line="  %z = zext i32 %a to i32"), 4, 13),
    (_OFF_GRAMMAR_BODY.format(line="  %z = sext i1 %b to i1"), 4, 22),
    (_OFF_GRAMMAR_BODY.format(line="  %t = trunc i1 %b to i1"), 4, 14),
    (_OFF_GRAMMAR_BODY.format(line="  %t = trunc i32 %a to i32"), 4, 24),
    ("func @f(%a: void) -> i32 {\nblock entry:\n  ret i32 0\n}", 1, 13),
    ("func @f(%a: i32, %b: ptr) -> i32 {\nblock entry:\n  ret i32 0\n}",
     1, 22),
    ("#pragma unroll(factor=2) loop=1 junk\n" + _EMPTY_FN, 1, 33),
    ("#pragma pipeline(ii=1) loop=1 extra\n" + _EMPTY_FN, 1, 31),
    ("#pragma array_partition(factor=2) array=@g x\n"
     "global @g : i32[4]\n" + _EMPTY_FN, 1, 44),
    ("#pragma inline junk\n" + _EMPTY_FN, 1, 16),
    ("#pragma inline function=@f extra\n" + _EMPTY_FN, 1, 28),
    # A regex's \d matches Arabic-Indic digits; integers are ASCII only.
    (_OFF_GRAMMAR_BODY.format(line="  %x = add i32 %a, \u0663"), 4, 20),
    ("global @g : i32[\u0663]\n" + _EMPTY_FN, 1, 17),
    # A value, global or label name begins with an ASCII letter.
    (_OFF_GRAMMAR_BODY.format(line="  %0 = add i32 %a, 1"), 4, 3),
    (_OFF_GRAMMAR_BODY.format(line="  %_b = add i32 %a, 1"), 4, 3),
    (_OFF_GRAMMAR_BODY.format(line="  %x = add i32 %.a, 1"), 4, 16),
    (_EMPTY_FN.replace("@f", "@.f"), 1, 6),
    (_EMPTY_FN.replace("entry", "_e"), 2, 7),
    # Whitespace is spaces and tabs; only "\n" (or "\r\n") ends a line.
    (_OFF_GRAMMAR_BODY.format(line="  %x = add\u00a0i32 %a, 1"), 4, 11),
    (_OFF_GRAMMAR_BODY.format(line="\u00a0"), 4, 1),
    (_OFF_GRAMMAR_BODY.format(line="  %x = add i32 %a, 1\u2028  %y = add "
                              "i32 %x, 1"), 4, 21),
    (_OFF_GRAMMAR_BODY.format(line="  %x = add i32 %a, 1\f  %y = add "
                              "i32 %x, 1"), 4, 21),
    (_OFF_GRAMMAR_BODY.format(line="  %x = add i32 %a, 1\r  %y = add "
                              "i32 %x, 1"), 4, 21),
], ids=["add-void", "mul-ptr", "load-void", "select-ptr", "phi-ptr",
        "icmp-i1", "store-i1", "zext-from-i32", "sext-to-i1",
        "trunc-from-i1", "trunc-to-i32", "param-void", "param-ptr",
        "unroll-trailing", "pipeline-trailing", "partition-trailing",
        "inline-trailing", "inline-function-trailing", "arabic-indic-operand",
        "arabic-indic-length", "value-digit", "value-underscore", "value-dot",
        "global-dot", "label-underscore", "no-break-space",
        "no-break-space-line", "line-separator", "form-feed", "bare-cr"])
def test_off_grammar_forms_are_syntax_errors(text, line, col):
    """Each parsed before, and some printed back as other text; each is
    now refused at the offending token."""
    with pytest.raises(IrSyntaxError) as e:
        parse_module(text)
    assert (e.value.line, e.value.col) == (line, col)


def test_crlf_line_ends_parse_as_newlines(dot_module):
    text = print_module(dot_module)
    assert print_module(parse_module(text.replace("\n", "\r\n"))) == text


@pytest.mark.parametrize("line, col, message", [
    ("  %x = store i32 1, %p", 3, "store defines no value, so takes no '%x ='"),
    ("  %x = br entry", 3, "br defines no value, so takes no '%x ='"),
    ("  %x = condbr %b, entry, entry", 3,
     "condbr defines no value, so takes no '%x ='"),
    ("\t%x = ret i32 0", 2, "ret defines no value, so takes no '%x ='"),
    ("  add i32 1, 2", 3, "add defines a value, so needs '%name ='"),
    ("    call void @f()", 5, "call defines a value, so needs '%name ='"),
], ids=["store", "br", "condbr", "ret", "add", "call"])
def test_a_result_is_named_exactly_where_the_row_defines_one(line, col,
                                                             message):
    """The grammar's ``instruction`` rule.  A name on a store or a
    terminator was once dropped, and a producer without one parsed."""
    with pytest.raises(IrSyntaxError, match=re.escape(message)) as e:
        parse_module(_OFF_GRAMMAR_BODY.format(line=line))
    assert (e.value.line, e.value.col) == (4, col)


GRAMMAR = Path(__file__).resolve().parents[1] / "docs" / "ir_grammar.ebnf"


def _alternatives(tokens: list[str]) -> list[list[str]]:
    """``tokens`` split at each ``|`` outside brackets."""
    out, depth = [[]], 0
    for t in tokens:
        depth += (t in ("(", "[", "{")) - (t in (")", "]", "}"))
        if t == "|" and depth == 0:
            out.append([])
        else:
            out[-1].append(t)
    return out


def _first(rules: dict[str, list[str]], tokens: list[str]) -> set[str]:
    """The terminals that can start ``tokens``, a rule body."""
    out = set()
    for alt in _alternatives(tokens):
        if alt[0] == "(":
            depth = 0
            for end, t in enumerate(alt):
                depth += (t == "(") - (t == ")")
                if depth == 0:
                    break
            out |= _first(rules, alt[1:end])
        elif alt[0].startswith('"'):
            out.add(alt[0].strip('"'))
        else:
            out |= _first(rules, rules[alt[0]])
    return out


def test_the_grammar_names_every_opcode_and_predicate():
    """The EBNF is normative; the tables are what the program runs.  The
    opcodes are the terminals that start an instruction, a producer or a
    terminator.  Every nonterminal a rule uses is defined, and a letter or
    digit is an ASCII one, as the tokenizer reads them."""
    text = re.sub(r"\(\*.*?\*\)", "", GRAMMAR.read_text(), flags=re.S)
    rules = {name: re.findall(r'"[^"]*"|\w+|[()\[\]{}|]', body)
             for name, body in re.findall(r"(\w+)\s*=(.*?);", text, re.S)}
    used = {t for body in rules.values() for t in body if t[0].isalpha()}
    assert used - rules.keys() == set()
    assert _first(rules, rules["letter"]) == set(string.ascii_letters)
    assert _first(rules, rules["digit"]) == set(string.digits)
    starts = set().union(*(_first(rules, rules[name]) for name in
                           ("instruction", "producer", "terminator")))
    assert starts - {"%"} == {op.value for op in Opcode}
    assert _first(rules, rules["predicate"]) == set(PREDICATES)


def test_global_initializer_outside_i32_is_a_syntax_error():
    text = ("global @t: i32[2] = {0, 4294967296}\n"
            "func @f() -> i32 {\nblock entry:\n  ret i32 0\n}")
    with pytest.raises(IrSyntaxError, match="outside i32") as e:
        parse_module(text)
    assert (e.value.line, e.value.col) == (1, 25)


def test_both_ends_of_i32_parse():
    m = parse_module("""
global @t: i32[2] = {-2147483648, 2147483647}
func @f(%a: i32) -> i32 {
block entry:
  %c = icmp slt i32 %a, -2147483648
  %x = select %c, i32 2147483647, -2147483648
  ret i32 %x
}
""")
    assert m.global_arrays[0].init == [-(2**31), 2**31 - 1]
    assert parse_module(print_module(m)) == m
    assert interpret(m, [5]).return_value == -(2**31)


def test_interpret_add_constant():
    m = parse_module("""
top func @f() -> i32 {
block entry:
  %x = add i32 2, 3
  ret i32 %x
}
""")
    r = interpret(m, [])
    assert r.return_value == 5
    assert r.executed_instructions == sum(r.dynamic_op_counts.values())


def test_interpret_wraps_32bit():
    m = parse_module("""
top func @f(%a: i32) -> i32 {
block entry:
  %x = add i32 %a, 1
  ret i32 %x
}
""")
    assert interpret(m, [2**31 - 1]).return_value == -(2**31)
    assert wrap32(2**31) == -(2**31)


def test_interpret_traps_out_of_bounds():
    m = parse_module("""
top func @f(%a: i32[4], %i: i32) -> i32 {
block entry:
  %p = getelementptr %a, %i
  %v = load i32 %p
  ret i32 %v
}
""")
    with pytest.raises(TrapError) as e:
        interpret(m, [[1, 2, 3, 4], 4])
    assert e.value.kind == "out-of-bounds"


def test_interpret_traps_division_by_zero():
    m = parse_module("""
top func @f(%a: i32, %b: i32) -> i32 {
block entry:
  %q = sdiv i32 %a, %b
  ret i32 %q
}
""")
    assert interpret(m, [7, 2]).return_value == 3
    assert interpret(m, [-7, 2]).return_value == -3  # truncating division
    with pytest.raises(TrapError):
        interpret(m, [1, 0])


def test_fuel_exhaustion():
    m = parse_module("""
top func @f() -> i32 {
block entry:
  br spin
block spin loop(1, depth=1, header):
  br spin
block never:
  ret i32 0
}
""", verify=False)
    with pytest.raises(FuelExhausted):
        interpret(m, [], fuel=100)


def test_interpret_deterministic(dot_module, rng):
    inputs = random_inputs(dot_module, rng)
    a = interpret(dot_module, inputs)
    b = interpret(dot_module, inputs)
    assert (a.return_value, a.memory_digest, a.executed_instructions) == \
        (b.return_value, b.memory_digest, b.executed_instructions)


def test_array_params_visible_in_digest(dot_module):
    base = interpret(dot_module, [[1] * 8, [1] * 8])
    other = interpret(dot_module, [[1] * 8, [2] * 8])
    assert base.memory_digest != other.memory_digest


def test_phi_two_phase_swap():
    m = parse_module("""
top func @f(%n: i32) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %x = phi i32 [1, entry], [%y, body]
  %y = phi i32 [2, entry], [%x, body]
  %c = icmp slt i32 %i, %n
  condbr %c, body, out
block body loop(1, depth=1):
  %i.next = add i32 %i, 1
  br hd
block out:
  %r = mul i32 %x, 10
  %s = add i32 %r, %y
  ret i32 %s
}
""")
    # After 1 iteration x,y swap to 2,1; after 2 back to 1,2.
    assert interpret(m, [1]).return_value == 21
    assert interpret(m, [2]).return_value == 12


def test_postorder_visits_successors_in_listed_order():
    # Sorted order would visit "b" before "c"; "x" is not a node, and the
    # edge c -> a closes a cycle.
    succs = {"a": ["c", "b", "x"], "b": ["d"], "c": ["d", "a"], "d": []}
    assert postorder("a", succs) == ["d", "c", "b", "a"]
    chain = {i: [i + 1] for i in range(5000)} | {5000: []}
    assert postorder(0, chain) == list(range(5000, -1, -1))


@pytest.mark.parametrize("calls, cyclic", [
    ({"f": [], "g": ["f"], "h": ["g", "f"]}, False),
    ({"f": ["f"], "h": ["f"]}, True),
    ({"f": ["g"], "g": ["f"], "h": ["g"]}, True),
    ({"f": [], "g": ["h"], "h": ["f", "g"]}, True),
])
def test_verifier_reports_call_cycles(calls, cyclic):
    """``h`` is the top function; every function calls its callees in
    order and returns its argument."""
    text = ""
    for name, callees in calls.items():
        body = "".join(f"  %r{i} = call i32 @{c}(%x)\n"
                       for i, c in enumerate(callees))
        text += (f"{'top ' if name == 'h' else ''}func @{name}(%x: i32) -> i32"
                 f" {{\nblock entry:\n{body}  ret i32 %x\n}}\n")
    codes = [v.code for v in verify_module(parse_module(text, verify=False))]
    assert codes == (["call-cycle"] if cyclic else [])


BAD_PHIS = """
global @g : i32[4]

top func @f(%a: i32, %a: i32) -> i32 {
block entry:
  %c = icmp slt i32 %a, 0
  condbr %c, l, r
block l:
  %pg = getelementptr @nope, 0
  br join
block r:
  %pa = getelementptr %a, 1
  %k = call i32 @missing(%a)
  br join
block join:
  %x = add i32 %a, 1
  %p = phi i32 [%a, l], [%a, entry]
  %q = phi i32 [%a, l], [%u, r]
  ret i32 %p
}
"""

BAD_SSA = """
top func @f(%a: i32) -> i32 {
block entry:
  %e = call i32 @g()
  %x = add i32 %y, 1
  %y = add i32 %a, 1
  %c = icmp slt i32 %a, 0
  condbr %c, l, r
block l:
  %z = add i32 %a, 2
  %t = add i32 %a, 4
  br join
block r:
  %z = add i32 %a, 3
  %w = add i32 %nope, 1
  br join
block join:
  %v = phi i32 [%z, l], [%t, r]
  %u = add i32 %w, %t
  %s = call i32 @g(%u, %u)
  ret i32 %s
}

func @g(%x: i32) -> i32 {
block entry:
  ret i32 %x
}
"""

BAD_LOOPS = """
#pragma unroll(factor=2) loop=7
#pragma pipeline(ii=1) loop=1
#pragma array_partition(factor=2) array=@nowhere
#pragma inline function=@ghost
top func @f(%a: i32) -> i32 {
block entry:
  br hd
block hd loop(1, depth=2, header):
  %i = phi i32 [0, entry], [%i.next, latch]
  %c = icmp slt i32 %i, 4
  condbr %c, ihd, out
block ihd loop(1, depth=2, header):
  %j = phi i32 [0, hd], [%j.next, ihd]
  %j.next = add i32 %j, 1
  %cj = icmp slt i32 %j.next, 3
  condbr %cj, ihd, latch
block latch loop(1, depth=1):
  %i.next = add i32 %i, 1
  br hd
block out loop(5, depth=1, header):
  br spin
block spin:
  condbr %c, spin, fin
block fin:
  ret i32 %a
}
"""


#: Two nested loops, every block annotated as its CFG says.
NESTED_LOOPS = """
top func @f(%a: i32) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, latch]
  %c = icmp slt i32 %i, 4
  condbr %c, ihd, out
block ihd loop(2, depth=2, header):
  %j = phi i32 [0, hd], [%j.next, ibody]
  %cj = icmp slt i32 %j, 3
  condbr %cj, ibody, latch
block ibody loop(2, depth=2):
  %j.next = add i32 %j, 1
  br ihd
block latch loop(1, depth=1):
  %i.next = add i32 %i, 1
  br hd
block out:
  ret i32 %a
}
"""


def _nested(old, new):
    """``NESTED_LOOPS`` with one block's annotation edited."""
    assert old in NESTED_LOOPS
    return _parsed(NESTED_LOOPS.replace(old, new))


BAD_CFG = """
top func @f(%a: i32) -> i32 {
block entry:
  %c = icmp slt i32 %a, 0
  condbr %c, entry, out
block dead:
  %x = add i32 %a, 1
  %x = add i32 %a, 2
  br out
block out:
  %p = phi i32 [%a, entry], [%x, dead]
  %y = add i32 %p, 1
  %q = phi i32 [%y, dead]
  ret i32 %y
}
"""


def _parsed(text):
    return lambda: parse_module(text, verify=False)


def _no_terminator():
    """``dead`` ends in an add, and ``out`` has no terminator at all."""
    m = parse_module(BAD_CFG, verify=False)
    dead, out = m.top.blocks[1:]
    dead.terminator = dead.instructions[0].clone()
    out.terminator = None
    return m


def _bad_target():
    """``out`` holds a branch mid-block, and ``dead`` branches nowhere."""
    m = parse_module(BAD_CFG, verify=False)
    dead, out = m.top.blocks[1:]
    out.instructions.insert(2, dead.terminator.clone())
    dead.terminator.operands[0] = LabelRef("nowhere")
    return m


#: A branch whose label slot a pass may fill with something else.
BRANCHES = """
func @f(%a: i32) -> i32 {
block entry:
  %c = icmp slt i32 %a, 4
  condbr %c, mid, out
block mid:
  br out
block out:
  ret i32 %a
}
"""


def _relabelled(block: int, *operands):
    """``BRANCHES`` with block ``block``'s terminator given ``operands``."""
    def make():
        m = parse_module(BRANCHES)
        m.top.blocks[block].terminator.operands = list(operands)
        return m
    return make


@pytest.mark.parametrize("make, expected", [
    (_parsed(BAD_PHIS), [
        "[phi-order] f:join: phi after non-phi",
        "[phi-order] f:join: phi after non-phi",
        "[dup-param] f: duplicate parameter ids",
        "[bad-callee] f:r: call to unknown function @missing",
        "[type] f:l: getelementptr operand @nope is undeclared, expected an "
        "array",
        "[type] f:r: getelementptr operand %a is i32, expected an array",
        "[phi-preds] f:join: phi %p incoming ['entry', 'l'] != "
        "predecessors ['l', 'r']",
        "[use-before-def] f:join: use of undefined value %u",
    ]),
    (_parsed(BAD_SSA), [
        "[redef] f:r: value %z defined twice",
        "[operands] f:entry: call @g cannot take 0 operands",
        "[dominance] f:entry: use of %y not dominated by its definition",
        "[use-before-def] f:r: use of undefined value %nope",
        "[dominance] f:join: phi incoming %z does not dominate edge from l",
        "[dominance] f:join: phi incoming %t does not dominate edge from r",
        "[dominance] f:join: use of %w not dominated by its definition",
        "[dominance] f:join: use of %t not dominated by its definition",
        "[operands] f:join: call @g cannot take 2 operands",
    ]),
    (_parsed(BAD_LOOPS), [
        "[loop-depth] f: header 'hd' annotated depth 2, derived 1",
        "[loop-header] f: natural loop header 'spin' lacks a header "
        "annotation",
        "[loop-id] f: loop id 1 used by both 'hd' and 'ihd'",
        "[loop-header] f: block 'out' annotated as header but has no back "
        "edge",
        "[pragma-target] f: unroll pragma targets missing loop 7",
        "[pragma-target] f: array_partition targets unknown array @nowhere",
        "[pragma-target] f: inline pragma targets unknown function @ghost",
    ]),
    # The CFG checks stop early: redefinitions and operand shapes go
    # unreported, block shapes are reported.
    (_parsed(BAD_CFG), [
        "[phi-order] f:out: phi after non-phi",
        "[entry-preds] f: entry block has predecessors",
        "[unreachable] f: block 'dead' unreachable from entry",
    ]),
    # A block that is not a header carries its innermost loop's id and
    # depth, and none outside every loop.
    (_parsed(NESTED_LOOPS), []),
    (_nested("block ibody loop(2, depth=2):", "block ibody loop(1, depth=1):"), [
        "[loop-member] f: block 'ibody' annotated loop(1, depth=1), derived "
        "loop(2, depth=2)",
    ]),
    (_nested("block ibody loop(2, depth=2):", "block ibody:"), [
        "[loop-member] f: block 'ibody' annotated no loop, derived "
        "loop(2, depth=2)",
    ]),
    (_nested("block latch loop(1, depth=1):", "block latch loop(1, depth=2):"), [
        "[loop-member] f: block 'latch' annotated loop(1, depth=2), derived "
        "loop(1, depth=1)",
    ]),
    (_nested("block latch loop(1, depth=1):", "block latch loop(3, depth=1):"), [
        "[loop-member] f: block 'latch' annotated loop(3, depth=1), derived "
        "loop(1, depth=1)",
    ]),
    (_nested("block out:", "block out loop(1, depth=1):"), [
        "[loop-member] f: block 'out' annotated loop(1, depth=1), derived "
        "no loop",
    ]),
    (_no_terminator, [
        "[bad-term] f:dead: terminator is not br/condbr/ret",
        "[no-term] f:out: block has no terminator",
    ]),
    (_bad_target, [
        "[term-mid] f:out: terminator before block end",
        "[phi-order] f:out: phi after non-phi",
        "[bad-target] f:dead: branch to unknown block 'nowhere'",
    ]),
    # The CFG is read from the branches' label slots: one that holds
    # anything but a label is reported before the CFG checks, not raised.
    (_relabelled(1, ValueRef("a")), [
        "[type] f:mid: br operand %a is not a label",
    ]),
    (_relabelled(0, ValueRef("c"), LabelRef("mid"), Const(2)), [
        "[type] f:entry: condbr operand 2 is not a label",
    ]),
    (_relabelled(1), ["[operands] f:mid: br cannot take 0 operands"]),
], ids=["phis", "ssa", "loops", "cfg", "nested", "member-outer-id",
        "member-missing", "member-depth", "member-id", "member-outside",
        "no-term", "bad-target", "br-value", "condbr-literal", "br-empty"])
def test_verifier_reports_every_violation_in_order(make, expected):
    """Pinned before the verifier took its CFG analysis from a loop forest
    and merged its walks: each kind of violation keeps its place.  The
    forests the first verify left memoized give the same verdict."""
    m = make()
    assert [str(v) for v in verify_module(m)] == expected
    assert [str(v) for v in verify_module(m)] == expected


def test_verifier_reports_phi_from_a_missing_block():
    """An incoming edge from a block that does not exist is reported, not
    raised: no block's end is dominated by ``%x``'s definition there."""
    m = parse_module("""
top func @f(%a: i32) -> i32 {
block entry:
  %x = add i32 %a, 1
  br out
block out:
  %p = phi i32 [%x, entry], [%x, gone]
  ret i32 %p
}
""", verify=False)
    assert [str(v) for v in verify_module(m)] == [
        "[phi-preds] f:out: phi %p incoming ['entry', 'gone'] != "
        "predecessors ['entry']",
        "[dominance] f:out: phi incoming %x does not dominate edge from gone",
    ]


def test_every_opcode_has_a_class():
    """The opcode table is total: every opcode has one row, and each row
    a class; the verifier and the readers of ``OPCODE_CLASS`` rely on it."""
    assert list(OPCODES) == list(Opcode)
    assert all(type(row) is OpInfo and type(row.cls) is InstrClass
               for row in OPCODES.values())
    assert set(OPCODE_CLASS) == set(Opcode)


O = Opcode

#: The per-opcode tables the opcode table replaced, with their contents as
#: they were written before it (classes grouped by class).
OLD_CLASSES = {
    InstrClass.BINARY: {O.ADD, O.SUB, O.MUL, O.SDIV, O.SREM},
    InstrClass.BITWISE: {O.AND, O.OR, O.XOR, O.SHL, O.ASHR},
    InstrClass.COMPARE: {O.ICMP}, InstrClass.SELECT: {O.SELECT},
    InstrClass.PHI: {O.PHI},
    InstrClass.MEMORY: {O.LOAD, O.STORE, O.GETELEMENTPTR},
    InstrClass.CAST: {O.ZEXT, O.SEXT, O.TRUNC}, InstrClass.CALL: {O.CALL},
    InstrClass.TERMINATOR: {O.BR, O.CONDBR, O.RET},
}
OLD_TERMINATOR_OPCODES = {O.BR, O.CONDBR, O.RET}
OLD_FOLDABLE = {O.ADD, O.SUB, O.MUL, O.SDIV, O.SREM, O.AND, O.OR, O.XOR,
                O.SHL, O.ASHR, O.ICMP, O.ZEXT, O.SEXT, O.TRUNC}
OLD_PURE_OPS = {O.ADD, O.SUB, O.MUL, O.AND, O.OR, O.XOR, O.SHL, O.ASHR,
                O.ICMP, O.SELECT, O.ZEXT, O.SEXT, O.TRUNC, O.GETELEMENTPTR}
OLD_PURE_OR_DIV = OLD_PURE_OPS | {O.SDIV, O.SREM}
OLD_ARITY = {
    O.ADD: 2, O.SUB: 2, O.MUL: 2, O.SDIV: 2, O.SREM: 2, O.AND: 2, O.OR: 2,
    O.XOR: 2, O.SHL: 2, O.ASHR: 2, O.ICMP: 2, O.SELECT: 3, O.LOAD: 1,
    O.STORE: 2, O.GETELEMENTPTR: 2, O.ZEXT: 1, O.SEXT: 1, O.TRUNC: 1,
    O.BR: 1, O.CONDBR: 3,
}
OLD_COMMUTATIVE = {O.ADD, O.MUL, O.AND, O.OR, O.XOR}
OLD_SIDE_EFFECTS = {O.STORE, O.CALL}


def test_derived_sets_equal_the_tables_they_replace():
    assert OPCODE_CLASS == {op: cls for cls, ops in OLD_CLASSES.items()
                            for op in ops}
    assert TERMINATOR_OPCODES == OLD_TERMINATOR_OPCODES
    assert FOLDABLE == OLD_FOLDABLE
    assert PURE_OPS == OLD_PURE_OPS
    assert PURE_OR_DIV == OLD_PURE_OR_DIV
    # Phi, call and ret take any number of operands.
    assert {op: _fixed_arity(row) for op, row in OPCODES.items()} == {
        **OLD_ARITY, O.PHI: None, O.CALL: None, O.RET: None}
    assert {op for op, row in OPCODES.items() if row.commutative} \
        == OLD_COMMUTATIVE
    assert {op for op, row in OPCODES.items() if row.side_effects} \
        == OLD_SIDE_EFFECTS
    # The tuples simplify_instruction, reassociate and sccp spelled out:
    # the shifts, which have an identity and an absorber on one side only;
    # reassociate's chains with the identity it folds their constants from.
    assert {op for op, row in OPCODES.items() if not row.commutative
            and None not in (row.identity, row.absorber)} == {O.SHL, O.ASHR}
    assert {op: row.identity for op, row in OPCODES.items()
            if row.commutative and row.cls is InstrClass.BINARY} \
        == {O.ADD: 0, O.MUL: 1}
    # The icmp predicate literals that negate_pred and instcombine's swap
    # table spelled out.
    assert {p: row.negation for p, row in PREDICATES.items()} == {
        "eq": "ne", "ne": "eq", "slt": "sge", "sge": "slt",
        "sle": "sgt", "sgt": "sle"}
    assert {p: row.swap for p, row in PREDICATES.items()} == {
        "eq": "eq", "ne": "ne", "slt": "sgt", "sgt": "slt",
        "sle": "sge", "sge": "sle"}
    assert ICMP_PREDICATES == tuple(PREDICATES) == (
        "eq", "ne", "slt", "sle", "sgt", "sge")
    assert {op for op, row in OPCODES.items()
            if row.fold is None and row.cls not in (
                InstrClass.TERMINATOR, InstrClass.PHI, InstrClass.SELECT)
            and op is not O.STORE} == {O.LOAD, O.GETELEMENTPTR, O.CALL}
    # The parser reads binary and cast opcodes off their classes.
    assert {op.value for op in OLD_CLASSES[InstrClass.BINARY]
            | OLD_CLASSES[InstrClass.BITWISE]} == {
        "add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl", "ashr"}
    assert {op.value for op in OLD_CLASSES[InstrClass.CAST]} == {
        "zext", "sext", "trunc"}


_INT_MIN = -(2**31)


def _ref_icmp(pred, a, b):
    if pred == "eq":
        return int(a == b)
    if pred == "ne":
        return int(a != b)
    if pred == "slt":
        return int(a < b)
    if pred == "sle":
        return int(a <= b)
    if pred == "sgt":
        return int(a > b)
    return int(a >= b)  # sge


def _ref_fold(opcode, operands, pred=None):
    """``fold_constant`` as a chain of opcode tests, as it was written
    before the opcode table; the reference for the table's folds."""
    if opcode is Opcode.ADD:
        return wrap32(operands[0] + operands[1])
    if opcode is Opcode.SUB:
        return wrap32(operands[0] - operands[1])
    if opcode is Opcode.MUL:
        return wrap32(operands[0] * operands[1])
    if opcode is Opcode.SDIV:
        a, b = operands
        if b == 0 or (a == _INT_MIN and b == -1):
            return None
        q = abs(a) // abs(b)
        return wrap32(-q if (a < 0) != (b < 0) else q)
    if opcode is Opcode.SREM:
        a, b = operands
        if b == 0 or (a == _INT_MIN and b == -1):
            return None
        q = abs(a) // abs(b)
        q = -q if (a < 0) != (b < 0) else q
        return wrap32(a - b * q)
    if opcode is Opcode.AND:
        return wrap32(operands[0] & operands[1])
    if opcode is Opcode.OR:
        return wrap32(operands[0] | operands[1])
    if opcode is Opcode.XOR:
        return wrap32(operands[0] ^ operands[1])
    if opcode is Opcode.SHL:
        return wrap32(operands[0] << (operands[1] & 31))
    if opcode is Opcode.ASHR:
        return wrap32(operands[0] >> (operands[1] & 31))
    if opcode is Opcode.ICMP:
        return _ref_icmp(pred or "eq", operands[0], operands[1])
    if opcode is Opcode.ZEXT:
        return operands[0] & 1
    if opcode is Opcode.SEXT:
        return -1 if (operands[0] & 1) else 0
    if opcode is Opcode.TRUNC:
        return operands[0] & 1
    raise ValueError(f"not a foldable opcode: {opcode}")


def _outcome(fold, *args):
    """(value, its type) of a fold, or "raises" when it raised."""
    try:
        v = fold(*args)
    except (TypeError, ValueError):
        return "raises"
    return v, type(v)


#: Both ends of the 32-bit range and their neighbours, small values, shift
#: amounts around the 5-bit mask, and two values outside the range.
FOLD_GRID = [_INT_MIN, _INT_MIN + 1, -7, -2, -1, 0, 1, 2, 3, 7, 31, 32, 33,
             2**31 - 1, 2**31, -(2**32) + 5]


def test_table_folds_equal_the_opcode_chain():
    """Every opcode, under every icmp predicate and none, on every pair of
    grid values: the table's fold gives the old chain's value and type,
    None on the same traps, and an error on an opcode that does not fold."""
    n = 0
    for op in Opcode:
        for pred in (*ICMP_PREDICATES, None):
            for a in FOLD_GRID:
                for b in FOLD_GRID:
                    got = _outcome(fold_constant, op, [a, b], pred)
                    assert got == _outcome(_ref_fold, op, [a, b], pred), \
                        (op, pred, a, b)
                    n += 1
    assert n == len(Opcode) * 7 * len(FOLD_GRID) ** 2 == 41_216


ENUMS = [IrTypeKind, Opcode, InstrClass, PragmaKind, PassId, NodeKind,
         Relation]


def test_every_enum_has_the_plain_base():
    assert set(PlainEnum.__subclasses__()) == set(ENUMS)


def _written(cls) -> list[tuple[str, object]]:
    """(name, value) of each member, in the order the class body writes
    them."""
    body = ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0].body
    return [(a.targets[0].id, ast.literal_eval(a.value)) for a in body
            if isinstance(a, ast.Assign)]


@pytest.mark.parametrize("cls", ENUMS, ids=lambda c: c.__name__)
def test_plain_enum_behaves_as_the_stdlib_enum(cls):
    """Each enumeration iterates, looks up, prints, hashes, copies and
    pickles as an ``enum.Enum`` with the same members did, except that a
    member hashes by identity."""
    written = _written(cls)
    std = enum.Enum(cls.__name__, written)
    assert [(m.name, m.value) for m in cls] == written
    assert [(m.name, m.value) for m in std] == written
    assert len(cls) == len(written)
    for m, s in zip(cls, std):
        assert getattr(cls, m.name) is m and type(m) is cls
        assert cls(m.value) is m and cls(m) is m
        assert (repr(m), str(m), f"{m}", f"{m:>40}") == \
            (repr(s), str(s), f"{s}", f"{s:>40}")
        assert hash(m) == object.__hash__(m)
        assert copy.copy(m) is m and copy.deepcopy(m) is m
        assert all(pickle.loads(pickle.dumps(m, protocol)) is m
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1))
    for bad in ("bogus", 99, None, []):
        with pytest.raises(ValueError) as ours:
            cls(bad)
        with pytest.raises(ValueError) as theirs:
            std(bad)
        assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("cls", ENUMS, ids=lambda c: c.__name__)
def test_plain_enum_members_are_immutable(cls):
    m = next(iter(cls))
    with pytest.raises(AttributeError):
        setattr(cls, m.name, None)
    with pytest.raises(AttributeError):
        delattr(cls, m.name)
    for attr in ("name", "value", "other"):
        with pytest.raises(AttributeError):
            setattr(m, attr, None)
        with pytest.raises(AttributeError):
            delattr(m, attr)
    assert getattr(cls, m.name) is m and list(cls)[0] is m
    assert cls(m.value) is m and (m.name, m.value) == _written(cls)[0]
