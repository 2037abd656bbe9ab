"""Parser, printer, verifier, and interpreter."""
import numpy as np
import pytest

from passforge.corpus import case1_text, random_inputs
from passforge.ir import (
    OPCODE_CLASS, FuelExhausted, IrSyntaxError, LabelRef, Opcode, TrapError,
    VerifyError, dedicated_preheader, interpret, natural_loops, parse_module,
    postorder, print_module, verify_module, wrap32,
)


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
    assert loop_trip_count(m.top, inner) == 1482


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


@pytest.mark.parametrize("make, expected", [
    (_parsed(BAD_PHIS), [
        "[phi-order] f:join: phi after non-phi",
        "[phi-order] f:join: phi after non-phi",
        "[dup-param] f: duplicate parameter ids",
        "[bad-array] f:l: gep of undeclared array @nope",
        "[bad-array] f:r: gep base %a is not an array",
        "[bad-callee] f:r: call to unknown function @missing",
        "[phi-preds] f:join: phi %p incoming ['entry', 'l'] != "
        "predecessors ['l', 'r']",
        "[use-before-def] f:join: use of undefined value %u",
    ]),
    (_parsed(BAD_SSA), [
        "[redef] f:r: value %z defined twice",
        "[call-arity] f:entry: call to @g has 0 args, expected 1",
        "[call-arity] f:join: call to @g has 2 args, expected 1",
        "[dominance] f:entry: use of %y not dominated by its definition",
        "[use-before-def] f:r: use of undefined value %nope",
        "[dominance] f:join: phi incoming %z does not dominate edge from l",
        "[dominance] f:join: phi incoming %t does not dominate edge from r",
        "[dominance] f:join: use of %w not dominated by its definition",
        "[dominance] f:join: use of %t not dominated by its definition",
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
], ids=["phis", "ssa", "loops", "cfg", "nested", "member-outer-id",
        "member-missing", "member-depth", "member-id", "member-outside",
        "no-term", "bad-target"])
def test_verifier_reports_every_violation_in_order(make, expected):
    """Pinned before the verifier took its CFG analysis from a loop forest
    and merged its walks: each kind of violation keeps its place.  A forest
    handed in gives the verdict the verifier reaches on its own."""
    m = make()
    assert [str(v) for v in verify_module(m)] == expected
    forests = [natural_loops(fn) for fn in m.functions]
    assert [str(v) for v in verify_module(m, forests)] == expected


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
    """The verifier relies on ``OPCODE_CLASS`` being total, and no longer
    looks each instruction up in it."""
    assert set(OPCODE_CLASS) == set(Opcode)
