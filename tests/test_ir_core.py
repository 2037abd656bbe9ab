"""Parser, printer, verifier, and interpreter."""
import numpy as np
import pytest

from passforge.corpus import case1_text, random_inputs
from passforge.ir import (
    FuelExhausted, IrSyntaxError, Opcode, TrapError, VerifyError, interpret,
    natural_loops, parse_module, postorder, print_module, verify_module,
    wrap32,
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
    from passforge.qor import trip_count
    assert trip_count(m, "case1", 2) == 1482


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
