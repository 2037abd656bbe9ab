"""Per-pass behavior, idempotence, and the catalog contract."""
import hashlib
import itertools
import operator
import sys

import numpy as np
import pytest

from passforge import passes
from passforge.corpus import corpus_gen, random_inputs
from passforge.ir import (
    I32, OPCODES, Const, FuelExhausted, IrInstruction, IrModule, LabelRef,
    Opcode, PragmaKind, ValueRef, analysis, fold_constant, interpret,
    natural_loops, parse_module, print_module, refresh_loop_annotations,
    text_digest, verify_module, wrap32,
)
from passforge.ir.types import FOLDABLE, ICMP_PREDICATES, PURE_OR_DIV
from passforge.passes import (
    PassError, PassId, PragmaError, Transitions, apply_pass,
    apply_pragma_passes, apply_sequence, general_passes, loop_trip_count,
    pass_catalog,
)
from passforge.passes import cfg_passes, inst_passes
from passforge.passes.inst_passes import simplify_instruction
from passforge.passes.loop_passes import _count_trips
from passforge.passes.rewrite import erase_dead_pure, phi_value
from passforge.qor import estimate


def trip_count(m, fn_name: str, loop_id: int):
    fn = m.function(fn_name)
    return loop_trip_count(natural_loops(fn).by_id(loop_id),
                           fn.defined_values(), fn.block_map())


#: The paper's six-way pass taxonomy.
TABLE_CATEGORIES = ("Control Flow", "Instruction", "Variable", "Loop",
                    "Function/Call", "Memory Access")


def test_catalog_shape():
    catalog = pass_catalog()
    general = [e for e in catalog if not e.pragma_anchored]
    pragma = [e for e in catalog if e.pragma_anchored]
    # The catalog carries every enumerated general pass plus the two
    # pragma-anchored ones; all categories come from the six-way taxonomy.
    assert len(general) == 17
    assert len(pragma) == 2
    assert {e.pass_id for e in pragma} == {PassId.APPLY_UNROLL_PRAGMA,
                                           PassId.APPLY_INLINE_PRAGMA}
    for e in catalog:
        assert e.category in TABLE_CATEGORIES
    assert {e.category for e in catalog} == set(TABLE_CATEGORIES)


def test_catalog_index_stable():
    a = [e.pass_id for e in pass_catalog()]
    b = [e.pass_id for e in pass_catalog()]
    assert a == b
    assert a[0] is PassId.SIMPLIFYCFG


def test_adce_removes_unused_add():
    m = parse_module("""
top func @f(%a: i32) -> i32 {
block entry:
  %dead = add i32 %a, 5
  %live = add i32 %a, 1
  ret i32 %live
}
""")
    r = apply_pass(m, PassId.ADCE)
    assert r.changed
    text = print_module(r.module)
    assert "%dead" not in text


def test_sccp_folds_constant_branch():
    m = parse_module("""
top func @f(%a: i32) -> i32 {
block entry:
  %c = icmp eq i32 1, 1
  condbr %c, yes, no
block yes:
  ret i32 %a
block no:
  ret i32 0
}
""")
    r = apply_pass(m, PassId.SCCP)
    assert r.changed
    out = print_module(r.module)
    assert "condbr" not in out
    assert "block no" not in out


def test_instcombine_mul_to_shift():
    m = parse_module("""
top func @f(%x: i32) -> i32 {
block entry:
  %y = mul i32 %x, 2
  ret i32 %y
}
""")
    r = apply_pass(m, PassId.INSTCOMBINE)
    ins = r.module.top.blocks[0].instructions[0]
    assert ins.opcode is Opcode.SHL
    assert interpret(r.module, [21]).return_value == 42


def test_instsimplify_identities():
    m = parse_module("""
top func @f(%x: i32) -> i32 {
block entry:
  %a = add i32 %x, 0
  %b = mul i32 %a, 1
  %c = sub i32 %b, %b
  %d = or i32 %c, %x
  ret i32 %d
}
""")
    r = apply_pass(m, PassId.INSTSIMPLIFY)
    assert r.changed
    assert len(r.module.top.blocks[0].instructions) == 0
    assert interpret(r.module, [7]).return_value == 7


def _ref_simplify(ins):
    """``simplify_instruction`` as a chain of opcode tests, as it was
    written before the opcode table held the algebra; the reference for
    the table's rules."""
    op = ins.opcode
    a = ins.operands[0] if ins.operands else None
    b = ins.operands[1] if len(ins.operands) > 1 else None
    ca = a.value if isinstance(a, Const) else None
    cb = b.value if isinstance(b, Const) else None
    same = (isinstance(a, ValueRef) and isinstance(b, ValueRef)
            and a.id == b.id)

    if op in FOLDABLE:
        consts = [o.value if isinstance(o, Const) else None
                  for o in ins.operands]
        if all(c is not None for c in consts):
            folded = fold_constant(op, consts, ins.pred)
            if folded is not None:
                return Const(folded)

    if op is Opcode.ADD:
        if cb == 0:
            return a
        if ca == 0:
            return b
    elif op is Opcode.SUB:
        if cb == 0:
            return a
        if same:
            return Const(0)
    elif op is Opcode.MUL:
        if cb == 1:
            return a
        if ca == 1:
            return b
        if cb == 0 or ca == 0:
            return Const(0)
    elif op is Opcode.SDIV:
        if cb == 1:
            return a
    elif op is Opcode.SREM:
        if cb == 1:
            return Const(0)
    elif op is Opcode.AND:
        if same:
            return a
        if cb == 0 or ca == 0:
            return Const(0)
        if cb == -1:
            return a
        if ca == -1:
            return b
    elif op is Opcode.OR:
        if same:
            return a
        if cb == 0:
            return a
        if ca == 0:
            return b
        if cb == -1 or ca == -1:
            return Const(-1)
    elif op is Opcode.XOR:
        if same:
            return Const(0)
        if cb == 0:
            return a
        if ca == 0:
            return b
    elif op in (Opcode.SHL, Opcode.ASHR):
        if cb == 0:
            return a
        if ca == 0:
            return Const(0)
    elif op is Opcode.ICMP:
        if same:
            return Const(fold_constant(op, [0, 0], ins.pred))
    elif op is Opcode.SELECT:
        c, t, f = ins.operands
        if isinstance(c, Const):
            return t if c.value else f
        if (isinstance(t, ValueRef) and isinstance(f, ValueRef)
                and t.id == f.id) or str(t) == str(f):
            return t
    elif op is Opcode.PHI:
        return phi_value(ins)
    return None


#: Both ends of i32, the algebra's constants and their neighbours, and two
#: distinct values.
SIMPLIFY_GRID = [Const(v) for v in (-(2**31), -2, -1, 0, 1, 2, 3, 2**31 - 1)] \
    + [ValueRef("x"), ValueRef("y")]


def _simplify_sweep():
    """Each opcode on every operand tuple of its arity from the grid (two
    for the variadic ones), under every icmp predicate; phis of one and two
    entries, the phi's own result among the values."""
    for op in Opcode:
        row = OPCODES[op]
        counts = {sum(s in ("V", "L", "A") for s in form)
                  for form in row.forms()}
        arity = counts.pop() if len(counts) == 1 and "{" not in row.text \
            else None
        if op is Opcode.PHI:
            values = SIMPLIFY_GRID + [ValueRef("r")]
            for n in (1, 2):
                for vals in itertools.product(values, repeat=n):
                    ops = [x for k, v in enumerate(vals)
                           for x in (v, LabelRef(f"b{k}"))]
                    yield IrInstruction("r", op, ops, I32)
            continue
        for ops in itertools.product(SIMPLIFY_GRID, repeat=arity or 2):
            for pred in ICMP_PREDICATES if op is Opcode.ICMP else (None,):
                yield IrInstruction("r", op, list(ops), I32, pred)


def test_simplify_matches_the_opcode_chain():
    """The row-driven rules give what the per-opcode chain gave, value and
    type, on every case of the sweep."""
    n = 0
    for ins in _simplify_sweep():
        got, want = simplify_instruction(ins), _ref_simplify(ins)
        assert repr(got) == repr(want), (ins, got, want)
        n += 1
    # 14 two-operand opcodes, icmp under six predicates, select and condbr
    # on triples, five one-operand opcodes, and 11 + 11^2 phis.
    assert n == 14 * 10**2 + 6 * 10**2 + 2 * 10**3 + 5 * 10 + 11 + 11**2 \
        == 4_182


def test_empty_sequence_is_identity(dot_module):
    out, results = apply_sequence(dot_module, [])
    assert results == []
    assert print_module(out) == print_module(dot_module)


def test_changed_false_means_structurally_equal(dot_module):
    r = apply_pass(dot_module, PassId.LOOP_SIMPLIFY)
    r2 = apply_pass(r.module, PassId.LOOP_SIMPLIFY)
    assert not r2.changed
    assert print_module(r2.module) == print_module(r.module)
    assert r2.digest == r.digest == r.module.digest()


@pytest.mark.parametrize("pass_id", [PassId.ADCE, PassId.LOOP_SIMPLIFY,
                                     PassId.MEM2REG, PassId.DSE], ids=str)
def test_idempotent_passes(pass_id, small_corpus):
    for _name, m in small_corpus[:6]:
        once = apply_pass(m, pass_id).module
        twice = apply_pass(once, pass_id)
        assert not twice.changed, f"{pass_id.value} not idempotent on {_name}"


def test_cleanup_passes_monotone(small_corpus):
    from passforge.passes.rewrite import instruction_count
    for _name, m in small_corpus:
        for pass_id in (PassId.ADCE, PassId.DSE):
            r = apply_pass(m, pass_id)
            assert instruction_count(r.module) <= instruction_count(m)


def test_gvn_merges_commuted_mul():
    m = parse_module("""
top func @f(%a: i32, %b: i32) -> i32 {
block entry:
  %x = mul i32 %a, %b
  %y = mul i32 %b, %a
  %s = add i32 %x, %y
  ret i32 %s
}
""")
    r = apply_pass(m, PassId.GVN)
    assert r.changed
    muls = [i for i in r.module.top.blocks[0].instructions
            if i.opcode is Opcode.MUL]
    assert len(muls) == 1
    assert interpret(r.module, [3, 5]).return_value == 30


def test_early_cse_dominator_scope():
    m = parse_module("""
top func @f(%a: i32, %c: i1) -> i32 {
block entry:
  %x = add i32 %a, 7
  condbr %c, t, e
block t:
  %y = add i32 %a, 7
  ret i32 %y
block e:
  ret i32 %x
}
""")
    r = apply_pass(m, PassId.EARLY_CSE)
    assert r.changed
    assert "%y" not in print_module(r.module)


def test_dse_deletes_overwritten_store():
    m = parse_module("""
global @g : i32[4]
top func @f(%a: i32) -> i32 {
block entry:
  %p = getelementptr @g, 0
  store i32 %a, %p
  store i32 7, %p
  %v = load i32 %p
  ret i32 %v
}
""")
    r = apply_pass(m, PassId.DSE)
    stores = [i for i in r.module.top.blocks[0].instructions
              if i.opcode is Opcode.STORE]
    assert len(stores) == 1
    assert interpret(r.module, [3]).return_value == 7


def test_mem2reg_forwards_store_to_load():
    m = parse_module("""
global @g : i32[4]
top func @f(%a: i32) -> i32 {
block entry:
  %p = getelementptr @g, 1
  store i32 %a, %p
  %v = load i32 %p
  %r = add i32 %v, 1
  ret i32 %r
}
""")
    r = apply_pass(m, PassId.MEM2REG)
    assert r.changed
    assert not any(i.opcode is Opcode.LOAD
                   for i in r.module.top.blocks[0].instructions)
    assert interpret(r.module, [5]).return_value == 6


def test_licm_hoists_invariant_mul(dot_module):
    m = parse_module("""
top func @f(%a: i32[8], %k: i32) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %s = phi i32 [0, entry], [%s.next, body]
  %c = icmp slt i32 %i, 8
  condbr %c, body, out
block body loop(1, depth=1):
  %k2 = mul i32 %k, %k
  %p = getelementptr %a, %i
  %v = load i32 %p
  %t = mul i32 %v, %k2
  %s.next = add i32 %s, %t
  %i.next = add i32 %i, 1
  br hd
block out:
  ret i32 %s
}
""")
    r = apply_pass(m, PassId.LICM)
    assert r.changed
    body = r.module.top.block_map()["body"]
    assert not any(i.result == "k2" for i in body.instructions)
    entry = r.module.top.block_map()["entry"]
    assert any(i.result == "k2" for i in entry.instructions)


def test_indvars_canonicalizes_sle():
    m = parse_module("""
top func @f(%a: i32[9]) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %c = icmp sle i32 %i, 7
  condbr %c, body, out
block body loop(1, depth=1):
  %p = getelementptr %a, %i
  store i32 %i, %p
  %i.next = add i32 %i, 1
  br hd
block out:
  ret i32 0
}
""")
    r = apply_pass(m, PassId.INDVARS)
    assert r.changed
    cmp = r.module.top.block_map()["hd"].non_phis()[0]
    assert cmp.pred == "slt"
    assert cmp.operands[1].value == 8
    assert trip_count(r.module, "f", 1) == 8


def test_loop_deletion_removes_pure_loop():
    m = parse_module("""
top func @f(%a: i32) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %c = icmp slt i32 %i, 10
  condbr %c, body, out
block body loop(1, depth=1):
  %w = mul i32 %i, %i
  %i.next = add i32 %i, 1
  br hd
block out:
  ret i32 %a
}
""")
    r = apply_pass(m, PassId.LOOP_DELETION)
    assert r.changed
    assert len(r.module.top.blocks) <= 2
    assert interpret(r.module, [9]).return_value == 9


def _loop_from_zero(test: str, step: str) -> str:
    """A loop of ``%i`` from 0, whose values are unused, then ``ret i32 7``."""
    return f"""
top func @f(%a: i32) -> i32 {{
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %c = icmp {test}
  condbr %c, body, out
block body loop(1, depth=1):
{step}
  br hd
block out:
  ret i32 7
}}
"""


#: Two adds of INT_MAX: a step of -2 in i32.
MINUS_TWO = "  %t = add i32 %i, 2147483647\n  %i.next = add i32 %t, 2147483647"


@pytest.mark.parametrize("text", [
    _loop_from_zero("sle i32 %i, 2147483647", "  %i.next = add i32 %i, 1"),
    _loop_from_zero("slt i32 %i, 10", MINUS_TWO),
    _loop_from_zero("slt i32 %i, 10", "  %i.next = sub i32 %i, -2147483648"),
], ids=["sle-int-max", "net-step-minus-two", "sub-int-min"])
def test_loop_deletion_keeps_a_loop_that_wraps(text):
    """Each loop wraps in i32 and never exits, so it runs until its fuel is
    out; instcombine builds only i32 constants, and neither it nor
    loop_deletion counts the loop's trips or deletes it."""
    m = parse_module(text)
    out, _ = apply_sequence(m, [PassId.INSTCOMBINE, PassId.LOOP_DELETION])
    assert all(wrap32(op.value) == op.value for b in out.top.blocks
               for ins in b.all_instructions() for op in ins.operands
               if isinstance(op, Const))
    for mod in (m, out):
        assert trip_count(mod, "f", 1) is None
        with pytest.raises(FuelExhausted):
            interpret(mod, [0], fuel=10**5)
    assert estimate(m).loops[0].trip is None


def test_trip_count_sums_the_step_in_i32():
    """0, -2, ..., -8 pass the test, and -10 fails it."""
    m = parse_module(_loop_from_zero("sgt i32 %i, -10", MINUS_TWO))
    assert trip_count(m, "f", 1) == 5


def _simulated_trips(s, step, pred, k, bottom_test, cap):
    """Body executions of a loop that goes on while (v PRED k), v starting
    at s and stepping by step in i32, tested before each execution or after
    it; None when it runs past ``cap``."""
    test = {"eq": operator.eq, "ne": operator.ne, "slt": operator.lt,
            "sle": operator.le, "sgt": operator.gt, "sge": operator.ge}[pred]
    v, n = s, 0
    while bottom_test or test(v, k):
        n += 1
        v = wrap32(v + step)
        if n > cap:
            return None
        if bottom_test and not test(v, k):
            break
    return n


def test_count_trips_matches_a_wrapping_simulation():
    """Where the loop exits within the cap, a count is exact; where it
    does not, the count is None or past the cap."""
    cap = 2**12
    edges = [-2**31, -2**31 + 1, -2**31 + 2, -1, 0, 1, 2**31 - 3,
             2**31 - 2, 2**31 - 1]
    steps = [1, -1, 2, -2, 2**30, -2**31]
    for s, k, step, pred, bottom in itertools.product(
            edges, edges, steps, ICMP_PREDICATES, (False, True)):
        got = _count_trips(s, step, pred, k, bottom)
        want = _simulated_trips(s, step, pred, k, bottom, cap)
        if want is None:
            assert got is None or got > cap, (s, k, step, pred, bottom, got)
        else:
            assert got in (None, want), (s, k, step, pred, bottom, got, want)


def test_loop_rotate_moves_test_to_latch(dot_module):
    r = apply_pass(dot_module, PassId.LOOP_ROTATE)
    assert r.changed
    fn = r.module.top
    # The rotated loop tests the incremented counter at the latch.
    from passforge.ir import natural_loops
    forest = natural_loops(fn)
    loop = forest.loops[0]
    latch = fn.block_map()[loop.latches[0]]
    assert latch.terminator.opcode is Opcode.CONDBR
    assert interpret(r.module, [[1] * 8, [2] * 8]).return_value == \
        interpret(dot_module, [[1] * 8, [2] * 8]).return_value


def test_unroll_partial_even_trip(dot_module):
    r = apply_pass(dot_module, PassId.LOOP_UNROLL_PARTIAL)
    assert r.changed
    assert trip_count(r.module, "dot", 1) == 4
    out = interpret(r.module, [[2] * 8, [3] * 8])
    assert out.return_value == 48


def test_jump_threading_phi_of_constants():
    m = parse_module("""
top func @f(%c: i1, %a: i32) -> i32 {
block entry:
  condbr %c, set1, set0
block set1:
  br check
block set0:
  br check
block check:
  %flag = phi i32 [1, set1], [0, set0]
  %t = icmp ne i32 %flag, 0
  condbr %t, yes, no
block yes:
  %r1 = add i32 %a, 100
  br out
block no:
  %r0 = add i32 %a, 200
  br out
block out:
  %r = phi i32 [%r1, yes], [%r0, no]
  ret i32 %r
}
""")
    r = apply_pass(m, PassId.JUMP_THREADING)
    assert r.changed
    assert interpret(r.module, [1, 5]).return_value == 105
    assert interpret(r.module, [0, 5]).return_value == 205


# Entry's true edge decides b's branch, so the edge could bypass b into succ,
# which entry already enters; the phi values on the two edges decide it.
_THREAD_INTO_OWN_SUCC = """
top func @f(%a: i32) -> i32 {
block entry:
  %c = icmp slt i32 %a, 0
  condbr %c, b, succ
block b:
  %d = icmp slt i32 %a, 0
  condbr %d, succ, other
block other:
  br succ
block succ:
  %x = phi i32 [1, entry], [VIA_B, b], [3, other]
  ret i32 %x
}
"""

# As above one block down, with a second way into ``other``: succ's phi
# keeps two values after the bypass.
_THREAD_INTO_OWN_SUCC_KEEPS_PHI = """
top func @f(%a: i32, %e: i1) -> i32 {
block entry:
  condbr %e, p, other
block p:
  %c = icmp slt i32 %a, 0
  condbr %c, b, succ
block b:
  %d = icmp slt i32 %a, 0
  condbr %d, succ, other
block other:
  br succ
block succ:
  %x = phi i32 [1, p], [1, b], [3, other]
  ret i32 %x
}
"""


@pytest.mark.parametrize("src,threads", [
    (_THREAD_INTO_OWN_SUCC.replace("VIA_B", "2"), False),
    (_THREAD_INTO_OWN_SUCC.replace("VIA_B", "1"), True),
    (_THREAD_INTO_OWN_SUCC_KEEPS_PHI, True),
], ids=["values-differ", "values-agree", "values-agree-phi-stays"])
def test_jump_threading_into_a_block_the_predecessor_enters(src, threads):
    """A bypass into a block its predecessor already enters is made only
    when both edges carry the same phi values; the output verifies and
    computes what the input does."""
    m = parse_module(src)
    r = apply_pass(m, PassId.JUMP_THREADING)
    assert r.changed == threads
    if not threads:
        assert r.module is m
    assert not verify_module(r.module)
    extra = [[e] for e in (0, 1)] if len(m.top.params) == 2 else [[]]
    for a in (-5, 5):
        for rest in extra:
            assert interpret(r.module, [a] + rest).return_value == \
                interpret(m, [a] + rest).return_value


# Entry's edge into hd decides hd's branch (%f is 1 there).  Bypassing hd
# would make body loop 1's header, and the loop would come back as loop 3.
_FLAG_LOOP_THEN_SECOND_LOOP = """
PRAGMA
top func @f(%a: i32[1], %n: i32) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %f = phi i1 [1, entry], [%g, body]
  condbr %f, body, mid
block body loop(1, depth=1):
  %p = getelementptr %a, 0
  %v = load i32 %p
  %w = add i32 %v, 1
  store i32 %w, %p
  %g = icmp slt i32 %w, %n
  br hd
block mid:
  br hd2
block hd2 loop(2, depth=1, header):
  %j = phi i32 [0, mid], [%j.next, body2]
  %c2 = icmp slt i32 %j, %n
  condbr %c2, body2, out
block body2 loop(2, depth=1):
  %j.next = add i32 %j, 1
  br hd2
block out:
  ret i32 %j
}
"""


@pytest.mark.parametrize("pragma", ["#pragma pipeline(ii=1) loop=1", ""],
                         ids=["pipelined", "plain"])
def test_jump_threading_never_bypasses_a_loop_header(pragma):
    """A bypassed header would move its loop to a new id and strand the
    loop's pragmas, so, as in LLVM, no header is bypassed."""
    m = parse_module(_FLAG_LOOP_THEN_SECOND_LOOP.replace("PRAGMA", pragma))
    r = apply_pass(m, PassId.JUMP_THREADING)
    assert not r.changed and r.module is m


def test_jump_threading_deletes_a_loop_it_leaves_without_a_back_edge():
    """hd's true edge decides the latch b's branch toward the exit, so the
    loop can never iterate: the bypass leaves it no back edge, and its
    pipeline pragma goes with it, as for any loop a pass deletes."""
    m = parse_module("""
#pragma pipeline(ii=1) loop=1
top func @f(%a: i32) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, b]
  %i.next = add i32 %i, 1
  %c = icmp slt i32 %a, 0
  condbr %c, b, out
block b loop(1, depth=1):
  %d = icmp slt i32 %a, 0
  condbr %d, neg, hd
block neg:
  ret i32 %i.next
block out:
  ret i32 %i
}
""")
    r = apply_pass(m, PassId.JUMP_THREADING)
    assert r.changed
    assert natural_loops(r.module.top).loops == []
    assert r.module.top.pragmas == []
    assert not verify_module(r.module)
    for a in (-5, 5):
        assert interpret(r.module, [a]).return_value == \
            interpret(m, [a]).return_value


def test_simplifycfg_merges_unrolled_body(dot_module):
    once = apply_pass(dot_module, PassId.LOOP_UNROLL_PARTIAL).module
    merged = apply_pass(once, PassId.SIMPLIFYCFG)
    assert merged.changed
    assert len(merged.module.top.blocks) < len(once.top.blocks)


def test_unroll_pragma_divisible_clean():
    m = parse_module("""
#pragma unroll(factor=4) loop=1
top func @f(%a: i32[8], %b: i32[8]) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %c = icmp slt i32 %i, 8
  condbr %c, body, out
block body loop(1, depth=1):
  %p = getelementptr %a, %i
  %v = load i32 %p
  %q = getelementptr %b, %i
  store i32 %v, %q
  %i.next = add i32 %i, 1
  br hd
block out:
  ret i32 0
}
""")
    out = apply_pragma_passes(m)
    assert trip_count(out, "f", 1) == 2
    # one body block, replicated four times, no remainder loop
    from passforge.ir import natural_loops
    assert len(natural_loops(out.top).loops) == 1
    body = out.top.block_map()["body"]
    assert sum(1 for i in body.instructions if i.opcode is Opcode.STORE) == 4
    a = list(range(8))
    base = interpret(m, [a, [0] * 8])
    after = interpret(out, [a, [0] * 8])
    assert base.memory_digest == after.memory_digest


def test_unroll_pragma_nondivisible_checked(case1, rng):
    out = apply_pragma_passes(case1)
    inputs = random_inputs(case1, rng)
    base = interpret(case1, inputs)
    after = interpret(out, inputs)
    assert (base.return_value, base.memory_digest) == \
        (after.return_value, after.memory_digest)
    # 1482 = 4 * 370 + 2: the unrolled loop plus a remainder structure that
    # executes the last two iterations through the termination checks.
    assert 1482 == 4 * 370 + 2
    fn = out.top
    check_blocks = [b for b in fn.blocks if b.label.startswith("inner_body.r")]
    assert len(check_blocks) == 3  # factor - 1 replica blocks


def test_inline_pragma(rng):
    m = parse_module("""
#pragma inline
func @helper(%x: i32) -> i32 {
block entry:
  %y = mul i32 %x, 3
  ret i32 %y
}

top func @f(%a: i32) -> i32 {
block entry:
  %r = call i32 @helper(%a)
  %s = add i32 %r, 1
  ret i32 %s
}
""")
    out = apply_pragma_passes(m)
    assert len(out.functions) == 1  # helper fully inlined and dropped
    assert not any(i.opcode is Opcode.CALL
                   for b in out.top.blocks for i in b.all_instructions())
    assert interpret(out, [5]).return_value == 16


#: A callee with a loop whose header reads values its latch defines later
#: in block order, and two returns; ``{pragma}`` targets the loop.
LOOPING_CALLEE = """
#pragma inline
{pragma}
func @g(%a: i32[8], %n: i32) -> i32 {{
block entry:
  %neg = icmp slt i32 %n, 0
  condbr %neg, early, hd
block early:
  ret i32 0
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %s = phi i32 [0, entry], [%s.next, body]
  %c = icmp slt i32 %i, 8
  condbr %c, body, done
block body loop(1, depth=1):
  %p = getelementptr %a, %i
  %v = load i32 %p
  %m = mul i32 %v, %n
  %s.next = add i32 %s, %m
  %i.next = add i32 %i, 1
  br hd
block done:
  ret i32 %s
}}

top func @f(%a: i32[8], %n: i32) -> i32 {{
block entry:
  %r = call i32 @g(%a, %n)
  %t = add i32 %r, 1
  ret i32 %t
}}
"""


@pytest.mark.parametrize("pragma", ["#pragma pipeline(ii=1) loop=1",
                                    "#pragma unroll(factor=2) loop=1"],
                         ids=["pipeline", "unroll"])
def test_inline_pragma_on_a_looping_callee(pragma, rng):
    # Inlining once renamed results in block order, so the header's phis
    # kept the callee's %i.next and %s.next and failed to verify.
    m = parse_module(LOOPING_CALLEE.format(pragma=pragma))
    out = apply_pragma_passes(m)
    assert verify_module(out) == []
    assert [f.name for f in out.functions] == ["f"]
    assert not any(i.opcode is Opcode.CALL
                   for b in out.top.blocks for i in b.all_instructions())
    # The callee's loop pragma follows its loop: the pipeline pragma stays
    # as estimator metadata, and the unroll pragma is expanded.
    headers = [b.loop_info.loop_id for b in out.top.blocks
               if b.loop_info is not None and b.loop_info.is_header]
    assert [(q.kind, q.target) for q in out.top.pragmas] == (
        [(PragmaKind.PIPELINE, headers[0])] if "pipeline" in pragma else [])
    assert len(headers) == 1 and estimate(out).cycles > 0
    for _ in range(8):
        inputs = random_inputs(m, rng)
        want, got = interpret(m, inputs), interpret(out, inputs)
        assert (got.return_value, got.memory_digest) == \
            (want.return_value, want.memory_digest)


#: Three unrolls cover dot_11's trip of 8; sccp then proves the back edge
#: dead and deletes loop 1, which carries the design's pipeline pragma.
DOT_11_LOOP_DELETION = [
    PassId.LOOP_UNROLL_PARTIAL, PassId.SIMPLIFYCFG,
    PassId.LOOP_UNROLL_PARTIAL, PassId.SIMPLIFYCFG,
    PassId.LOOP_UNROLL_PARTIAL, PassId.LOOP_ROTATE, PassId.SCCP]


@pytest.mark.parametrize("expand", [False, True], ids=["raw", "expanded"])
def test_deleted_loop_takes_its_pragma(expand):
    design = parse_module(dict(corpus_gen(22, 0))["dot_11"])
    start = apply_pragma_passes(design) if expand else design
    assert [p.kind for p in start.top.pragmas] == [PragmaKind.PIPELINE]
    out, _ = apply_sequence(start, DOT_11_LOOP_DELETION)
    assert verify_module(out) == []
    assert natural_loops(out.top).loops == []
    assert out.top.pragmas == []
    inputs = random_inputs(design, np.random.default_rng(0))
    before, after = interpret(design, inputs), interpret(out, inputs)
    assert (after.return_value, after.memory_digest) == \
        (before.return_value, before.memory_digest)


def test_loop_that_loses_its_id_keeps_its_pragma(monkeypatch):
    """A surviving loop whose header annotation a pass drops comes back under
    a new id; its pipeline pragma is not dropped but reported."""
    design = parse_module(dict(corpus_gen(22, 0))["guarded_tail_05"])
    assert [(p.kind, p.target) for p in design.top.pragmas] == \
        [(PragmaKind.PIPELINE, 1)]

    def strip_loop_1_header(module):
        for b in module.top.blocks:
            if b.loop_info is not None and b.loop_info.loop_id == 1 \
                    and b.loop_info.is_header:
                b.loop_info = None

    monkeypatch.setitem(passes._IMPLS, PassId.ADCE, strip_loop_1_header)
    with pytest.raises(PassError) as err:
        apply_pass(design, PassId.ADCE)
    assert [v.code for v in err.value.violations] == ["pragma-target"]


def test_pass_sequence_repeats_allowed(case1):
    seq = [PassId.LOOP_UNROLL_PARTIAL, PassId.SCCP, PassId.SIMPLIFYCFG,
           PassId.LOOP_UNROLL_PARTIAL]
    out, results = apply_sequence(case1, seq)
    assert len(results) == 4
    assert trip_count(out, "case1", 2) == 370


# ---------------------------------------------------------------------------
# Loop rewrites: unroll-pragma paths, peeling, rotation with outside uses
# ---------------------------------------------------------------------------

UNROLL_FACTORS = [2, 3, 4, 8, 16]
#: (start, step, bound) of the counted loop; trips 8, 9, 6, 6, 1 and 0.
UNROLL_TRIPS = [(0, 1, 8), (0, 1, 9), (1, 2, 12), (0, 3, 16), (2, 1, 3),
                (3, 1, 3)]
#: Header compare predicate, then its true and false targets.
POLARITIES = {"slt": ("slt", "body", "done"), "sge": ("sge", "done", "body"),
              "ne": ("ne", "body", "done")}
UNROLL_MATRIX = [(factor, trip, polarity) for factor in UNROLL_FACTORS
                 for trip in UNROLL_TRIPS for polarity in POLARITIES]


def _counted_loop(trip, polarity, factor=None):
    """A top-test loop whose IV and accumulator are both used past the exit,
    with an unroll pragma of ``factor`` when one is given."""
    start, step, bound = trip
    pred, t, f = POLARITIES[polarity]
    pragma = f"#pragma unroll(factor={factor}) loop=1" if factor else ""
    return parse_module(f"""
{pragma}
top func @f(%a: i32[16], %b: i32[16]) -> i32 {{
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [{start}, entry], [%i.next, body]
  %acc = phi i32 [0, entry], [%acc.next, body]
  %c = icmp {pred} i32 %i, {bound}
  condbr %c, {t}, {f}
block body loop(1, depth=1):
  %p = getelementptr %a, %i
  %v = load i32 %p
  %w = mul i32 %v, %i
  %acc.next = add i32 %acc, %w
  %q = getelementptr %b, %i
  store i32 %acc.next, %q
  %i.next = add i32 %i, {step}
  br hd
block done:
  %r = mul i32 %acc, 7
  %s = add i32 %r, %i
  ret i32 %s
}}
""")


def _observed(m, seed=0):
    inputs = random_inputs(m, np.random.default_rng(seed))
    r = interpret(m, inputs)
    return r.return_value, r.memory_digest


@pytest.mark.parametrize("factor,trip,polarity", UNROLL_MATRIX)
def test_unroll_pragma_matrix_preserves_semantics(factor, trip, polarity):
    m = _counted_loop(trip, polarity, factor)
    start, step, bound = trip
    if polarity == "ne" and (bound - start) % step:
        # An `ne` bound the IV steps over is not a countable shape.
        with pytest.raises(PragmaError):
            apply_pragma_passes(m)
        return
    out = apply_pragma_passes(m)
    assert verify_module(out) == []
    assert out.top.pragmas == []
    n_trips = len(range(start, bound, step))
    # Full unroll when the factor covers the trip; one loop otherwise.
    assert len(natural_loops(out.top).loops) == (0 if factor >= n_trips else 1)
    assert _observed(out) == _observed(m)


def test_unroll_partial_odd_trip_peels_one_iteration():
    m = _counted_loop((0, 1, 9), "sge")
    r = apply_pass(m, PassId.LOOP_UNROLL_PARTIAL)
    assert r.changed
    assert trip_count(r.module, "f", 1) == 4
    entry = r.module.top.block_map()["entry"]
    assert [i.opcode for i in entry.instructions].count(Opcode.STORE) == 1
    assert _observed(r.module) == _observed(m)


def test_loop_rotate_routes_header_phis_used_past_exit():
    m = parse_module("""
top func @f(%a: i32[8], %n: i32) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %acc = phi i32 [0, entry], [%acc.next, body]
  %c = icmp slt i32 %i, %n
  condbr %c, body, done
block body loop(1, depth=1):
  %p = getelementptr %a, %i
  %v = load i32 %p
  %acc.next = add i32 %acc, %v
  %i.next = add i32 %i, 1
  br hd
block done:
  %last = phi i32 [%acc, hd]
  %t = mul i32 %i, %last
  br tail
block tail:
  %u = add i32 %t, %i
  ret i32 %u
}
""")
    r = apply_pass(m, PassId.LOOP_ROTATE)
    assert r.changed
    fn = r.module.top
    assert "hd" not in fn.block_map()
    # The exit now has two predecessors, the entry guard and the latch.
    assert all(len(phi.phi_incoming()) == 2
               for phi in fn.block_map()["done"].phis())
    for n in (0, 1, 5, 8):
        inputs = [list(range(10, 18)), n]
        assert interpret(r.module, inputs).return_value == \
            interpret(m, inputs).return_value


def _sequential_while_loops(n: int) -> str:
    """A function of ``n`` while loops one after another, each entered
    straight from the previous loop's header."""
    lines = ["top func @f() -> i32 {", "block entry:", "  br h0"]
    for k in range(n):
        lines += [f"block h{k} loop({k + 1}, depth=1, header):",
                  f"  %i{k} = phi i32 [0, {'entry' if k == 0 else f'h{k - 1}'}],"
                  f" [%j{k}, b{k}]",
                  f"  %c{k} = icmp slt i32 %i{k}, 3",
                  f"  condbr %c{k}, b{k}, h{k + 1}",
                  f"block b{k} loop({k + 1}, depth=1):",
                  f"  %j{k} = add i32 %i{k}, 1",
                  f"  br h{k}"]
    return "\n".join(lines + [f"block h{n}:", "  ret i32 0", "}"]) + "\n"


def test_loop_rewrites_finish_in_one_application():
    """Twenty loops: loop_simplify gives each a preheader, loop_rotate then
    rotates all twenty and loop_deletion deletes all twenty, each in one
    application, so a second application of each changes nothing."""
    raw = parse_module(_sequential_while_loops(20))
    simplified = apply_pass(raw, PassId.LOOP_SIMPLIFY)
    assert simplified.changed
    assert not apply_pass(simplified.module, PassId.LOOP_SIMPLIFY).changed
    m = simplified.module
    assert all(len(l.blocks) == 2 for l in natural_loops(m.top).loops)

    rotated = apply_pass(m, PassId.LOOP_ROTATE)
    loops = natural_loops(rotated.module.top).loops
    assert len(loops) == 20
    # A rotated loop is one block, which tests at its end.
    assert all(len(l.blocks) == 1 for l in loops)
    assert not apply_pass(rotated.module, PassId.LOOP_ROTATE).changed

    deleted = apply_pass(m, PassId.LOOP_DELETION)
    assert natural_loops(deleted.module.top).loops == []
    assert not apply_pass(deleted.module, PassId.LOOP_DELETION).changed
    for out in (rotated.module, deleted.module):
        assert interpret(out, []).return_value == 0


def _sha(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


LOOP_PASSES = [PassId.LOOP_SIMPLIFY, PassId.LOOP_ROTATE, PassId.LICM,
               PassId.INDVARS, PassId.LOOP_DELETION,
               PassId.LOOP_UNROLL_PARTIAL]
#: sha256 of printed outputs, taken before the loop-rewrite helpers were
#: shared by the loop passes and the unroll pragma; a refactoring of those
#: helpers must print the same bytes.
PINNED_UNROLL_MATRIX = \
    "b9878ec1dcaeacec6aa92f8d2b2b2deb53efbf8a8ce2db578f50b7e3dac67d52"
PINNED_LOOP_PASSES = \
    "4ecd137fdd4d059e136903241c4d92f2ae5d0f879db3c244ca6a924f4b1bca10"


def test_unroll_matrix_output_is_pinned():
    texts = []
    for case in UNROLL_MATRIX:
        try:
            texts.append(print_module(apply_pragma_passes(_counted_loop(
                case[1], case[2], case[0]))))
        except PragmaError as e:
            texts.append(f"PragmaError: {e}")
    assert _sha(texts) == PINNED_UNROLL_MATRIX


def test_loop_pass_outputs_are_pinned():
    starts = [_counted_loop(trip, polarity) for trip in UNROLL_TRIPS
              for polarity in POLARITIES]
    for _name, text in corpus_gen(6, 0):
        m = parse_module(text)
        starts += [m, apply_pragma_passes(m)]
    texts = [print_module(apply_pass(m, p).module)
             for m in starts for p in LOOP_PASSES]
    assert _sha(texts) == PINNED_LOOP_PASSES


# ---------------------------------------------------------------------------
# Transition memo


def _step_facts(results) -> list[tuple]:
    return [(r.pass_id, r.changed, r.digest) for r in results]


def _prefix_sharing_sequences(rng) -> list[list[PassId]]:
    """Three random roots of four passes, each followed by three sequences
    that keep a random prefix of it and add three random passes."""
    catalog = general_passes()

    def draw(n):
        return [catalog[int(i)] for i in rng.integers(0, len(catalog), n)]

    seqs = []
    for _ in range(3):
        root = draw(4)
        seqs.append(root)
        seqs += [root[:int(rng.integers(0, 5))] + draw(3) for _ in range(3)]
    return seqs


def test_memo_replays_match_fresh_runs():
    rng = np.random.default_rng(0)
    for _name, text in corpus_gen(6, 0):
        raw = parse_module(text)
        for m in (raw, apply_pragma_passes(raw)):
            memo = Transitions()
            seqs = _prefix_sharing_sequences(rng)
            for seq in seqs:
                fresh, fresh_steps = apply_sequence(m, seq)
                out, steps = apply_sequence(m, seq, memo)
                assert print_module(out) == print_module(fresh)
                assert _step_facts(steps) == _step_facts(fresh_steps)
                assert len(steps) == len(seq)
            # Shared prefixes ran once: fewer entries than steps applied.
            assert len(memo) < sum(map(len, seqs))


def test_memo_hit_runs_no_pass(monkeypatch, dot_module):
    seq = [PassId.LOOP_UNROLL_PARTIAL, PassId.SIMPLIFYCFG, PassId.ADCE]
    memo = Transitions()
    warm, warm_steps = apply_sequence(dot_module, seq, memo)

    def broken(_module):
        raise AssertionError("a memo hit ran a pass")

    for p in general_passes():
        monkeypatch.setitem(passes._IMPLS, p, broken)
    out, steps = apply_sequence(dot_module, seq, memo)
    assert out is warm
    assert all(r is w for r, w in zip(steps, warm_steps))
    assert len(memo) == len(seq)


def test_a_pass_that_mistypes_raises(monkeypatch):
    """Each pass output's types are verified too: a pass that makes an
    ``add i32`` read an ``i1`` raises."""
    m = parse_module("func @f(%a: i32) -> i32 {\nblock entry:\n"
                     "  %c = icmp slt i32 %a, 4\n  %x = add i32 %a, 1\n"
                     "  ret i32 %x\n}\n")

    def mistyping(module):
        module.top.blocks[0].instructions[1].operands[0] = ValueRef("c")

    monkeypatch.setitem(passes._IMPLS, PassId.INSTCOMBINE, mistyping)
    with pytest.raises(PassError) as err:
        apply_pass(m, PassId.INSTCOMBINE)
    assert [str(v) for v in err.value.violations] == [
        "[type] f:entry: add operand %c is i1, expected i32"]


def test_a_pass_that_branches_to_a_value_raises(monkeypatch):
    """A pass that writes ``br %a`` raises ``PassError`` with the verifier's
    ``[type]`` line: the CFG analysis does not read the value as a label."""
    m = parse_module("func @f(%a: i32) -> i32 {\nblock entry:\n  br out\n"
                     "block out:\n  ret i32 %a\n}\n")

    def branching(module):
        module.top.blocks[0].terminator.operands[0] = ValueRef("a")

    monkeypatch.setitem(passes._IMPLS, PassId.SIMPLIFYCFG, branching)
    with pytest.raises(PassError) as err:
        apply_pass(m, PassId.SIMPLIFYCFG)
    assert [str(v) for v in err.value.violations] == [
        "[type] f:entry: br operand %a is not a label"]


def test_memo_stores_no_failed_transition(monkeypatch, dot_module):
    def corrupting(module):
        module.top.blocks[0].terminator = None

    monkeypatch.setitem(passes._IMPLS, PassId.ADCE, corrupting)
    memo = Transitions()
    with pytest.raises(PassError) as err:
        apply_sequence(dot_module, [PassId.LOOP_SIMPLIFY, PassId.ADCE], memo)
    assert err.value.pass_id is PassId.ADCE
    assert err.value.violations[0] == "at step 1"
    assert "no-term" in str(err.value)
    assert [p for _id, p in memo] == [PassId.LOOP_SIMPLIFY]
    # loop_simplify changed nothing, so adce broke the copy it left; that
    # copy is gone, and the next pass on the module works on a clean one.
    assert not memo[(dot_module.digest(), PassId.LOOP_SIMPLIFY)].changed
    assert memo.spare is None
    got = apply_pass(dot_module, PassId.SIMPLIFYCFG, memo)
    fresh = apply_pass(parse_module(print_module(dot_module)),
                       PassId.SIMPLIFYCFG)
    assert _step_facts([got]) == _step_facts([fresh])
    assert print_module(got.module) == print_module(fresh.module)


def test_noop_entry_is_the_parent_module(dot_module):
    memo = Transitions()
    parent = apply_pass(dot_module, PassId.LOOP_SIMPLIFY, memo)
    noop = apply_pass(parent.module, PassId.LOOP_SIMPLIFY, memo)
    assert not noop.changed and noop.digest == parent.digest
    assert noop.module is parent.module
    # A module that prints alike hits the same entry.
    twin = parse_module(print_module(parent.module))
    assert apply_pass(twin, PassId.LOOP_SIMPLIFY, memo) is noop


def _corpus_starts() -> list[IrModule]:
    """Each design of ``corpus_gen(12, 0)``, raw and pragma-expanded."""
    raws = [parse_module(text) for _name, text in corpus_gen(12, 0)]
    return [m for raw in raws for m in (raw, apply_pragma_passes(raw))]


def test_spare_copies_give_what_fresh_copies_give(monkeypatch):
    """Every general pass in catalog order on one module through one
    table: each pass after a no-op works on the copy the no-op left, so the
    table clones once, then once more per pass that changed the module.
    Each result is the one a tableless run on a fresh parse gives."""
    starts = _corpus_starts()
    general = general_passes()
    fresh = [[apply_pass(parse_module(print_module(m)), p) for p in general]
             for m in starts]
    clones = [0]
    clone = IrModule.clone

    def counted(module):
        clones[0] += 1
        return clone(module)

    monkeypatch.setattr(IrModule, "clone", counted)
    for m, want in zip(starts, fresh):
        clones[0] = 0
        table = Transitions()
        got = [apply_pass(m, p, table) for p in general]
        assert _step_facts(got) == _step_facts(want)
        assert [print_module(r.module) for r in got] == \
            [print_module(r.module) for r in want]
        assert clones[0] == 1 + sum(r.changed for r in got[:-1])


def _mutable_parts(m: IrModule) -> list:
    """Every function, block, instruction, annotation, pragma, array and
    list ``m`` holds."""
    parts = [m.functions, m.global_arrays, *m.global_arrays]
    parts += [g.init for g in m.global_arrays if g.init is not None]
    for fn in m.functions:
        parts += [fn, fn.params, fn.blocks, fn.pragmas, *fn.pragmas]
        for b in fn.blocks:
            parts += [b, b.instructions]
            parts += [b.loop_info] if b.loop_info is not None else []
            for ins in b.all_instructions():
                parts += [ins, ins.operands]
    return parts


def test_a_noop_leaves_a_copy_that_equals_its_input_and_shares_nothing():
    """The spare copy a no-op leaves can stand in for a fresh clone: it
    equals its input, holds no mutable object of the input's, and holds
    none of its own twice.  A pass that changed its input leaves none."""
    spares = 0
    for m in _corpus_starts():
        theirs = {id(x) for x in _mutable_parts(m)}
        for p in general_passes():
            table = Transitions()
            r = apply_pass(m, p, table)
            assert (table.spare is None) == r.changed
            if table.spare is None:
                continue
            spares += 1
            owner, copy = table.spare
            assert owner is m and copy == m
            ours = [id(x) for x in _mutable_parts(copy)]
            assert len(set(ours)) == len(ours)
            assert theirs.isdisjoint(ours)
    assert spares > 0


def test_a_pass_that_writes_nothing_leaves_stale_annotations_alone():
    """The no-op verdict comes before the loop refresh.  A module whose
    loop body lost its annotation no longer verifies, but the driver does
    not verify its inputs; ``dse`` deletes no store in it, so it comes back
    as itself, unchanged, and is not reported changed for the annotation a
    refresh would add."""
    text = dict(corpus_gen(3, 0))["vec_combine_00"]
    stale = text.replace("block body loop(1, depth=1):", "block body:")
    assert stale != text
    m = parse_module(stale, verify=False)
    assert [v.code for v in verify_module(m)] == ["loop-member"]
    r = apply_pass(m, PassId.DSE)
    assert not r.changed and r.module is m
    assert "block body:\n" in print_module(m)


def test_digest_keys_are_sound():
    """A pass's output depends only on its input's printed form, so a
    ``(digest, pass)`` key names one transition; and ``changed`` from
    digests agrees with comparing the printed input and output."""
    catalog = general_passes()
    rng = np.random.default_rng(0)
    checks = 0
    for seed in (0, 1):
        for _name, text in corpus_gen(12, seed):
            raw = parse_module(text)
            for m in (raw, apply_pragma_passes(raw)):
                for i in rng.integers(0, len(catalog), 10):
                    p = catalog[int(i)]
                    r = apply_pass(m, p)
                    twin = apply_pass(parse_module(print_module(m)), p)
                    assert print_module(twin.module) == print_module(r.module)
                    out = m.clone()
                    passes._IMPLS[p](out)
                    assert r.changed == (print_module(out) != print_module(m))
                    m = r.module
                    checks += 1
    assert checks == 480


def _forest_facts(forest):
    """Everything a forest tells the verifier, in comparable form."""
    return ([(l.loop_id, l.header, l.blocks, l.latches, l.depth)
             for l in forest.loops],
            forest.dom.idom, forest.preds, forest.reach)


def _fresh_forest(fn):
    """``fn``'s loop forest derived anew, from a copy with no memo."""
    bare = fn.clone()
    bare.loop_memo = None
    return natural_loops(bare)


def test_memoized_forest_is_the_one_a_fresh_analysis_finds(monkeypatch):
    """Every forest ``natural_loops`` returns to a pass, the refresh or the
    verifier, memo hit or not, equals a derivation from scratch, and
    verifying with the memo gives the verdict verifying without it gives.
    Only passes that change the module verify, so the sweep runs 24
    sequences per start over four corpus seeds."""
    real = analysis.natural_loops
    checked = []

    def checking_natural_loops(fn):
        forest = real(fn)
        assert _forest_facts(forest) == _forest_facts(_fresh_forest(fn))
        checked.append(fn.name)
        return forest

    def checking_verify_module(m):
        found = verify_module(m)
        cold = m.clone()
        for fn in cold.functions:
            fn.loop_memo = None
        assert found == verify_module(cold)
        return found

    users = [mod for name, mod in sys.modules.items()
             if name.startswith("passforge")
             and getattr(mod, "natural_loops", None) is real]
    assert {"passforge.ir.analysis", "passforge.ir.verify",
            "passforge.passes.loop_passes"} <= {u.__name__ for u in users}
    for mod in users:
        monkeypatch.setattr(mod, "natural_loops", checking_natural_loops)
    monkeypatch.setattr(passes, "verify_module", checking_verify_module)
    rng = np.random.default_rng(12)
    general = general_passes()
    for seed in (0, 1, 2, 3):
        for _name, text in corpus_gen(12, seed):
            raw = parse_module(text)
            for m in (raw, apply_pragma_passes(raw)):
                memo = Transitions()
                for _ in range(24):
                    seq = [general[i] for i in rng.integers(
                        len(general), size=rng.integers(1, 17))]
                    apply_sequence(m, seq, memo)
    assert len(checked) > 10000


def test_memoized_forests_are_shared_read_only():
    """A clone inherits each function's memoized forest, and no pass, no
    refresh, verify or estimate on the clone changes it.  The memo is no
    field: equality, ``repr`` and the printed form ignore it.  A CFG
    changed by hand gets a forest of its own."""
    from copy import deepcopy

    from passforge.qor import EstimateError, estimate
    for _name, text in corpus_gen(12, 0):
        raw = parse_module(text)
        for m in (raw, apply_pragma_passes(raw)):
            memos = [fn.loop_memo for fn in m.functions]
            assert None not in memos
            facts = deepcopy([(shape, _forest_facts(forest))
                              for shape, forest in memos])
            for p in general_passes():
                twin = m.clone()
                assert [fn.loop_memo for fn in twin.functions] == memos
                passes._IMPLS[p](twin)
                try:
                    estimate(apply_pass(m, p).module)
                except EstimateError:
                    pass        # a pipelined loop that lost its trip count
            assert [fn.loop_memo for fn in m.functions] == memos
            assert [(shape, _forest_facts(forest))
                    for shape, forest in memos] == facts

    m = parse_module(DOM_COUNT_SRC)
    bare = parse_module(DOM_COUNT_SRC, verify=False)
    assert m.top.loop_memo is not None and bare.top.loop_memo is None
    assert m == bare and repr(m) == repr(bare)
    assert print_module(m) == print_module(bare) and m.digest() == bare.digest()

    fn = m.top
    forest = natural_loops(fn)
    assert natural_loops(fn) is forest
    fn.block_map()["hd"].loop_info.loop_id = 7
    renamed = natural_loops(fn)
    assert renamed is not forest and [l.loop_id for l in renamed.loops] == [7]
    fn.block_map()["body"].terminator.operands = [LabelRef("out")]
    assert natural_loops(fn).loops == []
    assert _forest_facts(forest) == _forest_facts(_fresh_forest(bare.top))


DOM_COUNT_SRC = """
func @inc(%x: i32) -> i32 {
block entry:
  %dead = mul i32 %x, 3
  %z = add i32 %x, 0
  %r = add i32 %z, 1
  ret i32 %r
}

top func @f(%a: i32[8]) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %c = icmp slt i32 %i, 8
  condbr %c, body, out
block body loop(1, depth=1):
  %v = call i32 @inc(%i)
  %p = getelementptr %a, %i
  store i32 %i, %p
  store i32 %v, %p
  %i.next = add i32 %i, 1
  br hd
block out:
  ret i32 0
}
"""


def test_pass_outputs_parse_back():
    """Every literal a pass writes lies in i32, which the parser requires:
    each module that random general-pass sequences reach from the corpus,
    pragmas expanded or not, prints to text that parses back to it."""
    rng = np.random.default_rng(28)
    general = general_passes()
    n = 0
    for _name, text in corpus_gen(12, 0):
        design = parse_module(text)
        for start in (design, apply_pragma_passes(design)):
            for _ in range(4):
                m = start
                for k in rng.integers(len(general), size=12):
                    m = apply_pass(m, general[k]).module
                    printed = print_module(m)
                    assert print_module(parse_module(printed)) == printed
                    n += 1
    assert n == 12 * 2 * 4 * 12


def _count_trees(monkeypatch):
    """The names of the functions each dominator tree built from here on
    was built for; a tree builds its function's predecessor map, the only
    one the package builds."""
    trees = []
    init = analysis.DomTree.__init__

    def counting_init(self, fn):
        trees.append(fn.name)
        init(self, fn)

    monkeypatch.setattr(analysis.DomTree, "__init__", counting_init)
    return trees


@pytest.mark.parametrize("p", [PassId.ADCE, PassId.DSE, PassId.INSTSIMPLIFY],
                         ids=str)
def test_executed_pass_builds_one_dominator_tree_per_function(monkeypatch, p):
    """Pass, refresh and verify share one analysis per function, memoized
    on it.  These passes keep every CFG: on a parsed module, whose verify
    left each forest memoized for the copy to inherit, the run builds no
    tree; on a module parsed without verifying, one per function."""
    warm = parse_module(DOM_COUNT_SRC)
    cold = parse_module(DOM_COUNT_SRC, verify=False)
    trees = _count_trees(monkeypatch)
    assert apply_pass(warm, p).changed
    assert trees == []
    assert apply_pass(cold, p).changed
    assert sorted(trees) == ["f", "inc"]


@pytest.mark.parametrize("p", [PassId.LOOP_ROTATE, PassId.LOOP_UNROLL_PARTIAL],
                         ids=str)
def test_a_pass_that_changes_a_cfg_builds_one_tree_for_it(monkeypatch, p):
    """Only ``@f`` has a loop to rewrite: its new CFG is analysed once, by
    the pass or by the refresh, and ``@inc``'s memo carries over."""
    m = parse_module(DOM_COUNT_SRC)
    trees = _count_trees(monkeypatch)
    assert apply_pass(m, p).changed
    assert trees == ["f"]


def test_greedy_builds_a_dominator_tree_per_new_cfg(monkeypatch):
    """Greedy over ``corpus_gen(12, 0)`` builds 205 dominator trees, one
    per CFG shape a forest is derived for; without the memo it built
    1,605, one per consumer call."""
    from passforge.agent import search_greedy
    designs = [parse_module(text) for _name, text in corpus_gen(12, 0)]
    trees = _count_trees(monkeypatch)
    for m in designs:
        search_greedy(m)
    assert len(trees) == 205


def _step_without_shortcut(m, p):
    """One pass, every output verified and printed: clone, run, refresh
    loop annotations, prune the pragmas of deleted loops, verify, print.
    Returns the output, its violations and its printed form."""
    out = m.clone()
    before = {fn.name: {b.loop_info.loop_id for b in fn.blocks
                        if b.loop_info is not None and b.loop_info.is_header}
              for fn in out.functions}
    passes._IMPLS[p](out)
    for fn in out.functions:
        ids = {l.loop_id for l in refresh_loop_annotations(fn).loops}
        gone = before[fn.name] - ids
        if gone and ids <= before[fn.name]:
            fn.pragmas = [q for q in fn.pragmas if q.target not in gone or
                          q.kind not in (PragmaKind.UNROLL, PragmaKind.PIPELINE)]
    return out, verify_module(out), print_module(out)


def test_equality_shortcut_matches_verify_and_print():
    """A pass whose output equals its input returns the input unverified
    and unprinted; every step gets the ``changed`` flag, digest and
    printed module that verifying and printing every output gives."""
    rng = np.random.default_rng(13)
    general = general_passes()
    equal = changed = 0
    for seed in (0, 1):
        for _name, text in corpus_gen(12, seed):
            raw = parse_module(text)
            for start in (raw, apply_pragma_passes(raw)):
                seen: set = set()
                for _ in range(6):
                    m, digest = start, start.digest()
                    for i in rng.integers(len(general),
                                          size=rng.integers(1, 17)):
                        p = general[i]
                        r = apply_pass(m, p, digest=digest)
                        if (digest, p) not in seen:
                            seen.add((digest, p))
                            out, violations, text_out = \
                                _step_without_shortcut(m, p)
                            assert violations == []
                            is_change = text_out != print_module(m)
                            assert r.changed == is_change
                            assert r.digest == text_digest(text_out)
                            assert print_module(r.module) == text_out
                            equal += out == m
                            changed += is_change
                        m, digest = r.module, r.digest
    assert equal > 300 and changed > 300


@pytest.mark.parametrize("p, calls", [(PassId.LICM, 0), (PassId.ADCE, 1)],
                         ids=["noop", "changed"])
def test_only_a_changed_module_is_verified_and_printed(monkeypatch, p, calls):
    """``licm`` finds no loop to hoist from; ``adce`` drops ``%dead``."""
    m = parse_module("""
top func @f(%a: i32) -> i32 {
block entry:
  %dead = add i32 %a, 5
  %live = add i32 %a, 1
  ret i32 %live
}
""")
    counts = {"verify_module": 0, "print_module": 0}
    for name in counts:
        real = getattr(passes, name)

        def counting(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(passes, name, counting)
    r = apply_pass(m, p, digest=m.digest())
    assert r.changed == bool(calls)
    assert counts == {"verify_module": calls, "print_module": calls}


# -- reference: the fixpoint sweep that ``erase_dead_pure``'s worklist replaced

def _ref_erase_dead_pure(fn) -> None:
    """Drop pure instructions with unused results, sweeping every
    instruction again until a sweep drops nothing."""
    while True:
        used: set[str] = set()
        for b in fn.blocks:
            for ins in b.all_instructions():
                used.update(ins.value_uses())
        removed = 0
        for b in fn.blocks:
            keep = []
            for ins in b.instructions:
                if (ins.result is not None and ins.result not in used
                        and ins.opcode in PURE_OR_DIV):
                    removed += 1
                else:
                    keep.append(ins)
            b.instructions = keep
        if removed == 0:
            return


def _assert_erases_as_the_sweep(fn) -> int:
    """``erase_dead_pure`` on ``fn`` leaves what the sweep leaves on a
    copy; returns how many instructions it dropped."""
    ref, before = fn.clone(), sum(len(b.instructions) for b in fn.blocks)
    _ref_erase_dead_pure(ref)
    erase_dead_pure(fn)
    assert fn.blocks == ref.blocks, fn.name
    return before - sum(len(b.instructions) for b in fn.blocks)


def test_dead_code_erasure_matches_the_fixpoint_sweep(monkeypatch):
    """Every function a pass hands ``erase_dead_pure`` over seeded random
    sequences on ``corpus_gen(12, 0)``, and each output function again with
    its stores dropped and its return value replaced by 0, so that chains
    which fed only those die."""
    calls = [0]

    def checked(fn):
        calls[0] += 1
        _assert_erases_as_the_sweep(fn)
    for module in (inst_passes, cfg_passes):
        monkeypatch.setattr(module, "erase_dead_pure", checked)
    pool, rng, dropped = general_passes(), np.random.default_rng(0), []
    for _name, text in corpus_gen(12, 0):
        for _ in range(6):
            seq = [pool[i] for i in rng.integers(len(pool), size=8)]
            m, _ = apply_sequence(parse_module(text), seq)
            for fn in m.clone().functions:
                for b in fn.blocks:
                    b.instructions = [i for i in b.instructions
                                      if i.opcode is not Opcode.STORE]
                    if b.terminator.opcode is Opcode.RET \
                            and b.terminator.operands:
                        b.terminator.operands = [Const(0)]
                dropped.append(_assert_erases_as_the_sweep(fn))
    assert calls[0] > 100
    assert sum(n > 1 for n in dropped) > 50


@pytest.mark.parametrize("body, dropped", [
    # A chain: %c uses %b and %a, %b uses %a; none reaches the return.
    (["%a = add i32 %x, 1", "%b = mul i32 %a, 2", "%c = sub i32 %b, %a"], 3),
    # A division by zero traps, but an unused one is dropped.
    (["%d = sdiv i32 %x, 0"], 1),
    (["%d = sdiv i32 %x, 0", "%e = icmp eq i32 %d, 0",
      "%f = zext i1 %e to i32"], 3),
], ids=["chain", "sdiv", "sdiv-chain"])
def test_dead_code_erasure_drops_dead_chains(body, dropped):
    m = parse_module("top func @f(%x: i32) -> i32 {\nblock entry:\n"
                     + "".join(f"  {line}\n" for line in body)
                     + "  ret i32 %x\n}")
    assert _assert_erases_as_the_sweep(m.functions[0]) == dropped
    assert [str(i) for i in m.functions[0].blocks[0].instructions] == []


def test_dead_code_erasure_keeps_a_dead_phi_cycle():
    """``%p`` and ``%q`` feed only each other, but the phi is not pure, so
    both stay; ``%r`` reads ``%q`` and nothing reads it, so it goes."""
    m = parse_module("""
top func @f(%n: i32) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, hd]
  %p = phi i32 [0, entry], [%q, hd]
  %q = add i32 %p, 1
  %r = mul i32 %q, 3
  %i.next = add i32 %i, 1
  %c = icmp slt i32 %i.next, %n
  condbr %c, hd, out
block out:
  ret i32 %i
}
""")
    fn = m.functions[0]
    assert _assert_erases_as_the_sweep(fn) == 1
    assert [i.result for i in fn.block_map()["hd"].instructions] == \
        ["i", "p", "q", "i.next", "c"]
