"""Per-pass behavior, idempotence, and the catalog contract."""
import hashlib

import numpy as np
import pytest

from passforge import passes
from passforge.corpus import corpus_gen, random_inputs
from passforge.ir import (
    Opcode, interpret, natural_loops, parse_module, print_module,
    verify_module,
)
from passforge.passes import (
    PassError, PassId, PragmaError, TABLE_CATEGORIES, apply_pass,
    apply_pragma_passes, apply_sequence, general_passes, pass_catalog,
)
from passforge.qor import trip_count


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
    assert r.instructions_removed == 1
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


@pytest.mark.parametrize("pass_id", [e.pass_id for e in pass_catalog()
                                     if e.idempotent])
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
    return [(r.pass_id, r.changed, r.instructions_removed,
             r.instructions_added, r.blocks_removed) for r in results]


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
            memo: dict = {}
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
    memo: dict = {}
    warm, warm_steps = apply_sequence(dot_module, seq, memo)

    def broken(_module):
        raise AssertionError("a memo hit ran a pass")

    for p in general_passes():
        monkeypatch.setitem(passes._IMPLS, p, broken)
    out, steps = apply_sequence(dot_module, seq, memo)
    assert out is warm
    assert all(r is w for r, w in zip(steps, warm_steps))
    assert len(memo) == len(seq)


def test_memo_stores_no_failed_transition(monkeypatch, dot_module):
    def corrupting(module):
        module.top.blocks[0].terminator = None

    monkeypatch.setitem(passes._IMPLS, PassId.ADCE, corrupting)
    memo: dict = {}
    with pytest.raises(PassError) as err:
        apply_sequence(dot_module, [PassId.LOOP_SIMPLIFY, PassId.ADCE], memo)
    assert err.value.pass_id is PassId.ADCE
    assert err.value.violations[0] == "at step 1"
    assert "no-term" in str(err.value)
    assert [p for _id, p in memo] == [PassId.LOOP_SIMPLIFY]


def test_memo_keys_str_and_pass_id_alike(dot_module):
    memo: dict = {}
    by_name = apply_pass(dot_module, "loop_rotate", memo)
    assert apply_pass(dot_module, PassId.LOOP_ROTATE, memo) is by_name
    assert list(memo) == [(id(dot_module), PassId.LOOP_ROTATE)]
