"""Analytical estimator: schedules, II computation, trip counts, oracle."""
import hashlib

import numpy as np
import pytest

from passforge.corpus import corpus_gen, random_inputs
from passforge.ir import natural_loops, parse_module
from passforge.passes import (
    PassId, apply_pass, apply_pragma_passes, apply_sequence, general_passes,
    loop_trip_count,
)
from passforge.qor import (
    EstimateError, OpCostTable, _ModuleModel, dynamic_cycle_oracle, estimate,
)


def test_chain_of_three_dependent_adds():
    m = parse_module("""
top func @f(%a: i32) -> i32 {
block entry:
  %x = add i32 %a, 1
  %y = add i32 %x, 1
  %z = add i32 %y, 1
  ret i32 %z
}
""")
    assert estimate(m).cycles == 3


def test_independent_adds_schedule_in_parallel():
    m = parse_module("""
top func @f(%a: i32, %b: i32) -> i32 {
block entry:
  %x = add i32 %a, 1
  %y = add i32 %b, 2
  %z = add i32 %x, %y
  ret i32 %z
}
""")
    assert estimate(m).cycles == 2


def test_pipelined_loop_formula():
    # trip 10, achieved II and depth combine as II*(trip-1) + depth
    m = parse_module("""
#pragma pipeline(ii=1) loop=1
top func @f(%a: i32[10], %b: i32[10]) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %c = icmp slt i32 %i, 10
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
    rep = estimate(m)
    loop = rep.loops[0]
    assert loop.trip == 10
    assert loop.achieved_ii == max(loop.res_mii, loop.rec_mii, 1)
    assert loop.total_cycles == loop.achieved_ii * 9 + loop.depth_cycles
    # check the formula instance from the contract: II 1, depth 4, trip 10
    assert 1 * 9 + 4 == 13


def test_res_mii_port_pressure():
    # four loads of one array against two ports -> res_mii >= 2
    m = parse_module("""
#pragma pipeline(ii=1) loop=1
top func @f(%a: i32[16], %o: i32[16]) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %c = icmp slt i32 %i, 4
  condbr %c, body, out
block body loop(1, depth=1):
  %i1 = add i32 %i, 4
  %i2 = add i32 %i, 8
  %i3 = add i32 %i, 12
  %p0 = getelementptr %a, %i
  %v0 = load i32 %p0
  %p1 = getelementptr %a, %i1
  %v1 = load i32 %p1
  %p2 = getelementptr %a, %i2
  %v2 = load i32 %p2
  %p3 = getelementptr %a, %i3
  %v3 = load i32 %p3
  %s0 = add i32 %v0, %v1
  %s1 = add i32 %v2, %v3
  %s = add i32 %s0, %s1
  %po = getelementptr %o, %i
  store i32 %s, %po
  %i.next = add i32 %i, 1
  br hd
block out:
  ret i32 0
}
""")
    assert estimate(m).loops[0].res_mii >= 2


def test_rec_mii_accumulator_distance_one():
    # acc = acc + a[i]: the recurrence is the 1-cycle add
    m = parse_module("""
top func @f(%a: i32[8]) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %acc = phi i32 [0, entry], [%acc.next, body]
  %c = icmp slt i32 %i, 8
  condbr %c, body, out
block body loop(1, depth=1):
  %p = getelementptr %a, %i
  %v = load i32 %p
  %acc.next = add i32 %acc, %v
  %i.next = add i32 %i, 1
  br hd
block out:
  ret i32 %acc
}
""")
    # phi + add along the carried cycle
    assert estimate(m).loops[0].rec_mii == 1 + 1


def test_rec_mii_memory_recurrence_mul():
    # b[i] = b[i-1] * c with mul latency 3: dependence cycle >= 3
    m = parse_module("""
top func @f(%b: i32[16], %k: i32) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [1, entry], [%i.next, body]
  %c = icmp slt i32 %i, 16
  condbr %c, body, out
block body loop(1, depth=1):
  %im1 = add i32 %i, -1
  %pp = getelementptr %b, %im1
  %prev = load i32 %pp
  %m = mul i32 %prev, %k
  %pc = getelementptr %b, %i
  store i32 %m, %pc
  %i.next = add i32 %i, 1
  br hd
block out:
  ret i32 0
}
""")
    # the multiply sits on the carried cycle
    assert estimate(m).loops[0].rec_mii >= 3


def test_trip_count_patterns():
    def loop_src(init, pred, bound):
        return f"""
top func @f(%a: i32[2000]) -> i32 {{
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [{init}, entry], [%i.next, body]
  %c = icmp {pred} i32 %i, {bound}
  condbr %c, body, out
block body loop(1, depth=1):
  %p = getelementptr %a, %i
  store i32 %i, %p
  %i.next = add i32 %i, 1
  br hd
block out:
  ret i32 0
}}
"""
    def trip(*args):
        return estimate(parse_module(loop_src(*args))).loops[0].trip

    assert trip(0, "slt", 1482) == 1482
    assert trip(2, "slt", 1482) == 1480
    assert trip(0, "ne", 1482) == 1482
    assert trip(0, "sle", 99) == 100


def test_trip_count_unknown_for_loaded_bound():
    m = parse_module("""
global @n : i32[1]
top func @f(%a: i32[64]) -> i32 {
block entry:
  %pn = getelementptr @n, 0
  %n = load i32 %pn
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %c = icmp slt i32 %i, %n
  condbr %c, body, out
block body loop(1, depth=1):
  %i.next = add i32 %i, 1
  br hd
block out:
  ret i32 0
}
""")
    assert loop_trip_count(m.top, natural_loops(m.top).by_id(1)) is None
    # non-pipelined unknown trips fall back to the documented default
    rep = estimate(m)
    assert rep.loops[0].trip is None
    from passforge.qor import DEFAULT_UNKNOWN_TRIP
    assert rep.loops[0].total_cycles == \
        DEFAULT_UNKNOWN_TRIP * (rep.loops[0].depth_cycles + 1)


def test_pipelined_unknown_trip_errors():
    m = parse_module("""
global @n : i32[1]
#pragma pipeline(ii=1) loop=1
top func @f(%a: i32[64]) -> i32 {
block entry:
  %pn = getelementptr @n, 0
  %n = load i32 %pn
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %c = icmp slt i32 %i, %n
  condbr %c, body, out
block body loop(1, depth=1):
  %i.next = add i32 %i, 1
  br hd
block out:
  ret i32 0
}
""")
    with pytest.raises(EstimateError) as e:
        estimate(m)
    assert e.value.kind == "UnknownTrip"


def test_dynamic_oracle_trivia():
    m = parse_module("""
top func @f(%a: i32) -> i32 {
block entry:
  %x = add i32 %a, 1
  %y = add i32 %x, 1
  %z = add i32 %y, 1
  ret i32 %z
}
""")
    assert dynamic_cycle_oracle(m, [1]) == 3  # ret costs 0


def test_dynamic_oracle_loop_of_muls():
    m = parse_module("""
top func @f(%a: i32) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %s = phi i32 [1, entry], [%m, body]
  %c = icmp slt i32 %i, 10
  condbr %c, body, out
block body loop(1, depth=1):
  %m = mul i32 %s, %a
  %i.next = add i32 %i, 1
  br hd
block out:
  ret i32 %s
}
""")
    assert dynamic_cycle_oracle(m, [1]) >= 30  # ten muls at latency 3


def test_monotone_under_dead_code_removal(small_corpus):
    for _name, m in small_corpus[:8]:
        before = estimate(m)
        after = estimate(apply_pass(m, PassId.ADCE).module)
        assert after.cycles <= before.cycles


def test_adding_instruction_never_reduces_cycles(dot_module):
    before = estimate(dot_module)
    m2 = dot_module.clone()
    body = m2.top.block_map()["body"]
    from passforge.ir import Const, IrInstruction, Opcode, ValueRef, I32
    body.instructions.insert(
        5, IrInstruction("extra", Opcode.MUL,
                         [ValueRef("m"), Const(7, I32)], I32))
    body.instructions.insert(
        6, IrInstruction("extra2", Opcode.MUL,
                         [ValueRef("extra"), Const(9, I32)], I32))
    # keep it live through a store so adce semantics are irrelevant here
    after = estimate(m2)
    assert after.cycles >= before.cycles


def test_ii_lower_bounds_hold(case2):
    rep = estimate(case2)
    for loop in rep.loops:
        if loop.achieved_ii is not None:
            assert loop.achieved_ii >= loop.res_mii
            assert loop.achieved_ii >= loop.rec_mii


def test_cost_table_roundtrip():
    t = OpCostTable()
    t2 = OpCostTable.from_dict(t.to_dict())
    assert t2.to_dict() == t.to_dict()
    assert t.lat(__import__("passforge.ir", fromlist=["Opcode"]).Opcode.MUL) == 3
    partial = OpCostTable.from_dict({"latency": {"mul": 2}, "memory_ports": 1})
    assert partial.latency == {**t.latency, "mul": 2}
    assert partial.memory_ports == 1


@pytest.mark.parametrize("doc", [
    {"lattency": {"add": 1}},
    {"latency": {"fma": 1}},
    {"latency": {"add": -1}},
    {"latency": {"mul": 1.5}},
    {"latency": {"add": True}},
    {"latency": {"add": "8"}},
    {"dsp": {"mul": 3}},
    {"lut": {"add": 32}},
    {"latency": [1]},
    {"memory_ports": 0},
    {"memory_ports": True},
    {"memory_ports": 2.0},
    [],
])
def test_cost_table_rejects_unknown_keys_and_bad_costs(doc):
    with pytest.raises(ValueError):
        OpCostTable.from_dict(doc)


#: Calls into a looping callee, from a pipelined loop's body and from its
#: inner loop; the callee calls a leaf, and all three touch memory.
CALLS_SRC = """
global @g : i32[8]
global @h : i32[8]

func @leaf(%x: i32) -> i32 {
block entry:
  %p = getelementptr @h, %x
  %v = load i32 %p
  store i32 %x, %p
  ret i32 %v
}

func @mid(%x: i32) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %j = phi i32 [0, entry], [%j.next, body]
  %c = icmp slt i32 %j, 4
  condbr %c, body, out
block body loop(1, depth=1):
  %p = getelementptr @g, %j
  %v = load i32 %p
  %w = add i32 %v, %x
  store i32 %w, %p
  %l = call i32 @leaf(%j)
  %j.next = add i32 %j, 1
  br hd
block out:
  ret i32 %x
}

#pragma pipeline(ii=1) loop=1
top func @f(%a: i32[8]) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, latch]
  %c = icmp slt i32 %i, 8
  condbr %c, body, out
block body loop(1, depth=1):
  %pa = getelementptr %a, %i
  %va = load i32 %pa
  %r = call i32 @mid(%va)
  store i32 %r, %pa
  br ihd
block ihd loop(2, depth=2, header):
  %k = phi i32 [0, body], [%k.next, ibody]
  %ck = icmp slt i32 %k, 3
  condbr %ck, ibody, latch
block ibody loop(2, depth=2):
  %s = call i32 @leaf(%k)
  %pg = getelementptr @g, %k
  store i32 %s, %pg
  %k.next = add i32 %k, 1
  br ihd
block latch loop(1, depth=1):
  %i.next = add i32 %i, 1
  br hd
block out:
  %p0 = getelementptr %a, 0
  %r0 = load i32 %p0
  ret i32 %r0
}
"""


def test_call_is_charged_its_callees_nested_accesses():
    """Loop 1 of ``f`` reaches ``@h`` only through calls.  Loop 2 (trip 3)
    calls ``@leaf``, which loads and stores ``@h`` once each: 6 accesses.
    The call to ``@mid`` adds 8 more, since ``@mid``'s loop (trip 4) calls
    ``@leaf`` too.  With one port the 14 bind (``@g`` has 11); with two,
    14 / 2."""
    m = parse_module(CALLS_SRC)
    for costs, res_mii in ((OpCostTable(memory_ports=1), 14),
                           (OpCostTable(), 7)):
        loop = estimate(m, costs).loops[1]
        assert (loop.loop_id, loop.res_mii, loop.rec_mii) == (1, res_mii, 61)


#: sha256 of every ``estimate`` report (or its ``EstimateError``) and of
#: every function's loops' ``(res_mii, rec_mii)`` in ``natural_loops`` order,
#: callees' loops included (a function whose model raises records the error
#: once per loop), over ``corpus_gen(6, 0)`` and ``CALLS_SRC``, raw and
#: pragma-expanded, each after six seeded random general-pass sequences
#: (lengths 0-5), under the default and a one-port cost table; one digest
#: for the corpus and one for ``CALLS_SRC``, which draw from one seeded
#: stream.  A refactoring must price the same.
PINNED_ESTIMATES = {
    "corpus": "d75343ed339f96af459082aef1f0a575a40841d1b8153a5ecefdf04c0ca75e3b",
    "calls": "849289947d47e9bacfacb63d66180030e2891d398489490224b7c279dd7b284d",
}


def test_estimates_are_pinned():
    passes = general_passes()
    rng = np.random.default_rng(0)
    hashes = {group: hashlib.sha256() for group in PINNED_ESTIMATES}

    def record(h, f):
        try:
            h.update(repr(f()).encode())
        except EstimateError as e:
            h.update(f"EstimateError {e}".encode())

    for name, text in corpus_gen(6, 0) + [("calls", CALLS_SRC)]:
        h = hashes["calls" if name == "calls" else "corpus"]
        raw = parse_module(text)
        for base in (raw, apply_pragma_passes(raw)):
            for length in range(6):
                seq = [passes[i] for i in rng.integers(len(passes), size=length)]
                m, _ = apply_sequence(base, seq)
                for costs in (OpCostTable(), OpCostTable(memory_ports=1)):
                    record(h, lambda: estimate(m, costs).to_dict())
                    for fn in m.functions:
                        loops = natural_loops(fn).loops
                        try:
                            mii = {r.loop_id: (r.res_mii, r.rec_mii) for r in
                                   _ModuleModel(m, costs).fn_model(fn.name)
                                   .loop_reports}
                        except EstimateError as e:
                            h.update(f"EstimateError {e}".encode() * len(loops))
                            continue
                        for loop in loops:
                            h.update(repr(mii[loop.loop_id]).encode())
    assert {group: h.hexdigest() for group, h in hashes.items()} \
        == PINNED_ESTIMATES
