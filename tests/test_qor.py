"""Analytical estimator: schedules, II computation, trip counts, oracle."""
import hashlib

import numpy as np
import pytest

from passforge import qor
from passforge.agent import env as env_module, search_greedy
from passforge.corpus import corpus_gen, random_inputs
from passforge.ir import (
    Const, Opcode, PragmaKind, ValueRef, natural_loops, parse_module,
    pointer_target, verify_module,
)
from passforge.passes import (
    PassId, apply_pass, apply_pragma_passes, apply_sequence, general_passes,
    loop_trip_count,
)
from passforge.qor import (
    EstimateError, LoopReport, OpCostTable, QoRReport, _ModuleModel,
    dynamic_cycle_oracle, estimate,
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
    assert loop_trip_count(natural_loops(m.top).by_id(1),
                           m.top.defined_values(), m.top.block_map()) is None
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
                         [ValueRef("m"), Const(7)], I32))
    body.instructions.insert(
        6, IrInstruction("extra2", Opcode.MUL,
                         [ValueRef("extra"), Const(9)], I32))
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
                                   .reports()}
                        except EstimateError as e:
                            h.update(f"EstimateError {e}".encode() * len(loops))
                            continue
                        for loop in loops:
                            h.update(repr(mii[loop.loop_id]).encode())
    assert {group: h.hexdigest() for group, h in hashes.items()} \
        == PINNED_ESTIMATES


# -- reference: the pairwise alias scans that the model's class tables replace

def _ref_key(defs, op):
    """(array, constant-index-or-None) of a pointer; the array is '?' when
    unknown, and a None index may alias anything in the array."""
    target = pointer_target(defs, op)
    if target is None:
        return "?", None
    arr, idx = target
    return arr, (str(idx.value) if isinstance(idx, Const) else None)


def _ref_mem_op(defs, ins):
    """('r' or 'w', access key) of a load or store; None for any other op."""
    if ins.opcode is Opcode.LOAD:
        return "r", _ref_key(defs, ins.operands[0])
    if ins.opcode is Opcode.STORE:
        return "w", _ref_key(defs, ins.operands[1])
    return None


def _ref_alias(a, b):
    """Accesses may alias unless the analysis is conclusive: different
    arrays, or the same array at two distinct constant indices."""
    if a[0] != b[0] and a[0] != "?" and b[0] != "?":
        return False
    if a[0] == b[0] and a[1] is not None and b[1] is not None:
        return a[1] == b[1]
    return True


def _ref_touched(fm, defs, ins):
    """An instruction's accesses for the recurrence bound: its load or
    store, or a read and a write of each array a called function touches
    (the callee summaries are the model's own)."""
    if ins.opcode is Opcode.CALL:
        return [(k, (arr, None)) for arr in fm.callees[ins.callee].mem_summary
                for k in "rw"]
    access = _ref_mem_op(defs, ins)
    return [] if access is None else [access]


def _ref_latency(fm, costs, ins):
    if ins.opcode is Opcode.CALL:
        return fm.callees[ins.callee].latency
    return costs.lat(ins.opcode)


def _ref_block_latency(fm, costs, defs, b):
    """ASAP block schedule; each access scans every earlier access, and a
    call is a write that aliases everything."""
    finish, by_result, events, latest = {}, {}, [], 0
    for idx, ins in enumerate(b.all_instructions()):
        start = 0
        for vid in ins.value_uses():
            if vid in by_result:
                start = max(start, finish[by_result[vid]])
        access = _ref_mem_op(defs, ins)
        if ins.opcode is Opcode.CALL:
            access = ("w", ("?", None))
        if access is not None:
            kind, key = access
            for ekind, ekey, j in events:
                if (ekind == "w" or kind == "w") and _ref_alias(ekey, key):
                    start = max(start, finish[j])
            events.append((kind, key, idx))
        finish[idx] = start + _ref_latency(fm, costs, ins)
        latest = max(latest, finish[idx])
        if ins.result is not None:
            by_result[ins.result] = idx
    return latest


def _ref_res_counts(fm, defs, loop):
    """Accesses per array in one iteration, child loops weighted by trips."""
    counts = {}
    for lab in fm._own_blocks(loop):
        for ins in fm.bmap[lab].all_instructions():
            access = _ref_mem_op(defs, ins)
            if access is not None:
                counts[access[1][0]] = counts.get(access[1][0], 0) + 1
            elif ins.opcode is Opcode.CALL:
                for arr, n in fm.callees[ins.callee].mem_summary.items():
                    counts[arr] = counts.get(arr, 0) + n
    for c in loop.children:
        for arr, n in _ref_res_counts(fm, defs, c).items():
            counts[arr] = counts.get(arr, 0) + n * fm.eff_trip[c.loop_id]
    return counts


def _ref_rec_mii(fm, costs, defs, loop):
    """Recurrence bound, with the memory edges found over every pair of
    nodes and a longest-path sweep over all nodes per carried edge."""
    own = fm._own_blocks(loop)
    nodes, macro_ids, lat, touched = [], set(), [], []
    for lab in fm.forest.rpo:
        if lab not in loop.blocks:
            continue
        if lab not in own:
            top = fm.forest.innermost[lab]
            while (up := fm.forest.parent(top)) is not None and up is not loop:
                top = up
            if top.loop_id not in macro_ids:
                macro_ids.add(top.loop_id)
                nodes.append(None)
                lat.append(fm.loop_total[top.loop_id])
                touched.append([(k, (key[0], None)) for blk in top.blocks
                                for ins in fm.bmap[blk].all_instructions()
                                for k, key in _ref_touched(fm, defs, ins)])
            continue
        for ins in fm.bmap[lab].all_instructions():
            nodes.append(ins)
            lat.append(_ref_latency(fm, costs, ins))
            touched.append(_ref_touched(fm, defs, ins))
    n = len(nodes)
    intra = [set() for _ in range(n)]
    carried = []
    result_node = {ins.result: i for i, ins in enumerate(nodes)
                   if ins is not None and ins.result is not None}
    header_phis = {phi.result for phi in fm.bmap[loop.header].phis()}
    for i, ins in enumerate(nodes):
        if ins is None:
            continue
        if ins.opcode is Opcode.PHI:
            for v, lab in ins.phi_incoming():
                if isinstance(v, ValueRef) and v.id in result_node:
                    if ins.result not in header_phis:
                        intra[result_node[v.id]].add(i)
                    elif lab in loop.blocks:
                        carried.append((result_node[v.id], i))
            continue
        for vid in ins.value_uses():
            if vid in result_node:
                intra[result_node[vid]].add(i)
    for a_i in range(n):
        for b_i in range(n):
            if a_i != b_i and any(
                    ka == "w" and _ref_alias(key_a, key_b)
                    for ka, key_a in touched[a_i]
                    for _kb, key_b in touched[b_i]):
                if a_i < b_i:
                    intra[a_i].add(b_i)
                carried.append((a_i, b_i))
    best = 1
    for u, v in carried:
        dist = [None] * n
        dist[v] = lat[v]
        for i in range(n):
            if dist[i] is not None:
                for j in intra[i]:
                    if dist[j] is None or dist[i] + lat[j] > dist[j]:
                        dist[j] = dist[i] + lat[j]
        best = max(best, dist[u] if dist[u] is not None
                   else lat[v] + lat[u] if u != v else lat[v])
    return best


def _assert_prices_match_reference(m, costs):
    """Every block latency and every loop's ``(res_mii, rec_mii)``, in each
    function the estimate models, equal the reference's.  A module whose
    pipelined loop has no static trip is compared without its pipeline
    pragmas, which neither price reads."""
    try:
        estimate(m, costs)
    except EstimateError:
        m = m.clone()
        for fn in m.functions:
            fn.pragmas = [p for p in fn.pragmas
                          if p.kind is not PragmaKind.PIPELINE]
    mm = _ModuleModel(m, costs)
    mm.fn_model(m.top.name)
    for name, fm in mm._fns.items():
        defs = fm.fn.defined_values()
        for b in fm.fn.blocks:
            assert fm.block_lat[b.label] \
                == _ref_block_latency(fm, costs, defs, b), (name, b.label)
        loops = {l.loop_id: l for l in fm.forest.loops}
        for r in fm.reports():
            loop = loops[r.loop_id]
            res_mii = max([1, *(-(-n // mm.ports_for(arr)) for arr, n
                                in _ref_res_counts(fm, defs, loop).items())])
            assert (r.res_mii, r.rec_mii) \
                == (res_mii, _ref_rec_mii(fm, costs, defs, loop)), (name, loop)


#: One loop whose body holds a store and a later access, or two accesses,
#: of one alias class; ``%q`` is a pointer of unknown provenance.
ALIAS_LOOP = """
func @g(%x: i32) -> i32 {
block entry:
  %y = add i32 %x, 1
  ret i32 %y
}

top func @f(%a: i32[8], %b: i32[8]) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %t = icmp slt i32 %i, 8
  condbr %t, body, out
block body loop(1, depth=1):
  %pa = getelementptr %a, %i
  %pb = getelementptr %b, %i
  %pa0 = getelementptr %a, 0
  %pa1 = getelementptr %a, 1
BODY
  %i.next = add i32 %i, 1
  br hd
block out:
  ret i32 0
}
"""


@pytest.mark.parametrize("body, cycles", [
    # The store waits 1 for the select; the load of a known array then
    # waits for the store: 1 + 1 + 2.
    (["%q = select %t, i32 %pa, %pb", "store i32 %i, %q",
      "%v = load i32 %pa1"], 4),
    (["store i32 %i, %pa0", "%v = load i32 %pa1"], 2),
    (["store i32 %i, %pa0", "%v = load i32 %pa0"], 3),
    (["store i32 %i, %pa", "%v = load i32 %pa0"], 3),
    (["%v = load i32 %pa", "store i32 %i, %pa0"], 3),
    (["store i32 %i, %pa", "%v = load i32 %pb"], 2),
    (["%v = load i32 %pa0", "%w = load i32 %pa0"], 2),
    # The call (1 cycle) waits for the store, and the load of another
    # array for the call.
    (["store i32 %i, %pa", "%r = call i32 @g(%i)", "%v = load i32 %pb"], 4),
], ids=["unknown-provenance", "distinct-constant-indices",
        "same-constant-index", "unknown-index", "write-after-read",
        "distinct-arrays", "read-after-read", "call"])
def test_each_alias_class_prices_as_the_pairwise_scan(body, cycles):
    """No type holds a select of pointers, so the verifier refuses the
    pointer of unknown provenance, by type; the model still prices it as
    one that may alias every access."""
    m = parse_module(ALIAS_LOOP.replace(
        "BODY", "\n".join("  " + line for line in body)), verify=False)
    assert [v.code for v in verify_module(m)] == \
        (["type"] * 3 if body[0].startswith("%q = select") else [])
    for costs in (OpCostTable(), OpCostTable(memory_ports=1)):
        _assert_prices_match_reference(m, costs)
    fm = _ModuleModel(m, OpCostTable()).fn_model("f")
    assert fm.block_lat["body"] == cycles


#: Three nested loops.  The outermost writes ``%a``; only the innermost
#: reads it, and calls ``@load_h``, which reads ``@h``.  So the middle loop,
#: a node of the outermost's recurrence bound, touches both arrays only
#: through its own child.
NEST_SRC = """
global @h : i32[8]

func @load_h(%x: i32) -> i32 {
block entry:
  %p = getelementptr @h, %x
  %v = load i32 %p
  ret i32 %v
}

top func @f(%a: i32[8]) -> i32 {
block entry:
  br h1
block h1 loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, l1]
  %c1 = icmp slt i32 %i, 4
  condbr %c1, b1, out
block b1 loop(1, depth=1):
  %pa = getelementptr %a, %i
  store i32 %i, %pa
  br h2
block h2 loop(2, depth=2, header):
  %j = phi i32 [0, b1], [%j.next, l2]
  %c2 = icmp slt i32 %j, 4
  condbr %c2, h3, l1
block h3 loop(3, depth=3, header):
  %k = phi i32 [0, h2], [%k.next, b3]
  %c3 = icmp slt i32 %k, 4
  condbr %c3, b3, l2
block b3 loop(3, depth=3):
  %pk = getelementptr %a, %k
  %v = load i32 %pk
  %r = call i32 @load_h(%k)
  %k.next = add i32 %k, 1
  br h3
block l2 loop(2, depth=2):
  %j.next = add i32 %j, 1
  br h2
block l1 loop(1, depth=1):
  %i.next = add i32 %i, 1
  br h1
block out:
  ret i32 0
}
"""


def test_a_child_loop_node_touches_what_its_descendants_touch():
    """Each loop's tally folds in its children's, so the middle loop's node
    in the outermost loop's recurrence bound orders against the store."""
    m = parse_module(NEST_SRC)
    for costs in (OpCostTable(), OpCostTable(memory_ports=1)):
        _assert_prices_match_reference(m, costs)
    fm = _ModuleModel(m, OpCostTable()).fn_model("f")
    # One store per outer trip and one access per inner trip: 4 * (1 + 4 * 4)
    # and 4 * 4 * 4.
    assert fm.mem_summary == {"%a": 68, "@h": 64}


#: A one-block loop without phis.  Its one carried head is the load, whose
#: one tail, the store, comes before it; nothing runs from the load back to
#: the store.
STORE_THEN_LOAD_LOOP = """
top func @f(%a: i32[8]) -> i32 {
block entry:
  %p = getelementptr %a, 0
  br hd
block hd loop(1, depth=1, header):
  store i32 7, %p
  %v = load i32 %p
  %c = icmp slt i32 %v, 5
  condbr %c, hd, out
block out:
  ret i32 %v
}
"""


def test_a_head_whose_tails_all_come_before_it_takes_the_fallback():
    """No intra path closes the store -> load edge, so its cycle is the two
    nodes alone: the store's 1 cycle and the load's 2."""
    m = parse_module(STORE_THEN_LOAD_LOOP)
    for costs in (OpCostTable(), OpCostTable(memory_ports=1)):
        _assert_prices_match_reference(m, costs)
    assert estimate(m).loops[0].rec_mii == 1 + 2


#: A loop body entered at two blocks, X and Y, that branch to each other:
#: an irreducible CFG, which the verifier accepts and no pass makes.  In
#: node order X comes first, so its phi's arm from Y's ``%q`` is an intra
#: edge to an earlier node, and the carried ``%s`` comes back through it.
#: The unused ``%n`` gives the latch a latency of 1.
IRREDUCIBLE_LOOP = """
top func @f(%a: i32) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %s = phi i32 [0, entry], [%p, latch]
  %c = icmp slt i32 %s, 8
  condbr %c, split, out
block split loop(1, depth=1):
  %e = icmp eq i32 %s, %a
  condbr %e, X, Y
block X loop(1, depth=1):
  %p = phi i32 [%s, split], [%q, Y]
  %d = icmp slt i32 %p, 3
  condbr %d, Y, latch
block Y loop(1, depth=1):
  %r = phi i32 [%s, split], [%p, X]
  %q = mul i32 %r, 3
  br X
block latch loop(1, depth=1):
  %n = add i32 %p, 1
  br hd
block out:
  ret i32 %s
}
"""


def test_an_irreducible_loop_body_prices_as_the_pairwise_scan():
    """The pass from ``%s`` reaches ``%p``, then ``%r`` and ``%q``, past
    ``%p`` in node order, and ``%p`` again: 1 + 1 + 1 + 3 + 1 cycles.  The
    loop's depth reads the blocks' order in the CFG, not their names: 9
    cycles, ``hd``, ``split``, ``X`` and then ``Y``.  Taking successors by
    name, the region path once gave 10 with ``X`` renamed ``zx``, where
    ``Y``, ``zx`` and the latch follow ``split`` in turn."""
    reports = []
    for x in ("x", "zx"):
        m = parse_module(IRREDUCIBLE_LOOP.replace("X", x).replace("Y", "y"))
        assert verify_module(m) == []
        _assert_prices_match_reference(m, OpCostTable())
        reports.append(estimate(m))
    assert reports[0].loops[0].rec_mii == 1 + 1 + 1 + 3 + 1
    assert reports[0].loops[0].depth_cycles == 2 + 1 + 2 + 4
    assert reports[0] == reports[1]


def test_prices_match_the_pairwise_scan_on_what_greedy_prices(monkeypatch):
    """Every module greedy prices over ``corpus_gen(12, 0)``, and
    ``CALLS_SRC``, whose calls the expanded corpus no longer holds."""
    priced = {}
    price = env_module.estimate

    def record(m, costs=None):
        priced.setdefault(m.digest(), m.clone())
        return price(m, costs)

    monkeypatch.setattr(env_module, "estimate", record)
    for _name, text in corpus_gen(12, 0):
        search_greedy(parse_module(text))
    assert len(priced) == 319
    for m in [*priced.values(), parse_module(CALLS_SRC)]:
        _assert_prices_match_reference(m, OpCostTable())
    _assert_prices_match_reference(parse_module(CALLS_SRC),
                                   OpCostTable(memory_ports=1))


def test_one_estimate_resolves_each_access_and_latency_once(monkeypatch):
    """One walk works out each instruction's access key and latency, and
    the block schedule, the recurrence bound and the access counts all read
    it.  ``two_func_08`` calls its helper from a loop, so both functions are
    modelled: 3 loads and stores among 17 instructions."""
    m = parse_module(dict(corpus_gen(12, 0))["two_func_08"])
    calls = {"pointer_target": 0, "latency": 0}
    target, latency = qor.pointer_target, qor._FunctionModel._op_latency

    def counted_target(defs, op):
        calls["pointer_target"] += 1
        return target(defs, op)

    def counted_latency(self, ins):
        calls["latency"] += 1
        return latency(self, ins)

    monkeypatch.setattr(qor, "pointer_target", counted_target)
    monkeypatch.setattr(qor._FunctionModel, "_op_latency", counted_latency)
    estimate(m)
    insts = [ins for fn in m.functions for b in fn.blocks
             for ins in b.all_instructions()]
    accesses = sum(ins.opcode in (Opcode.LOAD, Opcode.STORE) for ins in insts)
    assert calls == {"pointer_target": accesses, "latency": len(insts)} \
        == {"pointer_target": 3, "latency": 17}


def _count_rec_mii(monkeypatch) -> list[tuple[str, int, bool]]:
    """``(function, loop id, pipelined)`` of each recurrence bound worked
    out from here on."""
    calls = []
    rec_mii = qor._FunctionModel._rec_mii

    def counted(self, loop, tally):
        calls.append((self.fn.name, loop.loop_id, loop.loop_id in {
            p.target for p in self.fn.pragmas
            if p.kind is PragmaKind.PIPELINE}))
        return rec_mii(self, loop, tally)

    monkeypatch.setattr(qor._FunctionModel, "_rec_mii", counted)
    return calls


def test_pricing_bounds_the_recurrence_of_pipelined_loops_only(monkeypatch):
    """A sequential loop's cycles do not read its recurrence bound, so
    greedy over ``corpus_gen(12, 0)`` works out only those of pipelined
    loops with a static trip: 68 of the 463 that pricing every loop would
    (4 more are pipelined loops whose unknown trip the model refuses)."""
    calls = _count_rec_mii(monkeypatch)
    for _name, text in corpus_gen(12, 0):
        search_greedy(parse_module(text))
    assert len(calls) == 68
    assert all(pipelined for _fn, _lid, pipelined in calls)


#: ``two_func_08``'s one loop, a sequential one that calls its helper
#: (left uninlined), and ``CALLS_SRC``'s pipelined loop 1 around its
#: sequential loop 2, under two ports and one, as the model reported them
#: when it worked out every recurrence bound while pricing.
LAZY_CASES = [
    (dict(corpus_gen(12, 0))["two_func_08"], OpCostTable(), 92,
     [LoopReport(1, 9, 9, None, 1, 2, 90)]),
    (CALLS_SRC, OpCostTable(), 496,
     [LoopReport(2, 3, 6, None, 1, 2, 21),
      LoopReport(1, 8, 67, 61, 7, 61, 494)]),
    (CALLS_SRC, OpCostTable(memory_ports=1), 496,
     [LoopReport(2, 3, 6, None, 2, 2, 21),
      LoopReport(1, 8, 67, 61, 14, 61, 494)]),
]


@pytest.mark.parametrize("text, costs, cycles, loops", LAZY_CASES,
                         ids=["call-in-a-sequential-loop", "calls-two-ports",
                              "calls-one-port"])
def test_a_sequential_loops_bound_is_worked_out_when_its_report_is_read(
        monkeypatch, text, costs, cycles, loops):
    """Pricing leaves each sequential loop's ``rec_mii`` pending; the first
    read of ``loops``, after other modules are priced, works it out as the
    pairwise reference does, and no later read works anything out again."""
    calls = _count_rec_mii(monkeypatch)
    m = parse_module(text)
    rep = estimate(m, costs)
    assert calls == [(m.top.name, r.loop_id, True) for r in loops
                     if r.achieved_ii is not None]
    for _name, other in corpus_gen(4, 1):
        estimate(parse_module(other))
    del calls[:]
    assert rep.cycles == cycles and rep.loops == loops
    assert calls == [(m.top.name, r.loop_id, False) for r in loops
                     if r.achieved_ii is None]
    fm, defs = rep._model, m.top.defined_values()
    forest = {l.loop_id: l for l in fm.forest.loops}
    assert [r.rec_mii for r in loops] == [
        _ref_rec_mii(fm, costs, defs, forest[r.loop_id]) for r in loops]
    del calls[:]
    assert rep.to_dict() == {"cycles": cycles,
                             "loops": [vars(r) for r in loops]}
    assert rep.loops is rep.loops and calls == []


def test_reports_are_equal_when_their_cycles_and_loops_are():
    """The loop renumbered 2 prices the same cycles; a report built on the
    same model with other cycles differs too."""
    rep = estimate(parse_module(STORE_THEN_LOAD_LOOP))
    renumbered = estimate(parse_module(
        STORE_THEN_LOAD_LOOP.replace("loop(1,", "loop(2,")))
    assert rep == estimate(parse_module(STORE_THEN_LOAD_LOOP))
    assert rep.cycles == renumbered.cycles == 320
    assert rep != renumbered
    assert QoRReport(321, rep._model) != rep == QoRReport(320, rep._model)
    assert rep != rep.to_dict()
