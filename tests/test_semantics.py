"""Differential semantics: a general-pass sequence, applied to a corpus design
as written or after pragma expansion, leaves what the reference interpreter
observes unchanged: the return value and memory digest, or the trap class, or
fuel exhaustion (Csmith-style differential testing)."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from passforge.agent import PassEnv, search_greedy
from passforge.corpus import corpus_gen, random_inputs
from passforge.ir import (
    FuelExhausted, TrapError, interpret, parse_module, print_module,
    verify_module,
)
from passforge.passes import (
    PassId, Transitions, apply_pragma_passes, apply_sequence, general_passes,
)

#: case1 is left out: one interpreter run of it takes about half a second.
NAMED = [(name, parse_module(text)) for name, text in corpus_gen(24, 3)
         if name != "case1"]
DESIGNS = [m for _name, m in NAMED]
FUEL = 10**6


def _outcome(module, inputs) -> tuple:
    try:
        r = interpret(module, inputs, fuel=FUEL)
    except TrapError as e:
        return ("trap", e.kind)
    except FuelExhausted:
        return ("fuel",)
    return ("ok", r.return_value, r.memory_digest)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(design=st.sampled_from(DESIGNS), expand=st.booleans(),
       sequence=st.lists(st.sampled_from(general_passes()), min_size=1,
                         max_size=PassEnv.max_steps),
       input_seed=st.integers(0, 2**16))
def test_pass_sequences_preserve_interpreter_semantics(design, expand,
                                                       sequence, input_seed):
    inputs = random_inputs(design, np.random.default_rng(input_seed))
    start = apply_pragma_passes(design) if expand else design
    out, _ = apply_sequence(start, sequence)
    assert _outcome(out, inputs) == _outcome(design, inputs), \
        [p.value for p in sequence]


#: The shapes search finds (ROADMAP, Baseline): one to four rounds of
#: unrolling, each merged by simplifycfg, then an ordered pair of the passes
#: that restructure what the unrolling left.  Uniform random sequences almost
#: never build them.
MOTIFS = [[PassId.LOOP_UNROLL_PARTIAL, PassId.SIMPLIFYCFG] * k + [a, b]
          for k in range(1, 5)
          for a, b in itertools.permutations(
              [PassId.LOOP_ROTATE, PassId.JUMP_THREADING, PassId.SCCP,
               PassId.SIMPLIFYCFG], 2)]


@pytest.mark.parametrize("expand", [False, True], ids=["raw", "expanded"])
@pytest.mark.parametrize("design", DESIGNS, ids=[n for n, _m in NAMED])
def test_search_shaped_motifs_preserve_interpreter_semantics(design, expand):
    inputs = random_inputs(design, np.random.default_rng(0))
    expected = _outcome(design, inputs)
    start = apply_pragma_passes(design) if expand else design
    memo = Transitions()
    checked: set[str] = set()
    for seq in MOTIFS:
        out, steps = apply_sequence(start, seq, memo)
        if steps[-1].digest not in checked:
            checked.add(steps[-1].digest)
            assert _outcome(out, inputs) == expected, [p.value for p in seq]


#: The benchmark's corpus, without case1, and the non-empty sequences greedy
#: search returns over it.
BENCH = [parse_module(text) for name, text in corpus_gen(12, 0)
         if name != "case1"]
GREEDY = [r.sequence for r in map(search_greedy, BENCH) if r.sequence]


@st.composite
def greedy_splices(draw) -> list[PassId]:
    """One to three prefixes of greedy's sequences, each repeated up to
    three times, concatenated and cut at ``PassEnv.max_steps``."""
    seq: list[PassId] = []
    for _ in range(draw(st.integers(1, 3))):
        found = draw(st.sampled_from(GREEDY))
        seq += found[:draw(st.integers(1, len(found)))] * draw(st.integers(1, 3))
    return seq[:PassEnv.max_steps]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(design=st.sampled_from(BENCH), expand=st.booleans(),
       sequence=greedy_splices(), input_seed=st.integers(0, 2**16))
def test_greedy_spliced_sequences_preserve_interpreter_semantics(
        design, expand, sequence, input_seed):
    """Every step of a sequence spliced from what greedy search returns
    verifies and leaves the interpreter's outcome unchanged; a step that
    changed nothing hands back the module already checked."""
    inputs = random_inputs(design, np.random.default_rng(input_seed))
    expected = _outcome(design, inputs)
    start = apply_pragma_passes(design) if expand else design
    _, steps = apply_sequence(start, sequence)
    for i, r in enumerate(steps):
        assert verify_module(r.module) == []
        if r.changed:
            assert _outcome(r.module, inputs) == expected, \
                [p.value for p in sequence[:i + 1]]


#: Hand-written blocks whose outcome depends on one alias rule of a memory
#: pass: two pointers into ``%a`` whose indices differ by name but are equal
#: when ``%i == %j``.  No corpus design makes an outcome depend on these.
ALIAS_CASES = {
    # dse: the load of %q reads the first store, so a load of the same array
    # between two stores to %p keeps the first one.
    PassId.DSE: """
top func @f(%a: i32[4], %i: i32, %j: i32) -> i32 {
block entry:
  %p = getelementptr %a, %i
  %q = getelementptr %a, %j
  store i32 5, %p
  %v = load i32 %q
  store i32 6, %p
  ret i32 %v
}
""",
    # mem2reg: the store to %q may overwrite a[%i], so it ends forwarding of
    # the value stored to %p.
    PassId.MEM2REG: """
top func @f(%a: i32[4], %i: i32, %j: i32) -> i32 {
block entry:
  %p = getelementptr %a, %i
  %q = getelementptr %a, %j
  store i32 5, %p
  store i32 6, %q
  %v = load i32 %p
  ret i32 %v
}
""",
    # early_cse: the store to %q may change a[%i], so the second load of %p
    # is not the first one.
    PassId.EARLY_CSE: """
top func @f(%a: i32[4], %i: i32, %j: i32) -> i32 {
block entry:
  %p = getelementptr %a, %i
  %q = getelementptr %a, %j
  %v = load i32 %p
  store i32 6, %q
  %w = load i32 %p
  %s = sub i32 %w, %v
  ret i32 %s
}
""",
}


@pytest.mark.parametrize("pass_id", list(ALIAS_CASES), ids=lambda p: p.value)
@pytest.mark.parametrize("i, j", [(1, 1), (1, 2)])
def test_memory_pass_alias_rules(pass_id, i, j):
    design = parse_module(ALIAS_CASES[pass_id])
    inputs = [[0, 1, 2, 3], i, j]
    out, _ = apply_sequence(design, [pass_id])
    assert _outcome(out, inputs) == _outcome(design, inputs)


#: One hand-written module per pass rule that no corpus design reaches, with
#: the pass that applies it and text the rule leaves in that pass's output.
RULE_CASES = {
    # instcombine: constants move right of an add and of an icmp, swapping
    # its predicate; an eq compare of a two-constant select folds to the
    # select's flag or to its negation, and a branch on the negation swaps
    # its targets.
    "instcombine": (PassId.INSTCOMBINE, """
top func @f(%a: i32, %k: i32) -> i32 {
block entry:
  %x = add i32 3, %a
  %c = icmp slt i32 5, %x
  %b = icmp slt i32 %a, %k
  %s = select %b, i32 3, 7
  %e = icmp eq i32 %s, 3
  %n = icmp eq i32 %s, 7
  %z = zext i1 %e to i32
  %y = add i32 %z, %x
  condbr %n, yes, no
block yes:
  %r = select %c, i32 %y, 1
  ret i32 %r
block no:
  ret i32 %k
}
""", ["%c = icmp sgt i32 %x, 5", "%z = zext i1 %b to i32",
      "condbr %b, no, yes"]),
    # reassociate: chains whose constants cancel collapse to one operand.
    "reassociate": (PassId.REASSOCIATE, """
top func @f(%a: i32, %b: i32) -> i32 {
block entry:
  %t1 = add i32 %a, 3
  %t2 = add i32 %t1, -1
  %t3 = add i32 %t2, -2
  %m1 = mul i32 %b, 1
  %m2 = mul i32 %m1, 1
  %m3 = mul i32 %m2, 1
  %r = sub i32 %t3, %m3
  ret i32 %r
}
""", ["%r = sub i32 %a, %b"]),
    # sccp: a select on an unknown flag between equal constants is that
    # constant, and one on a known flag is the arm it picks.
    "sccp": (PassId.SCCP, """
top func @f(%a: i32, %b: i1) -> i32 {
block entry:
  %s = select %b, i32 4, 4
  %k = icmp slt i32 1, 2
  %t = select %k, i32 %a, 9
  %u = select %k, i32 %s, %a
  %r = add i32 %t, %u
  ret i32 %r
}
""", ["%r = add i32 %t, 4"]),
    # indvars: an sgt exit test becomes slt against the next bound, with the
    # branch targets swapped.
    "indvars": (PassId.INDVARS, """
top func @f(%a: i32[8], %k: i32) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %s = phi i32 [%k, entry], [%s.next, body]
  %c = icmp sgt i32 %i, 6
  condbr %c, done, body
block body loop(1, depth=1):
  %p = getelementptr %a, %i
  %v = load i32 %p
  %s.next = add i32 %s, %v
  %i.next = add i32 %i, 1
  br hd
block done:
  ret i32 %s
}
""", ["%c = icmp slt i32 %i, 7", "condbr %c, body, done"]),
}
SINGLES_AND_PAIRS = [[p] for p in general_passes()] + [
    list(pair) for pair in itertools.product(general_passes(), repeat=2)]


@pytest.mark.parametrize("case", list(RULE_CASES))
def test_rule_cases_preserve_interpreter_semantics(case):
    """Each case's module under every pass and every ordered pair of passes
    leaves the interpreter's outcome on 30 seeded inputs unchanged."""
    pass_id, text, rewritten = RULE_CASES[case]
    design = parse_module(text)
    rng = np.random.default_rng(0)
    inputs = [random_inputs(design, rng) for _ in range(30)]
    expected = [_outcome(design, i) for i in inputs]
    out, _ = apply_sequence(design, [pass_id])
    assert all(line in print_module(out) for line in rewritten)
    memo = Transitions()
    checked: set[str] = set()
    for seq in SINGLES_AND_PAIRS:
        out, steps = apply_sequence(design, seq, memo)
        if steps[-1].digest not in checked:
            checked.add(steps[-1].digest)
            assert [_outcome(out, i) for i in inputs] == expected, \
                [p.value for p in seq]
