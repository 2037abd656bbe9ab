"""Differential semantics: a general-pass sequence, applied to a corpus design
as written or after pragma expansion, leaves what the reference interpreter
observes unchanged: the return value and memory digest, or the trap class, or
fuel exhaustion (Csmith-style differential testing)."""
import numpy as np
from hypothesis import given, settings, strategies as st

from passforge.corpus import corpus_gen, random_inputs
from passforge.ir import FuelExhausted, TrapError, interpret, parse_module
from passforge.passes import apply_pragma_passes, apply_sequence, general_passes

#: case1 is left out: one interpreter run of it takes about half a second.
DESIGNS = [parse_module(text) for name, text in corpus_gen(24, 3)
           if name != "case1"]
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
                         max_size=8),
       input_seed=st.integers(0, 2**16))
def test_pass_sequences_preserve_interpreter_semantics(design, expand,
                                                       sequence, input_seed):
    inputs = random_inputs(design, np.random.default_rng(input_seed))
    start = apply_pragma_passes(design) if expand else design
    out, _ = apply_sequence(start, sequence)
    assert _outcome(out, inputs) == _outcome(design, inputs), \
        [p.value for p in sequence]
