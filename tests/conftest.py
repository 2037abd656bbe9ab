import numpy as np
import pytest

from passforge.corpus import case1_text, case2_text, corpus_gen
from passforge.ir import parse_module


@pytest.fixture(scope="session")
def case1():
    return parse_module(case1_text())


@pytest.fixture(scope="session")
def case2():
    return parse_module(case2_text())


@pytest.fixture(scope="session")
def small_corpus():
    """Twelve quick designs (cases excluded) for unit-level sweeps."""
    return [(name, parse_module(text))
            for name, text in corpus_gen(14, seed=7)[2:]]


DOT_SRC = """
top func @dot(%a: i32[8], %b: i32[8]) -> i32 {
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %acc = phi i32 [0, entry], [%acc.next, body]
  %cc = icmp slt i32 %i, 8
  condbr %cc, body, done
block body loop(1, depth=1):
  %pa = getelementptr %a, %i
  %va = load i32 %pa
  %pb = getelementptr %b, %i
  %vb = load i32 %pb
  %m = mul i32 %va, %vb
  %acc.next = add i32 %acc, %m
  %i.next = add i32 %i, 1
  br hd
block done:
  ret i32 %acc
}
"""


@pytest.fixture
def dot_module():
    return parse_module(DOT_SRC)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
