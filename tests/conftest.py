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


def _chain_link(d: int, depth: int, branchy: bool) -> str:
    """``@g<d>`` of an inline chain ``depth`` deep: a call to ``@g<d+1>``
    and a second one on its result, or, ``branchy``, one call on each arm
    of a branch, a return on one arm and a phi of both results; the last
    link is a leaf, with two returns when ``branchy``."""
    head = f"#pragma inline\nfunc @g{d}(%x: i32) -> i32 {{\nblock entry:\n"
    nxt = f"@g{d + 1}"
    if d == depth and not branchy:
        return head + "  %a = add i32 %x, 1\n  ret i32 %a\n}\n"
    if d == depth:
        return head + ("  %a = add i32 %x, 1\n  %t = icmp sgt i32 %a, 5\n"
                       "  condbr %t, big, small\nblock big:\n  ret i32 %a\n"
                       "block small:\n  ret i32 %x\n}\n")
    if not branchy:
        return head + (f"  %a = call i32 {nxt}(%x)\n"
                       f"  %b = call i32 {nxt}(%a)\n  ret i32 %b\n}}\n")
    return head + (f"  %c = icmp slt i32 %x, 0\n  condbr %c, neg, pos\n"
                   f"block neg:\n  %a = call i32 {nxt}(%x)\n  br join\n"
                   f"block pos:\n  %y = sub i32 0, %x\n"
                   f"  %b = call i32 {nxt}(%y)\n"
                   f"  %t = icmp eq i32 %b, 0\n  condbr %t, early, join\n"
                   f"block early:\n  ret i32 %b\n"
                   f"block join:\n  %p = phi i32 [%a, neg], [%b, pos]\n"
                   f"  %q = add i32 %p, %x\n  ret i32 %q\n}}\n")


@pytest.fixture(scope="session")
def inline_chain():
    """``inline_chain(depth, branchy=False, callers_first=True)``: the text
    of ``@g1`` .. ``@g<depth>``, each inlined and calling the next twice,
    so full inlining doubles the code at each level, and a top ``@f`` that
    calls ``@g1``; the functions are in that order, or else reversed."""
    def build(depth: int, branchy: bool = False,
              callers_first: bool = True) -> str:
        fns = [_chain_link(d, depth, branchy) for d in range(1, depth + 1)]
        fns.append("top func @f(%x: i32) -> i32 {\nblock entry:\n"
                   "  %r = call i32 @g1(%x)\n  ret i32 %r\n}\n")
        return "\n".join(fns if callers_first else fns[::-1])
    return build
