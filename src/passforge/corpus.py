"""Synthetic kernel corpus and the two case-study fixtures.

Every generated design verifies, interprets within a small fuel budget, and
never traps on inputs drawn from `random_inputs` (indices stay in bounds and
divisions use nonzero constants), so differential pass testing sees total,
deterministic behavior.
"""
from __future__ import annotations

import numpy as np

from .ir import IrModule

CASE1_INNER_TRIP = 1482
CASE1_UNROLL_FACTOR = 4
CASE1_OUTER_TRIP = 8

CASE2_OUTER_TRIP = 100
CASE2_INNER_TRIP = 16


def case1_text(inner_trip: int = CASE1_INNER_TRIP,
               outer_trip: int = CASE1_OUTER_TRIP,
               factor: int = CASE1_UNROLL_FACTOR) -> str:
    """Two-array multiply-accumulate whose inner trip count does not divide
    the requested unroll factor."""
    n = inner_trip
    return f"""\
; case1: elementwise multiply-accumulate, unroll request {factor} on trip {n}
#pragma unroll(factor={factor}) loop=2

top func @case1(%a: i32[{n}], %b: i32[{n}], %acc: i32[{n}]) -> i32 {{
block entry:
  br outer_hd
block outer_hd loop(1, depth=1, header):
  %j = phi i32 [0, entry], [%j.next, outer_latch]
  %cj = icmp slt i32 %j, {outer_trip}
  condbr %cj, inner_pre, done
block inner_pre loop(1, depth=1):
  br inner_hd
block inner_hd loop(2, depth=2, header):
  %i = phi i32 [0, inner_pre], [%i.next, inner_body]
  %ci = icmp slt i32 %i, {n}
  condbr %ci, inner_body, outer_latch
block inner_body loop(2, depth=2):
  %pa = getelementptr %a, %i
  %va = load i32 %pa
  %pb = getelementptr %b, %i
  %vb = load i32 %pb
  %m = mul i32 %va, %vb
  %pc = getelementptr %acc, %i
  %vc = load i32 %pc
  %s = add i32 %vc, %m
  store i32 %s, %pc
  %i.next = add i32 %i, 1
  br inner_hd
block outer_latch loop(1, depth=1):
  %j.next = add i32 %j, 1
  br outer_hd
block done:
  %pr = getelementptr %acc, 0
  %r = load i32 %pr
  ret i32 %r
}}
"""


def case2_text(outer_trip: int = CASE2_OUTER_TRIP,
               inner_trip: int = CASE2_INNER_TRIP) -> str:
    """Pipelined accumulation loop whose final iteration triggers a guarded
    inner loop with read-after-write and write-after-write dependences on the
    accumulator array."""
    n, k = outer_trip, inner_trip
    return f"""\
; case2: guarded inner loop runs only when the outer counter reaches its bound
#pragma pipeline(ii=1) loop=1

top func @case2(%a: i32[{n}], %w: i32[{n}], %out: i32[{k}], %acc: i32[{k}]) -> i32 {{
block entry:
  br h1
block h1 loop(1, depth=1, header):
  %j = phi i32 [0, entry], [%j.next, latch1]
  %c1 = icmp ne i32 %j, {n}
  condbr %c1, body1, done
block body1 loop(1, depth=1):
  %jj = add i32 %j, 0
  %pa = getelementptr %a, %jj
  %va = load i32 %pa
  %pw = getelementptr %w, %j
  %vw = load i32 %pw
  %m = mul i32 %va, %vw
  %m2 = mul i32 %vw, %va
  %p0 = getelementptr %acc, 0
  %old0 = load i32 %p0
  %new0 = add i32 %old0, %m
  store i32 %new0, %p0
  %p1 = getelementptr %acc, 1
  %old1 = load i32 %p1
  %new1 = add i32 %old1, %m2
  store i32 %new1, %p1
  %j.next = add i32 %j, 1
  %g = icmp eq i32 %j.next, {n}
  condbr %g, l3_pre, latch1
block l3_pre loop(1, depth=1):
  br h3
block h3 loop(3, depth=2, header):
  %k = phi i32 [0, l3_pre], [%k.next, b3]
  %c3 = icmp slt i32 %k, {k}
  condbr %c3, b3, l3_exit
block b3 loop(3, depth=2):
  %pk = getelementptr %acc, %k
  %vk = load i32 %pk
  %sh = ashr i32 %vk, 4
  store i32 %sh, %pk
  %po = getelementptr %out, %k
  store i32 %sh, %po
  %k.next = add i32 %k, 1
  br h3
block l3_exit loop(1, depth=1):
  br latch1
block latch1 loop(1, depth=1):
  br h1
block done:
  %pr = getelementptr %acc, 0
  %r = load i32 %pr
  ret i32 %r
}}
"""


# ---------------------------------------------------------------------------
# Synthetic kernel families
# ---------------------------------------------------------------------------

def _vec_combine(rng, name):
    n = int(rng.integers(6, 24))
    k1 = int(rng.integers(2, 9))
    add_dead = bool(rng.integers(0, 2))
    dead = """\
  %dead1 = mul i32 %va, %va
  %dead2 = mul i32 %dead1, %vb
""" if add_dead else ""
    pragma = "#pragma array_partition(factor=2) array=@scratch\n" \
        if rng.integers(0, 2) else ""
    return f"""\
global @scratch : i32[{n}]
{pragma}top func @{name}(%a: i32[{n}], %b: i32[{n}], %c: i32[{n}]) -> i32 {{
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %cc = icmp slt i32 %i, {n}
  condbr %cc, body, done
block body loop(1, depth=1):
  %pa = getelementptr %a, %i
  %va = load i32 %pa
  %pb = getelementptr %b, %i
  %vb = load i32 %pb
  %t0 = mul i32 %va, {k1}
  %t1 = add i32 %t0, %vb
  %t2 = add i32 %t1, 0
{dead}  %pc = getelementptr %c, %i
  store i32 %t2, %pc
  %ps = getelementptr @scratch, %i
  store i32 %t1, %ps
  %i.next = add i32 %i, 1
  br hd
block done:
  %pc0 = getelementptr %c, 0
  %r = load i32 %pc0
  ret i32 %r
}}
"""


def _dot(rng, name):
    n = int(rng.integers(8, 32))
    pipeline = "#pragma pipeline(ii=1) loop=1\n" if rng.integers(0, 2) else ""
    return f"""\
{pipeline}top func @{name}(%a: i32[{n}], %b: i32[{n}]) -> i32 {{
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %acc = phi i32 [0, entry], [%acc.next, body]
  %cc = icmp slt i32 %i, {n}
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
}}
"""


def _stencil(rng, name):
    n = int(rng.integers(10, 28))
    return f"""\
top func @{name}(%a: i32[{n}], %b: i32[{n}]) -> i32 {{
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [1, entry], [%i.next, body]
  %cc = icmp slt i32 %i, {n - 1}
  condbr %cc, body, done
block body loop(1, depth=1):
  %im1 = add i32 %i, -1
  %ip1 = add i32 %i, 1
  %pl = getelementptr %a, %im1
  %vl = load i32 %pl
  %pm = getelementptr %a, %i
  %vm = load i32 %pm
  %pr = getelementptr %a, %ip1
  %vr = load i32 %pr
  %s0 = add i32 %vl, %vm
  %s1 = add i32 %s0, %vr
  %pb = getelementptr %b, %i
  store i32 %s1, %pb
  %i.next = add i32 %i, 1
  br hd
block done:
  %p1 = getelementptr %b, 1
  %r = load i32 %p1
  ret i32 %r
}}
"""


def _nested2(rng, name):
    rows = int(rng.integers(4, 10))
    cols = int(rng.integers(4, 12))
    n = rows * cols
    return f"""\
top func @{name}(%m: i32[{n}], %v: i32[{cols}], %o: i32[{rows}]) -> i32 {{
block entry:
  br rhd
block rhd loop(1, depth=1, header):
  %r = phi i32 [0, entry], [%r.next, rlatch]
  %cr = icmp slt i32 %r, {rows}
  condbr %cr, chd_pre, done
block chd_pre loop(1, depth=1):
  %base = mul i32 %r, {cols}
  br chd
block chd loop(2, depth=2, header):
  %c = phi i32 [0, chd_pre], [%c.next, cbody]
  %acc = phi i32 [0, chd_pre], [%acc.next, cbody]
  %ccc = icmp slt i32 %c, {cols}
  condbr %ccc, cbody, rlatch
block cbody loop(2, depth=2):
  %idx = add i32 %base, %c
  %pm = getelementptr %m, %idx
  %vm = load i32 %pm
  %pv = getelementptr %v, %c
  %vv = load i32 %pv
  %prod = mul i32 %vm, %vv
  %acc.next = add i32 %acc, %prod
  %c.next = add i32 %c, 1
  br chd
block rlatch loop(1, depth=1):
  %po = getelementptr %o, %r
  store i32 %acc, %po
  %r.next = add i32 %r, 1
  br rhd
block done:
  %p0 = getelementptr %o, 0
  %res = load i32 %p0
  ret i32 %res
}}
"""


def _nested3(rng, name):
    a = int(rng.integers(2, 5))
    b = int(rng.integers(2, 5))
    c = int(rng.integers(2, 6))
    n = a * b * c
    return f"""\
top func @{name}(%x: i32[{n}], %y: i32[{n}]) -> i32 {{
block entry:
  br h1
block h1 loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, l1]
  %c1 = icmp slt i32 %i, {a}
  condbr %c1, p2, done
block p2 loop(1, depth=1):
  %ib = mul i32 %i, {b * c}
  br h2
block h2 loop(2, depth=2, header):
  %j = phi i32 [0, p2], [%j.next, l2]
  %c2 = icmp slt i32 %j, {b}
  condbr %c2, p3, l1
block p3 loop(2, depth=2):
  %jb = mul i32 %j, {c}
  %ijb = add i32 %ib, %jb
  br h3
block h3 loop(3, depth=3, header):
  %k = phi i32 [0, p3], [%k.next, b3]
  %c3 = icmp slt i32 %k, {c}
  condbr %c3, b3, l2
block b3 loop(3, depth=3):
  %idx = add i32 %ijb, %k
  %px = getelementptr %x, %idx
  %vx = load i32 %px
  %sc = shl i32 %vx, 1
  %py = getelementptr %y, %idx
  store i32 %sc, %py
  %k.next = add i32 %k, 1
  br h3
block l2 loop(2, depth=2):
  %j.next = add i32 %j, 1
  br h2
block l1 loop(1, depth=1):
  %i.next = add i32 %i, 1
  br h1
block done:
  %p0 = getelementptr %y, 0
  %r = load i32 %p0
  ret i32 %r
}}
"""


def _guarded_tail(rng, name):
    n = int(rng.integers(12, 40))
    k = int(rng.integers(4, 12))
    return case2_text(n, k).replace("@case2", f"@{name}").replace(
        "; case2:", f"; {name}:")


def _nondiv_unroll(rng, name):
    factor = int(rng.choice([3, 4]))
    trip = int(rng.integers(8, 20)) * factor + int(rng.integers(1, factor))
    outer = int(rng.integers(2, 5))
    return case1_text(trip, outer, factor).replace("@case1", f"@{name}").replace(
        "; case1:", f"; {name}:")


def _branchy(rng, name):
    n = int(rng.integers(8, 24))
    t = int(rng.integers(0, 32))
    return f"""\
top func @{name}(%a: i32[{n}], %b: i32[{n}]) -> i32 {{
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, latch]
  %s = phi i32 [0, entry], [%s.next, latch]
  %cc = icmp slt i32 %i, {n}
  condbr %cc, body, done
block body loop(1, depth=1):
  %pa = getelementptr %a, %i
  %va = load i32 %pa
  %big = icmp sgt i32 %va, {t}
  condbr %big, yes, no
block yes loop(1, depth=1):
  %dbl = shl i32 %va, 1
  br join
block no loop(1, depth=1):
  %neg = sub i32 0, %va
  br join
block join loop(1, depth=1):
  %pick = phi i32 [%dbl, yes], [%neg, no]
  %pb = getelementptr %b, %i
  store i32 %pick, %pb
  br latch
block latch loop(1, depth=1):
  %s.next = add i32 %s, %pick
  %i.next = add i32 %i, 1
  br hd
block done:
  ret i32 %s
}}
"""


def _two_func(rng, name):
    n = int(rng.integers(6, 20))
    inline = "#pragma inline\n" if rng.integers(0, 2) else ""
    return f"""\
{inline}func @scale_{name}(%x: i32, %k: i32) -> i32 {{
block entry:
  %m = mul i32 %x, %k
  %m2 = add i32 %m, 1
  ret i32 %m2
}}

top func @{name}(%a: i32[{n}], %b: i32[{n}], %k: i32) -> i32 {{
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %cc = icmp slt i32 %i, {n}
  condbr %cc, body, done
block body loop(1, depth=1):
  %pa = getelementptr %a, %i
  %va = load i32 %pa
  %sc = call i32 @scale_{name}(%va, %k)
  %pb = getelementptr %b, %i
  store i32 %sc, %pb
  %i.next = add i32 %i, 1
  br hd
block done:
  %p0 = getelementptr %b, 0
  %r = load i32 %p0
  ret i32 %r
}}
"""


def _deadstore(rng, name):
    n = int(rng.integers(8, 24))
    return f"""\
top func @{name}(%a: i32[{n}], %b: i32[{n}]) -> i32 {{
block entry:
  br hd
block hd loop(1, depth=1, header):
  %i = phi i32 [0, entry], [%i.next, body]
  %cc = icmp slt i32 %i, {n}
  condbr %cc, body, done
block body loop(1, depth=1):
  %pa = getelementptr %a, %i
  %va = load i32 %pa
  %pb = getelementptr %b, %i
  store i32 %va, %pb
  %sq = mul i32 %va, %va
  store i32 %sq, %pb
  %w1 = add i32 %va, 7
  %w2 = mul i32 %w1, %w1
  %w3 = mul i32 %w2, %w1
  %i.next = add i32 %i, 1
  br hd
block done:
  %p0 = getelementptr %b, 0
  %r0 = load i32 %p0
  %r1 = load i32 %p0
  %r = add i32 %r0, %r1
  ret i32 %r
}}
"""


_FAMILIES = [
    ("vec_combine", _vec_combine),
    ("dot", _dot),
    ("stencil", _stencil),
    ("nested2", _nested2),
    ("nested3", _nested3),
    ("guarded_tail", _guarded_tail),
    ("nondiv_unroll", _nondiv_unroll),
    ("branchy", _branchy),
    ("two_func", _two_func),
    ("deadstore", _deadstore),
]


def corpus_gen(n_designs: int, seed: int) -> list[tuple[str, str]]:
    """Deterministic list of (name, ir_text) designs.

    The two case-study fixtures lead the corpus; the rest cycles through the
    kernel families with randomized shapes, which draw nothing for the
    cases, so ``corpus_gen(n + 2, seed)[2:]`` is the corpus without them."""
    rng = np.random.default_rng(seed)
    out = [("case1", case1_text()), ("case2", case2_text())]
    i = 0
    while len(out) < n_designs:
        fam_name, fam = _FAMILIES[i % len(_FAMILIES)]
        name = f"{fam_name}_{i:02d}"
        out.append((name, fam(rng, name)))
        i += 1
    return out[:n_designs]


def random_inputs(module: IrModule, rng: np.random.Generator) -> list:
    """Inputs matching the top function's signature, drawn from [-64, 64):
    small enough that generated kernels stay trap-free."""
    inputs = []
    for _pid, ty in module.top.params:
        if ty.is_array:
            inputs.append([int(v) for v in rng.integers(-64, 64, size=ty.length)])
        else:
            inputs.append(int(rng.integers(-64, 64)))
    return inputs
