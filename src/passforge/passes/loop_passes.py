"""Loop passes: loop_simplify, loop_rotate, licm, indvars, loop_deletion,
loop_unroll_partial — plus the induction-variable and trip-count analysis the
QoR estimator builds on.

One set of loop-rewrite helpers serves loop_rotate, loop_unroll_partial and
the unroll pragma: the top-test matcher (``top_test``), the header phis'
values on one edge (``edge_values``, ``set_edge_values``), the body copier
(``copy_body``, ``peel_iterations``), the cloned loop test
(``branch_on_test``), exit-phi routing (``used_outside``,
``route_through_exit_phi``) and preheader repair (``repair_preheader``).
"""
from __future__ import annotations

from dataclasses import dataclass

from ..ir import (
    Const, IrBlock, IrFunction, IrInstruction, IrModule, LabelRef, Loop,
    Opcode, ValueRef, dedicated_preheader, natural_loops, predecessor_map,
)
from ..ir.types import Operand, VOID
from .rewrite import (
    FreshNames, PURE_OPS, clone_with_map, condbr_compare, negate_pred,
    retarget_terminator, subst_operand,
)


# ---------------------------------------------------------------------------
# Induction variables and trip counts
# ---------------------------------------------------------------------------

@dataclass
class IvInfo:
    phi: IrInstruction
    start: Operand            # preheader incoming
    step: int                 # net constant step per iteration
    latch_value: Operand      # incoming value along the back edge


def find_basic_iv(fn: IrFunction, loop: Loop) -> IvInfo | None:
    """The unique header phi whose back-edge value is phi plus a constant."""
    if len(loop.latches) != 1:
        return None
    latch = loop.latches[0]
    header = fn.block_map()[loop.header]
    defs = fn.defined_values()
    found: IvInfo | None = None
    for phi in header.phis():
        inc = {lab: v for v, lab in phi.phi_incoming()}
        if latch not in inc:
            return None
        start_labels = [lab for _, lab in phi.phi_incoming() if lab != latch]
        if len(start_labels) != 1:
            continue
        start = inc[start_labels[0]]
        step = 0
        cur = inc[latch]
        hops = 0
        while isinstance(cur, ValueRef) and hops < 8:
            hops += 1
            if cur.id == phi.result:
                break
            src = defs.get(cur.id)
            if src is None or src.opcode is not Opcode.ADD:
                cur = None
                break
            a, b = src.operands
            if isinstance(b, Const) and isinstance(a, ValueRef):
                step += b.value
                cur = a
            elif isinstance(a, Const) and isinstance(b, ValueRef):
                step += a.value
                cur = b
            else:
                cur = None
                break
        if (isinstance(cur, ValueRef) and cur.id == phi.result and step != 0):
            if found is not None:
                return None  # ambiguous: two candidate IVs
            found = IvInfo(phi, start, step, inc[latch])
    return found


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def loop_trip_count(fn: IrFunction, loop: Loop):
    """Exact constant trip count, or None when not statically known.

    Handles the two canonical countable shapes: the test in the header on the
    phi value (while-style), and the test in the latch on the incremented
    value (rotated/do-while-style)."""
    iv = find_basic_iv(fn, loop)
    if iv is None or not isinstance(iv.start, Const):
        return None
    s, step = iv.start.value, iv.step
    bmap = fn.block_map()
    defs = fn.defined_values()

    def exit_compare(block: IrBlock):
        term = block.terminator
        cmp = condbr_compare(term, defs)
        if cmp is None:
            return None
        t_in = term.operands[1].label in loop.blocks
        f_in = term.operands[2].label in loop.blocks
        if t_in == f_in:
            return None
        pred = cmp.pred if t_in else negate_pred(cmp.pred)
        return cmp.operands[0].id, pred, cmp.operands[1].value

    header_cmp = exit_compare(bmap[loop.header])
    if header_cmp is not None and header_cmp[0] == iv.phi.result:
        _, pred, k = header_cmp
        return _count_trips(s, step, pred, k, bottom_test=False)

    latch = loop.latches[0] if len(loop.latches) == 1 else None
    if latch is not None:
        latch_cmp = exit_compare(bmap[latch])
        if latch_cmp is not None:
            x, pred, k = latch_cmp
            if (isinstance(iv.latch_value, ValueRef)
                    and x == iv.latch_value.id):
                return _count_trips(s, step, pred, k, bottom_test=True)
    return None


def _count_trips(s: int, step: int, pred: str, k: int, bottom_test: bool):
    """Iterations of a loop continuing while (value PRED k); the tested value
    is s + n*step with n starting at 0 (top test) or 1 (bottom test)."""
    if pred == "sle":
        pred, k = "slt", k + 1
    if pred == "sge":
        pred, k = "sgt", k - 1
    if pred == "slt":
        if step <= 0:
            return None
        n = _ceil_div(k - s, step)
    elif pred == "sgt":
        if step >= 0:
            return None
        n = _ceil_div(s - k, -step)
    elif pred == "ne":
        if step == 0 or (k - s) % step != 0:
            return None
        n = (k - s) // step
        if n < 0:
            return None
    else:
        return None
    if bottom_test:
        # The first test happens after one execution of the body; an `ne`
        # bound already passed on entry never terminates.
        if pred == "ne" and n < 1:
            return None
        return max(1, n)
    return max(0, n)


# ---------------------------------------------------------------------------
# Loop-rewrite helpers shared by rotation, partial unrolling and the pragma
# ---------------------------------------------------------------------------

@dataclass
class TopTest:
    """A loop tested at the top, with one latch ending in ``br``.

    The header holds only its phis and the exit compare, whose result feeds
    nothing but the header's branch.  One edge of that branch enters
    ``body``, whose only predecessor is the header and which has no phis;
    the other leaves for ``exit_label``.  ``pre`` is a dedicated preheader."""
    header: IrBlock
    pre: IrBlock
    body: IrBlock
    latch: IrBlock
    exit_label: str
    cmp: IrInstruction
    body_first: bool          # the compare's true edge enters the body


def top_test(fn: IrFunction, loop: Loop) -> TopTest | None:
    """Match ``loop`` as a ``TopTest``; None when it has another shape."""
    if len(loop.latches) != 1:
        return None
    bmap = fn.block_map()
    header, latch = bmap[loop.header], bmap[loop.latches[0]]
    if latch.terminator is None or latch.terminator.opcode is not Opcode.BR:
        return None
    non_phis = header.non_phis()
    term = header.terminator
    if term is None or term.opcode is not Opcode.CONDBR:
        return None
    if len(non_phis) != 1 or non_phis[0].opcode is not Opcode.ICMP:
        return None
    cmp = non_phis[0]
    cond = term.operands[0]
    if not (isinstance(cond, ValueRef) and cond.id == cmp.result):
        return None
    # The compare result must have no other users.
    for b in fn.blocks:
        for ins in b.all_instructions():
            if ins is not term and ins is not cmp \
                    and cmp.result in ins.value_uses():
                return None
    t_lab = term.operands[1].label
    f_lab = term.operands[2].label
    body_first = t_lab in loop.blocks
    if body_first == (f_lab in loop.blocks):
        return None
    body_lab, exit_label = (t_lab, f_lab) if body_first else (f_lab, t_lab)
    # The header also has a predecessor outside the loop, so this rules out
    # a header that is its own body.
    preds = predecessor_map(fn)
    if preds[body_lab] != [loop.header] or bmap[body_lab].phis():
        return None
    pre = dedicated_preheader(fn, loop)
    if pre is None:
        return None
    return TopTest(header, pre, bmap[body_lab], latch, exit_label, cmp,
                   body_first)


def edge_values(header: IrBlock, pred: str) -> dict[str, Operand]:
    """Each header phi's incoming value on the edge from ``pred``."""
    return {phi.result: v for phi in header.phis()
            for v, lab in phi.phi_incoming() if lab == pred}


def set_edge_values(header: IrBlock, pred: str, values: dict[str, Operand],
                    new_pred: str | None = None) -> None:
    """Give each header phi ``values[phi]`` on the edge from ``pred``; that
    edge comes from ``new_pred`` instead when one is given."""
    for phi in header.phis():
        ops: list[Operand | LabelRef] = []
        for v, lab in phi.phi_incoming():
            if lab == pred:
                v, lab = values[phi.result], new_pred or pred
            ops.extend([v, LabelRef(lab)])
        phi.operands = ops


def copy_body(target: IrBlock, source: list[IrInstruction],
              latch: dict[str, Operand], state: dict[str, Operand],
              fresh: FreshNames) -> dict[str, Operand]:
    """Append one iteration of ``source`` to ``target`` with the header phis
    bound to ``state``; returns their values for the next iteration, the
    back-edge values ``latch`` remapped.  Instructions that fold to a
    constant are not emitted."""
    mapping = dict(state)
    for ins in source:
        new, res = clone_with_map(ins, mapping, fresh)
        if new is not None:
            target.instructions.append(new)
        if ins.result is not None:
            mapping[ins.result] = res
    return {pid: subst_operand(v, mapping) for pid, v in latch.items()}


def branch_on_test(t: TopTest, block: IrBlock, state: dict[str, Operand],
                   into: str, fresh: FreshNames) -> None:
    """End ``block`` with the loop's test under ``state``: on to ``into``
    while it holds, else to the exit.  A test that folds to a constant
    leaves a constant branch, which simplifycfg folds."""
    ins, cond = clone_with_map(t.cmp, state, fresh)
    if ins is not None:
        block.instructions.append(ins)
    on, off = (into, t.exit_label) if t.body_first else (t.exit_label, into)
    block.terminator = IrInstruction(
        None, Opcode.CONDBR, [cond, LabelRef(on), LabelRef(off)], VOID)


def used_outside(fn: IrFunction, inside: set[str], value_id: str) -> bool:
    """Whether a block not in ``inside`` uses ``value_id``."""
    return any(value_id in ins.value_uses() for b in fn.blocks
               if b.label not in inside for ins in b.all_instructions())


def route_through_exit_phi(fn: IrFunction, inside: set[str],
                           exit_blk: IrBlock, phi: IrInstruction,
                           entries: list, fresh: FreshNames) -> None:
    """Point the uses of ``phi`` outside ``inside`` at a new phi of
    ``entries`` at the top of ``exit_blk``; the exit's own phis keep it."""
    exit_phi = IrInstruction(fresh.value(phi.result), Opcode.PHI, entries,
                             phi.ir_type)
    for b in fn.blocks:
        if b.label in inside:
            continue
        for ins in b.all_instructions():
            if b is exit_blk and ins.opcode is Opcode.PHI:
                continue
            for i, op in enumerate(ins.operands):
                if isinstance(op, ValueRef) and op.id == phi.result:
                    ins.operands[i] = ValueRef(exit_phi.result)
    exit_blk.instructions.insert(0, exit_phi)


def repair_preheader(fn: IrFunction, loop: Loop, fresh: FreshNames) -> None:
    """Give a two-block innermost loop, the shape unrolling takes, the
    dedicated preheader it may lack."""
    if not loop.children and len(loop.blocks) == 2:
        insert_preheader(fn, loop, fresh)


# ---------------------------------------------------------------------------
# loop_simplify
# ---------------------------------------------------------------------------

def _funnel(fn: IrFunction, loop: Loop, preds: list[str], suffix: str,
            fresh: FreshNames) -> IrBlock:
    """A new block ``<header>.<suffix>`` that the edges from ``preds`` take
    into the header instead; each header phi gets their values through it,
    merged by a new phi there when there are several."""
    header = fn.block_map()[loop.header]
    blk = IrBlock(fresh.label(f"{loop.header}.{suffix}"))
    blk.terminator = IrInstruction(None, Opcode.BR, [LabelRef(loop.header)],
                                   VOID)
    for phi in header.phis():
        entries = phi.phi_incoming()
        through = [x for v, lab in entries if lab in preds
                   for x in (v, LabelRef(lab))]
        if len(through) == 2:
            merged: Operand = through[0]
        else:
            merged_phi = IrInstruction(fresh.value(phi.result), Opcode.PHI,
                                       through, phi.ir_type)
            blk.instructions.insert(0, merged_phi)
            merged = ValueRef(merged_phi.result)
        phi.operands = [x for v, lab in entries if lab not in preds
                        for x in (v, LabelRef(lab))] + \
            [merged, LabelRef(blk.label)]
    bmap = fn.block_map()
    for lab in preds:
        retarget_terminator(bmap[lab], loop.header, blk.label)
    return blk


def insert_preheader(fn: IrFunction, loop: Loop, fresh: FreshNames) -> bool:
    """Route the edges entering the loop through a new dedicated preheader,
    unless there is one already."""
    if dedicated_preheader(fn, loop) is not None:
        return False
    outside = [p for p in predecessor_map(fn)[loop.header]
               if p not in loop.blocks]
    pre = _funnel(fn, loop, outside, "pre", fresh)
    fn.blocks.insert(fn.blocks.index(fn.block_map()[loop.header]), pre)
    return True


def _merge_latches(fn: IrFunction, loop: Loop, fresh: FreshNames) -> bool:
    if len(loop.latches) <= 1:
        return False
    latch = _funnel(fn, loop, loop.latches, "latch", fresh)
    bmap = fn.block_map()
    last_idx = max(fn.blocks.index(bmap[lab]) for lab in sorted(loop.blocks))
    fn.blocks.insert(last_idx + 1, latch)
    return True


def _rewrite_loops(fn: IrFunction, order, rewrite) -> None:
    """Apply ``rewrite(loop)`` to ``fn``'s loops, sorted by ``order``, until
    one returns True; re-derive the forest and repeat until none does.

    loop_simplify, loop_rotate and loop_deletion run through this.  Each of
    their rewrites changes one loop for good (it gains its preheader or its
    single latch, or it is rotated or deleted), so twice the loop count at
    entry bounds the rounds."""
    forest = natural_loops(fn)
    for _ in range(2 * len(forest.loops)):
        if not any(rewrite(l) for l in sorted(forest.loops, key=order)):
            return
        forest = natural_loops(fn)


def run_loop_simplify(m: IrModule) -> None:
    """Give every loop a dedicated preheader and a single latch; idempotent."""
    for fn in m.functions:
        fresh = FreshNames(fn)
        _rewrite_loops(fn, lambda l: (l.depth, l.header),
                       lambda l: insert_preheader(fn, l, fresh)
                       or _merge_latches(fn, l, fresh))


# ---------------------------------------------------------------------------
# loop_rotate
# ---------------------------------------------------------------------------

def _rotatable(fn: IrFunction, loop: Loop) -> TopTest | None:
    t = top_test(fn, loop)
    if t is None:
        return None
    if any(p != loop.header for p in predecessor_map(fn)[t.exit_label]):
        return None
    if loop.exits(fn) != [(loop.header, t.exit_label)]:
        return None  # header must be the only exiting block
    # Compare operands must be loop-invariant or header phis.
    bmap = fn.block_map()
    in_loop = {ins.result for lab in loop.blocks
               for ins in bmap[lab].all_instructions()}
    in_loop -= {phi.result for phi in t.header.phis()}
    if any(isinstance(op, ValueRef) and op.id in in_loop
           for op in t.cmp.operands):
        return None
    return t


def run_loop_rotate(m: IrModule) -> None:
    """Turn while-style loops (test in the header) into do-while form: the
    test is cloned into the preheader as an entry guard and onto the latch as
    the back-edge condition, and the old header dissolves into the body."""
    for fn in m.functions:
        _rewrite_loops(fn, lambda l: (l.depth, l.header),
                       lambda l: _rotate(fn, l))


def _rotate(fn: IrFunction, loop: Loop) -> bool:
    t = _rotatable(fn, loop)
    if t is None:
        return False
    fresh = FreshNames(fn)
    header, latch, pre, body = t.header, t.latch, t.pre, t.body
    exit_blk = fn.block_map()[t.exit_label]
    phis = header.phis()
    init_map = edge_values(header, pre.label)
    next_map = edge_values(header, latch.label)
    branch_on_test(t, pre, init_map, body.label, fresh)
    branch_on_test(t, latch, next_map, body.label, fresh)

    # Phis move into the body block, which becomes the new header.
    def entries(phi_id: str) -> list:
        return [init_map[phi_id], LabelRef(pre.label),
                next_map[phi_id], LabelRef(latch.label)]

    for phi in reversed(phis):
        phi.operands = entries(phi.result)
        header.instructions.remove(phi)
        body.instructions.insert(0, phi)

    # Loop values used past the exit flow through dedicated exit phis.
    for phi in [p for p in phis if used_outside(fn, loop.blocks, p.result)]:
        route_through_exit_phi(fn, loop.blocks, exit_blk, phi,
                               entries(phi.result), fresh)

    # Pre-existing exit phis: the edge from the old header becomes two edges.
    for phi in exit_blk.phis():
        ops: list[Operand | LabelRef] = []
        for v, lab in phi.phi_incoming():
            if lab != header.label:
                ops.extend([v, LabelRef(lab)])
                continue
            ops.extend([subst_operand(v, init_map), LabelRef(pre.label)])
            ops.extend([subst_operand(v, next_map), LabelRef(latch.label)])
        phi.operands = ops

    fn.blocks.remove(header)
    body.loop_info = header.loop_info
    return True


# ---------------------------------------------------------------------------
# licm
# ---------------------------------------------------------------------------

def run_licm(m: IrModule) -> None:
    """Hoist pure, non-trapping loop-invariant instructions to the preheader.

    Loads and divisions stay put: hoisting could introduce a trap or an
    out-of-bounds access on a path that never executed them."""
    for fn in m.functions:
        forest = natural_loops(fn)
        for loop in sorted(forest.loops, key=lambda l: (-l.depth, l.header)):
            pre = dedicated_preheader(fn, loop)
            if pre is None:
                continue
            def_block: dict[str, str] = {}
            for b in fn.blocks:
                for ins in b.all_instructions():
                    if ins.result is not None:
                        def_block[ins.result] = b.label
            moved = True
            while moved:
                moved = False
                for lab in sorted(loop.blocks):
                    b = fn.block_map()[lab]
                    for ins in list(b.instructions):
                        if ins.opcode not in PURE_OPS or ins.opcode is Opcode.PHI:
                            continue
                        if ins.result is None:
                            continue
                        invariant = all(
                            def_block.get(vid) not in loop.blocks
                            for vid in ins.value_uses())
                        if not invariant:
                            continue
                        b.instructions.remove(ins)
                        pre.instructions.append(ins)
                        def_block[ins.result] = pre.label
                        moved = True


# ---------------------------------------------------------------------------
# indvars
# ---------------------------------------------------------------------------

def run_indvars(m: IrModule) -> None:
    """Canonicalize loop exit compares toward slt form so trip counts and
    unrolling see a uniform shape."""
    for fn in m.functions:
        forest = natural_loops(fn)
        defs = fn.defined_values()
        for loop in forest.loops:
            iv = find_basic_iv(fn, loop)
            if iv is None:
                continue
            for lab in sorted(loop.blocks):
                b = fn.block_map()[lab]
                term = b.terminator
                cmp = condbr_compare(term, defs)
                if cmp is None:
                    continue
                x = cmp.operands[0].id
                on_phi = x == iv.phi.result
                on_next = (isinstance(iv.latch_value, ValueRef)
                           and x == iv.latch_value.id)
                if not (on_phi or on_next):
                    continue
                users = [u for bb in fn.blocks for u in bb.all_instructions()
                         if cmp.result in u.value_uses()]
                if len(users) != 1:
                    continue
                k = cmp.operands[1].value
                if cmp.pred == "sle" and k < 2**31 - 1:
                    cmp.pred, cmp.operands[1] = "slt", Const(k + 1)
                elif cmp.pred == "sgt" and k < 2**31 - 1:
                    cmp.pred, cmp.operands[1] = "slt", Const(k + 1)
                    term.operands = [term.operands[0], term.operands[2],
                                     term.operands[1]]
                elif cmp.pred == "sge":
                    cmp.pred = "slt"
                    term.operands = [term.operands[0], term.operands[2],
                                     term.operands[1]]
                elif cmp.pred == "ne" and isinstance(iv.start, Const):
                    # Sound only for continue-while-ne polarity: the tested
                    # value then stays in [start, bound].
                    s = iv.start.value
                    step = iv.step
                    base = s + step if on_next else s
                    continue_on_true = term.operands[1].label in loop.blocks
                    if (continue_on_true and step > 0
                            and (k - s) % step == 0 and k >= base):
                        cmp.pred = "slt"


# ---------------------------------------------------------------------------
# loop_deletion
# ---------------------------------------------------------------------------

def run_loop_deletion(m: IrModule) -> None:
    """Delete side-effect-free loops with a known finite trip count whose
    values are unused outside."""
    for fn in m.functions:
        _rewrite_loops(fn, lambda l: (-l.depth, l.header),
                       lambda l: _delete_loop(fn, l))


def _delete_loop(fn: IrFunction, loop: Loop) -> bool:
    bmap = fn.block_map()
    for lab in loop.blocks:
        for ins in bmap[lab].all_instructions():
            if ins.opcode in (Opcode.STORE, Opcode.CALL):
                return False
    if loop_trip_count(fn, loop) is None:
        return False
    exits = loop.exits(fn)
    targets = {t for _, t in exits}
    if len(targets) != 1:
        return False
    exit_lab = targets.pop()
    if bmap[exit_lab].phis():
        return False
    preds = predecessor_map(fn)
    if any(p not in loop.blocks for p in preds[exit_lab]):
        return False
    defined = {ins.result for lab in loop.blocks
               for ins in bmap[lab].all_instructions() if ins.result is not None}
    for b in fn.blocks:
        if b.label in loop.blocks:
            continue
        for ins in b.all_instructions():
            if any(v in defined for v in ins.value_uses()):
                return False
    outside = [p for p in preds[loop.header] if p not in loop.blocks]
    if len(outside) != 1:
        return False
    retarget_terminator(bmap[outside[0]], loop.header, exit_lab)
    fn.blocks = [b for b in fn.blocks if b.label not in loop.blocks]
    return True


# ---------------------------------------------------------------------------
# loop_unroll_partial
# ---------------------------------------------------------------------------

@dataclass
class UnrollShape(TopTest):
    """Canonical countable loop: top-test header plus one body block, which
    is the latch."""
    loop: Loop
    iv: IvInfo
    trip: int


def unrollable_shape(fn: IrFunction, loop: Loop,
                     require_exact: bool = True) -> UnrollShape | None:
    """Match the canonical countable shape.

    ``require_exact`` additionally demands the bound minus start divide the
    step, which header-test-per-group unrolling needs; the pragma expander's
    checked mode re-tests after every copy and can take any slt trip."""
    if loop.children or len(loop.blocks) != 2:
        return None
    t = top_test(fn, loop)
    if t is None:
        return None
    iv = find_basic_iv(fn, loop)
    if iv is None or not isinstance(iv.start, Const) or iv.step <= 0:
        return None
    cmp = t.cmp
    if not (isinstance(cmp.operands[0], ValueRef)
            and cmp.operands[0].id == iv.phi.result
            and isinstance(cmp.operands[1], Const)):
        return None
    pred = cmp.pred if t.body_first else negate_pred(cmp.pred)
    if pred not in ("slt", "ne"):
        return None
    k = cmp.operands[1].value
    s = iv.start.value
    if k < s:
        return None
    exact = (k - s) % iv.step == 0
    if not exact and (require_exact or pred == "ne"):
        return None
    trip = _count_trips(s, iv.step, pred, k, bottom_test=False)
    if trip is None:
        return None
    return UnrollShape(**vars(t), loop=loop, iv=iv, trip=trip)


def peel_iterations(shape: UnrollShape, count: int,
                    fresh: FreshNames) -> dict[str, Operand]:
    """Copy the first ``count`` iterations straight-line into the preheader;
    the header phis start from their values after them, which are returned."""
    header, body, pre = shape.header, shape.body, shape.pre
    latch = edge_values(header, body.label)
    state = edge_values(header, pre.label)
    for _ in range(count):
        state = copy_body(pre, body.instructions, latch, state, fresh)
    set_edge_values(header, pre.label, state)
    return state


def _append_replica(fn: IrFunction, shape: UnrollShape,
                    fresh: FreshNames) -> None:
    """Add one more body replica as a new chained block; the loop afterwards
    performs two original iterations per trip."""
    header, body = shape.header, shape.body
    latch = edge_values(header, body.label)
    b2 = IrBlock(fresh.label(f"{body.label}.u"))
    state = copy_body(b2, body.instructions, latch, latch, fresh)
    b2.terminator = IrInstruction(None, Opcode.BR, [LabelRef(header.label)], VOID)
    body.terminator = IrInstruction(None, Opcode.BR, [LabelRef(b2.label)], VOID)
    set_edge_values(header, body.label, state, b2.label)
    fn.blocks.insert(fn.blocks.index(body) + 1, b2)


def run_loop_unroll_partial(m: IrModule) -> None:
    """Unroll canonical innermost countable loops by two.

    An odd trip count peels one leading iteration into the preheader first so
    the remaining count divides evenly; the two body copies are left as
    chained blocks for simplifycfg to merge."""
    for fn in m.functions:
        fresh = FreshNames(fn)
        forest = natural_loops(fn)
        for loop in sorted(forest.loops, key=lambda l: l.header):
            repair_preheader(fn, loop, fresh)
            shape = unrollable_shape(fn, loop)
            if shape is None or shape.trip < 2:
                continue
            if shape.trip % 2:
                peel_iterations(shape, 1, fresh)
            _append_replica(fn, shape, fresh)
