"""Control-flow passes: simplifycfg, sccp, jump_threading."""
from __future__ import annotations

from ..ir import (
    Const, DomTree, IrBlock, IrFunction, IrModule, LabelRef, Opcode, ValueRef,
    fold_constant, natural_loops,
)
from ..ir.types import FOLDABLE, PREDICATES, PURE_OPS, IrInstruction, Operand
from .rewrite import (
    collapse_trivial_phis, condbr_compare, drop_unreachable_blocks,
    remove_phi_entries, rename_phi_pred, replace_all_uses,
    retarget_terminator, erase_dead_pure,
)


def _fold_constant_terminators(fn: IrFunction) -> bool:
    changed = False
    for b in fn.blocks:
        term = b.terminator
        if term is None or term.opcode is not Opcode.CONDBR:
            continue
        cond, t, f = term.operands
        if isinstance(cond, Const):
            taken = t if cond.value else f
            dropped = f if cond.value else t
            b.terminator = IrInstruction(None, Opcode.BR, [taken], term.ir_type)
            if dropped.label != taken.label:
                remove_phi_entries(fn.block_map()[dropped.label], b.label)
            changed = True
        elif t.label == f.label:
            b.terminator = IrInstruction(None, Opcode.BR, [t], term.ir_type)
            changed = True
    return changed


def _merge_straight_line(fn: IrFunction) -> bool:
    """Merge S into P when P->S is the only edge between them in either
    direction (P single successor, S single predecessor).  It patches a
    copy of the shared forest's predecessor map, P taking S's place."""
    preds = {lab: list(ps) for lab, ps in natural_loops(fn).preds.items()}
    changed = False
    while True:
        merged = False
        for p in fn.blocks:
            term = p.terminator
            if term is None or term.opcode is not Opcode.BR:
                continue
            s_label = term.operands[0].label  # type: ignore[union-attr]
            if s_label == p.label:
                continue
            if preds[s_label] != [p.label]:
                continue
            s = fn.block_map()[s_label]
            if s is fn.entry:
                continue
            # Single predecessor: phis collapse to their one incoming value.
            for phi in list(s.phis()):
                val = phi.phi_incoming()[0][0]
                replace_all_uses(fn, phi.result, val)
                s.instructions.remove(phi)
            p.instructions.extend(s.non_phis())
            p.terminator = s.terminator
            for succ in s.successors():
                rename_phi_pred(fn.block_map()[succ], s_label, p.label)
                preds[succ] = [p.label if q == s_label else q
                               for q in preds[succ]]
            fn.blocks.remove(s)
            merged = True
            changed = True
            break
        if not merged:
            return changed


def _remove_forwarding_blocks(fn: IrFunction) -> bool:
    """Drop empty blocks that only branch to another block.

    Dedicated loop preheaders are kept: removing them would denormalize loops
    that rotation and unrolling expect in canonical form."""
    changed = False
    while True:
        forest = natural_loops(fn)
        preds = forest.preds
        bmap = fn.block_map()
        victim = None
        for b in fn.blocks:
            if b is fn.entry or b.instructions:
                continue
            term = b.terminator
            if term is None or term.opcode is not Opcode.BR:
                continue
            s_label = term.operands[0].label  # type: ignore[union-attr]
            if s_label == b.label:
                continue
            loop = forest.by_header.get(s_label)
            if loop is not None and b.label not in loop.blocks:
                continue  # b is the loop's preheader
            s = bmap[s_label]
            # A forwarding block is foldable when rerouting keeps phis sound:
            # for each phi in S, the value for edge B must work for each pred
            # of B, and no pred may already be a pred of S with a conflicting
            # phi value.
            ok = True
            s_preds = set(preds[s_label])
            for pred in preds[b.label]:
                if pred in s_preds:
                    for phi in s.phis():
                        inc = dict((lab, v) for v, lab in phi.phi_incoming())
                        if str(inc.get(b.label)) != str(inc.get(pred)):
                            ok = False
                elif pred == b.label:
                    ok = False
            if not ok:
                continue
            victim = b
            break
        if victim is None:
            return changed
        b = victim
        s_label = b.terminator.operands[0].label  # type: ignore[union-attr]
        s = bmap[s_label]
        b_preds = preds[b.label]
        for phi in s.phis():
            inc = phi.phi_incoming()
            b_val = next(v for v, lab in inc if lab == b.label)
            ops = []
            seen = set()
            for v, lab in inc:
                if lab == b.label:
                    continue
                ops.extend([v, LabelRef(lab)])
                seen.add(lab)
            for pred in b_preds:
                if pred not in seen:
                    ops.extend([b_val, LabelRef(pred)])
                    seen.add(pred)
            phi.operands = ops
        for pred in b_preds:
            retarget_terminator(bmap[pred], b.label, s_label)
        fn.blocks.remove(b)
        changed = True


def run_simplifycfg(m: IrModule) -> None:
    for fn in m.functions:
        changed = True
        while changed:
            changed = False
            changed |= _fold_constant_terminators(fn)
            changed |= bool(drop_unreachable_blocks(fn))
            changed |= bool(collapse_trivial_phis(fn))
            changed |= _merge_straight_line(fn)
            changed |= _remove_forwarding_blocks(fn)


# ---------------------------------------------------------------------------
# Sparse conditional constant propagation
# ---------------------------------------------------------------------------

_TOP = ("top",)
_BOT = ("bot",)


def _meet(a, b):
    if a == _TOP:
        return b
    if b == _TOP:
        return a
    if a == b:
        return a
    return _BOT


def run_sccp(m: IrModule) -> None:
    for fn in m.functions:
        _sccp_function(fn)


def _sccp_function(fn: IrFunction) -> None:
    bmap = fn.block_map()
    lattice: dict[str, object] = {p: _BOT for p in fn.param_ids()}
    executable_edges: set[tuple[str, str]] = set()
    executable_blocks: set[str] = set()
    block_work: list[tuple[str | None, str]] = [(None, fn.entry.label)]
    inst_work: list[str] = []
    users: dict[str, list[tuple[str, IrInstruction]]] = {}
    for b in fn.blocks:
        for ins in b.all_instructions():
            for vid in ins.value_uses():
                users.setdefault(vid, []).append((b.label, ins))

    def value_of(op: Operand):
        if isinstance(op, Const):
            return op.value
        if isinstance(op, ValueRef):
            return lattice.get(op.id, _TOP)
        return _BOT

    def set_value(vid: str, val):
        old = lattice.get(vid, _TOP)
        new = _meet(old, val) if old != _TOP else val
        if old == _BOT:
            return
        if new != old:
            lattice[vid] = new
            inst_work.append(vid)

    def eval_instruction(blabel: str, ins: IrInstruction):
        if ins.opcode is Opcode.PHI:
            acc = _TOP
            for v, lab in ins.phi_incoming():
                if (lab, blabel) in executable_edges:
                    acc = _meet(acc, value_of(v))
            if acc != _TOP:
                set_value(ins.result, acc)
            return
        if ins.is_terminator:
            if ins.opcode is Opcode.BR:
                flow(blabel, ins.operands[0].label)  # type: ignore[union-attr]
            elif ins.opcode is Opcode.CONDBR:
                c = value_of(ins.operands[0])
                if c == _BOT:
                    flow(blabel, ins.operands[1].label)  # type: ignore[union-attr]
                    flow(blabel, ins.operands[2].label)  # type: ignore[union-attr]
                elif c != _TOP:
                    target = ins.operands[1] if c else ins.operands[2]
                    flow(blabel, target.label)  # type: ignore[union-attr]
            return
        if ins.result is None:
            return
        if ins.opcode is Opcode.SELECT:
            c = value_of(ins.operands[0])
            if c == _TOP:
                return
            if c == _BOT:
                v = _meet(value_of(ins.operands[1]), value_of(ins.operands[2]))
                if v != _TOP:
                    set_value(ins.result, v)
            else:
                v = value_of(ins.operands[1] if c else ins.operands[2])
                if v != _TOP:
                    set_value(ins.result, v)
            return
        if ins.opcode not in FOLDABLE:
            set_value(ins.result, _BOT)
            return
        vals = [value_of(o) for o in ins.operands]
        if any(v == _BOT for v in vals):
            set_value(ins.result, _BOT)
            return
        if any(v == _TOP for v in vals):
            return
        folded = fold_constant(ins.opcode, vals, ins.pred)  # type: ignore[arg-type]
        set_value(ins.result, _BOT if folded is None else folded)

    def flow(src: str, dst: str):
        if (src, dst) in executable_edges:
            return
        executable_edges.add((src, dst))
        block_work.append((src, dst))

    while block_work or inst_work:
        while inst_work:
            vid = inst_work.pop()
            for blabel, user in users.get(vid, []):
                if blabel in executable_blocks:
                    eval_instruction(blabel, user)
        if block_work:
            src, dst = block_work.pop()
            first_visit = dst not in executable_blocks
            b = bmap[dst]
            if first_visit:
                executable_blocks.add(dst)
                for ins in b.all_instructions():
                    eval_instruction(dst, ins)
            else:
                for ins in b.phis():
                    eval_instruction(dst, ins)

    # Rewrite: constants in, dead edges out.
    for b in fn.blocks:
        if b.label not in executable_blocks:
            continue
        for ins in list(b.instructions):
            if ins.result is None:
                continue
            val = lattice.get(ins.result, _TOP)
            if val not in (_TOP, _BOT):
                replace_all_uses(fn, ins.result, Const(val))  # type: ignore[arg-type]
                if ins.opcode in PURE_OPS or ins.opcode is Opcode.PHI:
                    b.instructions.remove(ins)
        term = b.terminator
        if term is not None and term.opcode is Opcode.CONDBR:
            c = term.operands[0]
            cval = c.value if isinstance(c, Const) else lattice.get(
                c.id if isinstance(c, ValueRef) else "", _BOT)
            if cval not in (_TOP, _BOT):
                taken = term.operands[1] if cval else term.operands[2]
                dropped = term.operands[2] if cval else term.operands[1]
                b.terminator = IrInstruction(None, Opcode.BR, [taken], term.ir_type)
                if dropped.label != taken.label:
                    remove_phi_entries(bmap[dropped.label], b.label)

    drop_unreachable_blocks(fn)
    collapse_trivial_phis(fn)
    erase_dead_pure(fn)


# ---------------------------------------------------------------------------
# Jump threading
# ---------------------------------------------------------------------------

class _Facts:
    """Constraints on one SSA value along a specific path."""

    def __init__(self):
        self.eq: int | None = None
        self.ne: set[int] = set()
        self.lo: int | None = None
        self.hi: int | None = None

    def add(self, pred: str, k: int, truth: bool):
        """Record that ``icmp pred x, k`` is ``truth``."""
        if not truth:
            pred = PREDICATES[pred].negation
        if pred == "eq":
            self.eq = k
        elif pred == "ne":
            self.ne.add(k)
        elif pred in ("slt", "sle"):
            hi = k - 1 if pred == "slt" else k
            self.hi = hi if self.hi is None else min(self.hi, hi)
        else:
            lo = k + 1 if pred == "sgt" else k
            self.lo = lo if self.lo is None else max(self.lo, lo)

    def eval_icmp(self, pred: str, k: int) -> int | None:
        """``icmp pred x, k`` under these facts, or None when unknown."""
        if self.eq is not None:
            return fold_constant(Opcode.ICMP, [self.eq, k], pred)
        if pred in ("ne", "sgt", "sge"):
            r = self.eval_icmp(PREDICATES[pred].negation, k)
            return None if r is None else 1 - r
        lo = self.lo if self.lo is not None else -(2**31)
        hi = self.hi if self.hi is not None else 2**31 - 1
        if pred == "eq":
            if k < lo or k > hi or k in self.ne:
                return 0
            return 1 if lo == hi == k else None
        if pred == "sle":                   # x <= k is x < k + 1
            k += 1
        if hi < k:
            return 1
        if lo >= k:
            return 0
        return None


def _edge_facts(fn: IrFunction, dom: DomTree, preds: dict[str, list[str]],
                p_label: str, slot_to_b: int | None,
                defs: dict[str, IrInstruction],
                def_block: dict[str, str]) -> dict[str, _Facts]:
    """Facts about SSA values that hold on an edge out of block P.

    Sources: P's own conditional exit (the specific slot taken), and
    dominating conditional branches whose taken side provably funnels every
    outside path to P.
    """
    facts: dict[str, _Facts] = {}

    def add_fact(term: IrInstruction, truth: bool):
        src = condbr_compare(term, defs)
        if src is None:
            return
        x = src.operands[0].id
        xb = def_block.get(x)
        if xb is not None and not dom.dominates(xb, p_label):
            return
        facts.setdefault(x, _Facts()).add(src.pred, src.operands[1].value, truth)  # type: ignore[arg-type]

    bmap = fn.block_map()
    if slot_to_b is not None:
        add_fact(bmap[p_label].terminator, truth=(slot_to_b == 1))

    # Dominating conditions: D ends condbr g, T, F; if T dominates P and the
    # only preds of T not dominated by T come from D, then g held when the
    # region was entered and cannot have been recomputed since.
    cur = dom.idom.get(p_label)
    visited = 0
    while cur is not None and visited < 64:
        visited += 1
        d = bmap[cur]
        term = d.terminator
        if term is not None and term.opcode is Opcode.CONDBR:
            t_lab = term.operands[1].label  # type: ignore[union-attr]
            f_lab = term.operands[2].label  # type: ignore[union-attr]
            for target, truth in ((t_lab, True), (f_lab, False)):
                if not dom.dominates(target, p_label):
                    continue
                outside = [q for q in preds[target]
                           if not dom.dominates(target, q)]
                if outside == [cur]:
                    add_fact(term, truth)
        cur = dom.idom.get(cur)
    return facts


def _determine_condition(b: IrBlock, p_label: str, facts: dict[str, _Facts],
                         defs: dict[str, IrInstruction]) -> int | None:
    """Value B's branch condition will take when entered from P, if provable."""
    term = b.terminator
    assert term is not None and term.opcode is Opcode.CONDBR
    known: dict[str, int] = {}
    for phi in b.phis():
        for v, lab in phi.phi_incoming():
            if lab == p_label and isinstance(v, Const):
                known[phi.result] = v.value
    for x, f in facts.items():
        if f.eq is not None:
            known[x] = f.eq

    for ins in b.non_phis():
        if ins.result is None:
            continue
        if ins.opcode is Opcode.ICMP and isinstance(ins.operands[1], Const):
            a = ins.operands[0]
            if isinstance(a, ValueRef) and a.id not in known and a.id in facts:
                r = facts[a.id].eval_icmp(ins.pred, ins.operands[1].value)  # type: ignore[arg-type]
                if r is not None:
                    known[ins.result] = r
                    continue
        vals = []
        ok = ins.opcode in PURE_OPS and ins.opcode is not Opcode.GETELEMENTPTR
        if ok:
            for o in ins.operands:
                if isinstance(o, Const):
                    vals.append(o.value)
                elif isinstance(o, ValueRef) and o.id in known:
                    vals.append(known[o.id])
                else:
                    ok = False
                    break
        if ok and ins.opcode is Opcode.SELECT:
            known[ins.result] = vals[1] if vals[0] else vals[2]
        elif ok:
            folded = fold_constant(ins.opcode, vals, ins.pred)
            if folded is not None:
                known[ins.result] = folded

    cond = term.operands[0]
    if isinstance(cond, Const):
        return cond.value
    if isinstance(cond, ValueRef) and cond.id in known:
        return known[cond.id]
    src = condbr_compare(term, defs)
    if src is not None and src.operands[0].id in facts:
        return facts[src.operands[0].id].eval_icmp(
            src.pred, src.operands[1].value)  # type: ignore[arg-type]
    return None


def _threadable_block(fn: IrFunction, b: IrBlock) -> bool:
    """B may be bypassed when its non-phi instructions are pure and only used
    inside B (so a path skipping B loses nothing it needs).  Phi results may
    additionally appear as B-incoming values of successor phis; the threaded
    edge substitutes them."""
    if b is fn.entry:
        return False
    term = b.terminator
    if term is None or term.opcode is not Opcode.CONDBR:
        return False
    for ins in b.non_phis():
        if ins.opcode not in PURE_OPS:
            return False
    phi_results = {phi.result for phi in b.phis()}
    succs = set(b.successors())
    for ins in b.instructions:
        if ins.result is None:
            continue
        for bb in fn.blocks:
            for user in bb.all_instructions():
                if bb is b or ins.result not in user.value_uses():
                    continue
                if (ins.result in phi_results and bb.label in succs
                        and user.opcode is Opcode.PHI):
                    continue
                return False
    return True


def _phi_value_via(succ: IrBlock, b: IrBlock,
                   p_label: str) -> dict[str, Operand] | None:
    """Values succ's phis should take for a new edge from P that bypasses B.

    Returns None when some phi value is defined inside B and is not a phi of B
    (the bypass cannot reproduce it)."""
    out: dict[str, Operand] = {}
    b_phi = {phi.result: phi for phi in b.phis()}
    b_defs = {ins.result for ins in b.all_instructions() if ins.result is not None}
    for phi in succ.phis():
        inc = {lab: v for v, lab in phi.phi_incoming()}
        if b.label not in inc:
            continue
        v = inc[b.label]
        if isinstance(v, ValueRef) and v.id in b_defs:
            if v.id in b_phi:
                pv = {lab: pvv for pvv, lab in b_phi[v.id].phi_incoming()}
                if p_label not in pv:
                    return None
                out[phi.result] = pv[p_label]
            else:
                return None
        else:
            out[phi.result] = v
    return out


def run_jump_threading(m: IrModule) -> None:
    """Redirect edges whose branch outcome is already decided.

    A block containing only pure, locally-used computations and a conditional
    branch is bypassed for any predecessor edge along which the condition is a
    known constant (from phi-of-constant incoming values or from dominating
    comparisons on the same value).  Legality is checked before anything is
    written: a loop header is never bypassed, the new target's phis get
    values live at the predecessor, and a predecessor that already enters
    the target must send the same ones.  So a loop keeps its header and id,
    or, left with no back edge, stops being a loop, and ``_transform`` drops
    its pragmas as it does for any loop a pass deletes."""
    for fn in m.functions:
        for _ in range(64):
            if not _thread_one(fn):
                break
        drop_unreachable_blocks(fn)
        collapse_trivial_phis(fn)
        erase_dead_pure(fn)


def _thread_one(fn: IrFunction) -> bool:
    """Make the first legal bypass; False when there is none."""
    dom = natural_loops(fn).dom
    preds = dom.preds
    defs = fn.defined_values()
    def_block: dict[str, str] = {}
    for blk in fn.blocks:
        for ins in blk.all_instructions():
            if ins.result is not None:
                def_block[ins.result] = blk.label
    bmap = fn.block_map()

    for b in fn.blocks:
        # As in LLVM, no loop header is bypassed: that would move the loop's
        # entry, so the loop would come back under a new id, its pragmas lost.
        if (any(dom.dominates(b.label, u) for u in preds[b.label])
                or not _threadable_block(fn, b)):
            continue
        term = b.terminator
        for p_label in list(preds[b.label]):
            p = bmap[p_label]
            p_term = p.terminator
            slots = [i for i, op in enumerate(p_term.operands)
                     if isinstance(op, LabelRef) and op.label == b.label]
            for slot in slots:
                # 1 = true edge, 2 = false edge
                slot_kind = slot if p_term.opcode is Opcode.CONDBR else None
                facts = _edge_facts(fn, dom, preds, p_label, slot_kind, defs,
                                    def_block)
                cval = _determine_condition(b, p_label, facts, defs)
                if cval is None:
                    continue
                succ = bmap[term.operands[1 if cval else 2].label]  # type: ignore[union-attr]
                phi_vals = _phi_value_via(succ, b, p_label)
                if phi_vals is None:
                    continue
                # A value flowing into succ's phi must be live at P.
                if any(isinstance(v, ValueRef) and v.id in def_block
                       and not dom.dominates(def_block[v.id], p_label)
                       for v in phi_vals.values()):
                    continue
                # An edge P already has into succ must carry the same values.
                if any(str(v) != str(phi_vals[phi.result])
                       for phi in succ.phis()
                       for v, lab in phi.phi_incoming() if lab == p_label):
                    continue
                _apply_thread(fn, p, slot, b, succ, phi_vals)
                return True
    return False


def _apply_thread(fn: IrFunction, p: IrBlock, slot: int, b: IrBlock,
                  succ: IrBlock, phi_vals: dict[str, Operand]) -> None:
    term = p.terminator
    if succ.label in term.successors():
        # P's other edge enters succ already, with the same phi values: P
        # now goes there alone, so each phi keeps one entry per edge.
        p.terminator = IrInstruction(None, Opcode.BR, [LabelRef(succ.label)],
                                     term.ir_type)
    else:
        term.operands[slot] = LabelRef(succ.label)
        for phi in succ.phis():
            phi.operands.extend([phi_vals[phi.result], LabelRef(p.label)])
    if b.label not in p.terminator.successors():
        remove_phi_entries(b, p.label)
    drop_unreachable_blocks(fn)
    collapse_trivial_phis(fn)
