"""Instruction-level passes: instsimplify, instcombine, adce, early_cse,
reassociate, and gvn.

All of them are function-local and work on the mutable module in place; the
pass driver owns cloning, verification, and changed-detection.
"""
from __future__ import annotations

from ..ir import (
    Const, InstrClass, IrBlock, IrFunction, IrInstruction, IrModule, Opcode,
    ValueRef, fold_constant, natural_loops, pointer_target, wrap32,
)
from ..ir.types import FOLDABLE, I1, OPCODES, PREDICATES, PURE_OR_DIV, Operand
from .rewrite import FreshNames, erase_dead_pure, phi_value, replace_all_uses


def _as_const(op: Operand) -> int | None:
    return op.value if isinstance(op, Const) else None


def _same_value(a: Operand, b: Operand) -> bool:
    return isinstance(a, ValueRef) and isinstance(b, ValueRef) and a.id == b.id


def simplify_instruction(ins: IrInstruction) -> Operand | None:
    """Value the instruction already has, if it reduces to an existing
    operand or a constant; None when no simplification applies.  Past
    phis, folds and selects, the rules are the opcode row's algebra."""
    op, operands = ins.opcode, ins.operands
    if op is Opcode.PHI:
        return phi_value(ins)
    if op in FOLDABLE:
        consts = [_as_const(o) for o in operands]
        if None not in consts:
            folded = fold_constant(op, consts, ins.pred)  # type: ignore[arg-type]
            if folded is not None:
                return Const(folded)
    if op is Opcode.SELECT:
        c, t, f = operands
        if isinstance(c, Const):
            return t if c.value else f
        return t if str(t) == str(f) else None
    if len(operands) != 2:
        return None
    a, b = operands
    row = OPCODES[op]
    if _same_value(a, b):
        if row.idempotent:
            return a
        if row.self_fold:
            return Const(fold_constant(op, [0, 0], ins.pred))
    ca, cb = _as_const(a), _as_const(b)
    if cb is not None:
        if cb == row.identity:
            return a
        if row.commutative and cb == row.absorber:
            return b
        if op is Opcode.SREM and cb == 1:
            return Const(0)
    if ca is not None:
        if ca == row.absorber:
            return a
        if row.commutative and ca == row.identity:
            return b
    return None


def _simplify_away(fn: IrFunction, b: IrBlock, ins: IrInstruction) -> bool:
    """Replace the uses of ``ins``, an instruction of ``b`` with a result,
    by the value it simplifies to, and drop it; False when it does not
    simplify."""
    repl = simplify_instruction(ins)
    if repl is None:
        return False
    replace_all_uses(fn, ins.result, repl)
    b.instructions.remove(ins)
    return True


def run_instsimplify(m: IrModule) -> None:
    for fn in m.functions:
        changed = True
        while changed:
            changed = False
            for b in fn.blocks:
                for ins in list(b.instructions):
                    if ins.result is not None and _simplify_away(fn, b, ins):
                        changed = True


def _power_of_two(v: int) -> int | None:
    if v > 1 and (v & (v - 1)) == 0:
        return v.bit_length() - 1
    return None


def _combine(fn: IrFunction, b: IrBlock, ins: IrInstruction,
             defs: dict[str, IrInstruction]) -> bool:
    """Rewrite ``ins``, an instruction of ``b`` with a result, into a
    cheaper or canonical form; False when no rewrite applies."""
    op = ins.opcode
    a = ins.operands[0] if ins.operands else None
    bop = ins.operands[1] if len(ins.operands) > 1 else None
    # Constants go right of a commutative op, and of an icmp, swapping it.
    if ((OPCODES[op].commutative or op is Opcode.ICMP)
            and isinstance(a, Const) and not isinstance(bop, Const)):
        ins.operands = [bop, a]
        if op is Opcode.ICMP:
            ins.pred = PREDICATES[ins.pred].swap  # type: ignore[index]
        return True
    # sub x, C -> add x, -C
    if op is Opcode.SUB and isinstance(bop, Const) and bop.value != 0:
        ins.opcode = Opcode.ADD
        ins.operands = [a, Const(wrap32(-bop.value))]
        return True
    # mul x, 2^k -> shl x, k
    if op is Opcode.MUL and isinstance(bop, Const):
        k = _power_of_two(bop.value)
        if k is not None:
            ins.opcode = Opcode.SHL
            ins.operands = [a, Const(k)]
            return True
    # add x, x -> shl x, 1
    if op is Opcode.ADD and _same_value(a, bop):
        ins.opcode = Opcode.SHL
        ins.operands = [a, Const(1)]
        return True
    src = defs.get(a.id) if isinstance(a, ValueRef) else None
    if src is None or not isinstance(bop, Const):
        return False
    # add (add x, C1), C2 -> add x, C1+C2  (single-use chain)
    if (op is Opcode.ADD and src.opcode is Opcode.ADD
            and isinstance(src.operands[1], Const)):
        c = wrap32(src.operands[1].value + bop.value)
        ins.operands = [src.operands[0], Const(c)]
        return True
    # icmp of select-of-two-constants folds to the flag.
    if (op is Opcode.ICMP and ins.pred in ("eq", "ne")
            and src.opcode is Opcode.SELECT
            and isinstance(src.operands[1], Const)
            and isinstance(src.operands[2], Const)):
        tv, fv = src.operands[1].value, src.operands[2].value
        tm = fold_constant(Opcode.ICMP, [tv, bop.value], ins.pred)
        fm = fold_constant(Opcode.ICMP, [fv, bop.value], ins.pred)
        cond = src.operands[0]
        if tm == 1 and fm == 0:
            replace_all_uses(fn, ins.result, cond)
            b.instructions.remove(ins)
            return True
        if tm == 0 and fm == 1:
            ins.opcode = Opcode.XOR
            ins.pred = None
            ins.ir_type = I1
            ins.operands = [cond, Const(1)]
            return True
    return False


def run_instcombine(m: IrModule) -> None:
    """instsimplify plus rewrites that may create new (cheaper) instructions.

    One def map per function serves every lookup: a rewrite keeps each
    definition's object, and a removed result has no use left to look up."""
    for fn in m.functions:
        defs = fn.defined_values()
        changed = True
        while changed:
            changed = False
            for b in fn.blocks:
                for ins in list(b.instructions):
                    if ins.result is not None and (
                            _simplify_away(fn, b, ins)
                            or _combine(fn, b, ins, defs)):
                        changed = True
                # condbr (xor c, 1), T, F -> condbr c, F, T
                term = b.terminator
                if term is not None and term.opcode is Opcode.CONDBR:
                    c = term.operands[0]
                    src = defs.get(c.id) if isinstance(c, ValueRef) else None
                    if (src is not None and src.opcode is Opcode.XOR
                            and isinstance(src.operands[1], Const)
                            and src.operands[1].value == 1):
                        term.operands = [src.operands[0],
                                         term.operands[2], term.operands[1]]
                        changed = True
        erase_dead_pure(fn)


def run_adce(m: IrModule) -> None:
    """Liveness from stores, calls, and terminators; everything else dies.

    Dead loads and divisions are removed too: the transformed program may trap
    strictly less often, never more (trap refinement).
    """
    for fn in m.functions:
        defs = fn.defined_values()
        live: set[str] = set()
        work: list[str] = []

        def mark(ins: IrInstruction):
            for vid in ins.value_uses():
                if vid not in live and vid in defs:
                    live.add(vid)
                    work.append(vid)

        for b in fn.blocks:
            for ins in b.all_instructions():
                if ins.is_terminator or OPCODES[ins.opcode].side_effects:
                    mark(ins)
        while work:
            vid = work.pop()
            mark(defs[vid])

        for b in fn.blocks:
            b.instructions = [
                ins for ins in b.instructions
                if OPCODES[ins.opcode].side_effects
                or (ins.result is not None and ins.result in live)
            ]


def _expr_key(ins: IrInstruction, canon: dict[str, str],
              commutative_sort: bool) -> tuple | None:
    """Hashable key for pure instructions; None for non-CSE-able ones."""
    if ins.opcode not in PURE_OR_DIV:
        return None

    def rep(op: Operand) -> str:
        if isinstance(op, ValueRef):
            return "%" + canon.get(op.id, op.id)
        return str(op)

    ops = [rep(o) for o in ins.operands]
    pred = ins.pred
    if commutative_sort and (OPCODES[ins.opcode].commutative or (
            ins.opcode is Opcode.ICMP and PREDICATES[pred].swap == pred)):
        ops = sorted(ops)
    return (ins.opcode.value, pred, str(ins.ir_type), *ops)


def _scoped_value_numbering(fn: IrFunction, commutative_sort: bool) -> None:
    """Dominator-scoped redundancy elimination for pure instructions, plus
    block-local load reuse (killed by stores to the same array and by calls)."""
    dom = natural_loops(fn).dom
    children: dict[str, list[str]] = {b.label: [] for b in fn.blocks}
    root = fn.entry.label
    for lab, parent in dom.idom.items():
        if parent is not None and lab != root:
            children[parent].append(lab)
    bmap = fn.block_map()
    defs = fn.defined_values()
    canon: dict[str, str] = {}
    table: dict[tuple, str] = {}
    # Depth-first over the dominator tree, children in label order; a
    # block's entry comes back up the stack with the keys it added once its
    # subtree is done, and leaves the table with them.
    stack: list[tuple[str, list[tuple] | None]] = [(root, None)]
    while stack:
        label, added = stack.pop()
        if added is not None:
            for key in added:
                del table[key]
            continue
        added = []
        stack.append((label, added))
        stack.extend((c, None) for c in sorted(children[label], reverse=True))
        b = bmap[label]
        loads: dict[str, tuple[str, str | None]] = {}  # ptr rep -> (value, array)
        for ins in list(b.instructions):
            op = ins.opcode
            if op is Opcode.CALL:
                loads.clear()
                continue
            if op is Opcode.STORE:
                arr = _array_of(defs, ins.operands[1])
                for prep in list(loads):
                    larr = loads[prep][1]
                    if arr is None or larr is None or larr == arr:
                        del loads[prep]
                continue
            if op is Opcode.LOAD:
                ptr = ins.operands[0]
                prep = ("%" + canon.get(ptr.id, ptr.id)
                        if isinstance(ptr, ValueRef) else str(ptr))
                if prep in loads:
                    leader = loads[prep][0]
                    canon[ins.result] = leader
                    replace_all_uses(fn, ins.result, ValueRef(leader))
                    b.instructions.remove(ins)
                else:
                    loads[prep] = (ins.result, _array_of(defs, ptr))
                continue
            if op is Opcode.PHI or ins.result is None:
                continue
            key = _expr_key(ins, canon, commutative_sort)
            if key is None:
                continue
            if key in table:
                leader = table[key]
                canon[ins.result] = leader
                replace_all_uses(fn, ins.result, ValueRef(leader))
                b.instructions.remove(ins)
            else:
                table[key] = ins.result
                added.append(key)


def _array_of(defs: dict[str, IrInstruction], op: Operand) -> str | None:
    """Array a pointer refers to, or None when provenance is unknown."""
    target = pointer_target(defs, op)
    return None if target is None else target[0]


def run_early_cse(m: IrModule) -> None:
    for fn in m.functions:
        _scoped_value_numbering(fn, commutative_sort=False)


def run_gvn(m: IrModule) -> None:
    """Dominator-scoped value numbering with commutative canonicalization
    (no partial redundancy elimination)."""
    for fn in m.functions:
        _scoped_value_numbering(fn, commutative_sort=True)


def run_reassociate(m: IrModule) -> None:
    """Rebalance single-use add/mul chains: constants folded together and
    operands put in a canonical order (exposes redundancies to gvn/cse)."""
    for fn in m.functions:
        fresh = FreshNames(fn)
        defs = fn.defined_values()
        use_counts: dict[str, int] = {}
        for b in fn.blocks:
            for ins in b.all_instructions():
                for vid in ins.value_uses():
                    use_counts[vid] = use_counts.get(vid, 0) + 1

        user_ops = _user_opcodes(fn)
        for b in fn.blocks:
            pos = {id(ins): i for i, ins in enumerate(b.instructions)}
            for ins in list(b.instructions):
                row = OPCODES[ins.opcode]
                if not (row.commutative and row.cls is InstrClass.BINARY):
                    continue
                if id(ins) not in pos:
                    continue
                opcode = ins.opcode
                # Is this a chain root? (no user of the same opcode)
                if opcode in user_ops.get(ins.result, ()):
                    continue
                # Collect leaves across single-use same-opcode links in this
                # block, left to right.
                leaves: list[Operand] = []
                chain: list[IrInstruction] = []
                todo = ins.operands[::-1]
                while todo:
                    op = todo.pop()
                    src = defs.get(op.id) if isinstance(op, ValueRef) else None
                    if (src is not None and src.opcode is opcode
                            and id(src) in pos
                            and use_counts.get(op.id, 0) == 1):
                        chain.append(src)
                        todo += src.operands[::-1]
                    else:
                        leaves.append(op)
                if len(leaves) < 3:
                    continue
                const_val = row.identity
                rest: list[Operand] = []
                for leaf in leaves:
                    if isinstance(leaf, Const):
                        folded = fold_constant(opcode, [const_val, leaf.value])
                        const_val = folded  # add/mul never trap
                    else:
                        rest.append(leaf)
                rest.sort(key=str)
                target: list[Operand] = list(rest)
                if const_val != row.identity or not target:
                    target.append(Const(const_val))
                # Already canonical?
                current = [str(l) for l in leaves]
                if current == [str(t) for t in target]:
                    continue
                if len(target) == 1:
                    replace_all_uses(fn, ins.result, target[0])
                    b.instructions.remove(ins)
                    for c in chain:
                        if c in b.instructions:
                            b.instructions.remove(c)
                    user_ops = _user_opcodes(fn)
                    continue
                # Rebuild a left-leaning chain ending in this instruction.
                insert_at = b.instructions.index(ins)
                acc = target[0]
                for t in target[1:-1]:
                    tmp = IrInstruction(fresh.value(ins.result or "t"), opcode,
                                        [acc, t], ins.ir_type)
                    b.instructions.insert(insert_at, tmp)
                    insert_at += 1
                    acc = ValueRef(tmp.result)
                ins.operands = [acc, target[-1]]
                for c in chain:
                    if c in b.instructions:
                        b.instructions.remove(c)
                defs = fn.defined_values()
                user_ops = _user_opcodes(fn)
                pos = {id(i2): i2i for i2i, i2 in enumerate(b.instructions)}
        erase_dead_pure(fn)


def _user_opcodes(fn: IrFunction) -> dict[str, set[Opcode]]:
    """The opcodes of the instructions that read each value."""
    out: dict[str, set[Opcode]] = {}
    for b in fn.blocks:
        for ins in b.all_instructions():
            for vid in ins.value_uses():
                out.setdefault(vid, set()).add(ins.opcode)
    return out
