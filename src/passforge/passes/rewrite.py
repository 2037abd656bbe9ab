"""Shared SSA rewriting helpers used by the transform passes.

Which opcodes fold, and which may be cloned, hoisted or dropped when dead,
is read from the opcode table in ``ir.types`` and the sets derived from it
there; no pass keeps an opcode list of its own.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter

from ..ir import (
    Const, IrBlock, IrFunction, IrInstruction, IrModule, LabelRef,
    Opcode, ValueRef, fold_constant, natural_loops,
)
from ..ir.types import FOLDABLE, PURE_OR_DIV, Operand


class FreshNames:
    """Fresh SSA value ids and block labels for one function: a value is
    ``base.uN`` for the least free ``N`` from a counter up, and a label is
    ``base``, or else ``base.i`` for the least free ``i``.  What a search
    finds taken is kept per base, so taking one base again and again does
    not walk the names taken before."""

    def __init__(self, fn: IrFunction):
        self.taken = set(fn.param_ids())
        self.labels = {b.label for b in fn.blocks}
        for b in fn.blocks:
            for ins in b.all_instructions():
                if ins.result is not None:
                    self.taken.add(ins.result)
        self._counter = 0
        self._values: dict[str, tuple[dict[int, int], list[int]]] = {}
        self._labels: dict[str, int] = {}

    def restart(self) -> None:
        """Number values from 0 again, as a new instance would."""
        self._counter = 0

    def release(self, value: str) -> None:
        """Free ``value``, which has left the function."""
        base, _, n = value.partition(".u")
        if value in self.taken and base in self._values and n.isdecimal() \
                and value == f"{base}.u{int(n)}":
            insort(self._values[base][1], int(n))
        self.taken.discard(value)

    def value(self, base: str) -> str:
        base = base.split(".u")[0]
        n = self._counter
        if f"{base}.u{n}" in self.taken:
            n = self._least_free(base, n)
        self._counter = n + 1
        self.taken.add(f"{base}.u{n}")
        return f"{base}.u{n}"

    def _least_free(self, base: str, n: int) -> int:
        """The least ``N`` from ``n`` up with ``base.uN`` free.  Each number
        from ``k`` up to ``run[k]`` has been taken, and is still taken
        unless ``freed``, the released numbers, holds it; ``freed`` may
        also hold numbers taken again since."""
        run, freed = self._values.setdefault(base, ({}, []))
        start, path = n, []
        while n in run or f"{base}.u{n}" in self.taken:
            path.append(n)
            n = run.get(n, n + 1)
        end, i = n + 1, bisect_left(freed, start)
        while i < len(freed) and freed[i] < n:
            if f"{base}.u{freed[i]}" not in self.taken:
                n, end = freed.pop(i), n
                break
            freed.pop(i)
        for k in path:
            run[k] = end
        return n

    def label(self, base: str) -> str:
        if base not in self.labels:
            self.labels.add(base)
            return base
        i = self._labels.get(base, 0)
        while f"{base}.{i}" in self.labels:
            i += 1
        self._labels[base] = i + 1
        self.labels.add(f"{base}.{i}")
        return f"{base}.{i}"


def subst_operand(op: Operand, mapping: dict[str, Operand]) -> Operand:
    if isinstance(op, ValueRef) and op.id in mapping:
        return mapping[op.id]
    return op


def replace_all_uses(fn: IrFunction, old_id: str, new_op: Operand) -> None:
    """Rewrite every use of %old_id to new_op."""
    for b in fn.blocks:
        for ins in b.all_instructions():
            for i, op in enumerate(ins.operands):
                if isinstance(op, ValueRef) and op.id == old_id:
                    ins.operands[i] = new_op


def clone_with_map(ins: IrInstruction, mapping: dict[str, Operand],
                   fresh: FreshNames) -> tuple[IrInstruction | None, Operand | None]:
    """Clone an instruction applying ``mapping`` to its operands.

    Constant-folds pure operations whose operands become constants; in that
    case no instruction is emitted and the folded operand is returned instead.
    Returns (new_instruction_or_None, result_operand_or_None).
    """
    ops = [subst_operand(op, mapping) for op in ins.operands]
    if (ins.opcode in FOLDABLE
            and all(isinstance(o, Const) for o in ops)):
        folded = fold_constant(ins.opcode, [o.value for o in ops], ins.pred)
        if folded is not None:
            return None, Const(folded)
    if ins.opcode is Opcode.SELECT and isinstance(ops[0], Const):
        return None, ops[1] if ops[0].value else ops[2]
    new = IrInstruction(None, ins.opcode, ops, ins.ir_type, ins.pred, ins.callee)
    if ins.result is not None:
        new.result = fresh.value(ins.result)
    return new, (ValueRef(new.result) if new.result is not None else None)


def remove_phi_entries(block: IrBlock, pred_label: str) -> None:
    for ins in block.phis():
        ops = []
        for v, lab in ins.phi_incoming():
            if lab != pred_label:
                ops.extend([v, LabelRef(lab)])
        ins.operands = ops


def rename_phi_pred(block: IrBlock, old_label: str, new_label: str) -> None:
    for ins in block.phis():
        for i in range(1, len(ins.operands), 2):
            lab = ins.operands[i]
            if isinstance(lab, LabelRef) and lab.label == old_label:
                ins.operands[i] = LabelRef(new_label)


def retarget_terminator(block: IrBlock, old_label: str, new_label: str) -> None:
    """Point branch targets at a new label."""
    term = block.terminator
    assert term is not None
    for i, op in enumerate(term.operands):
        if isinstance(op, LabelRef) and op.label == old_label:
            term.operands[i] = LabelRef(new_label)


def condbr_compare(term: IrInstruction | None,
                   defs: dict[str, IrInstruction]) -> IrInstruction | None:
    """The ``icmp %x, C`` that ``term`` branches on, when ``term`` is a
    ``condbr`` on such a compare; ``defs`` maps value ids to definitions."""
    if term is None or term.opcode is not Opcode.CONDBR:
        return None
    cond = term.operands[0]
    cmp = defs.get(cond.id) if isinstance(cond, ValueRef) else None
    if (cmp is None or cmp.opcode is not Opcode.ICMP
            or not isinstance(cmp.operands[0], ValueRef)
            or not isinstance(cmp.operands[1], Const)):
        return None
    return cmp


def drop_unreachable_blocks(fn: IrFunction) -> int:
    """Remove blocks unreachable from entry, fixing phis in survivors."""
    reach = natural_loops(fn).reach
    dead = [b for b in fn.blocks if b.label not in reach]
    if not dead:
        return 0
    dead_labels = {b.label for b in dead}
    fn.blocks = [b for b in fn.blocks if b.label in reach]
    for b in fn.blocks:
        for lab in dead_labels:
            remove_phi_entries(b, lab)
    # Phis left with one incoming collapse to that value.
    collapse_trivial_phis(fn)
    return len(dead)


def phi_value(phi: IrInstruction) -> Operand | None:
    """The one value ``phi`` merges, its own result aside; None when it
    merges more than one."""
    vals = [v for v, _ in phi.phi_incoming()
            if not (isinstance(v, ValueRef) and v.id == phi.result)]
    return vals[0] if len({str(v) for v in vals}) == 1 else None


def collapse_trivial_phis(fn: IrFunction) -> int:
    """Replace single-incoming phis (and all-same-value phis) with the value."""
    n = 0
    changed = True
    while changed:
        changed = False
        for b in fn.blocks:
            for ins in list(b.phis()):
                value = phi_value(ins)
                if value is not None:
                    replace_all_uses(fn, ins.result, value)
                    b.instructions.remove(ins)
                    n += 1
                    changed = True
    return n


def erase_dead_pure(fn: IrFunction) -> None:
    """Drop pure instructions with unused results, then those only dropped
    ones used: one walk counts each value's uses, and a worklist drops the
    dead, so a dead cycle (a phi that feeds itself) keeps its uses."""
    uses = Counter([op.id for b in fn.blocks for ins in b.all_instructions()
                    for op in ins.operands if isinstance(op, ValueRef)])
    dead = [ins for b in fn.blocks for ins in b.instructions
            if ins.result not in uses and ins.result is not None
            and ins.opcode in PURE_OR_DIV]
    if not dead:
        return
    defs = fn.defined_values()
    for ins in dead:    # grows as it goes
        for v in ins.value_uses():
            uses[v] -= 1
            if not uses[v] and defs.get(v) is not None \
                    and defs[v].opcode in PURE_OR_DIV:
                dead.append(defs[v])
    gone = {ins.result for ins in dead}
    for b in fn.blocks:
        b.instructions = [ins for ins in b.instructions
                          if ins.result not in gone]


def instruction_count(m: IrModule) -> int:
    return sum(len(b.all_instructions()) for f in m.functions for b in f.blocks)


def block_count(m: IrModule) -> int:
    return sum(len(f.blocks) for f in m.functions)
