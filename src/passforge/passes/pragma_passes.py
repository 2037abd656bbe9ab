"""Pragma-anchored passes: unroll expansion and function inlining.

These hold a fixed position in the compilation pipeline (they are applied
once, up front) and are excluded from the search agent's action space;
pipeline and array_partition pragmas stay as metadata for the estimator.
"""
from __future__ import annotations

from ..ir import (
    IrBlock, IrFunction, IrInstruction, IrModule, LabelRef, LoopInfo, Opcode,
    PragmaKind, ValueRef, natural_loops, postorder,
)
from ..ir.types import Operand, VOID
from .loop_passes import (
    UnrollShape, branch_on_test, copy_body, edge_values, peel_iterations,
    repair_preheader, route_through_exit_phi, set_edge_values,
    unrollable_shape, used_outside,
)
from .rewrite import (
    FreshNames, collapse_trivial_phis, rename_phi_pred, replace_all_uses,
    retarget_terminator, subst_operand,
)

UNROLL_INSTRUCTION_BUDGET = 50_000


class PragmaError(Exception):
    pass


def _within_budget(what: str, projected: int) -> None:
    """The one instruction budget of both pragma passes."""
    if projected > UNROLL_INSTRUCTION_BUDGET:
        raise PragmaError(f"{what} would create ~{projected} instructions "
                          f"(budget {UNROLL_INSTRUCTION_BUDGET})")


def _apply_unroll(fn: IrFunction, shape: UnrollShape, factor: int) -> None:
    trip = shape.trip
    fresh = FreshNames(fn)
    _within_budget(f"unrolling loop {shape.loop.loop_id}",
                   len(shape.body.instructions) * min(trip, factor))

    if factor >= trip:
        _full_unroll(fn, shape, fresh)
        return
    if trip % factor == 0:
        _clean_unroll(shape, factor, fresh)
        return
    _checked_unroll(fn, shape, factor, fresh)


def _full_unroll(fn: IrFunction, shape: UnrollShape,
                 fresh: FreshNames) -> None:
    """Replicate every iteration straight-line and delete the loop."""
    header, body, pre = shape.header, shape.body, shape.pre
    final = peel_iterations(shape, shape.trip, fresh)
    retarget_terminator(pre, header.label, shape.exit_label)
    exit_blk = fn.block_map()[shape.exit_label]
    rename_phi_pred(exit_blk, header.label, pre.label)
    fn.blocks = [b for b in fn.blocks
                 if b.label not in (header.label, body.label)]
    for phi_id, value in final.items():
        replace_all_uses(fn, phi_id, value)
    collapse_trivial_phis(fn)


def _clean_unroll(shape: UnrollShape, factor: int,
                  fresh: FreshNames) -> None:
    """Divisible trip: body copies merge into the single body block."""
    header, body = shape.header, shape.body
    source = list(body.instructions)
    latch = edge_values(header, body.label)
    state = latch
    for _ in range(factor - 1):
        state = copy_body(body, source, latch, state, fresh)
    set_edge_values(header, body.label, state)


def _checked_unroll(fn: IrFunction, shape: UnrollShape, factor: int,
                    fresh: FreshNames) -> None:
    """Non-divisible trip: replicate with an exit test between copies, the
    classic fragmented lowering with a termination-check block per replica."""
    header, body = shape.header, shape.body
    exit_blk = fn.block_map()[shape.exit_label]
    if (exit_blk.phis()
            or natural_loops(fn).preds[shape.exit_label] != [header.label]):
        raise PragmaError(
            f"loop {shape.loop.loop_id}: unsupported exit shape for a "
            f"remainder-checked unroll")

    # Header phis used past the loop see a different value at each exit edge.
    routed = sorted((phi for phi in header.phis()
                     if used_outside(fn, shape.loop.blocks, phi.result)),
                    key=lambda phi: phi.result)

    source = list(body.instructions)
    latch = edge_values(header, body.label)
    state = latch
    exit_states: list[tuple[str, dict[str, Operand]]] = []
    inside = set(shape.loop.blocks)
    current = body
    for k in range(1, factor):
        exit_states.append((current.label, state))
        # Termination check between replica k-1 and replica k.
        nxt = IrBlock(fresh.label(f"{body.label}.r{k}"))
        branch_on_test(shape, current, state, nxt.label, fresh)
        state = copy_body(nxt, source, latch, state, fresh)
        nxt.terminator = IrInstruction(None, Opcode.BR,
                                       [LabelRef(header.label)], VOID)
        fn.blocks.insert(fn.blocks.index(current) + 1, nxt)
        inside.add(nxt.label)
        current = nxt
    set_edge_values(header, body.label, state, current.label)

    for phi in routed:
        entries: list = [ValueRef(phi.result), LabelRef(header.label)]
        for blk_label, st in exit_states:
            entries.extend([st[phi.result], LabelRef(blk_label)])
        route_through_exit_phi(fn, inside, exit_blk, phi, entries, fresh)


def apply_unroll_pragmas(m: IrModule) -> None:
    for fn in m.functions:
        for pragma in [p for p in fn.pragmas if p.kind is PragmaKind.UNROLL]:
            forest = natural_loops(fn)
            loop = forest.by_id(pragma.target)  # type: ignore[arg-type]
            if loop is None:
                raise PragmaError(f"unroll target loop {pragma.target} not found")
            # The repair names with its own FreshNames: sharing the one
            # _apply_unroll starts afterwards would renumber unrolled values.
            repair_preheader(fn, loop, FreshNames(fn))
            shape = unrollable_shape(fn, loop, require_exact=False)
            if shape is None:
                raise PragmaError(
                    f"loop {pragma.target} in @{fn.name} is not in canonical "
                    f"countable form; cannot expand its unroll pragma")
            _apply_unroll(fn, shape, pragma.factor)  # type: ignore[arg-type]
            fn.pragmas.remove(pragma)


# ---------------------------------------------------------------------------
# Inlining
# ---------------------------------------------------------------------------

def _inline_one_call(m: IrModule, caller: IrFunction, block: IrBlock,
                     call: IrInstruction) -> None:
    callee = m.function(call.callee)
    fresh = FreshNames(caller)

    # Split the call block: instructions after the call move to a new block.
    at = block.instructions.index(call)
    cont = IrBlock(fresh.label(f"{block.label}.split"))
    cont.instructions = block.instructions[at + 1:]
    cont.terminator = block.terminator
    block.instructions = block.instructions[:at]
    for succ in cont.successors():
        rename_phi_pred(caller.block_map()[succ], block.label, cont.label)

    # Clone the callee body.
    label_map: dict[str, str] = {}
    value_map: dict[str, Operand] = {
        pid: arg for (pid, _ty), arg in zip(callee.params, call.operands)}
    loop_id_map: dict[int, int] = {}
    next_loop_id = 1 + max((b.loop_info.loop_id for b in caller.blocks
                            if b.loop_info is not None), default=0)

    # Every label and result is named before any instruction is cloned: a
    # phi may read a value that a later block defines.
    for b in callee.blocks:
        label_map[b.label] = fresh.label(f"{callee.name}.{b.label}")
        if b.loop_info is not None and b.loop_info.loop_id not in loop_id_map:
            loop_id_map[b.loop_info.loop_id] = next_loop_id
            next_loop_id += 1
        for ins in b.all_instructions():
            if ins.result is not None:
                value_map[ins.result] = ValueRef(fresh.value(f"{ins.result}.i"))

    new_blocks: list[IrBlock] = []
    ret_edges: list[tuple[str, Operand | None]] = []
    for b in callee.blocks:
        nb = IrBlock(label_map[b.label])
        if b.loop_info is not None:
            nb.loop_info = LoopInfo(loop_id_map[b.loop_info.loop_id],
                                    b.loop_info.depth, b.loop_info.is_header)
        for ins in b.all_instructions():
            mapped_ops = [LabelRef(label_map[op.label])
                          if isinstance(op, LabelRef)
                          else subst_operand(op, value_map)
                          for op in ins.operands]
            result = value_map[ins.result].id if ins.result is not None else None
            new = IrInstruction(result, ins.opcode, mapped_ops, ins.ir_type,
                                ins.pred, ins.callee)
            if new.opcode is Opcode.RET:
                rv = new.operands[0] if new.operands else None
                ret_edges.append((nb.label, rv))
                nb.terminator = IrInstruction(None, Opcode.BR,
                                              [LabelRef(cont.label)], VOID)
            elif new.is_terminator:
                nb.terminator = new
            else:
                nb.instructions.append(new)
        new_blocks.append(nb)

    block.terminator = IrInstruction(
        None, Opcode.BR, [LabelRef(label_map[callee.entry.label])], VOID)

    idx = caller.blocks.index(block)
    caller.blocks[idx + 1:idx + 1] = new_blocks + [cont]

    # Wire up the return value (after the new blocks join the function so
    # every use is visible to the rewrite).
    if call.result is not None:
        if len(ret_edges) == 1:
            rv = ret_edges[0][1]
            assert rv is not None
            replace_all_uses(caller, call.result, rv)
        else:
            phi_ops: list = []
            for lab, rv in ret_edges:
                assert rv is not None
                phi_ops.extend([rv, LabelRef(lab)])
            ret_phi = IrInstruction(fresh.value(call.result), Opcode.PHI,
                                    phi_ops, call.ir_type)
            cont.instructions.insert(0, ret_phi)
            replace_all_uses(caller, call.result, ValueRef(ret_phi.result))

    # Callee loop pragmas follow their loops into the caller.
    for p in callee.pragmas:
        if p.kind in (PragmaKind.UNROLL, PragmaKind.PIPELINE) \
                and p.target in loop_id_map:
            np = p.clone()
            np.target = loop_id_map[p.target]  # type: ignore[assignment]
            caller.pragmas.append(np)


def _check_inline_budget(m: IrModule, targets: set[str]) -> None:
    """Refuse, before any call is inlined, to create more than the budget
    of instructions in one function.  A callee brings its own calls to
    targets inlined; calls form a DAG, so callees are sized first."""
    calls = {fn.name: [ins.callee for b in fn.blocks
                       for ins in b.all_instructions()
                       if ins.opcode is Opcode.CALL and ins.callee in targets]
             for fn in m.functions}
    size: dict[str, int] = {}
    for name in postorder(None, {None: list(calls), **calls})[:-1]:
        created = sum(size[c] for c in calls[name])
        _within_budget(f"inlining into @{name}", created)
        size[name] = created + sum(len(b.all_instructions())
                                   for b in m.function(name).blocks)


def apply_inline_pragmas(m: IrModule) -> None:
    targets = []
    for fn in m.functions:
        for p in list(fn.pragmas):
            if p.kind is PragmaKind.INLINE:
                targets.append(p.target)
                fn.pragmas.remove(p)
    _check_inline_budget(m, set(targets))
    for target in targets:
        for caller in [f for f in m.functions if f.name != target]:
            # Each inlined call restarts the scan at the caller's first block.
            while site := next(((b, ins) for b in caller.blocks
                                for ins in b.instructions
                                if ins.opcode is Opcode.CALL
                                and ins.callee == target), None):
                _inline_one_call(m, caller, *site)
    # Fully-inlined callees with no remaining callers are dropped.
    called = {ins.callee for f in m.functions for b in f.blocks
              for ins in b.instructions if ins.opcode is Opcode.CALL}
    m.functions = [f for f in m.functions
                   if f.is_top or f.name not in targets or f.name in called]

