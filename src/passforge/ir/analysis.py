"""CFG utilities shared by the verifier, transform passes, and the QoR model.

Everything here is derived from the block structure alone: predecessor and
successor maps, depth-first postorder, dominators (iterative
Cooper-Harvey-Kennedy), the natural loop forest and each loop's dedicated
preheader.  Loop identities come from the ``loop(id, ...)`` annotations on
header blocks; membership and nesting are always recomputed from back edges
so they stay correct as passes rewrite the CFG.  One dataflow helper rides along: `pointer_target` decodes
the array and index a pointer addresses.
"""
from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass, field

from .types import (
    GlobalRef, IrBlock, IrFunction, IrInstruction, LoopInfo, Opcode, Operand,
    ValueRef,
)


def pointer_target(defs: dict[str, IrInstruction],
                   op: Operand) -> tuple[str, Operand] | None:
    """(array, index operand) a pointer addresses when it is a getelementptr
    result: the array is "@name" for a global, "%id" for a parameter.  None
    when the pointer's provenance is unknown."""
    if isinstance(op, ValueRef):
        src = defs.get(op.id)
        if src is not None and src.opcode is Opcode.GETELEMENTPTR:
            base, idx = src.operands
            arr = "@" + base.name if isinstance(base, GlobalRef) else "%" + base.id
            return arr, idx
    return None


def successor_map(fn: IrFunction) -> dict[str, list[str]]:
    return {b.label: b.successors() for b in fn.blocks}


def predecessor_map(fn: IrFunction) -> dict[str, list[str]]:
    preds: dict[str, list[str]] = {b.label: [] for b in fn.blocks}
    for b in fn.blocks:
        for s in b.successors():
            if s in preds:
                preds[s].append(b.label)
    return preds


def postorder(root: Hashable, succs: Mapping[Hashable, Iterable]) -> list:
    """Depth-first postorder of the nodes reachable from ``root``.

    Each node's successors are visited in the order ``succs`` lists them; a
    successor that is not a key of ``succs`` is skipped.  Iterative, so deep
    graphs cannot exhaust the recursion limit."""
    seen = {root}
    order = []
    stack = [(root, iter(succs[root]))]
    while stack:
        node, it = stack[-1]
        for s in it:
            if s in succs and s not in seen:
                seen.add(s)
                stack.append((s, iter(succs[s])))
                break
        else:
            order.append(node)
            stack.pop()
    return order


def reachable_blocks(fn: IrFunction) -> set[str]:
    return set(postorder(fn.entry.label, successor_map(fn)))


def reverse_postorder(fn: IrFunction) -> list[str]:
    return postorder(fn.entry.label, successor_map(fn))[::-1]


def dominators(fn: IrFunction) -> dict[str, str | None]:
    """Immediate-dominator map over reachable blocks, in reverse postorder;
    entry maps to None."""
    rpo = reverse_postorder(fn)
    index = {lab: i for i, lab in enumerate(rpo)}
    preds = predecessor_map(fn)
    entry = fn.entry.label
    idom: dict[str, str | None] = {entry: entry}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for lab in rpo:
            if lab == entry:
                continue
            new_idom = None
            for p in preds[lab]:
                if p in idom:
                    new_idom = p if new_idom is None else intersect(p, new_idom)
            if new_idom is not None and idom.get(lab) != new_idom:
                idom[lab] = new_idom
                changed = True
    out: dict[str, str | None] = {}
    for lab in rpo:
        out[lab] = None if lab == entry else idom.get(lab)
    return out


class DomTree:
    """Dominator tree with O(depth) dominance queries."""

    def __init__(self, fn: IrFunction):
        self.idom = dominators(fn)
        # In reverse postorder each block's immediate dominator comes first.
        self.depth: dict[str, int] = {}
        for lab, up in self.idom.items():
            self.depth[lab] = 0 if up is None else self.depth[up] + 1

    def dominates(self, a: str, b: str) -> bool:
        """True when block a dominates block b (reflexive)."""
        if a not in self.depth or b not in self.depth:
            return False
        while self.depth[b] > self.depth[a]:
            b = self.idom[b]  # type: ignore[assignment]
        return a == b


@dataclass
class Loop:
    loop_id: int
    header: str
    blocks: set[str] = field(default_factory=set)
    latches: list[str] = field(default_factory=list)
    depth: int = 1
    children: list["Loop"] = field(default_factory=list)

    def exits(self, fn: IrFunction) -> list[tuple[str, str]]:
        """(from_block, to_block) edges leaving the loop."""
        out = []
        bmap = fn.block_map()
        for lab in sorted(self.blocks):
            for s in bmap[lab].successors():
                if s not in self.blocks:
                    out.append((lab, s))
        return out


@dataclass
class LoopForest:
    """A function's loops.  Each loop lists its children; the forest, not
    the loop, answers for the parent, so no loop refers back up the tree.

    The CFG analysis the loops were derived from rides along, so a caller
    that holds the forest need not redo it: ``dom``, the dominator tree;
    ``preds``, the predecessor map; ``rpo``, the reachable blocks in reverse
    postorder; ``reach``, the same blocks as a set."""
    loops: list[Loop]
    by_header: dict[str, Loop]
    innermost: dict[str, Loop | None]
    parents: dict[str, Loop | None]     # by header label
    dom: DomTree
    preds: dict[str, list[str]]
    rpo: list[str]
    reach: set[str]

    def parent(self, loop: Loop) -> Loop | None:
        """The smallest loop strictly containing ``loop``, if any."""
        return self.parents[loop.header]

    def by_id(self, loop_id: int) -> Loop | None:
        for l in self.loops:
            if l.loop_id == loop_id:
                return l
        return None


def natural_loops(fn: IrFunction) -> LoopForest:
    """Natural loops from back edges (edge u->h where h dominates u).

    Loop ids are taken from header annotations when present; unannotated
    headers get ids above any annotated one (deterministically, in RPO).
    """
    dom = DomTree(fn)
    preds = predecessor_map(fn)
    rpo = list(dom.idom)
    reach = set(rpo)
    bmap = fn.block_map()

    back_edges: dict[str, list[str]] = {}
    for b in fn.blocks:
        if b.label not in reach:
            continue
        for s in b.successors():
            if s in reach and dom.dominates(s, b.label):
                back_edges.setdefault(s, []).append(b.label)

    used_ids = set()
    for lab in back_edges:
        blk = bmap[lab]
        if blk.loop_info is not None and blk.loop_info.is_header:
            used_ids.add(blk.loop_info.loop_id)
    next_id = max(used_ids, default=0) + 1

    loops: list[Loop] = []
    for header in rpo:
        if header not in back_edges:
            continue
        blk = bmap[header]
        if blk.loop_info is not None and blk.loop_info.is_header:
            lid = blk.loop_info.loop_id
        else:
            lid = next_id
            next_id += 1
        loop = Loop(lid, header, {header}, sorted(back_edges[header]))
        worklist = list(loop.latches)
        while worklist:
            lab = worklist.pop()
            if lab in loop.blocks:
                continue
            loop.blocks.add(lab)
            for p in preds[lab]:
                if p in reach and p != header:
                    worklist.append(p)
        loops.append(loop)

    # Nesting: parent is the smallest strictly-containing loop.
    parents: dict[str, Loop | None] = {}
    for l in loops:
        candidates = [o for o in loops
                      if o is not l and l.header in o.blocks
                      and l.blocks <= o.blocks]
        parent = min(candidates, key=lambda o: len(o.blocks), default=None)
        parents[l.header] = parent
        if parent is not None:
            parent.children.append(l)
    for l in loops:
        p = parents[l.header]
        while p is not None:
            l.depth += 1
            p = parents[p.header]

    innermost: dict[str, Loop | None] = {b.label: None for b in fn.blocks}
    for l in sorted(loops, key=lambda l: l.depth):
        for lab in l.blocks:
            innermost[lab] = l

    return LoopForest(loops, {l.header: l for l in loops}, innermost, parents,
                      dom, preds, rpo, reach)


def dedicated_preheader(fn: IrFunction, loop: Loop) -> IrBlock | None:
    """The loop's dedicated preheader: the one predecessor of its header
    outside the loop, when that block branches nowhere else.  None when the
    loop has none."""
    outside = [p for p in predecessor_map(fn)[loop.header]
               if p not in loop.blocks]
    if len(outside) != 1:
        return None
    pre = fn.block_map()[outside[0]]
    return pre if pre.successors() == [loop.header] else None


def refresh_loop_annotations(fn: IrFunction) -> LoopForest:
    """Recompute block loop annotations from the CFG; returns the forest they
    were taken from.

    Header ids are preserved; depths and non-header memberships follow the
    derived forest.  Blocks no longer inside any loop lose their annotation.
    ``passes._transform`` calls this on every function after every pass
    that wrote, so no pass keeps annotations up to date itself.
    """
    forest = natural_loops(fn)
    for b in fn.blocks:
        l = forest.innermost.get(b.label)
        if l is None:
            b.loop_info = None
        else:
            b.loop_info = LoopInfo(l.loop_id, l.depth, b.label == l.header)
    return forest
