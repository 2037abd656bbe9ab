"""CFG utilities shared by the verifier, transform passes, and the QoR model.

Everything here is derived from the block structure alone: predecessor and
successor maps, depth-first postorder, the dominator tree (iterative
Cooper-Harvey-Kennedy), the natural loop forest and each loop's dedicated
preheader.  A dominator tree keeps the predecessor map and reverse postorder
it was built from, and a loop forest keeps its tree, so a caller holding
either need not walk the CFG again.  Loop identities come from the
``loop(id, ...)`` annotations on header blocks; membership and nesting are
always recomputed from back edges so they stay correct as passes rewrite the
CFG.  `natural_loops` memoizes its forest in ``fn.loop_memo`` under the CFG
shape it reads (per block in order: label, successors, header loop id), so
the memo cannot go stale; clones share it, so no caller mutates a forest.
One dataflow helper rides along: `pointer_target` decodes the array and
index a pointer addresses.
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


class DomTree:
    """Dominator tree (iterative Cooper-Harvey-Kennedy) with O(depth)
    dominance queries.  ``idom`` maps each reachable block, in reverse
    postorder, to its immediate dominator (None for entry); ``rpo`` lists
    the same blocks; ``preds`` is the predecessor map the tree was built
    from, over every block."""

    def __init__(self, fn: IrFunction):
        succs = {b.label: b.successors() for b in fn.blocks}
        self.rpo = rpo = postorder(fn.entry.label, succs)[::-1]
        self.preds = preds = {lab: [] for lab in succs}
        for lab, out in succs.items():
            for s in out:
                if s in preds:
                    preds[s].append(lab)
        index = {lab: i for i, lab in enumerate(rpo)}
        entry = fn.entry.label
        idom: dict[str, str] = {entry: entry}

        def intersect(a: str, b: str) -> str:
            while a != b:
                while index[a] > index[b]:
                    a = idom[a]
                while index[b] > index[a]:
                    b = idom[b]
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
        self.idom: dict[str, str | None] = {
            lab: None if lab == entry else idom.get(lab) for lab in rpo}
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


def _cfg_shape(fn: IrFunction) -> tuple:
    """All that `natural_loops` reads of ``fn``."""
    return tuple((b.label, tuple(b.successors()),
                  b.loop_info.loop_id if b.loop_info is not None
                  and b.loop_info.is_header else None) for b in fn.blocks)


def natural_loops(fn: IrFunction) -> LoopForest:
    """Natural loops from back edges (edge u->h where h dominates u).

    Loop ids are taken from header annotations when present; unannotated
    headers get ids above any annotated one (deterministically, in RPO).
    Memoized on ``fn`` (see the module docstring).
    """
    shape = _cfg_shape(fn)
    if fn.loop_memo is not None and fn.loop_memo[0] == shape:
        return fn.loop_memo[1]
    dom = DomTree(fn)
    preds, rpo = dom.preds, dom.rpo
    reach = set(rpo)

    back_edges: dict[str, list[str]] = {}
    for lab, succs, _ in shape:
        if lab not in reach:
            continue
        for s in succs:
            if s in reach and dom.dominates(s, lab):
                back_edges.setdefault(s, []).append(lab)

    header_ids = {lab: lid for lab, _, lid in shape if lid is not None}
    next_id = max((header_ids[h] for h in back_edges if h in header_ids),
                  default=0) + 1

    loops: list[Loop] = []
    for header in rpo:
        if header not in back_edges:
            continue
        lid = header_ids.get(header)
        if lid is None:
            lid, next_id = next_id, next_id + 1
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

    fn.loop_memo = shape, LoopForest(loops, {l.header: l for l in loops},
                                     innermost, parents, dom, preds, rpo, reach)
    return fn.loop_memo[1]


def dedicated_preheader(fn: IrFunction, loop: Loop) -> IrBlock | None:
    """The loop's dedicated preheader: the one predecessor of its header
    outside the loop, when that block branches nowhere else.  None when the
    loop has none."""
    outside = [p for p in natural_loops(fn).preds[loop.header]
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
    that wrote, so no pass keeps annotations up to date itself.  The
    forest stays memoized: a new derivation would read back the same ids.
    """
    forest = natural_loops(fn)
    for b in fn.blocks:
        l = forest.innermost.get(b.label)
        if l is None:
            b.loop_info = None
        else:
            b.loop_info = LoopInfo(l.loop_id, l.depth, b.label == l.header)
    fn.loop_memo = (_cfg_shape(fn), forest)
    return forest
