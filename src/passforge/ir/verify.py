"""Structural and type verifier.

Returns a list of violations (empty means ok) and never raises; the parser
and the pass driver treat a non-empty result as fatal.  The driver
(``passes._transform``) is the one caller in the pass layer: it verifies
each pass's output once, and no pass verifies, or undoes, its own rewrites.
An instruction's operands must fit a form of its ``ir.types.OPCODES`` row,
whose typed slots give each one's kind and type; a value's type is its
parameter's, or its instruction's ``ir_type``.

Each function's predecessors, reachable blocks, dominator tree and loops
come from ``natural_loops(fn)``, memoized on the function under its CFG
shape (see ``ir.analysis``), so after the driver's refresh the verifier
does not analyse a CFG again.  That shape is read from the branches' label
slots, so ``branch_violations`` checks them first.
"""
from __future__ import annotations

from dataclasses import dataclass

from .analysis import natural_loops, postorder
from .types import (
    I1, I32, NAMED_TYPES, OPCODES, SCALAR_TYPES, Const, IrFunction,
    IrInstruction, IrModule, IrType, LabelRef, Opcode, PragmaKind,
    TERMINATOR_OPCODES, ValueRef,
)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    where: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.where}: {self.message}"


def _loop_text(info) -> str:
    return f"loop({info.loop_id}, depth={info.depth})" if info else "no loop"


#: What a slot wants besides a named type: the instruction's type (after
#: ``T``, ``Y``), an array, a label, or an ``F`` list's callee parameters.
_OWN, _ARRAY, _LABEL, _ARGS = "its type", "an array", "a label", ["F"]


def _form(text: list[str]):
    """One form of a row's typed text: what each operand slot before any
    list wants, and each in its item; whether the list may be empty; and
    its ``:ret`` type, which must be the function's return type."""
    wants, ty, ret = [], None, None
    for s, _, typed in (slot.partition(":") for slot in text):
        ty = {"T": _OWN, "Y": _OWN, "F": "F"}.get(s) or NAMED_TYPES.get(s, ty)
        if typed == "ret":
            ret = ty
        elif s in ("V", "A", "L", "{"):
            wants.append({"A": _ARRAY, "L": _LABEL, "{": s}.get(s)
                         or NAMED_TYPES.get(typed, ty))
    i = wants.index("{") if "{" in wants else len(wants)
    return wants[:i], wants[i + 1:], text[-1] != "}", ret


_FORMS = {op: [_form(f) for f in row.forms(typed=True)]
          for op, row in OPCODES.items()}
#: The wants of each opcode whose row has one form, with no list.
_FIXED = {op: forms[0][0] for op, forms in _FORMS.items()
          if len(forms) == 1 and not forms[0][1]}


def _wants(ins: IrInstruction, fn: IrFunction, fmap: dict[str, IrFunction],
           loc: str, out: list[Violation]) -> list | None:
    """What each operand of ``ins`` wants, by the first form of its row
    that takes their number (a list repeats its item; an ``F`` list takes
    a known callee's parameters), or None, reported, where none does."""
    n, name = len(ins.operands), ins.opcode.value
    for head, item, empty, ret in _FORMS[ins.opcode]:
        if item == _ARGS:
            callee = fmap.get(ins.callee)  # type: ignore[arg-type]
            name = f"{name} @{ins.callee}"
            head, item = (head + [t for _, t in callee.params], []) \
                if callee else (head, [None])
        k, left = divmod(n - len(head), len(item) or 1)
        if not left and (k >= (not empty) if item else k == 0):
            ret = ins.ir_type if ret is _OWN else ret
            if ret is not None and ret != fn.return_type:
                out.append(Violation("type", f"{name} is {ret}, expected the "
                                     f"function's {fn.return_type}", loc))
            return head + item * k
    out.append(Violation("operands", f"{name} cannot take {n} operands", loc))
    return None


#: The operand count and label slots of each row whose labels are its
#: block's successors: br's and condbr's.
_BRANCHES = {op: (len(wants), [k for k, w in enumerate(wants) if w is _LABEL])
             for op, wants in _FIXED.items()
             if any(w is _LABEL for w in wants)}


def branch_violations(fn: IrFunction) -> list[Violation]:
    """What keeps ``fn``'s CFG from being read from its branches' label
    slots, as ``natural_loops`` reads it: a branch with a number of operands
    its row does not take, or a label slot that holds no label."""
    out = []
    for b in fn.blocks:
        t = b.terminator
        shape = t and _BRANCHES.get(t.opcode)
        if not shape:
            continue
        (n, slots), ops, name = shape, t.operands, t.opcode.value
        if len(ops) != n:
            out.append(Violation("operands", f"{name} cannot take {len(ops)} "
                                 "operands", f"{fn.name}:{b.label}"))
            continue
        for k in slots:
            if ops[k].__class__ is not LabelRef:
                out.append(Violation("type", f"{name} operand {ops[k]} is "
                                     "not a label", f"{fn.name}:{b.label}"))
    return out


def _check_function(m: IrModule, fn: IrFunction, fmap: dict[str, IrFunction]
                    ) -> tuple[list[Violation], set[str] | None]:
    """Violations of ``fn``, and the names of the functions it calls, or
    ``None`` where the checks stopped before the walk that collects them."""
    out: list[Violation] = []
    where = fn.name
    for pid, ty in fn.params:
        if ty.is_array and ty.length < 1:
            out.append(Violation("array-len", f"array %{pid} has length "
                                 f"{ty.length}", where))
    if len({b.label for b in fn.blocks}) != len(fn.blocks):
        out.append(Violation("dup-label", "duplicate block labels", where))
        return out, None
    if not fn.blocks:
        out.append(Violation("empty-fn", "function has no blocks", where))
        return out, set()

    params = dict(fn.params)
    gmap = m.global_map()
    phi_op = Opcode.PHI

    # One walk checks block shapes, reported at once, and records each
    # value's site and type; what is wrong with a definition or a call is
    # reported only if the CFG checks below pass.
    insts: dict[str, list[IrInstruction]] = {}
    defs: dict[str, tuple[str, int, IrType]] = {}
    calls: set[str] = set()
    later: list[Violation] = []
    for b in fn.blocks:
        label, loc = b.label, f"{where}:{b.label}"
        if b.terminator is None:
            out.append(Violation("no-term", "block has no terminator", loc))
            return out, None
        if not b.terminator.is_terminator:
            out.append(Violation("bad-term", "terminator is not br/condbr/ret", loc))
        insts[label] = body = b.all_instructions()
        n_body = len(body) - 1
        seen_non_phi = False
        for i, ins in enumerate(body):
            op, r = ins.opcode, ins.result
            if i < n_body:
                if op in TERMINATOR_OPCODES:
                    out.append(Violation("term-mid", "terminator before block "
                                         "end", loc))
                if op is not phi_op:
                    seen_non_phi = True
                elif seen_non_phi:
                    out.append(Violation("phi-order", "phi after non-phi", loc))
            if r is not None:
                if r in defs or r in params:
                    later.append(Violation("redef", f"value %{r} defined twice",
                                           loc))
                defs[r] = (label, i, ins.ir_type)
            if op is Opcode.CALL:
                calls.add(ins.callee)
                callee = fmap.get(ins.callee)
                if callee is None:
                    later.append(Violation("bad-callee", "call to unknown "
                                           f"function @{ins.callee}", loc))
                    continue
                # Passes and qor take distinct array names for distinct
                # arrays, so no call may pass one array twice.
                arrays = [a for a, (_pid, ty) in zip(ins.operands, callee.params)
                          if ty.is_array]
                if len(set(arrays)) != len(arrays):
                    later.append(Violation("call-arg", f"call to @{callee.name} "
                                           f"passes one array twice", loc))

    # The CFG is read from the branches' label slots, so they come first.
    bad = branch_violations(fn)
    if bad:
        return out + bad, calls
    forest = natural_loops(fn)
    preds, dom = forest.preds, forest.dom

    # Branch targets exist; ``natural_loops``' memo lists each block's.
    bad = [Violation("bad-target", f"branch to unknown block {s!r}",
                     f"{where}:{label}") for label, succs, _ in fn.loop_memo[0]
           for s in succs if s not in insts]
    if bad:
        return out + bad, calls

    if preds[fn.entry.label]:
        out.append(Violation("entry-preds", "entry block has predecessors", where))
    unreachable = [Violation("unreachable", f"block {b.label!r} unreachable "
                             "from entry", where)
                   for b in fn.blocks if b.label not in forest.reach]
    if unreachable:
        return out + unreachable, calls

    if len(params) != len(fn.params):
        out.append(Violation("dup-param", "duplicate parameter ids", where))
    out += later

    # Each operand against what its slot in its row wants, and dominance:
    # a parameter dominates every use; a definition, the rest of its block
    # and the blocks it dominates, where a phi's arm, checked last, is used
    # at the end of its edge.
    for b in fn.blocks:
        label, loc = b.label, f"{where}:{b.label}"
        for i, ins in enumerate(insts[label]):
            ops, own = ins.operands, ins.ir_type
            wants = _FIXED.get(ins.opcode)
            if wants is None or len(wants) != len(ops):
                wants = _wants(ins, fn, fmap, loc, out)
                if wants is None:
                    continue
            phi, k = ins.opcode is phi_op, 0
            for val in ops:     # indexing, as zip costs more per instruction
                want, k = wants[k], k + 1
                if want is _OWN:
                    want = own
                cls = val.__class__
                if cls is ValueRef:
                    have = params.get(val.id)
                    if have is None:
                        site = defs.get(val.id)
                        if site is None:
                            out.append(Violation("use-before-def", "use of "
                                                 f"undefined value %{val.id}", loc))
                            continue
                        have = site[2]
                        if not phi and not (site[1] < i if site[0] == label
                                            else dom.dominates(site[0], label)):
                            out.append(Violation(
                                "dominance", f"use of %{val.id} not "
                                "dominated by its definition", loc))
                    if have is want or want is _ARRAY and have.is_array:
                        continue
                elif cls is Const:      # a literal fits any scalar slot
                    if want is I32 or want is I1 or want in SCALAR_TYPES.values():
                        continue
                    have = "a literal"
                else:
                    have = "a label" if cls is LabelRef else "an array" \
                        if val.name in gmap else "undeclared"
                    if have == want:    # _LABEL or _ARRAY
                        continue
                if want is not None and have != want:
                    out.append(Violation("type", f"{ins.opcode.value} operand "
                                         f"{val} is {have}, expected {want}", loc))
            if not phi or any(o.__class__ is not LabelRef for o in ops[1::2]):
                continue
            arms = ins.phi_incoming()
            in_labels = sorted(l for _, l in arms)
            if in_labels != sorted(preds[label]):
                out.append(Violation(
                    "phi-preds", f"phi %{ins.result} incoming {in_labels} != "
                    f"predecessors {sorted(preds[label])}", loc))
            for val, edge in arms:
                site = val.__class__ is ValueRef and val.id not in params \
                    and defs.get(val.id)
                if site and not dom.dominates(site[0], edge):
                    out.append(Violation("dominance", f"phi incoming %{val.id} "
                                         f"does not dominate edge from {edge}",
                                         loc))

    # Loop annotations: each header carries its own loop's (unique) id and
    # depth, every other block its innermost loop's, and a block outside
    # every loop carries none.
    bmap = fn.block_map()
    ids_seen: dict[int, str] = {}
    for l in forest.loops:
        info = bmap[l.header].loop_info
        if info is None or not info.is_header:
            out.append(Violation("loop-header", f"natural loop header "
                                 f"{l.header!r} lacks a header annotation", where))
        elif ids_seen.setdefault(info.loop_id, l.header) != l.header:
            out.append(Violation("loop-id", f"loop id {info.loop_id} used by "
                                 f"both {ids_seen[info.loop_id]!r} and "
                                 f"{l.header!r}", where))
        elif info.depth != l.depth:
            out.append(Violation("loop-depth", f"header {l.header!r} annotated "
                                 f"depth {info.depth}, derived {l.depth}", where))
    for b in fn.blocks:
        l, info = forest.innermost[b.label], b.loop_info
        if b.label in forest.by_header:
            continue
        if info is not None and info.is_header:
            out.append(Violation("loop-header", f"block {b.label!r} annotated "
                                 "as header but has no back edge", where))
        elif (info and (info.loop_id, info.depth)) != (l and (l.loop_id, l.depth)):
            out.append(Violation("loop-member", f"block {b.label!r} annotated "
                                 f"{_loop_text(info)}, derived {_loop_text(l)}",
                                 where))

    # Pragma targets.
    loop_ids = {l.loop_id for l in forest.loops}
    for p in fn.pragmas:
        if p.kind in (PragmaKind.UNROLL, PragmaKind.PIPELINE):
            if p.target not in loop_ids:
                out.append(Violation("pragma-target", f"{p.kind.value} pragma "
                                     f"targets missing loop {p.target}", where))
        elif p.kind is PragmaKind.ARRAY_PARTITION:
            if p.target not in gmap and not getattr(
                    params.get(p.target), "is_array", False):
                out.append(Violation("pragma-target", "array_partition targets "
                                     f"unknown array @{p.target}", where))
        elif p.kind is PragmaKind.INLINE and p.target not in fmap:
            out.append(Violation("pragma-target", "inline pragma targets "
                                 f"unknown function @{p.target}", where))
    return out, calls


def verify_module(m: IrModule) -> list[Violation]:
    """Violations of ``m``; empty means ok."""
    out: list[Violation] = []
    fmap = {f.name: f for f in m.functions}
    if len(fmap) != len(m.functions):
        out.append(Violation("dup-fn", "duplicate function names", "module"))
    tops = [f.name for f in m.functions if f.is_top]
    if len(tops) != 1:
        out.append(Violation("top-fn", "expected exactly one top function, "
                             f"found {tops}", "module"))
    if len(m.global_map()) != len(m.global_arrays):
        out.append(Violation("dup-global", "duplicate global array names", "module"))
    for g in m.global_arrays:
        if g.length < 1:
            out.append(Violation("array-len", f"array @{g.name} has length "
                                 f"{g.length}", "module"))
        if g.init is not None and len(g.init) != g.length:
            out.append(Violation("array-init", f"array @{g.name} initializer "
                                 "length mismatch", "module"))

    # The call graph, from the calls each function's checks walked past; a
    # function whose checks stopped early is walked here.
    edges: dict[str, set[str]] = {name: set() for name in fmap}
    for fn in m.functions:
        found, calls = _check_function(m, fn, fmap)
        out += found
        if calls is None:
            calls = {ins.callee for b in fn.blocks
                     for ins in b.all_instructions() if ins.opcode is Opcode.CALL}
        edges[fn.name] |= calls & edges.keys()

    # Call graph must be acyclic.
    if not any(v.code == "bad-callee" for v in out):
        # A depth-first postorder finishes each callee before its caller,
        # except across a call that closes a cycle.
        succs: dict[str | None, list[str]] = {     # None calls every function
            None: sorted(edges), **{f: sorted(c) for f, c in edges.items()}}
        post = {f: i for i, f in enumerate(postorder(None, succs))}
        if any(post[c] >= post[f] for f, callees in edges.items()
               for c in callees):
            out.append(Violation("call-cycle", "call graph contains a cycle",
                                 "module"))
    return out
