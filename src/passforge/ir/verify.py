"""Structural verifier.

Returns a list of violations (empty means ok) and never raises; the parser
and the pass driver treat a non-empty result as fatal.  The driver
(``passes._transform``) is the one caller in the pass layer: it verifies
each pass's output once, and no pass verifies, or undoes, its own rewrites.

Each function's predecessors, reachable blocks, dominator tree and loops
come from ``natural_loops(fn)``, memoized on the function under its CFG
shape (see ``ir.analysis``), so after the driver's refresh the verifier
does not analyse a CFG again.
"""
from __future__ import annotations

from dataclasses import dataclass

from .analysis import natural_loops, postorder
from .types import (
    OPCODES, PTR, Const, GlobalRef, IrFunction, IrInstruction, IrModule,
    LoopInfo, Opcode, PragmaKind, TERMINATOR_OPCODES, ValueRef,
)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    where: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.where}: {self.message}"


def _loop_text(info: LoopInfo | None) -> str:
    return "no loop" if info is None \
        else f"loop({info.loop_id}, depth={info.depth})"


def _check_function(m: IrModule, fn: IrFunction
                    ) -> tuple[list[Violation], set[str] | None]:
    """Violations of one function of ``m``, and the names of the functions
    ``fn`` calls, collected by the walk over its instructions; ``None``
    where the checks stopped before that walk finished."""
    out: list[Violation] = []
    where = fn.name
    for pid, ty in fn.params:
        if ty.is_array and ty.length < 1:
            out.append(Violation("array-len",
                                 f"array %{pid} has length {ty.length}", where))
    labels = [b.label for b in fn.blocks]
    if len(set(labels)) != len(labels):
        out.append(Violation("dup-label", "duplicate block labels", where))
        return out, None
    if not fn.blocks:
        out.append(Violation("empty-fn", "function has no blocks", where))
        return out, set()

    forest = natural_loops(fn)
    preds = forest.preds
    params = dict(fn.params)
    gmap = m.global_map()
    fnames = {f.name for f in m.functions}

    # One walk checks each block's shape, records each value's definition
    # site and checks operand shapes.  Block-shape violations are reported
    # at once; redefinitions and operand shapes only if the CFG checks
    # below pass.
    insts: dict[str, list[IrInstruction]] = {}
    defs: dict[str, tuple[str, int]] = {}
    calls: set[str] = set()
    bound: list[tuple[str, IrInstruction, IrFunction]] = []
    redefs: list[Violation] = []
    shapes: list[Violation] = []
    for b in fn.blocks:
        loc = f"{where}:{b.label}"
        if b.terminator is None:
            out.append(Violation("no-term", "block has no terminator", loc))
            return out, None
        if not b.terminator.is_terminator:
            out.append(Violation("bad-term", "terminator is not br/condbr/ret", loc))
        insts[b.label] = body = b.all_instructions()
        n_body = len(body) - 1
        seen_non_phi = False
        for i, ins in enumerate(body):
            op = ins.opcode
            if i < n_body:
                if op in TERMINATOR_OPCODES:
                    out.append(Violation("term-mid", "terminator before block end",
                                         loc))
                if op is Opcode.PHI:
                    if seen_non_phi:
                        out.append(Violation("phi-order", "phi after non-phi", loc))
                else:
                    seen_non_phi = True
            if ins.result is not None:
                if ins.result in defs or ins.result in params:
                    redefs.append(Violation("redef",
                                            f"value %{ins.result} defined twice",
                                            loc))
                defs[ins.result] = (b.label, i)
            if op is Opcode.PHI:
                if len(ins.operands) < 2 or len(ins.operands) % 2 != 0:
                    shapes.append(Violation("phi-shape", "malformed phi operands", loc))
                    continue
                in_labels = [l for _, l in ins.phi_incoming()]
                if sorted(in_labels) != sorted(preds[b.label]):
                    shapes.append(Violation(
                        "phi-preds",
                        f"phi %{ins.result} incoming {sorted(in_labels)} != "
                        f"predecessors {sorted(preds[b.label])}", loc))
            elif op is Opcode.CALL:
                calls.add(ins.callee)
                if ins.callee not in fnames:
                    shapes.append(Violation("bad-callee",
                                            f"call to unknown function @{ins.callee}",
                                            loc))
                else:
                    callee = m.function(ins.callee)
                    if len(ins.operands) != len(callee.params):
                        shapes.append(Violation("call-arity",
                                                f"call to @{ins.callee} has "
                                                f"{len(ins.operands)} args, expected "
                                                f"{len(callee.params)}", loc))
                    else:
                        bound.append((loc, ins, callee))
            elif op is Opcode.RET:
                if len(ins.operands) > 1:
                    shapes.append(Violation("ret-shape", "ret takes at most one value",
                                            loc))
            elif len(ins.operands) != (arity := OPCODES[op].arity):
                shapes.append(Violation("arity", f"{op.value} expects {arity} "
                                        f"operands, got {len(ins.operands)}", loc))
            if op is Opcode.GETELEMENTPTR and ins.operands:
                base = ins.operands[0]
                if isinstance(base, GlobalRef) and base.name not in gmap:
                    shapes.append(Violation("bad-array",
                                            f"gep of undeclared array @{base.name}",
                                            loc))
                if isinstance(base, ValueRef):
                    ty = params.get(base.id)
                    if ty is not None and not ty.is_array:
                        shapes.append(Violation("bad-array",
                                                f"gep base %{base.id} is not an array",
                                                loc))

    # Call arguments, once every result is defined.  Passes and qor take
    # distinct array names for distinct arrays: an array parameter takes one
    # of the caller's, none twice; a scalar one takes a constant, a scalar
    # parameter or a result that is not a pointer.
    for loc, ins, callee in bound:
        arrays = [a for a, (_pid, ty) in zip(ins.operands, callee.params)
                  if ty.is_array]
        if len(set(arrays)) != len(arrays):
            shapes.append(Violation("call-arg", f"call to @{callee.name} "
                                    f"passes one array twice", loc))
        for arg, (pid, ty) in zip(ins.operands, callee.params):
            if isinstance(arg, ValueRef) and arg.id in params:
                ok = params[arg.id].is_array == ty.is_array
            elif isinstance(arg, ValueRef) and arg.id in defs:
                label, i = defs[arg.id]
                ok = not ty.is_array and insts[label][i].ir_type != PTR
            elif isinstance(arg, ValueRef):
                continue                # reported as use-before-def
            else:
                ok = isinstance(arg, Const) and not ty.is_array
            if not ok:
                shapes.append(Violation("call-arg", f"%{pid}: {ty} of "
                                        f"@{callee.name} cannot take {arg}",
                                        loc))

    # Branch targets exist.
    for b in fn.blocks:
        for s in b.successors():
            if s not in insts:
                out.append(Violation("bad-target",
                                     f"branch to unknown block {s!r}",
                                     f"{where}:{b.label}"))
    if any(v.code == "bad-target" for v in out):
        return out, calls

    if preds[fn.entry.label]:
        out.append(Violation("entry-preds", "entry block has predecessors", where))
    for b in fn.blocks:
        if b.label not in forest.reach:
            out.append(Violation("unreachable",
                                 f"block {b.label!r} unreachable from entry", where))
    if any(v.code == "unreachable" for v in out):
        return out, calls

    if len(params) != len(fn.params):
        out.append(Violation("dup-param", "duplicate parameter ids", where))
    out += redefs
    out += shapes

    # SSA dominance: a parameter dominates every use; a definition, the
    # later instructions of its block and the blocks it dominates.
    dom = forest.dom
    for b in fn.blocks:
        loc = f"{where}:{b.label}"
        for i, ins in enumerate(insts[b.label]):
            if ins.opcode is Opcode.PHI:
                for val, label in ins.phi_incoming():
                    if not isinstance(val, ValueRef) or val.id in params:
                        continue
                    site = defs.get(val.id)
                    if site is None:
                        out.append(Violation("use-before-def",
                                             f"use of undefined value %{val.id}", loc))
                    elif not (site[1] < len(insts[label]) if site[0] == label
                              else dom.dominates(site[0], label)):
                        out.append(Violation("dominance",
                                             f"phi incoming %{val.id} does not "
                                             f"dominate edge from {label}", loc))
            else:
                for val in ins.operands:
                    if not isinstance(val, ValueRef) or val.id in params:
                        continue
                    site = defs.get(val.id)
                    if site is None:
                        out.append(Violation("use-before-def",
                                             f"use of undefined value %{val.id}", loc))
                    elif not (site[1] < i if site[0] == b.label
                              else dom.dominates(site[0], b.label)):
                        out.append(Violation("dominance",
                                             f"use of %{val.id} not dominated by its "
                                             f"definition", loc))

    # Loop annotations: each header carries its own loop's (unique) id and
    # depth, every other block its innermost loop's, and a block outside
    # every loop carries none.
    bmap = fn.block_map()
    ids_seen: dict[int, str] = {}
    for l in forest.loops:
        hdr = bmap[l.header]
        if hdr.loop_info is None or not hdr.loop_info.is_header:
            out.append(Violation("loop-header",
                                 f"natural loop header {l.header!r} lacks a header "
                                 f"annotation", where))
        elif hdr.loop_info.loop_id in ids_seen:
            out.append(Violation("loop-id",
                                 f"loop id {hdr.loop_info.loop_id} used by both "
                                 f"{ids_seen[hdr.loop_info.loop_id]!r} and {l.header!r}",
                                 where))
        else:
            ids_seen[hdr.loop_info.loop_id] = l.header
            if hdr.loop_info.depth != l.depth:
                out.append(Violation("loop-depth",
                                     f"header {l.header!r} annotated depth "
                                     f"{hdr.loop_info.depth}, derived {l.depth}", where))
    headers = {l.header for l in forest.loops}
    for b in fn.blocks:
        if b.label in headers:
            continue
        if b.loop_info is not None and b.loop_info.is_header:
            out.append(Violation("loop-header",
                                 f"block {b.label!r} annotated as header but has no "
                                 f"back edge", where))
            continue
        l = forest.innermost[b.label]
        want = None if l is None else LoopInfo(l.loop_id, l.depth)
        if b.loop_info != want:
            out.append(Violation("loop-member",
                                 f"block {b.label!r} annotated "
                                 f"{_loop_text(b.loop_info)}, derived "
                                 f"{_loop_text(want)}", where))

    # Pragma targets.
    loop_ids = {l.loop_id for l in forest.loops}
    for p in fn.pragmas:
        if p.kind in (PragmaKind.UNROLL, PragmaKind.PIPELINE):
            if p.target not in loop_ids:
                out.append(Violation("pragma-target",
                                     f"{p.kind.value} pragma targets missing loop "
                                     f"{p.target}", where))
        elif p.kind is PragmaKind.ARRAY_PARTITION:
            if p.target not in gmap and not any(
                    ty.is_array and pid == p.target for pid, ty in fn.params):
                out.append(Violation("pragma-target",
                                     f"array_partition targets unknown array "
                                     f"@{p.target}", where))
        elif p.kind is PragmaKind.INLINE:
            if p.target not in fnames:
                out.append(Violation("pragma-target",
                                     f"inline pragma targets unknown function "
                                     f"@{p.target}", where))
    return out, calls


def verify_module(m: IrModule) -> list[Violation]:
    """Violations of ``m``; empty means ok."""
    out: list[Violation] = []
    names = [f.name for f in m.functions]
    if len(set(names)) != len(names):
        out.append(Violation("dup-fn", "duplicate function names", "module"))
    tops = [f.name for f in m.functions if f.is_top]
    if len(tops) != 1:
        out.append(Violation("top-fn",
                             f"expected exactly one top function, found {tops}",
                             "module"))
    gnames = [g.name for g in m.global_arrays]
    if len(set(gnames)) != len(gnames):
        out.append(Violation("dup-global", "duplicate global array names", "module"))
    for g in m.global_arrays:
        if g.length < 1:
            out.append(Violation("array-len",
                                 f"array @{g.name} has length {g.length}", "module"))
        if g.init is not None and len(g.init) != g.length:
            out.append(Violation("array-init",
                                 f"array @{g.name} initializer length mismatch",
                                 "module"))

    # The call graph, from the calls each function's checks walked past; a
    # function whose checks stopped early is walked here.
    edges: dict[str, set[str]] = {f.name: set() for f in m.functions}
    for fn in m.functions:
        found, calls = _check_function(m, fn)
        out += found
        if calls is None:
            calls = {ins.callee for b in fn.blocks
                     for ins in b.all_instructions() if ins.opcode is Opcode.CALL}
        edges[fn.name] |= calls & edges.keys()

    # Call graph must be acyclic.
    if not any(v.code == "bad-callee" for v in out):
        # A depth-first postorder finishes each callee before its caller,
        # except across a call that closes a cycle.
        succs: dict[str | None, list[str]] = {
            f: sorted(c) for f, c in edges.items()}
        succs[None] = sorted(edges)     # a root that calls every function
        post = {f: i for i, f in enumerate(postorder(None, succs))}
        if any(post[c] >= post[f] for f, callees in edges.items()
               for c in callees):
            out.append(Violation("call-cycle",
                                 "call graph contains a cycle", "module"))

    return out
