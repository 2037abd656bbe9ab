"""Analytical latency model.

Blocks are ASAP-scheduled over their dataflow graphs (no operation chaining
across non-zero-latency ops); loops compose as trip-weighted macro nodes, and
pipelined loops follow II*(trip-1)+depth with the initiation interval bounded
below by memory-port pressure (res_mii) and loop-carried dependence cycles
(rec_mii).  Inner loops inside a pipelined body count as atomic multi-cycle
operations, which deliberately reproduces the conservative behavior of fixed
HLS pipelines: a guarded inner loop inflates the recurrence bound until passes
restructure it away.

Each function is modelled once per `estimate` call, and each fact about it
is worked out once: one walk gives each instruction's latency (from a
per-opcode table built once per module) and access key, which every later
step reads; then its loop forest and reverse postorder, one trip count per
loop, block latencies, each loop's memory access counts and total cycles
(innermost loops first, so a parent reads its children's), and, the first
time a caller needs it, the function's memory summary as a callee.

Memory dependences follow one alias rule: two accesses may alias unless
they touch two different known arrays, or one array at two distinct
constant indices; an access of unknown provenance (array "?": a pointer
that is no getelementptr result) may alias any access.  The rule is kept
as five alias classes.  Each access is filed under some and looks up others,
and two accesses may alias exactly when one looks up a class the other is
filed under:

    class                  filed there by        looked up by
    any array              every access          "?" accesses
    "?"                    "?" accesses          accesses of known arrays
    array A                accesses of A         A at an unknown index
    A at an unknown index  those accesses        A at a constant index
    (A, constant c)        A at c                A at c

The block schedule keeps, per class, the latest finish of the reads and of
the writes so far, so an access costs a few lookups, not a scan of every
earlier access; the recurrence bound keeps, per class, the nodes that write
there.  Prices are integer max and sum over exactly the dependences a
pairwise scan finds, so they are exact, and no price moves.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

from .ir import (
    Const, IrFunction, IrModule, Loop, Opcode, PragmaKind, ValueRef,
    interpret, natural_loops, pointer_target, postorder, reverse_postorder,
)
from .passes.loop_passes import loop_trip_count

#: Trip count assumed for non-pipelined loops whose bound is not static.
DEFAULT_UNKNOWN_TRIP = 64


class EstimateError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message


_DEFAULT_LATENCY = {
    "add": 1, "sub": 1, "mul": 3, "sdiv": 16, "srem": 16,
    "and": 1, "or": 1, "xor": 1, "shl": 1, "ashr": 1,
    "icmp": 1, "select": 1, "phi": 1,
    "load": 2, "store": 1, "getelementptr": 0,
    "zext": 0, "sext": 0, "trunc": 0,
    "call": 0, "br": 0, "condbr": 0, "ret": 0,
}

_OPCODES = {op.value for op in Opcode}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass
class OpCostTable:
    latency: dict[str, int] = field(default_factory=lambda: dict(_DEFAULT_LATENCY))
    memory_ports: int = 2

    def lat(self, op: Opcode) -> int:
        return self.latency.get(op.value, 1)

    @staticmethod
    def from_dict(doc: dict) -> "OpCostTable":
        """Raises ValueError on an unknown key or opcode, on a latency that
        is not a non-negative integer, and on fewer than one memory port."""
        if not isinstance(doc, dict):
            raise ValueError("a cost table must be a JSON object")
        t = OpCostTable()
        for key, value in doc.items():
            if key == "memory_ports":
                if not _is_int(value) or value < 1:
                    raise ValueError(f"memory_ports must be an integer >= 1, "
                                     f"not {value!r}")
                t.memory_ports = value
            elif key == "latency":
                if not isinstance(value, dict):
                    raise ValueError("latency must be an object of costs")
                for op, cost in value.items():
                    if op not in _OPCODES:
                        raise ValueError(f"unknown opcode {op!r} in latency")
                    if not _is_int(cost) or cost < 0:
                        raise ValueError(f"latency of {op} must be a "
                                         f"non-negative integer, not {cost!r}")
                t.latency.update(value)
            else:
                raise ValueError(f"unknown cost table key {key!r}")
        return t

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class LoopReport:
    loop_id: int
    trip: int | None          # None = statically unknown
    depth_cycles: int
    achieved_ii: int | None   # None = not pipelined
    res_mii: int
    rec_mii: int
    total_cycles: int


@dataclass
class QoRReport:
    cycles: int
    loops: list[LoopReport]

    def to_dict(self) -> dict:
        return asdict(self)


_LOAD, _STORE, _CALL, _PHI = Opcode.LOAD, Opcode.STORE, Opcode.CALL, Opcode.PHI


def _access(writes: bool, arr: str, idx: str | None) -> tuple:
    """(writes, array, classes the access is filed under, classes it looks
    up) of an access to ``arr`` at constant index ``idx`` (None: unknown),
    as the module docstring's table of alias classes gives them."""
    if arr == "?":
        return writes, arr, (None, "?"), (None,)
    key = (arr, idx)
    return (writes, arr, (None, arr, key),
            ("?", arr) if idx is None else ("?", (arr, None), key))


#: A call, as the block schedule sees it: a write that aliases every access.
_CALL_ACCESS = _access(True, "?", None)


def _mem_access(defs, ins) -> tuple | None:
    """The ``_access`` of a load or store; None for any other op."""
    if ins.opcode is _LOAD:
        writes, ptr = False, ins.operands[0]
    elif ins.opcode is _STORE:
        writes, ptr = True, ins.operands[1]
    else:
        return None
    target = pointer_target(defs, ptr)
    if target is None:
        return _access(writes, "?", None)
    arr, idx = target
    return _access(writes, arr, str(idx.value) if isinstance(idx, Const) else None)


class _FunctionModel:
    """Schedule model for one function; built lazily per module."""

    def __init__(self, model: "_ModuleModel", fn: IrFunction):
        self.model = model
        self.fn = fn
        self.forest = natural_loops(fn)
        self.bmap = fn.block_map()
        self.rpo = reverse_postorder(fn)
        self.trip = {l.loop_id: loop_trip_count(fn, l) for l in self.forest.loops}
        self.eff_trip = {lid: DEFAULT_UNKNOWN_TRIP if t is None else t
                         for lid, t in self.trip.items()}
        self.callees: dict[str, _FunctionModel] = {}
        # Per block, each instruction with its latency, ``_access`` and the
        # values it reads.
        defs = fn.defined_values()
        self.insts = {b.label: [(ins, self._op_latency(ins),
                                 _mem_access(defs, ins), ins.value_uses())
                                for ins in b.all_instructions()]
                      for b in fn.blocks}
        self.block_lat: dict[str, int] = {}
        self.loop_total: dict[int, int] = {}
        self.loop_reports: list[LoopReport] = []
        self._mem_counts: dict[int, dict[str, int]] = {}
        self._build()
        # Only the build reads the module model, and keeping it would make a
        # cycle through ``model._fns`` that holds the module until a full
        # collection.
        del self.model

    @cached_property
    def mem_summary(self) -> dict[str, int]:
        """Trip-weighted accesses per array, as a caller charges a call to
        this function; each call it makes adds its callee's summary, weighted
        like the call site.  The call graph is acyclic, so this ends."""
        counts: dict[str, int] = {}
        for lab, insts in self.insts.items():
            weight = 1
            l = self.forest.innermost.get(lab)
            while l is not None:
                weight *= self.eff_trip[l.loop_id]
                l = self.forest.parent(l)
            for ins, _lat, access, _uses in insts:
                if access is not None:
                    counts[access[1]] = counts.get(access[1], 0) + weight
                elif ins.opcode is _CALL:
                    for arr, n in self.callees[ins.callee].mem_summary.items():
                        counts[arr] = counts.get(arr, 0) + n * weight
        return counts

    def _callee(self, name: str) -> "_FunctionModel":
        """The model of a function this one calls.  Every call is priced
        when the model is built, so ``callees`` then holds each one for
        ``mem_summary``, which may run after the module model is dropped."""
        if name not in self.callees:
            self.callees[name] = self.model.fn_model(name)
        return self.callees[name]

    # -- block scheduling ---------------------------------------------------

    def _op_latency(self, ins) -> int:
        if ins.opcode is _CALL:
            return self._callee(ins.callee).latency
        return self.model.lat[ins.opcode]

    def _schedule_block(self, label: str) -> int:
        """ASAP finish of the block's last operation.  An access starts after
        the aliasing earlier writes (and, if it writes, reads) finish: the
        latest finish of earlier reads and of earlier writes is kept per
        alias class, so each access reads its few classes."""
        finish: dict[str, int] = {}
        done: tuple[dict, dict] = ({}, {})   # reads, writes: class -> finish
        latest = 0
        for ins, lat, access, uses in self.insts[label]:
            start = 0
            for vid in uses:
                start = max(start, finish.get(vid, 0))
            if access is None and ins.opcode is _CALL:
                access = _CALL_ACCESS
            if access is not None:
                writes, _arr, files, probes = access
                for seen in done if writes else done[1:]:
                    for c in probes:
                        start = max(start, seen.get(c, 0))
            f = start + lat
            if access is not None:
                seen = done[writes]
                for c in files:
                    seen[c] = max(seen.get(c, 0), f)
            latest = max(latest, f)
            if ins.result is not None:
                finish[ins.result] = f
        return latest

    # -- region composition -------------------------------------------------

    def _region_path(self, blocks: set[str], entry: str,
                     loops: list[Loop]) -> int:
        """Longest node-weighted path through the acyclic region DAG formed by
        the given blocks with the given loops collapsed to macro nodes."""
        macro_of = {lab: ("loop", l.loop_id) for l in loops for lab in l.blocks}

        def node_of(label: str) -> tuple:
            return macro_of.get(label, ("block", label))

        edges: dict[tuple, set] = {node_of(label): set() for label in blocks}
        for label in blocks:
            n = node_of(label)
            for s in self.bmap[label].successors():
                if s in blocks and node_of(s) != n:
                    edges[n].add(node_of(s))
        # Longest path over the DAG (back edges already collapsed into macros).
        dist: dict[tuple, int] = {}
        entry_node = node_of(entry)
        for n in postorder(entry_node, {n: sorted(e) for n, e in edges.items()}):
            weight = self.loop_total[n[1]] if n[0] == "loop" \
                else self.block_lat[n[1]]
            dist[n] = weight + max([0, *(dist.get(s, 0) for s in edges[n])])
        return dist[entry_node]

    @staticmethod
    def _own_blocks(loop: Loop) -> set[str]:
        """The loop's blocks that no child loop holds."""
        return loop.blocks.difference(*(c.blocks for c in loop.children))

    def _mem_access_counts(self, loop: Loop) -> dict[str, int]:
        """Accesses per array in one iteration, child loops weighted by their
        trips; each child's counts are already in ``_mem_counts``."""
        counts: dict[str, int] = {}
        for lab in self._own_blocks(loop):
            for ins, _lat, access, _uses in self.insts[lab]:
                if access is not None:
                    counts[access[1]] = counts.get(access[1], 0) + 1
                elif ins.opcode is _CALL:
                    callee = self.callees[ins.callee].mem_summary
                    for arr, n in callee.items():
                        counts[arr] = counts.get(arr, 0) + n
        for c in loop.children:
            for arr, n in self._mem_counts[c.loop_id].items():
                counts[arr] = counts.get(arr, 0) + n * self.eff_trip[c.loop_id]
        return counts

    # -- initiation interval ------------------------------------------------

    def _res_mii(self, counts: dict[str, int]) -> int:
        worst = 1
        for arr, n in counts.items():
            worst = max(worst, -(-n // self.model.ports_for(arr)))
        return worst

    def _rec_mii(self, loop: Loop) -> int:
        """Max over distance-1 dependence cycles of their summed latency.

        Nodes are the loop's direct instructions plus child-loop macros, in
        reverse postorder; the intra-iteration DAG uses SSA and same-array
        program order, and carried edges are store->load / store->store pairs
        plus latch-fed header phis, all at conservative distance 1."""
        own = self._own_blocks(loop)
        nodes: list[tuple | None] = []   # ``insts`` entries; None: a macro
        macro_ids: set[int] = set()
        lat: list[int] = []
        touched: list[tuple[int, list]] = []   # (node, its ``_access``es)

        for lab in self.rpo:
            if lab not in loop.blocks:
                continue
            if lab not in own:
                top = self.forest.innermost[lab]
                while (up := self.forest.parent(top)) is not None \
                        and up is not loop:
                    top = up
                if top.loop_id not in macro_ids:
                    macro_ids.add(top.loop_id)
                    reads, writes = self._loop_arrays(top)
                    touched.append((len(nodes), [
                        *(_access(False, arr, None) for arr in reads),
                        *(_access(True, arr, None) for arr in writes)]))
                    nodes.append(None)
                    lat.append(self.loop_total[top.loop_id])
                continue
            for node in self.insts[lab]:
                ins, ins_lat, access, _uses = node
                if access is not None:
                    touched.append((len(nodes), [access]))
                elif ins.opcode is _CALL:
                    touched.append((len(nodes), [
                        acc for arr in self.callees[ins.callee].mem_summary
                        for acc in (_access(False, arr, None),
                                    _access(True, arr, None))]))
                nodes.append(node)
                lat.append(ins_lat)

        n = len(nodes)
        intra: list[set[int]] = [set() for _ in range(n)]
        tails: dict[int, list[int]] = {}   # carried edges u -> v, by head v

        # SSA edges (def -> use); latch-fed phi inputs become carried edges.
        result_node = {node[0].result: i for i, node in enumerate(nodes)
                       if node is not None and node[0].result is not None}
        header_phis = {phi.result for phi in self.bmap[loop.header].phis()}
        for i, node in enumerate(nodes):
            if node is None:
                continue
            ins, _lat, _acc, uses = node
            if ins.opcode is _PHI:
                carries = ins.result in header_phis
                for v, lab in ins.phi_incoming():
                    if not (isinstance(v, ValueRef) and v.id in result_node):
                        continue
                    if not carries:
                        intra[result_node[v.id]].add(i)
                    elif lab in loop.blocks:
                        tails.setdefault(i, []).append(result_node[v.id])
                continue
            for vid in uses:
                if vid in result_node:
                    intra[result_node[vid]].add(i)

        # Memory edges: a write orders against any aliasing later access
        # (distance 0) and against every aliasing access of the next
        # iteration (distance 1).  Node index is program order; each write
        # is filed under its alias classes, and each access looks up the
        # writers in the classes it may alias.
        writers: dict = {}
        for i, acc in touched:
            for writes, _arr, files, _probes in acc:
                if writes:
                    for c in files:
                        writers.setdefault(c, []).append(i)
        for b, acc in touched:
            sources = {a for _w, _arr, _files, probes in acc
                       for c in probes for a in writers.get(c, ())}
            sources.discard(b)
            for a in sources:
                if a < b:
                    intra[a].add(b)
                tails.setdefault(b, []).append(a)

        # Longest path in the intra DAG from each carried edge's head back to
        # its tail: one pass per distinct head, from the head on.
        best = 1
        for v, us in tails.items():
            dist = [-1] * n     # -1: not reached from v
            dist[v] = lat[v]
            for i in range(v, n):
                d = dist[i]
                if d < 0:
                    continue
                for j in intra[i]:
                    if d + lat[j] > dist[j]:
                        dist[j] = d + lat[j]
            for u in us:
                if dist[u] >= 0:
                    best = max(best, dist[u])
                else:
                    best = max(best, lat[v] + lat[u] if u != v else lat[v])
        return best

    def _loop_arrays(self, loop: Loop) -> tuple[list[str], list[str]]:
        """(arrays read, arrays written) anywhere in the loop; a call reads
        and writes every array its callee accesses."""
        reads: set[str] = set()
        writes: set[str] = set()
        for lab in loop.blocks:
            for ins, _lat, access, _uses in self.insts[lab]:
                if access is not None:
                    (writes if access[0] else reads).add(access[1])
                elif ins.opcode is _CALL:
                    callee = self.callees[ins.callee].mem_summary
                    reads.update(callee)
                    writes.update(callee)
        return sorted(reads), sorted(writes)

    # -- assembly -----------------------------------------------------------

    def _build(self) -> None:
        for lab in self.insts:
            self.block_lat[lab] = self._schedule_block(lab)
        pipelined = {p.target: p.target_ii or 1
                     for p in self.fn.pragmas if p.kind is PragmaKind.PIPELINE}
        # Deepest first, so each loop's children are priced before it.
        for loop in sorted(self.forest.loops, key=lambda l: -l.depth):
            lid = loop.loop_id
            depth_cycles = self._region_path(loop.blocks, loop.header,
                                             loop.children)
            trip = self.trip[lid]
            self._mem_counts[lid] = self._mem_access_counts(loop)
            res_mii = self._res_mii(self._mem_counts[lid])
            rec_mii = self._rec_mii(loop)
            if lid in pipelined:
                if trip is None:
                    raise EstimateError(
                        "UnknownTrip",
                        f"pipelined loop {lid} in @{self.fn.name} "
                        f"has no static trip count")
                ii = max(res_mii, rec_mii, pipelined[lid])
                total = ii * (trip - 1) + max(depth_cycles, 1)
            else:
                ii = None
                total = self.eff_trip[lid] * (depth_cycles + 1)
            self.loop_total[lid] = total
            self.loop_reports.append(LoopReport(
                lid, trip, depth_cycles, ii, res_mii, rec_mii, total))

        top_level = [l for l in self.forest.loops
                     if self.forest.parent(l) is None]
        all_blocks = {b.label for b in self.fn.blocks}
        self.latency = self._region_path(all_blocks, self.fn.entry.label,
                                         top_level)


class _ModuleModel:
    def __init__(self, module: IrModule, costs: OpCostTable):
        self.module = module
        self.costs = costs
        self.lat = {op: costs.lat(op) for op in Opcode}
        self._fns: dict[str, _FunctionModel] = {}
        self._ports: dict[str, int] = {}
        for fn in module.functions:
            for p in fn.pragmas:
                if p.kind is PragmaKind.ARRAY_PARTITION:
                    for key in ("@" + str(p.target), "%" + str(p.target)):
                        self._ports[key] = max(
                            self._ports.get(key, 0),
                            self.costs.memory_ports * (p.factor or 1))

    def ports_for(self, arr: str) -> int:
        return self._ports.get(arr, self.costs.memory_ports)

    def fn_model(self, name: str) -> _FunctionModel:
        if name not in self._fns:
            self._fns[name] = _FunctionModel(self, self.module.function(name))
        return self._fns[name]


def estimate(module: IrModule, costs: OpCostTable | None = None) -> QoRReport:
    """Estimate the top function's latency, with a report per loop of it.

    Pragma passes (inline/unroll expansion) are expected to have run already;
    pipeline and array_partition pragmas are consumed here as metadata."""
    costs = costs or OpCostTable()
    fm = _ModuleModel(module, costs).fn_model(module.top.name)
    return QoRReport(max(1, fm.latency), list(fm.loop_reports))


def dynamic_cycle_oracle(module: IrModule, inputs, costs: OpCostTable | None = None,
                         fuel: int = 10**8) -> int:
    """Schedule-free dynamic cost: executed instructions weighted by their
    per-op latency.  Used to rank-validate `estimate`, never to train."""
    costs = costs or OpCostTable()
    result = interpret(module, inputs, fuel)
    total = 0
    for op, count in result.dynamic_op_counts.items():
        total += costs.latency.get(op, 1) * count
    return total
