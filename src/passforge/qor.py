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
is worked out once: its loop forest and reverse postorder, one trip count
per loop, block latencies, each loop's memory access counts and total
cycles (innermost loops first, so a parent reads its children's), and, the
first time a caller needs it, the function's memory summary as a callee.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

from .ir import (
    Const, IrFunction, IrModule, Loop, Opcode, PragmaKind, ValueRef,
    interpret, natural_loops, pointer_target, postorder, reverse_postorder,
)
from .ir.types import Operand
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


def _access_key(defs, op: Operand) -> tuple[str, str | None]:
    """(array, constant-index-or-None) of a pointer; the array is '?' when
    unknown, and a None index may alias anything in the array."""
    target = pointer_target(defs, op)
    if target is None:
        return "?", None
    arr, idx = target
    return arr, (str(idx.value) if isinstance(idx, Const) else None)


def _mem_op(defs, ins) -> tuple[str, tuple[str, str | None]] | None:
    """('r' or 'w', access key) of a load or store; None for any other op."""
    if ins.opcode is Opcode.LOAD:
        return "r", _access_key(defs, ins.operands[0])
    if ins.opcode is Opcode.STORE:
        return "w", _access_key(defs, ins.operands[1])
    return None


def _keys_alias(a: tuple[str, str | None], b: tuple[str, str | None]) -> bool:
    """Accesses may alias unless the analysis is conclusive: different arrays,
    or the same array at two distinct constant indices."""
    if a[0] != b[0] and a[0] != "?" and b[0] != "?":
        return False
    if a[0] == b[0] and a[1] is not None and b[1] is not None:
        return a[1] == b[1]
    return True


class _FunctionModel:
    """Schedule model for one function; built lazily per module."""

    def __init__(self, model: "_ModuleModel", fn: IrFunction):
        self.model = model
        self.fn = fn
        self.forest = natural_loops(fn)
        self.defs = fn.defined_values()
        self.bmap = fn.block_map()
        self.rpo = reverse_postorder(fn)
        self.trip = {l.loop_id: loop_trip_count(fn, l) for l in self.forest.loops}
        self.eff_trip = {lid: DEFAULT_UNKNOWN_TRIP if t is None else t
                         for lid, t in self.trip.items()}
        self.callees: dict[str, _FunctionModel] = {}
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
        for b in self.fn.blocks:
            weight = 1
            l = self.forest.innermost.get(b.label)
            while l is not None:
                weight *= self.eff_trip[l.loop_id]
                l = self.forest.parent(l)
            for ins in b.all_instructions():
                access = _mem_op(self.defs, ins)
                if access is not None:
                    arr = access[1][0]
                    counts[arr] = counts.get(arr, 0) + weight
                elif ins.opcode is Opcode.CALL:
                    for arr, n in self.callees[ins.callee].mem_summary.items():
                        counts[arr] = counts.get(arr, 0) + n * weight
        return counts

    def _callee(self, name: str) -> "_FunctionModel":
        """The model of a function this one calls.  Every call is scheduled
        during the build, so ``callees`` then holds each one for
        ``mem_summary``, which may run after the module model is dropped."""
        if name not in self.callees:
            self.callees[name] = self.model.fn_model(name)
        return self.callees[name]

    # -- block scheduling ---------------------------------------------------

    def _op_latency(self, ins) -> int:
        if ins.opcode is Opcode.CALL:
            return self._callee(ins.callee).latency
        return self.model.costs.lat(ins.opcode)

    def _schedule_block(self, b) -> int:
        finish: dict[int, int] = {}
        by_result: dict[str, int] = {}
        events: list[tuple[str, tuple[str, str | None], int]] = []
        latest = 0
        for idx, ins in enumerate(b.all_instructions()):
            start = 0
            for vid in ins.value_uses():
                if vid in by_result:
                    start = max(start, finish[by_result[vid]])
            access = _mem_op(self.defs, ins)
            if ins.opcode is Opcode.CALL:
                access = ("w", ("?", None))  # orders against every access
            if access is not None:
                kind, key = access
                for ekind, ekey, j in events:
                    if (ekind == "w" or kind == "w") and _keys_alias(ekey, key):
                        start = max(start, finish[j])
                events.append((kind, key, idx))
            f = start + self._op_latency(ins)
            finish[idx] = f
            latest = max(latest, f)
            if ins.result is not None:
                by_result[ins.result] = idx
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
        for lab in sorted(self._own_blocks(loop)):
            for ins in self.bmap[lab].all_instructions():
                access = _mem_op(self.defs, ins)
                if access is not None:
                    arr = access[1][0]
                    counts[arr] = counts.get(arr, 0) + 1
                elif ins.opcode is Opcode.CALL:
                    callee = self._callee(ins.callee).mem_summary
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
        nodes: list[tuple] = []           # ("ins", ins) | ("loop", Loop)
        macro_ids: set[int] = set()
        lat: list[int] = []
        touched: list[list[tuple[str, tuple[str, str | None]]]] = []

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
                    nodes.append(("loop", top))
                    lat.append(self.loop_total[top.loop_id])
                    reads, writes = self._loop_arrays(top)
                    touched.append([("r", (arr, None)) for arr in reads]
                                   + [("w", (arr, None)) for arr in writes])
                continue
            for ins in self.bmap[lab].all_instructions():
                nodes.append(("ins", ins))
                lat.append(self._op_latency(ins))
                access = _mem_op(self.defs, ins)
                acc = [access] if access is not None else []
                if ins.opcode is Opcode.CALL:
                    for arr in self._callee(ins.callee).mem_summary:
                        acc.append(("r", (arr, None)))
                        acc.append(("w", (arr, None)))
                touched.append(acc)

        n = len(nodes)
        intra: list[set[int]] = [set() for _ in range(n)]
        carried: list[tuple[int, int]] = []

        # SSA edges (def -> use); latch-fed phi inputs become carried edges.
        result_node: dict[str, int] = {}
        for i, (kind, obj) in enumerate(nodes):
            if kind == "ins" and obj.result is not None:
                result_node[obj.result] = i
        header_phis = {phi.result: phi for phi in self.bmap[loop.header].phis()}
        for i, (kind, obj) in enumerate(nodes):
            if kind != "ins":
                continue
            if obj.opcode is Opcode.PHI:
                if obj.result in header_phis:
                    for v, lab in obj.phi_incoming():
                        if lab in loop.blocks and isinstance(v, ValueRef) \
                                and v.id in result_node:
                            carried.append((result_node[v.id], i))
                else:
                    for v, lab in obj.phi_incoming():
                        if isinstance(v, ValueRef) and v.id in result_node:
                            intra[result_node[v.id]].add(i)
                continue
            for vid in obj.value_uses():
                if vid in result_node:
                    intra[result_node[vid]].add(i)

        # Memory edges: a write orders against any aliasing later access
        # (distance 0) and against every aliasing access of the next
        # iteration (distance 1).  Node index is program order.
        mem_nodes = [i for i in range(n) if touched[i]]
        for a_i in mem_nodes:
            for b_i in mem_nodes:
                if a_i == b_i:
                    continue
                for ka, key_a in touched[a_i]:
                    if ka != "w":
                        continue
                    for _kb, key_b in touched[b_i]:
                        if not _keys_alias(key_a, key_b):
                            continue
                        if a_i < b_i:
                            intra[a_i].add(b_i)
                        carried.append((a_i, b_i))
                        break

        # Longest path in the intra DAG from each carried edge's head back to
        # its tail: one pass per distinct head.
        tails: dict[int, list[int]] = {}
        for u, v in carried:
            tails.setdefault(v, []).append(u)
        best = 1
        for v, us in tails.items():
            dist: list[int | None] = [None] * n
            dist[v] = lat[v]
            for i in range(n):
                if dist[i] is None:
                    continue
                for j in intra[i]:
                    cand = dist[i] + lat[j]
                    if dist[j] is None or cand > dist[j]:
                        dist[j] = cand
            for u in us:
                if dist[u] is not None:
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
            for ins in self.bmap[lab].all_instructions():
                access = _mem_op(self.defs, ins)
                if access is not None:
                    (reads if access[0] == "r" else writes).add(access[1][0])
                elif ins.opcode is Opcode.CALL:
                    callee = self._callee(ins.callee).mem_summary
                    reads.update(callee)
                    writes.update(callee)
        return sorted(reads), sorted(writes)

    # -- assembly -----------------------------------------------------------

    def _build(self) -> None:
        for b in self.fn.blocks:
            self.block_lat[b.label] = self._schedule_block(b)
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
