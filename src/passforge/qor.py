"""Analytical latency and resource model.

Blocks are ASAP-scheduled over their dataflow graphs (no operation chaining
across non-zero-latency ops); loops compose as trip-weighted macro nodes, and
pipelined loops follow II*(trip-1)+depth with the initiation interval bounded
below by memory-port pressure (res_mii) and loop-carried dependence cycles
(rec_mii).  Inner loops inside a pipelined body count as atomic multi-cycle
operations, which deliberately reproduces the conservative behavior of fixed
HLS pipelines: a guarded inner loop inflates the recurrence bound until passes
restructure it away.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ir import (
    Const, IrFunction, IrModule, Loop, Opcode, PragmaKind, ValueRef,
    interpret, natural_loops, pointer_target, reverse_postorder,
)
from .ir.types import Operand
from .passes.loop_passes import loop_trip_count

#: Trip count assumed for non-pipelined loops whose bound is not static.
DEFAULT_UNKNOWN_TRIP = 64


class EstimateError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


_DEFAULT_LATENCY = {
    "add": 1, "sub": 1, "mul": 3, "sdiv": 16, "srem": 16,
    "and": 1, "or": 1, "xor": 1, "shl": 1, "ashr": 1,
    "icmp": 1, "select": 1, "phi": 1,
    "load": 2, "store": 1, "getelementptr": 0,
    "zext": 0, "sext": 0, "trunc": 0,
    "call": 0, "br": 0, "condbr": 0, "ret": 0,
}

_DEFAULT_DSP = {"mul": 3, "sdiv": 8, "srem": 8}

_DEFAULT_LUT = {
    "add": 32, "sub": 32, "mul": 48, "sdiv": 320, "srem": 320,
    "and": 8, "or": 8, "xor": 8, "shl": 16, "ashr": 16,
    "icmp": 12, "select": 16, "phi": 4,
    "load": 8, "store": 8, "getelementptr": 4,
    "zext": 1, "sext": 1, "trunc": 1,
    "call": 16, "br": 1, "condbr": 4, "ret": 1,
}


@dataclass
class OpCostTable:
    latency: dict[str, int] = field(default_factory=lambda: dict(_DEFAULT_LATENCY))
    dsp: dict[str, int] = field(default_factory=lambda: dict(_DEFAULT_DSP))
    lut: dict[str, int] = field(default_factory=lambda: dict(_DEFAULT_LUT))
    memory_ports: int = 2

    def lat(self, op: Opcode) -> int:
        return self.latency.get(op.value, 1)

    @staticmethod
    def from_dict(doc: dict) -> "OpCostTable":
        t = OpCostTable()
        t.latency.update(doc.get("latency", {}))
        t.dsp.update(doc.get("dsp", {}))
        t.lut.update(doc.get("lut", {}))
        t.memory_ports = doc.get("memory_ports", t.memory_ports)
        return t

    def to_dict(self) -> dict:
        return {"latency": dict(self.latency), "dsp": dict(self.dsp),
                "lut": dict(self.lut), "memory_ports": self.memory_ports}


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
    dsp: int
    lut_proxy: int
    loops: list[LoopReport]

    def to_dict(self) -> dict:
        return {
            "cycles": self.cycles, "dsp": self.dsp, "lut_proxy": self.lut_proxy,
            "loops": [{"loop_id": l.loop_id, "trip": l.trip,
                       "depth_cycles": l.depth_cycles,
                       "achieved_ii": l.achieved_ii, "res_mii": l.res_mii,
                       "rec_mii": l.rec_mii, "total_cycles": l.total_cycles}
                      for l in self.loops],
        }


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
        self.costs = model.costs
        self.forest = natural_loops(fn)
        self.defs = fn.defined_values()
        self.block_lat: dict[str, int] = {}
        self.loop_total: dict[int, int] = {}
        self.loop_reports: list[LoopReport] = []
        self._mem_counts: dict[int, dict[str, int]] = {}
        self.latency = 0
        self._build()

    # -- block scheduling ---------------------------------------------------

    def _op_latency(self, ins) -> int:
        if ins.opcode is Opcode.CALL:
            return self.model.function_latency(ins.callee)
        return self.costs.lat(ins.opcode)

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
        macro_of: dict[str, Loop] = {}
        for l in loops:
            for lab in l.blocks:
                macro_of[lab] = l

        def node_of(label: str):
            l = macro_of.get(label)
            return ("loop", l.loop_id) if l is not None else ("block", label)

        nodes: dict[tuple, int] = {}
        edges: dict[tuple, set] = {}
        order: list[tuple] = []
        bmap = self.fn.block_map()
        for label in [b.label for b in self.fn.blocks if b.label in blocks]:
            n = node_of(label)
            if n not in nodes:
                if n[0] == "loop":
                    nodes[n] = self.loop_total[n[1]]
                else:
                    nodes[n] = self.block_lat[label]
                order.append(n)
                edges[n] = set()
        for label in blocks:
            n = node_of(label)
            for s in bmap[label].successors():
                if s not in blocks:
                    continue
                ns = node_of(s)
                if ns != n:
                    edges[n].add(ns)
        entry_node = node_of(entry)
        # Longest path over the DAG (back edges already collapsed into macros).
        dist: dict[tuple, int] = {}
        seen: set[tuple] = set()
        post: list[tuple] = []

        def dfs(n):
            stack = [(n, iter(sorted(edges.get(n, ()))))]
            seen.add(n)
            on_path = {n}
            while stack:
                cur, it = stack[-1]
                advanced = False
                for s in it:
                    if s not in seen:
                        seen.add(s)
                        stack.append((s, iter(sorted(edges.get(s, ())))))
                        advanced = True
                        break
                if not advanced:
                    post.append(cur)
                    stack.pop()

        dfs(entry_node)
        for n in post:
            best = 0
            for s in edges.get(n, ()):
                best = max(best, dist.get(s, 0))
            dist[n] = nodes[n] + best
        return dist.get(entry_node, 0)

    def _loop_iteration_latency(self, loop: Loop) -> int:
        inner = set()
        for c in loop.children:
            inner |= c.blocks
        own = loop.blocks - inner
        return self._region_path(own | inner, loop.header, loop.children)

    def _effective_trip(self, loop: Loop) -> tuple[int | None, int]:
        trip = loop_trip_count(self.fn, loop)
        return trip, (trip if trip is not None else DEFAULT_UNKNOWN_TRIP)

    def _mem_access_counts(self, loop: Loop) -> dict[str, int]:
        if loop.loop_id in self._mem_counts:
            return self._mem_counts[loop.loop_id]
        counts: dict[str, int] = {}
        inner = set()
        for c in loop.children:
            inner |= c.blocks
        bmap = self.fn.block_map()
        for lab in sorted(loop.blocks - inner):
            for ins in bmap[lab].all_instructions():
                access = _mem_op(self.defs, ins)
                if access is not None:
                    arr = access[1][0]
                    counts[arr] = counts.get(arr, 0) + 1
                elif ins.opcode is Opcode.CALL:
                    for arr, n in self.model.function_mem_counts(
                            ins.callee).items():
                        counts[arr] = counts.get(arr, 0) + n
        for c in loop.children:
            _, eff = self._effective_trip(c)
            for arr, n in self._mem_access_counts(c).items():
                counts[arr] = counts.get(arr, 0) + n * eff
        self._mem_counts[loop.loop_id] = counts
        return counts

    # -- initiation interval ------------------------------------------------

    def compute_ii(self, loop: Loop) -> tuple[int, int]:
        res_mii = self._res_mii(loop)
        rec_mii = self._rec_mii(loop)
        return res_mii, rec_mii

    def _res_mii(self, loop: Loop) -> int:
        counts = self._mem_access_counts(loop)
        worst = 1
        for arr, n in sorted(counts.items()):
            ports = self.model.ports_for(arr)
            worst = max(worst, -(-n // ports))
        return worst

    def _rec_mii(self, loop: Loop) -> int:
        """Max over distance-1 dependence cycles of their summed latency.

        Nodes are the loop's direct instructions plus child-loop macros; the
        intra-iteration DAG uses SSA and same-array program order, and carried
        edges are store->load / store->store pairs plus latch-fed header phis,
        all at conservative distance 1."""
        fn, defs = self.fn, self.defs
        bmap = fn.block_map()
        inner = set()
        for c in loop.children:
            inner |= c.blocks

        nodes: list[tuple] = []           # ("ins", ins) | ("loop", Loop)
        macro_ids: dict[int, int] = {}    # loop_id -> node index
        lat: list[int] = []
        position: list[int] = []          # program order for memory edges
        touched: list[list[tuple[str, tuple[str, str | None]]]] = []

        rpo = [lab for lab in reverse_postorder(fn) if lab in loop.blocks]
        pos = 0
        for lab in rpo:
            if lab in inner:
                l = self.forest.innermost[lab]
                top = l
                while top.parent is not None and top.parent is not loop:
                    top = top.parent
                if top.loop_id not in macro_ids:
                    macro_ids[top.loop_id] = len(nodes)
                    nodes.append(("loop", top))
                    lat.append(self.loop_total[top.loop_id])
                    position.append(pos)
                    accesses: list[tuple[str, tuple[str, str | None]]] = []
                    for arr in self._loop_arrays(top, reads=True):
                        accesses.append(("r", (arr, None)))
                    for arr in self._loop_arrays(top, reads=False):
                        accesses.append(("w", (arr, None)))
                    touched.append(accesses)
                    pos += 1
                continue
            for ins in bmap[lab].all_instructions():
                nodes.append(("ins", ins))
                lat.append(self._op_latency(ins))
                position.append(pos)
                access = _mem_op(defs, ins)
                acc = [access] if access is not None else []
                if ins.opcode is Opcode.CALL:
                    for arr in self.model.function_mem_counts(ins.callee):
                        acc.append(("r", (arr, None)))
                        acc.append(("w", (arr, None)))
                touched.append(acc)
                pos += 1

        n = len(nodes)
        intra: list[set[int]] = [set() for _ in range(n)]
        carried: list[tuple[int, int]] = []

        # SSA edges (def -> use); latch-fed phi inputs become carried edges.
        result_node: dict[str, int] = {}
        for i, (kind, obj) in enumerate(nodes):
            if kind == "ins" and obj.result is not None:
                result_node[obj.result] = i
        header_phis = {phi.result: phi for phi in bmap[loop.header].phis()}
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
        # iteration (distance 1).
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
                        if position[a_i] < position[b_i]:
                            intra[a_i].add(b_i)
                        carried.append((a_i, b_i))
                        break

        # Longest path in the intra DAG between carried endpoints.
        topo = sorted(range(n), key=lambda i: position[i])
        best = 1
        for (u, v) in carried:
            dist = [None] * n
            dist[v] = lat[v]
            for i in topo:
                if dist[i] is None:
                    continue
                for j in intra[i]:
                    cand = dist[i] + lat[j]
                    if dist[j] is None or cand > dist[j]:
                        dist[j] = cand
            if dist[u] is not None:
                best = max(best, dist[u])
            else:
                best = max(best, lat[v] + lat[u] if u != v else lat[v])
        return best

    def _loop_arrays(self, loop: Loop, reads: bool) -> list[str]:
        out = set()
        bmap = self.fn.block_map()
        for lab in loop.blocks:
            for ins in bmap[lab].all_instructions():
                access = _mem_op(self.defs, ins)
                if access is not None:
                    if (access[0] == "r") == reads:
                        out.add(access[1][0])
                elif ins.opcode is Opcode.CALL:
                    out.update(self.model.function_mem_counts(ins.callee))
        return sorted(out)

    # -- assembly -----------------------------------------------------------

    def _build(self) -> None:
        for b in self.fn.blocks:
            self.block_lat[b.label] = self._schedule_block(b)
        pipelined = {p.target: p.target_ii or 1
                     for p in self.fn.pragmas if p.kind is PragmaKind.PIPELINE}
        for loop in sorted(self.forest.loops, key=lambda l: -l.depth):
            depth_cycles = self._loop_iteration_latency(loop)
            trip, eff = self._effective_trip(loop)
            res_mii, rec_mii = self.compute_ii(loop)
            if loop.loop_id in pipelined:
                if trip is None:
                    raise EstimateError(
                        "UnknownTrip",
                        f"pipelined loop {loop.loop_id} in @{self.fn.name} "
                        f"has no static trip count")
                ii = max(res_mii, rec_mii, pipelined[loop.loop_id])
                total = ii * (trip - 1) + max(depth_cycles, 1)
            else:
                ii = None
                total = eff * (depth_cycles + 1)
            self.loop_total[loop.loop_id] = total
            self.loop_reports.append(LoopReport(
                loop.loop_id, trip, depth_cycles, ii, res_mii, rec_mii, total))

        top_level = [l for l in self.forest.loops if l.parent is None]
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

    def function_latency(self, name: str) -> int:
        return self.fn_model(name).latency

    def function_mem_counts(self, name: str) -> dict[str, int]:
        model = self.fn_model(name)
        counts: dict[str, int] = {}
        for b in model.fn.blocks:
            weight = 1
            l = model.forest.innermost.get(b.label)
            while l is not None:
                _, eff = model._effective_trip(l)
                weight *= eff
                l = l.parent
            for ins in b.all_instructions():
                access = _mem_op(model.defs, ins)
                if access is not None:
                    arr = access[1][0]
                    counts[arr] = counts.get(arr, 0) + weight
        return counts


def estimate(module: IrModule, costs: OpCostTable | None = None) -> QoRReport:
    """Estimate the top function's latency and resource proxies.

    Pragma passes (inline/unroll expansion) are expected to have run already;
    pipeline and array_partition pragmas are consumed here as metadata."""
    costs = costs or OpCostTable()
    model = _ModuleModel(module, costs)
    top = module.top
    fm = model.fn_model(top.name)

    dsp = 0
    lut = 0
    counted: set[str] = set()

    def add_resources(fn_name: str):
        if fn_name in counted:
            return
        counted.add(fn_name)
        fn = module.function(fn_name)
        nonlocal dsp, lut
        for b in fn.blocks:
            for ins in b.all_instructions():
                dsp += costs.dsp.get(ins.opcode.value, 0)
                lut += costs.lut.get(ins.opcode.value, 0)
                if ins.opcode is Opcode.CALL:
                    add_resources(ins.callee)

    add_resources(top.name)
    return QoRReport(max(1, fm.latency), dsp, lut, list(fm.loop_reports))


def compute_ii(module: IrModule, fn_name: str, loop_id: int,
               costs: OpCostTable | None = None) -> tuple[int, int]:
    """(res_mii, rec_mii) for one loop; exposed for tests and reports."""
    costs = costs or OpCostTable()
    model = _ModuleModel(module, costs)
    fm = model.fn_model(fn_name)
    loop = fm.forest.by_id(loop_id)
    if loop is None:
        raise KeyError(f"loop {loop_id} not found in @{fn_name}")
    return fm.compute_ii(loop)


def trip_count(module: IrModule, fn_name: str, loop_id: int) -> int | None:
    fn = module.function(fn_name)
    forest = natural_loops(fn)
    loop = forest.by_id(loop_id)
    if loop is None:
        raise KeyError(f"loop {loop_id} not found in @{fn_name}")
    return loop_trip_count(fn, loop)


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
