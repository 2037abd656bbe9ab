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
is worked out once: one walk gives the successor map and each row (an
instruction's latency, from a per-opcode table built once per module; a
load's or store's access key; the values read), which later steps read;
then its loop forest (whose reverse postorder orders region paths and the
recurrence bound's nodes, so each longest-path pass stops at its head's last
tail), one trip count per loop, block latencies, and, innermost loops first
so a parent reads its children's, each loop's memory tally (accesses per
array, arrays read, arrays written) and total cycles.  The tally feeds
res_mii, the child-loop nodes of the recurrence bound and, over the blocks
outside every loop plus the top-level loops, the function's memory summary
as a callee.  A loop that is not pipelined prices without its recurrence
bound, which is worked out on the first read of ``QoRReport.loops``.

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

from .ir import (
    OPCODES, Const, IrFunction, IrModule, Loop, Opcode, PragmaKind, ValueRef,
    interpret, natural_loops, pointer_target,
)
from .passes.loop_passes import loop_trip_count

#: Trip count assumed for non-pipelined loops whose bound is not static.
DEFAULT_UNKNOWN_TRIP = 64


class EstimateError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass
class OpCostTable:
    """Latency per opcode name, from the opcode table's ``latency`` column
    unless overridden, and memory ports per array."""
    latency: dict[str, int] = field(default_factory=lambda: {
        op.value: row.latency for op, row in OPCODES.items()})
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
                    if op not in t.latency:     # every opcode, by default
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


@dataclass(eq=False)
class QoRReport:
    """The top function's cycles, and its ``loops``, whose first read works
    out each sequential loop's ``rec_mii``: do not mutate the module before
    then (a ``Transitions`` table's modules are never mutated)."""
    cycles: int
    _model: "_FunctionModel" = field(repr=False)

    @property
    def loops(self) -> list[LoopReport]:
        return self._model.reports()

    def __eq__(self, o) -> bool:
        return isinstance(o, QoRReport) and self.to_dict() == o.to_dict()

    def to_dict(self) -> dict:
        return {"cycles": self.cycles, "loops": list(map(asdict, self.loops))}


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


def _mem_access(defs, ins) -> tuple:
    """The ``_access`` of a load or store."""
    writes = ins.opcode is Opcode.STORE
    target = pointer_target(defs, ins.operands[1 if writes else 0])
    if target is None:
        return _access(writes, "?", None)
    arr, idx = target
    return _access(writes, arr, str(idx.value) if isinstance(idx, Const) else None)


@dataclass
class _Tally:
    """Accesses per array, and the arrays read and written, over a region:
    one iteration of a loop, or the whole function."""
    counts: dict[str, int] = field(default_factory=dict)
    reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)

    def add(self, other: "_Tally", times: int) -> None:
        """Add ``other`` run ``times`` times."""
        for arr, n in other.counts.items():
            self.counts[arr] = self.counts.get(arr, 0) + n * times
        self.reads |= other.reads
        self.writes |= other.writes


class _FunctionModel:
    """Schedule model for one function; built lazily per module."""

    def __init__(self, model: "_ModuleModel", fn: IrFunction):
        self.model = model
        self.fn = fn
        self.forest = natural_loops(fn)
        self.bmap = fn.block_map()
        defs = fn.defined_values()
        self.trip = {l.loop_id: loop_trip_count(l, defs, self.bmap)
                     for l in self.forest.loops}
        self.eff_trip = {lid: DEFAULT_UNKNOWN_TRIP if t is None else t
                         for lid, t in self.trip.items()}
        self.callees: dict[str, _FunctionModel] = {}
        # One walk: each block's successors, and each instruction's latency,
        # ``_access`` (None but for a load or store) and the values it reads.
        self.succ, self.insts = {}, {}
        for b in fn.blocks:
            self.succ[b.label] = b.successors()
            self.insts[b.label] = [
                (ins, self._op_latency(ins), _mem_access(defs, ins)
                 if ins.opcode is Opcode.LOAD or ins.opcode is Opcode.STORE
                 else None,
                 [op.id for op in ins.operands if isinstance(op, ValueRef)])
                for ins in b.all_instructions()]
        self.loop_total: dict[int, int] = {}
        self.loop_reports: list[LoopReport] = []
        self.pending: list[tuple[LoopReport, Loop]] = []   # rec_mii unknown
        self._build()
        # Only the build reads the module model, and keeping it would make a
        # cycle through ``model._fns`` that holds the module until a full
        # collection.
        del self.model

    def _op_latency(self, ins) -> int:
        """An instruction's latency: a call's is its callee's, whose model
        goes into ``callees``, so that once built it holds every callee."""
        if ins.opcode is Opcode.CALL:
            callee = self.callees[ins.callee] = self.model.fn_model(ins.callee)
            return callee.latency
        return self.model.lat[ins.opcode]

    # -- block scheduling ---------------------------------------------------

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
                f = finish.get(vid, 0)
                if f > start:
                    start = f
            if access is None and ins.opcode is Opcode.CALL:
                access = _CALL_ACCESS
            if access is not None:
                writes, _arr, files, probes = access
                for seen in done if writes else done[1:]:
                    for c in probes:
                        f = seen.get(c, 0)
                        if f > start:
                            start = f
            f = start + lat
            if access is not None:
                seen = done[writes]
                for c in files:
                    if f > seen.get(c, 0):
                        seen[c] = f
            if f > latest:
                latest = f
            if ins.result is not None:
                finish[ins.result] = f
        return latest

    # -- region composition -------------------------------------------------

    def _region_path(self, blocks: set[str], entry: str,
                     loops: list[Loop]) -> int:
        """Longest node-weighted path from ``entry`` through ``blocks``, each
        of ``loops`` one node under its header's label, priced in postorder:
        the one cycle, an edge back into ``entry``, adds 0."""
        macro = {lab: l for l in loops for lab in l.blocks}
        dist: dict[str, int] = {}
        for lab in reversed(self.forest.rpo):
            if lab not in blocks:
                continue
            l = macro.get(lab)
            if l is None:
                weight, outs = self.block_lat[lab], self.succ[lab]
            elif lab == l.header:
                weight = self.loop_total[l.loop_id]
                outs = [s for b in l.blocks for s in self.succ[b]
                        if s not in l.blocks]
            else:
                continue
            dist[lab] = weight + max([dist.get(s, 0) for s in outs], default=0)
        return dist[entry]

    @staticmethod
    def _own_blocks(loop: Loop) -> set[str]:
        """The loop's blocks that no child loop holds."""
        return loop.blocks.difference(*(c.blocks for c in loop.children))

    def _tally_blocks(self) -> dict[int | None, _Tally]:
        """Each loop's own blocks' ``_Tally`` by loop id, and that of the
        blocks outside every loop under None.  A call counts its callee's
        summary and reads and writes every array in it."""
        tally = {l: _Tally() for l in (None, *self.trip)}
        for lab, insts in self.insts.items():
            l = self.forest.innermost[lab]
            t = tally[None if l is None else l.loop_id]
            for ins, _lat, access, _uses in insts:
                if access is not None:
                    t.counts[access[1]] = t.counts.get(access[1], 0) + 1
                    (t.writes if access[0] else t.reads).add(access[1])
                elif ins.opcode is Opcode.CALL:
                    callee = self.callees[ins.callee].mem_summary
                    t.add(_Tally(callee, set(callee), set(callee)), 1)
        return tally

    # -- initiation interval ------------------------------------------------

    def _res_mii(self, counts: dict[str, int]) -> int:
        return max([1, *(-(-n // self.model.ports_for(arr))
                         for arr, n in counts.items())])

    def _rec_mii(self, loop: Loop, tally: dict[int | None, _Tally]) -> int:
        """Max over distance-1 dependence cycles of their summed latency.

        Nodes are the loop's direct instructions plus child-loop macros, in
        reverse postorder; the intra-iteration DAG uses SSA and same-array
        program order, and carried edges are store->load / store->store pairs
        plus latch-fed header phis, all at conservative distance 1.  Each
        carried u -> v closes over the longest intra path from v to u, else
        the two nodes alone.  Intra edges run forward, so the pass from v
        stops at its last tail, and a v whose tails all precede it takes the
        fallback at once.  Only a phi arm in a loop body entered at two
        blocks (irreducible; no pass makes one) can run backward or onto its
        phi, and then every pass runs on to the last node."""
        own = self._own_blocks(loop)
        nodes: list[tuple | None] = []   # ``insts`` entries; None: a macro
        macro_ids: set[int] = set()
        lat: list[int] = []
        touched: list[tuple[int, list]] = []   # (node, its ``_access``es)

        for lab in self.forest.rpo:
            if lab not in loop.blocks:
                continue
            if lab not in own:
                top = self.forest.innermost[lab]
                while (up := self.forest.parent(top)) is not None \
                        and up is not loop:
                    top = up
                if top.loop_id not in macro_ids:
                    macro_ids.add(top.loop_id)
                    t = tally[top.loop_id]
                    touched.append((len(nodes), [
                        *(_access(False, arr, None) for arr in t.reads),
                        *(_access(True, arr, None) for arr in t.writes)]))
                    nodes.append(None)
                    lat.append(self.loop_total[top.loop_id])
                continue
            for node in self.insts[lab]:
                ins, ins_lat, access, _uses = node
                if access is not None:
                    touched.append((len(nodes), [access]))
                elif ins.opcode is Opcode.CALL:
                    touched.append((len(nodes), [
                        acc for arr in self.callees[ins.callee].mem_summary
                        for acc in (_access(False, arr, None),
                                    _access(True, arr, None))]))
                nodes.append(node)
                lat.append(ins_lat)

        n = len(nodes)
        intra: list[set[int]] = [set() for _ in range(n)]
        tails: dict[int, list | set] = {}   # carried edges u -> v, by head v
        backward = False    # an intra edge to an earlier node or itself

        # SSA edges (def -> use); latch-fed phi inputs become carried edges.
        result_node = {node[0].result: i for i, node in enumerate(nodes)
                       if node is not None and node[0].result is not None}
        header_phis = {phi.result for phi in self.bmap[loop.header].phis()}
        for i, node in enumerate(nodes):
            if node is None:
                continue
            ins, _lat, _acc, uses = node
            if ins.opcode is Opcode.PHI:
                carries = ins.result in header_phis
                for v, lab in ins.phi_incoming():
                    if not (isinstance(v, ValueRef) and v.id in result_node):
                        continue
                    u = result_node[v.id]
                    if not carries:
                        intra[u].add(i)
                        backward = backward or u >= i
                    elif lab in loop.blocks:
                        tails.setdefault(i, []).append(u)
                continue
            for vid in uses:
                u = result_node.get(vid)
                if u is not None:
                    intra[u].add(i)

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
            if sources:     # no phi is an access, so ``b`` has no tails yet
                tails[b] = sources
                for a in sources:
                    if a < b:
                        intra[a].add(b)

        # Longest path in the intra DAG from each carried edge's head back to
        # its tail: one pass per distinct head, from the head up to its last
        # tail, whose own edges reach no tail (see the docstring).
        best = 1
        for v, us in tails.items():
            dist = [-1] * n     # -1: not reached from v
            dist[v] = lat[v]
            for i in range(v, n if backward else max(us)):
                d = dist[i]
                if d < 0:
                    continue
                for j in intra[i]:
                    dj = d + lat[j]
                    if dj > dist[j]:
                        dist[j] = dj
            best = max(best, *(dist[u] if dist[u] >= 0 else lat[v] + lat[u]
                               if u != v else lat[v] for u in us))
        return best

    # -- assembly -----------------------------------------------------------

    def _build(self) -> None:
        self.block_lat = {lab: self._schedule_block(lab) for lab in self.insts}
        pipelined = {p.target: p.ii or 1
                     for p in self.fn.pragmas if p.kind is PragmaKind.PIPELINE}
        tally = self.tally = self._tally_blocks()
        # Deepest first, so each loop's children are tallied and priced
        # before it.
        for loop in sorted(self.forest.loops, key=lambda l: -l.depth):
            lid = loop.loop_id
            depth_cycles = self._region_path(loop.blocks, loop.header,
                                             loop.children)
            trip = self.trip[lid]
            for c in loop.children:
                tally[lid].add(tally[c.loop_id], self.eff_trip[c.loop_id])
            res_mii = self._res_mii(tally[lid].counts)
            if lid in pipelined:
                if trip is None:
                    raise EstimateError(
                        "UnknownTrip",
                        f"pipelined loop {lid} in @{self.fn.name} "
                        f"has no static trip count")
                rec_mii = self._rec_mii(loop, tally)
                ii = max(res_mii, rec_mii, pipelined[lid])
                total = ii * (trip - 1) + max(depth_cycles, 1)
            else:
                ii = rec_mii = None
                total = self.eff_trip[lid] * (depth_cycles + 1)
            self.loop_total[lid] = total
            self.loop_reports.append(LoopReport(
                lid, trip, depth_cycles, ii, res_mii, rec_mii, total))
            if ii is None:
                self.pending.append((self.loop_reports[-1], loop))

        top_level = [l for l in self.forest.loops
                     if self.forest.parent(l) is None]
        for l in top_level:
            tally[None].add(tally[l.loop_id], self.eff_trip[l.loop_id])
        # Trip-weighted accesses per array, as a caller charges a call to
        # this function.  The call graph is acyclic, so callees come first.
        self.mem_summary = tally[None].counts
        self.latency = self._region_path(self.forest.reach,
                                         self.fn.entry.label, top_level)

    def reports(self) -> list[LoopReport]:
        """``loop_reports``, each pending ``rec_mii`` worked out."""
        for report, loop in self.pending:
            report.rec_mii = self._rec_mii(loop, self.tally)
        self.pending.clear()
        return self.loop_reports


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
                            self.costs.memory_ports * p.factor)

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
    model = _ModuleModel(module, costs or OpCostTable())
    fm = model.fn_model(module.top.name)
    return QoRReport(max(1, fm.latency), fm)


def dynamic_cycle_oracle(module: IrModule, inputs, costs: OpCostTable | None = None,
                         fuel: int = 10**8) -> int:
    """Schedule-free dynamic cost: executed instructions weighted by their
    per-op latency.  Used to rank-validate `estimate`, never to train."""
    latency = (costs or OpCostTable()).latency
    counts = interpret(module, inputs, fuel).dynamic_op_counts
    return sum(latency.get(op, 1) * n for op, n in counts.items())
