"""Heterogeneous program graphs.

One node per instruction (terminators included), per block, and one for the
function; edges carry one of four relations: data flow (def -> use between
instructions), control flow (block -> successor block), and the two
affiliation relations of the hierarchy.  This is the representation all
similarity and learning code consumes.
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass

from .ir import IrModule, ValueRef
from .ir.types import instr_class_one_hot

SCHEMA_VERSION = "hetgraph_v2"

#: Loop-depth buckets for block attributes: 0, 1, 2, >=3.
BLOCK_DEPTH_BUCKETS = 4
FUNC_ATTR_WIDTH = 1


class NodeKind(enum.Enum):
    INSTR = "instr"
    BLOCK = "block"
    FUNC = "func"


class Relation(enum.Enum):
    DATA_FLOW = "data"
    CONTROL_FLOW = "control"
    AFFIL_INSTR_BLOCK = "affil_ib"
    AFFIL_BLOCK_FUNC = "affil_bf"


#: Single relation used by the homogenized (GCN-ablation) variant.
HOMOGENEOUS_RELATION = Relation.DATA_FLOW


@dataclass(frozen=True)
class NodeRecord:
    node_id: int
    kind: NodeKind
    attr: tuple[float, ...]


@dataclass(frozen=True)
class EdgeRecord:
    src: int
    dst: int
    relation: Relation


@dataclass
class HetGraph:
    nodes: list[NodeRecord]
    edges: list[EdgeRecord]
    function: str

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


def _block_attr(depth: int) -> tuple[float, ...]:
    v = [0.0] * BLOCK_DEPTH_BUCKETS
    v[min(depth, BLOCK_DEPTH_BUCKETS - 1)] = 1.0
    return tuple(v)


def build_het_graph(module: IrModule, fn_name: str | None = None) -> HetGraph:
    """Construct the typed program graph for one function (default: top); a
    block's depth is its loop annotation's, which ``verify_module`` checks."""
    fn = module.top if fn_name is None else module.function(fn_name)

    nodes: list[NodeRecord] = []
    edges: list[EdgeRecord] = []

    instr_node: dict[int, int] = {}  # id(instruction object) -> node id
    def_node: dict[str, int] = {}    # value id -> defining node id
    nid = 0
    for b in fn.blocks:
        for ins in b.all_instructions():
            nodes.append(NodeRecord(nid, NodeKind.INSTR,
                                    tuple(instr_class_one_hot(ins.instr_class))))
            instr_node[id(ins)] = nid
            if ins.result is not None:
                def_node[ins.result] = nid
            nid += 1

    block_node: dict[str, int] = {}
    for b in fn.blocks:
        depth = 0 if b.loop_info is None else b.loop_info.depth
        nodes.append(NodeRecord(nid, NodeKind.BLOCK, _block_attr(depth)))
        block_node[b.label] = nid
        nid += 1

    func_node = nid
    nodes.append(NodeRecord(nid, NodeKind.FUNC, (1.0,) * FUNC_ATTR_WIDTH))

    seen_data: set[tuple[int, int]] = set()
    for b in fn.blocks:
        for ins in b.all_instructions():
            use_nid = instr_node[id(ins)]
            for op in ins.operands:
                if isinstance(op, ValueRef) and op.id in def_node:
                    src = def_node[op.id]
                    if src != use_nid and (src, use_nid) not in seen_data:
                        seen_data.add((src, use_nid))
                        edges.append(EdgeRecord(src, use_nid, Relation.DATA_FLOW))
            edges.append(EdgeRecord(use_nid, block_node[b.label],
                                    Relation.AFFIL_INSTR_BLOCK))
        for s in b.successors():
            edges.append(EdgeRecord(block_node[b.label], block_node[s],
                                    Relation.CONTROL_FLOW))
        edges.append(EdgeRecord(block_node[b.label], func_node,
                                Relation.AFFIL_BLOCK_FUNC))

    return HetGraph(nodes, edges, fn.name)


def homogenize(g: HetGraph) -> HetGraph:
    """Collapse all relations to one kind (GCN-style ablation input)."""
    edges = [EdgeRecord(e.src, e.dst, HOMOGENEOUS_RELATION) for e in g.edges]
    return HetGraph(list(g.nodes), edges, g.function)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_DOT_STYLE = {
    Relation.DATA_FLOW: 'color="blue"',
    Relation.CONTROL_FLOW: 'color="red",penwidth=2',
    Relation.AFFIL_INSTR_BLOCK: 'color="gray",style=dashed',
    Relation.AFFIL_BLOCK_FUNC: 'color="black",style=dotted',
}


def to_dot(g: HetGraph) -> str:
    lines = [f'digraph "{g.function}" {{']
    for n in g.nodes:
        if n.kind is NodeKind.INSTR:
            shape = "ellipse"
            fill = ""
        elif n.kind is NodeKind.BLOCK:
            shape = "box"
            # Loop blocks (depth bucket >= 1) highlighted.
            in_loop = any(n.attr[i] for i in range(1, BLOCK_DEPTH_BUCKETS))
            fill = ',style=filled,fillcolor="yellow"' if in_loop else ""
        else:
            shape = "doubleoctagon"
            fill = ""
        lines.append(f'  n{n.node_id} [shape={shape},label="{n.kind.value}{n.node_id}"{fill}];')
    for e in g.edges:
        lines.append(f'  n{e.src} -> n{e.dst} [{_DOT_STYLE[e.relation]}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: HetGraph) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "function": g.function,
        "nodes": [{"id": n.node_id, "kind": n.kind.value, "attr": list(n.attr)}
                  for n in g.nodes],
        "edges": [{"src": e.src, "dst": e.dst, "rel": e.relation.value}
                  for e in g.edges],
    }
    return json.dumps(doc, indent=None, separators=(",", ":"), sort_keys=True)
