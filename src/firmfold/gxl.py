"""GXL serialization in two dialects.

The native dialect represents the graph exactly as the model does:
every Dataflow/Controlflow edge is a declared `<node>` of type
`#DataflowEdge` or `#ControlflowEdge` carrying `position` (and
`branch`) attributes, and the only `<edge>` elements are bare,
attribute-free relation edges.  Those are recovered structurally on
load: an `<edge>` into an Edge node is its out half, an `<edge>`
leaving an Edge node is its in half, and a block-to-operation `<edge>`
is containment.  Because edges carry nothing, the document declares
`edgeids="false"`.

The attributed dialect is the conventional compiler-IR exchange form:
only operation and block nodes are declared, and `<edge>` elements
are typed (`#Dataflow`, `#Controlflow`, `#contains`) and carry the
position/branch attributes themselves.  Importing nodifies each typed
flow edge.  Dialect detection keys on exactly that difference: any
`<edge>` with a `<type>` child means the attributed dialect.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from enum import Enum

from .errors import (
    FirmFoldError,
    GxlParseError,
    GxlReferenceError,
    SchemaError,
    UnsupportedNodeTypeError,
)
from .graph import (
    OP_NAMES,
    BlockKind,
    EdgeKind,
    EdgeNode,
    NodeId,
    OpKind,
    ProgramGraph,
)

XLINK_NS = "http://www.w3.org/1999/xlink"
ET.register_namespace("xlink", XLINK_NS)

_INT_RE = re.compile(r"-?\d+")
_NATIVE_ID_RE = re.compile(r"n(\d+)")

_BLOCK_TYPES = {k.value: k for k in BlockKind}
_EDGE_NODE_TYPES = {"DataflowEdge": EdgeKind.DATAFLOW, "ControlflowEdge": EdgeKind.CONTROLFLOW}
_FLOW_EDGE_TYPES = {"Dataflow": EdgeKind.DATAFLOW, "Controlflow": EdgeKind.CONTROLFLOW}


class DialectTag(Enum):
    NATIVE = "native"
    FIRM_ATTRIBUTED = "firm"


def _local(tag: object) -> str:
    if not isinstance(tag, str):
        return ""
    return tag.rsplit("}", 1)[-1]


def _parse(data: bytes | str) -> ET.Element:
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        return ET.fromstring(data)
    except ET.ParseError as exc:
        raise GxlParseError(f"malformed XML: {exc}") from None


def _graph_element(root: ET.Element) -> ET.Element:
    if _local(root.tag) == "graph":
        return root
    for el in root.iter():
        if _local(el.tag) == "graph":
            return el
    raise SchemaError("document contains no graph element")


def _type_href(el: ET.Element) -> str | None:
    """The fragment of the single <type> child, or None if there is none."""
    types = [c for c in el if _local(c.tag) == "type"]
    if not types:
        return None
    if len(types) > 1:
        raise SchemaError("element declares more than one type")
    href = types[0].get(f"{{{XLINK_NS}}}href") or types[0].get("href")
    if href is None or not href.startswith("#") or len(href) < 2:
        raise SchemaError("type element lacks a usable href fragment")
    return href[1:]


def _attrs(el: ET.Element, context: str) -> dict[str, int | str]:
    out: dict[str, int | str] = {}
    for child in el:
        if _local(child.tag) != "attr":
            continue
        name = child.get("name")
        if not name:
            raise SchemaError(f"{context}: attr without a name")
        if name in out:
            raise SchemaError(f"{context}: duplicate attr {name!r}")
        values = [c for c in child if _local(c.tag) in ("int", "string")]
        if len(values) != 1 or len(list(child)) != 1:
            raise SchemaError(f"{context}: attr {name!r} needs exactly one int or string value")
        value_el = values[0]
        text = (value_el.text or "").strip()
        if _local(value_el.tag) == "int":
            if not _INT_RE.fullmatch(text):
                raise SchemaError(f"{context}: attr {name!r} is not a decimal integer")
            out[name] = int(text)
        else:
            out[name] = text
    return out


def _expect_attrs(
    attrs: dict[str, int | str],
    context: str,
    required: dict[str, type],
    optional: dict[str, type] = {},
) -> None:
    for name, typ in required.items():
        if name not in attrs:
            raise SchemaError(f"{context}: missing attr {name!r}")
        if not isinstance(attrs[name], typ):
            raise SchemaError(f"{context}: attr {name!r} has the wrong value type")
    for name in attrs:
        if name not in required and name not in optional:
            raise SchemaError(f"{context}: unexpected attr {name!r}")
        if name in optional and not isinstance(attrs[name], optional[name]):
            raise SchemaError(f"{context}: attr {name!r} has the wrong value type")


def _flow_attrs(
    kind: EdgeKind, attrs: dict[str, int | str], context: str
) -> tuple[int, int | None]:
    """The position and branch of a flow edge: `position` is required,
    and `branch` is allowed on Controlflow edges only."""
    optional = {"branch": int} if kind is EdgeKind.CONTROLFLOW else {}
    _expect_attrs(attrs, context, {"position": int}, optional)
    return attrs["position"], attrs.get("branch")  # type: ignore[return-value]


def _make_op_kind(type_name: str, attrs: dict[str, int | str], context: str) -> OpKind:
    try:
        if type_name == "Const":
            _expect_attrs(attrs, context, {"value": int})
            return OpKind("Const", value=attrs["value"])  # type: ignore[arg-type]
        if type_name == "Cmp":
            _expect_attrs(attrs, context, {"relation": str})
            return OpKind("Cmp", relation=attrs["relation"])  # type: ignore[arg-type]
        _expect_attrs(attrs, context, {})
        return OpKind(type_name)
    except ValueError as exc:
        raise SchemaError(f"{context}: {exc}") from None


def detect_dialect(data: bytes | str) -> DialectTag:
    """Attributed if any <edge> carries a <type> child, native otherwise."""
    graph = _graph_element(_parse(data))
    for el in graph:
        if _local(el.tag) != "edge":
            continue
        if any(_local(c.tag) == "type" for c in el):
            return DialectTag.FIRM_ATTRIBUTED
    return DialectTag.NATIVE


def load_native(data: bytes | str) -> ProgramGraph:
    """Read a native-dialect document, preserving its node numbering."""
    graph_el = _graph_element(_parse(data))
    if graph_el.get("edgeids", "false") != "false":
        raise SchemaError("native documents do not assign edge identities")

    op_nodes: dict[NodeId, OpKind] = {}
    block_nodes: dict[NodeId, BlockKind] = {}
    edge_meta: dict[NodeId, tuple[EdgeKind, int, int | None]] = {}
    declared: set[NodeId] = set()

    for el in graph_el:
        if _local(el.tag) != "node":
            continue
        raw_id = el.get("id")
        if raw_id is None:
            raise SchemaError("node without an id")
        m = _NATIVE_ID_RE.fullmatch(raw_id)
        if not m:
            raise SchemaError(f"node id {raw_id!r} is not of the form n<int>")
        nid = int(m.group(1))
        if nid in declared:
            raise SchemaError(f"duplicate node id {raw_id!r}")
        declared.add(nid)
        type_name = _type_href(el)
        if type_name is None:
            raise SchemaError(f"node {raw_id!r} declares no type")
        context = f"node {raw_id!r}"
        attrs = _attrs(el, context)
        if type_name in OP_NAMES:
            op_nodes[nid] = _make_op_kind(type_name, attrs, context)
        elif type_name in _BLOCK_TYPES:
            _expect_attrs(attrs, context, {})
            block_nodes[nid] = _BLOCK_TYPES[type_name]
        elif type_name in _EDGE_NODE_TYPES:
            kind = _EDGE_NODE_TYPES[type_name]
            edge_meta[nid] = (kind, *_flow_attrs(kind, attrs, context))
        else:
            raise UnsupportedNodeTypeError(f"unsupported node type #{type_name}")

    sources: dict[NodeId, NodeId] = {}
    targets: dict[NodeId, NodeId] = {}
    containment: dict[NodeId, NodeId] = {}

    for el in graph_el:
        if _local(el.tag) != "edge":
            continue
        if any(_local(c.tag) == "type" for c in el):
            raise SchemaError("native documents use bare relation edges only")
        refs = []
        for attr in ("from", "to"):
            raw = el.get(attr)
            if raw is None:
                raise SchemaError(f"edge without a {attr!r} endpoint")
            m = _NATIVE_ID_RE.fullmatch(raw)
            if not m or int(m.group(1)) not in declared:
                raise GxlReferenceError(f"edge references undeclared node {raw!r}")
            refs.append(int(m.group(1)))
        frm, to = refs
        if frm in edge_meta and to in edge_meta:
            raise SchemaError(f"relation edge links two Edge nodes n{frm} and n{to}")
        if to in edge_meta:
            if to in sources:
                raise SchemaError(f"Edge node n{to} has two sources")
            sources[to] = frm
        elif frm in edge_meta:
            if frm in targets:
                raise SchemaError(f"Edge node n{frm} has two targets")
            targets[frm] = to
        elif frm in block_nodes and to in op_nodes:
            if to in containment:
                raise SchemaError(f"operation n{to} is contained twice")
            containment[to] = frm
        else:
            raise SchemaError(f"relation edge n{frm} -> n{to} fits no structural role")

    edge_nodes: dict[NodeId, EdgeNode] = {}
    for eid, (kind, position, branch) in edge_meta.items():
        if eid not in sources or eid not in targets:
            raise SchemaError(f"Edge node n{eid} lacks a source or target")
        edge_nodes[eid] = EdgeNode(eid, kind, position, sources[eid], targets[eid], branch)

    try:
        return ProgramGraph._from_parts(op_nodes, block_nodes, edge_nodes, containment)
    except FirmFoldError as exc:
        raise SchemaError(str(exc)) from None


def import_firm_gxl(data: bytes | str) -> ProgramGraph:
    """Read an attributed-dialect document, nodifying its flow edges.

    Node ids in this dialect are arbitrary strings; the imported graph
    numbers declared nodes in document order and Edge nodes after them.
    """
    graph_el = _graph_element(_parse(data))

    op_nodes: dict[NodeId, OpKind] = {}
    block_nodes: dict[NodeId, BlockKind] = {}
    by_name: dict[str, NodeId] = {}

    for el in graph_el:
        if _local(el.tag) != "node":
            continue
        raw_id = el.get("id")
        if not raw_id:
            raise SchemaError("node without an id")
        if raw_id in by_name:
            raise SchemaError(f"duplicate node id {raw_id!r}")
        nid = len(by_name)
        by_name[raw_id] = nid
        type_name = _type_href(el)
        if type_name is None:
            raise SchemaError(f"node {raw_id!r} declares no type")
        context = f"node {raw_id!r}"
        attrs = _attrs(el, context)
        if type_name in OP_NAMES:
            op_nodes[nid] = _make_op_kind(type_name, attrs, context)
        elif type_name in _BLOCK_TYPES:
            _expect_attrs(attrs, context, {})
            block_nodes[nid] = _BLOCK_TYPES[type_name]
        else:
            raise UnsupportedNodeTypeError(f"unsupported node type #{type_name}")

    edge_nodes: dict[NodeId, EdgeNode] = {}
    containment: dict[NodeId, NodeId] = {}
    next_id = len(by_name)

    for el in graph_el:
        if _local(el.tag) != "edge":
            continue
        endpoints = []
        for attr in ("from", "to"):
            raw = el.get(attr)
            if raw is None:
                raise SchemaError(f"edge without a {attr!r} endpoint")
            if raw not in by_name:
                raise GxlReferenceError(f"edge references undeclared node {raw!r}")
            endpoints.append(by_name[raw])
        frm, to = endpoints
        type_name = _type_href(el)
        if type_name is None:
            raise SchemaError("attributed documents require a type on every edge")
        context = f"edge {el.get('from')!r} -> {el.get('to')!r}"
        attrs = _attrs(el, context)
        if type_name in _FLOW_EDGE_TYPES:
            kind = _FLOW_EDGE_TYPES[type_name]
            position, branch = _flow_attrs(kind, attrs, context)
            edge_nodes[next_id] = EdgeNode(next_id, kind, position, frm, to, branch)
            next_id += 1
        elif type_name == "contains":
            _expect_attrs(attrs, context, {})
            if frm not in block_nodes or to not in op_nodes:
                raise SchemaError(f"{context}: containment runs from a block to an operation")
            if to in containment:
                raise SchemaError(f"{context}: operation is contained twice")
            containment[to] = frm
        else:
            raise SchemaError(f"{context}: unknown edge type #{type_name}")

    try:
        return ProgramGraph._from_parts(op_nodes, block_nodes, edge_nodes, containment)
    except FirmFoldError as exc:
        raise SchemaError(str(exc)) from None


def load(data: bytes | str, dialect: DialectTag | None = None) -> ProgramGraph:
    """Read either dialect, auto-detecting unless one is forced."""
    if dialect is None:
        dialect = detect_dialect(data)
    if dialect is DialectTag.NATIVE:
        return load_native(data)
    return import_firm_gxl(data)


def _attr_element(parent: ET.Element, name: str, value: int | str) -> None:
    attr = ET.SubElement(parent, "attr", {"name": name})
    if isinstance(value, int):
        ET.SubElement(attr, "int").text = str(value)
    else:
        ET.SubElement(attr, "string").text = value


def save_native(g: ProgramGraph) -> bytes:
    """Serialize to the native dialect; byte-identical for equal graphs."""
    root = ET.Element("gxl")
    graph_el = ET.SubElement(
        root, "graph", {"id": "program", "edgeids": "false", "edgemode": "directed"}
    )
    for nid in sorted(set(g.op_nodes) | set(g.block_nodes) | set(g.edge_nodes)):
        node_el = ET.SubElement(graph_el, "node", {"id": f"n{nid}"})
        if nid in g.op_nodes:
            kind = g.op_nodes[nid]
            href = kind.name
        elif nid in g.block_nodes:
            href = g.block_nodes[nid].value
        else:
            e = g.edge_nodes[nid]
            href = "DataflowEdge" if e.kind is EdgeKind.DATAFLOW else "ControlflowEdge"
        type_el = ET.SubElement(node_el, "type")
        type_el.set(f"{{{XLINK_NS}}}href", f"#{href}")
        if nid in g.op_nodes:
            kind = g.op_nodes[nid]
            if kind.value is not None:
                _attr_element(node_el, "value", kind.value)
            if kind.relation is not None:
                _attr_element(node_el, "relation", kind.relation)
        elif nid in g.edge_nodes:
            e = g.edge_nodes[nid]
            _attr_element(node_el, "position", e.position)
            if e.branch is not None:
                _attr_element(node_el, "branch", e.branch)
    for eid in sorted(g.edge_nodes):
        e = g.edge_nodes[eid]
        ET.SubElement(graph_el, "edge", {"from": f"n{e.source}", "to": f"n{eid}"})
        ET.SubElement(graph_el, "edge", {"from": f"n{eid}", "to": f"n{e.target}"})
    for op in sorted(g.containment):
        ET.SubElement(graph_el, "edge", {"from": f"n{g.containment[op]}", "to": f"n{op}"})
    ET.indent(root)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True) + b"\n"


def _op_label(g: ProgramGraph, op: NodeId) -> str:
    kind = g.op_nodes[op]
    if kind.value is not None:
        detail = f" {kind.value}"
    elif kind.relation is not None:
        detail = f" {kind.relation}"
    else:
        detail = ""
    return f"n{op}: {kind.name}{detail}"


def export_dot(g: ProgramGraph) -> str:
    """Render to Graphviz dot: blocks as clusters, flow edges as arrows."""
    lines = ["digraph {", '  node [shape=box, fontname="monospace"];']
    for block in sorted(g.block_nodes):
        lines.append(f"  subgraph cluster_n{block} {{")
        lines.append(f'    label="n{block}: {g.block_nodes[block].value}";')
        lines.append(f'    b{block} [shape=point, label=""];')
        for op in g.members(block):
            lines.append(f'    n{op} [label="{_op_label(g, op)}"];')
        lines.append("  }")
    for op in sorted(set(g.op_nodes) - set(g.containment)):
        lines.append(f'  n{op} [label="{_op_label(g, op)}"];')
    for eid in sorted(g.edge_nodes):
        e = g.edge_nodes[eid]
        if e.kind is EdgeKind.DATAFLOW:
            lines.append(f'  n{e.source} -> n{e.target} [label="Dataflow@{e.position}"];')
        else:
            label = f"Controlflow@{e.position}"
            if e.branch is not None:
                label += f" branch={e.branch}"
            lines.append(
                f'  n{e.source} -> b{e.target} [label="{label}", style=dashed];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
