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

Each reader parses its document once, and one reader serves the
`<node>` declarations of both dialects.  The writer emits the fixed
native layout directly; every value in it is an integer or a name from
a closed set, so nothing needs escaping.
"""

from __future__ import annotations

import io
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

_INT_RE = re.compile(r"-?\d+")
_NATIVE_ID_RE = re.compile(r"n(\d+)")

_BLOCK_TYPES = {k.value: k for k in BlockKind}
_EDGE_NODE_TYPES = {"DataflowEdge": EdgeKind.DATAFLOW, "ControlflowEdge": EdgeKind.CONTROLFLOW}
_EDGE_NODE_NAMES = {kind: name for name, kind in _EDGE_NODE_TYPES.items()}
_FLOW_EDGE_TYPES = {"Dataflow": EdgeKind.DATAFLOW, "Controlflow": EdgeKind.CONTROLFLOW}

#: The attributes, with their value types, of each operation kind that has any.
_OP_ATTRS: dict[str, dict[str, type]] = {"Const": {"value": int}, "Cmp": {"relation": str}}


class DialectTag(Enum):
    NATIVE = "native"
    FIRM_ATTRIBUTED = "firm"


def _local(tag: object) -> str:
    if not isinstance(tag, str):
        return ""
    return tag.rsplit("}", 1)[-1]


def _graph_element(data: bytes | str) -> ET.Element:
    """Parse `data` and return its `<graph>` element."""
    try:
        if isinstance(data, str):
            data = data.encode("utf-8")
        root = ET.fromstring(data)
    except (ET.ParseError, ValueError, LookupError) as exc:
        # Besides bad XML: a str that UTF-8 cannot encode, or a declared
        # encoding that is unknown (LookupError) or multi-byte (ValueError).
        raise GxlParseError(f"malformed XML: {exc}") from None
    for el in root.iter():  # the root first
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


def _decimal(digits: str, what: str) -> int:
    """`int(digits)`, or GxlParseError past the interpreter's digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise GxlParseError(f"{what} has {len(digits)} digits, too many to read") from None


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
            out[name] = _decimal(text, f"{context}: attr {name!r}")
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


def _key(raw: str, native: bool) -> NodeId | str | None:
    """What an id names, or None: in native documents its number (so `n1`
    names a node declared `n01`), in attributed ones the id itself."""
    if not native:
        return raw or None
    m = _NATIVE_ID_RE.fullmatch(raw)
    return _decimal(m.group(1), "node id") if m else None


def _declarations(graph_el: ET.Element, native: bool) -> tuple[dict, dict, dict, dict]:
    """Read the `<node>` elements of either dialect.

    Native nodes keep the number their id names; attributed nodes are
    numbered in document order and may not be Edge nodes.  Returns the
    operation and block maps, each Edge node's (kind, position, branch),
    and each node's number by its `_key`.
    """
    op_nodes: dict[NodeId, OpKind] = {}
    block_nodes: dict[NodeId, BlockKind] = {}
    edge_meta: dict[NodeId, tuple[EdgeKind, int, int | None]] = {}
    ids: dict[NodeId | str, NodeId] = {}
    for el in graph_el:
        if _local(el.tag) != "node":
            continue
        raw_id = el.get("id")
        if raw_id is None or (key := _key(raw_id, native)) is None:
            if native and raw_id is not None:
                raise SchemaError(f"node id {raw_id!r} is not of the form n<int>")
            raise SchemaError("node without an id")
        if key in ids:
            raise SchemaError(f"duplicate node id {raw_id!r}")
        nid = ids[key] = key if native else len(ids)  # type: ignore[assignment]
        type_name = _type_href(el)
        if type_name is None:
            raise SchemaError(f"node {raw_id!r} declares no type")
        context = f"node {raw_id!r}"
        attrs = _attrs(el, context)
        if type_name in OP_NAMES:
            _expect_attrs(attrs, context, _OP_ATTRS.get(type_name, {}))
            try:
                op_nodes[nid] = OpKind(type_name, **attrs)  # type: ignore[arg-type]
            except ValueError as exc:
                raise SchemaError(f"{context}: {exc}") from None
        elif type_name in _BLOCK_TYPES:
            _expect_attrs(attrs, context, {})
            block_nodes[nid] = _BLOCK_TYPES[type_name]
        elif native and type_name in _EDGE_NODE_TYPES:
            kind = _EDGE_NODE_TYPES[type_name]
            edge_meta[nid] = (kind, *_flow_attrs(kind, attrs, context))
        else:
            raise UnsupportedNodeTypeError(f"unsupported node type #{type_name}")
    return op_nodes, block_nodes, edge_meta, ids


def _endpoints(el: ET.Element, ids: dict, native: bool) -> tuple[NodeId, NodeId]:
    """The declared nodes an `<edge>` runs from and to."""
    ends = []
    for attr in ("from", "to"):
        raw = el.get(attr)
        if raw is None:
            raise SchemaError(f"edge without a {attr!r} endpoint")
        nid = ids.get(_key(raw, native))
        if nid is None:
            raise GxlReferenceError(f"edge references undeclared node {raw!r}")
        ends.append(nid)
    return ends[0], ends[1]


def _assemble(*parts: dict) -> ProgramGraph:
    try:
        return ProgramGraph._from_parts(*parts)
    except FirmFoldError as exc:
        raise SchemaError(str(exc)) from None


def _dialect(graph_el: ET.Element) -> DialectTag:
    for el in graph_el:
        if _local(el.tag) == "edge" and any(_local(c.tag) == "type" for c in el):
            return DialectTag.FIRM_ATTRIBUTED
    return DialectTag.NATIVE


def _read_native(graph_el: ET.Element) -> ProgramGraph:
    if graph_el.get("edgeids", "false") != "false":
        raise SchemaError("native documents do not assign edge identities")
    op_nodes, block_nodes, edge_meta, ids = _declarations(graph_el, native=True)
    sources: dict[NodeId, NodeId] = {}
    targets: dict[NodeId, NodeId] = {}
    containment: dict[NodeId, NodeId] = {}
    for el in graph_el:
        if _local(el.tag) != "edge":
            continue
        if any(_local(c.tag) == "type" for c in el):
            raise SchemaError("native documents use bare relation edges only")
        frm, to = _endpoints(el, ids, native=True)
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
    return _assemble(op_nodes, block_nodes, edge_nodes, containment)


def _read_attributed(graph_el: ET.Element) -> ProgramGraph:
    op_nodes, block_nodes, _, ids = _declarations(graph_el, native=False)
    edge_nodes: dict[NodeId, EdgeNode] = {}
    containment: dict[NodeId, NodeId] = {}
    for el in graph_el:
        if _local(el.tag) != "edge":
            continue
        frm, to = _endpoints(el, ids, native=False)
        type_name = _type_href(el)
        if type_name is None:
            raise SchemaError("attributed documents require a type on every edge")
        context = f"edge {el.get('from')!r} -> {el.get('to')!r}"
        attrs = _attrs(el, context)
        if type_name in _FLOW_EDGE_TYPES:
            kind = _FLOW_EDGE_TYPES[type_name]
            position, branch = _flow_attrs(kind, attrs, context)
            eid = len(ids) + len(edge_nodes)
            edge_nodes[eid] = EdgeNode(eid, kind, position, frm, to, branch)
        elif type_name == "contains":
            _expect_attrs(attrs, context, {})
            if frm not in block_nodes or to not in op_nodes:
                raise SchemaError(f"{context}: containment runs from a block to an operation")
            if to in containment:
                raise SchemaError(f"{context}: operation is contained twice")
            containment[to] = frm
        else:
            raise SchemaError(f"{context}: unknown edge type #{type_name}")
    return _assemble(op_nodes, block_nodes, edge_nodes, containment)


def detect_dialect(data: bytes | str) -> DialectTag:
    """Attributed if any <edge> carries a <type> child, native otherwise."""
    return _dialect(_graph_element(data))


def load_native(data: bytes | str) -> ProgramGraph:
    """Read a native-dialect document, preserving its node numbering."""
    return _read_native(_graph_element(data))


def import_firm_gxl(data: bytes | str) -> ProgramGraph:
    """Read an attributed-dialect document, nodifying its flow edges.

    Node ids in this dialect are arbitrary strings; the imported graph
    numbers declared nodes in document order and Edge nodes after them.
    """
    return _read_attributed(_graph_element(data))


def load(data: bytes | str, dialect: DialectTag | None = None) -> ProgramGraph:
    """Read either dialect, auto-detecting unless one is forced."""
    graph_el = _graph_element(data)
    if (dialect or _dialect(graph_el)) is DialectTag.NATIVE:
        return _read_native(graph_el)
    return _read_attributed(graph_el)


def save_native(g: ProgramGraph) -> bytes:
    """Serialize to the native dialect; byte-identical for equal graphs.

    The layout is ElementTree's indented one, so an empty graph closes
    itself and its document declares no `xlink` namespace."""
    out = io.BytesIO()
    write = out.write
    write(b"<?xml version='1.0' encoding='utf-8'?>\n")
    graph_tag = '<graph id="program" edgeids="false" edgemode="directed"'
    ids = sorted(g.op_nodes.keys() | g.block_nodes.keys() | g.edge_nodes.keys())
    if not ids:
        write(f"<gxl>\n  {graph_tag} />\n</gxl>\n".encode())
        return out.getvalue()
    write(f'<gxl xmlns:xlink="{XLINK_NS}">\n  {graph_tag}>\n'.encode())
    for nid in ids:
        if nid in g.op_nodes:
            kind = g.op_nodes[nid]
            href, attrs = kind.name, [(a, getattr(kind, a)) for a in _OP_ATTRS.get(kind.name, ())]
        elif nid in g.block_nodes:
            href, attrs = g.block_nodes[nid].value, []
        else:
            e = g.edge_nodes[nid]
            href, attrs = _EDGE_NODE_NAMES[e.kind], [("position", e.position), ("branch", e.branch)]
        write(f'    <node id="n{nid}">\n      <type xlink:href="#{href}" />\n'.encode())
        for name, value in attrs:
            if value is not None:
                tag = "string" if isinstance(value, str) else "int"
                write(
                    f'      <attr name="{name}">\n        <{tag}>{value}</{tag}>\n'
                    "      </attr>\n".encode()
                )
        write(b"    </node>\n")
    for eid in sorted(g.edge_nodes):
        e = g.edge_nodes[eid]
        write(f'    <edge from="n{e.source}" to="n{eid}" />\n'.encode())
        write(f'    <edge from="n{eid}" to="n{e.target}" />\n'.encode())
    for op in sorted(g.containment):
        write(f'    <edge from="n{g.containment[op]}" to="n{op}" />\n'.encode())
    write(b"  </graph>\n</gxl>\n")
    return out.getvalue()


def _op_label(g: ProgramGraph, op: NodeId) -> str:
    kind = g.op_nodes[op]
    detail = "".join(f" {getattr(kind, name)}" for name in _OP_ATTRS.get(kind.name, ()))
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
