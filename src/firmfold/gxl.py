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

Each reader parses its document once, sorts the `<graph>` children in
one walk, and reads each element's children in one pass; one reader
serves the `<node>` declarations of both dialects.  The writer emits
the fixed native layout directly; every value in it is an integer or a
name from a closed set, so nothing needs escaping.
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
_XLINK_HREF = f"{{{XLINK_NS}}}href"

_INT_RE = re.compile(r"-?[0-9]+")

_BLOCK_TYPES = {k.value: k for k in BlockKind}
_EDGE_NODE_TYPES = {"DataflowEdge": EdgeKind.DATAFLOW, "ControlflowEdge": EdgeKind.CONTROLFLOW}
_EDGE_NODE_NAMES = {kind: name for name, kind in _EDGE_NODE_TYPES.items()}
_FLOW_EDGE_TYPES = {"Dataflow": EdgeKind.DATAFLOW, "Controlflow": EdgeKind.CONTROLFLOW}

#: The attributes, with their value types, of each operation kind that has any.
_OP_ATTRS: dict[str, dict[str, type]] = {"Const": {"value": int}, "Cmp": {"relation": str}}
#: The one label each attribute-free operation kind needs.
_PLAIN_OPS = {name: OpKind(name) for name in OP_NAMES if name not in _OP_ATTRS}


class DialectTag(Enum):
    NATIVE = "native"
    FIRM_ATTRIBUTED = "firm"


def _local(tag: object) -> str:
    if not isinstance(tag, str):
        return ""
    return tag.rsplit("}", 1)[-1]


class _LocalNames(dict):
    """Local names by tag, each split once; one table per load."""

    def __missing__(self, tag: object) -> str:
        name = self[tag] = _local(tag)
        return name


class _Document:
    """A parsed document's `<graph>` children, sorted in one walk into
    node and edge elements; any edge with a `<type>` makes it attributed."""

    def __init__(self, data: bytes | str) -> None:
        try:
            root = ET.fromstring(data.encode("utf-8") if isinstance(data, str) else data)
        except (ET.ParseError, ValueError, LookupError) as exc:
            # Besides bad XML: a str that UTF-8 cannot encode, or a declared
            # encoding that is unknown (LookupError) or multi-byte (ValueError).
            raise GxlParseError(f"malformed XML: {exc}") from None
        self.names = names = _LocalNames()
        self.graph = next((el for el in root.iter() if names[el.tag] == "graph"), None)
        if self.graph is None:
            raise SchemaError("document contains no graph element")
        self.nodes: list[ET.Element] = []
        self.edges: list[ET.Element] = []
        typed = False
        for el in self.graph:
            name = names[el.tag]
            if name == "node":
                self.nodes.append(el)
            elif name == "edge":
                self.edges.append(el)
                if len(el) and not typed:
                    typed = any(names[c.tag] == "type" for c in el)
        self.dialect = DialectTag.FIRM_ATTRIBUTED if typed else DialectTag.NATIVE

    def parts(self, el: ET.Element) -> tuple[str | None, dict[str, int | str]]:
        """The `<type>` fragment and the attrs of a node or typed edge, read
        in one pass over its children; (None, {}) if it has no type."""
        names = self.names
        type_el, attr_els = None, []
        for child in el:
            name = names[child.tag]
            if name == "attr":
                attr_els.append(child)
            elif name == "type":
                if type_el is not None:
                    raise SchemaError("element declares more than one type")
                type_el = child
        if type_el is None:
            return None, {}
        href = type_el.get(_XLINK_HREF) or type_el.get("href")
        if href is None or not href.startswith("#") or len(href) < 2:
            raise SchemaError("type element lacks a usable href fragment")
        attrs: dict[str, int | str] = {}
        for attr in attr_els:
            name = attr.get("name")
            if not name:
                raise SchemaError(f"{_context(el)}: attr without a name")
            if name in attrs:
                raise SchemaError(f"{_context(el)}: duplicate attr {name!r}")
            if len(attr) != 1 or (value_tag := names[attr[0].tag]) not in ("int", "string"):
                raise SchemaError(
                    f"{_context(el)}: attr {name!r} needs exactly one int or string value"
                )
            text = (attr[0].text or "").strip()
            if value_tag == "int":
                if not _INT_RE.fullmatch(text):
                    raise SchemaError(f"{_context(el)}: attr {name!r} is not a decimal integer")
                attrs[name] = _decimal(text, el, name)
            else:
                attrs[name] = text
        return href[1:], attrs


def _context(el: ET.Element) -> str:
    """How error messages name a node or edge element."""
    if _local(el.tag) == "node":
        return f"node {el.get('id')!r}"
    return f"edge {el.get('from')!r} -> {el.get('to')!r}"


def _decimal(digits: str, el: ET.Element | None = None, attr: str = "") -> int:
    """`int(digits)`; past the digit limit, GxlParseError naming `el`'s `attr` or a node id."""
    try:
        return int(digits)
    except ValueError:
        what = f"{_context(el)}: attr {attr!r}" if el is not None else "node id"
        raise GxlParseError(f"{what} has {len(digits)} digits, too many to read") from None


def _expect_attrs(
    attrs: dict[str, int | str],
    el: ET.Element,
    required: dict[str, type],
    optional: dict[str, type] = {},
) -> None:
    for name, typ in required.items():
        if name not in attrs:
            raise SchemaError(f"{_context(el)}: missing attr {name!r}")
        if not isinstance(attrs[name], typ):
            raise SchemaError(f"{_context(el)}: attr {name!r} has the wrong value type")
    for name in attrs:
        if name not in required and name not in optional:
            raise SchemaError(f"{_context(el)}: unexpected attr {name!r}")
        if name in optional and not isinstance(attrs[name], optional[name]):
            raise SchemaError(f"{_context(el)}: attr {name!r} has the wrong value type")


def _flow_attrs(
    kind: EdgeKind, attrs: dict[str, int | str], el: ET.Element
) -> tuple[int, int | None]:
    """The position and branch of a flow edge: `position` is required,
    and `branch` is allowed on Controlflow edges only."""
    optional = {"branch": int} if kind is EdgeKind.CONTROLFLOW else {}
    _expect_attrs(attrs, el, {"position": int}, optional)
    return attrs["position"], attrs.get("branch")  # type: ignore[return-value]


def _key(raw: str, native: bool) -> NodeId | str | None:
    """What an id names, or None: in native documents its number (so `n1`
    names a node declared `n01`), in attributed ones the id itself."""
    if not native:
        return raw or None
    digits = raw[1:]
    return _decimal(digits) if raw[:1] == "n" and digits.isascii() and digits.isdecimal() else None


def _declarations(doc: _Document, native: bool) -> tuple[dict, dict, dict, dict]:
    """Read the `<node>` elements of either dialect.

    Native nodes keep the number their id names; attributed nodes are
    numbered in document order and may not be Edge nodes.  Returns the
    operation and block maps, each Edge node's (kind, position, branch),
    and each node's number by its `_key` and by its id as written.
    """
    op_nodes: dict[NodeId, OpKind] = {}
    block_nodes: dict[NodeId, BlockKind] = {}
    edge_meta: dict[NodeId, tuple[EdgeKind, int, int | None]] = {}
    ids: dict[NodeId | str, NodeId] = {}
    for el in doc.nodes:
        raw_id = el.get("id")
        if raw_id is None or (key := _key(raw_id, native)) is None:
            if native and raw_id is not None:
                raise SchemaError(f"node id {raw_id!r} is not of the form n<int>")
            raise SchemaError("node without an id")
        if key in ids:
            raise SchemaError(f"duplicate node id {raw_id!r}")
        # An attributed id is its own key, so `ids` has one entry per node.
        nid = ids[key] = ids[raw_id] = key if native else len(ids)  # type: ignore[assignment]
        type_name, attrs = doc.parts(el)
        if type_name is None:
            raise SchemaError(f"node {raw_id!r} declares no type")
        if type_name in _PLAIN_OPS and not attrs:
            op_nodes[nid] = _PLAIN_OPS[type_name]
        elif type_name in OP_NAMES:
            _expect_attrs(attrs, el, _OP_ATTRS.get(type_name, {}))
            try:
                op_nodes[nid] = OpKind(type_name, **attrs)  # type: ignore[arg-type]
            except ValueError as exc:
                raise SchemaError(f"{_context(el)}: {exc}") from None
        elif type_name in _BLOCK_TYPES:
            _expect_attrs(attrs, el, {})
            block_nodes[nid] = _BLOCK_TYPES[type_name]
        elif native and type_name in _EDGE_NODE_TYPES:
            kind = _EDGE_NODE_TYPES[type_name]
            edge_meta[nid] = (kind, *_flow_attrs(kind, attrs, el))
        else:
            raise UnsupportedNodeTypeError(f"unsupported node type #{type_name}")
    return op_nodes, block_nodes, edge_meta, ids


def _endpoint(el: ET.Element, attr: str, ids: dict, native: bool) -> NodeId:
    """The declared node an `<edge>` names in `attr`, found by its id as
    written, or by `_key` for another spelling (`n1` for `n01`)."""
    if (raw := el.get(attr)) is None:
        raise SchemaError(f"edge without a {attr!r} endpoint")
    if (nid := ids.get(raw)) is None and (nid := ids.get(_key(raw, native))) is None:
        raise GxlReferenceError(f"edge references undeclared node {raw!r}")
    return nid


def _assemble(*parts: dict) -> ProgramGraph:
    try:
        return ProgramGraph._from_parts(*parts)
    except FirmFoldError as exc:
        raise SchemaError(str(exc)) from None


def _read_native(doc: _Document) -> ProgramGraph:
    if doc.graph.get("edgeids", "false") != "false":
        raise SchemaError("native documents do not assign edge identities")
    op_nodes, block_nodes, edge_meta, ids = _declarations(doc, native=True)
    sources: dict[NodeId, NodeId] = {}
    targets: dict[NodeId, NodeId] = {}
    containment: dict[NodeId, NodeId] = {}
    for el in doc.edges:
        if len(el):
            raise SchemaError("native documents use bare relation edges only")
        frm, to = _endpoint(el, "from", ids, True), _endpoint(el, "to", ids, True)
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


def _read_attributed(doc: _Document) -> ProgramGraph:
    op_nodes, block_nodes, _, ids = _declarations(doc, native=False)
    edge_nodes: dict[NodeId, EdgeNode] = {}
    containment: dict[NodeId, NodeId] = {}
    for el in doc.edges:
        frm, to = _endpoint(el, "from", ids, False), _endpoint(el, "to", ids, False)
        type_name, attrs = doc.parts(el)
        if type_name is None:
            raise SchemaError("attributed documents require a type on every edge")
        if type_name in _FLOW_EDGE_TYPES:
            kind = _FLOW_EDGE_TYPES[type_name]
            position, branch = _flow_attrs(kind, attrs, el)
            eid = len(ids) + len(edge_nodes)
            edge_nodes[eid] = EdgeNode(eid, kind, position, frm, to, branch)
        elif type_name == "contains":
            _expect_attrs(attrs, el, {})
            if frm not in block_nodes or to not in op_nodes:
                raise SchemaError(f"{_context(el)}: containment runs from a block to an operation")
            if to in containment:
                raise SchemaError(f"{_context(el)}: operation is contained twice")
            containment[to] = frm
        else:
            raise SchemaError(f"{_context(el)}: unknown edge type #{type_name}")
    return _assemble(op_nodes, block_nodes, edge_nodes, containment)


def detect_dialect(data: bytes | str) -> DialectTag:
    """Attributed if any <edge> carries a <type> child, native otherwise."""
    return _Document(data).dialect


def load_native(data: bytes | str) -> ProgramGraph:
    """Read a native-dialect document, preserving its node numbering."""
    return _read_native(_Document(data))


def import_firm_gxl(data: bytes | str) -> ProgramGraph:
    """Read an attributed-dialect document, nodifying its flow edges.

    Node ids in this dialect are arbitrary strings; the imported graph
    numbers declared nodes in document order and Edge nodes after them.
    """
    return _read_attributed(_Document(data))


def load(data: bytes | str, dialect: DialectTag | None = None) -> ProgramGraph:
    """Read either dialect, auto-detecting unless one is forced."""
    doc = _Document(data)
    if (dialect or doc.dialect) is DialectTag.NATIVE:
        return _read_native(doc)
    return _read_attributed(doc)


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
