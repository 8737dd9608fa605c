"""Serialization: both dialects, detection, determinism, error reporting."""

from __future__ import annotations

import random
import re
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from firmfold import (
    CATALOG,
    INT32_MAX,
    INT32_MIN,
    JMP,
    BlockKind,
    Const,
    DialectTag,
    GxlError,
    GxlParseError,
    GxlReferenceError,
    ProgramGraph,
    SchemaError,
    UnsupportedNodeTypeError,
    build_min_plus_one,
    canonical_hash,
    detect_dialect,
    export_dot,
    fold,
    import_firm_gxl,
    is_isomorphic,
    load,
    load_native,
    save_native,
)
from firmfold import gxl
from helpers import (
    diamond_chain,
    materialize,
    mutate_document,
    permute_native_ids,
    random_graph,
    random_program,
    reference_detect_dialect,
    reference_import_firm_gxl,
    reference_load,
    reference_load_native,
    reference_save_native,
)

FIXTURE = Path(__file__).parent / "data" / "min_plus_one_firm.gxl"
GXL_NS = "http://www.gupro.de/GXL/gxl-1.0.dtd"
BARE_EDGES = "native documents use bare relation edges only"


def wrap_native(body: str) -> str:
    return (
        '<gxl xmlns:xlink="http://www.w3.org/1999/xlink">'
        '<graph id="g" edgeids="false" edgemode="directed">'
        f"{body}</graph></gxl>"
    )


def start_and_return(one: str = "1", edge_to: str = "n1") -> str:
    """A start block n0 holding a Return declared `n<one>`, whose
    containment edge names it `edge_to`."""
    return (
        '<node id="n0"><type xlink:href="#StartBlock"/></node>'
        f'<node id="n{one}"><type xlink:href="#Return"/></node>'
        f'<edge from="n0" to="{edge_to}"/>'
    )


def const_of(text: str) -> str:
    return (
        '<node id="n1"><type xlink:href="#Const"/>'
        f'<attr name="value"><int>{text}</int></attr></node>'
    )


# One Arabic-Indic digit in an id, in an endpoint, and in an <int>; the
# readers take ASCII digits only, so each of these is refused.
NON_ASCII_DIGITS = (
    start_and_return(one="\u0661", edge_to="n\u0661"),
    start_and_return(edge_to="n\u0661"),
    const_of("\u0663\u0667"),
)


def test_save_load_roundtrip_preserves_ids():
    g = build_min_plus_one(3, 5, "lt")
    h = load_native(save_native(g))
    assert h.op_nodes == g.op_nodes
    assert h.block_nodes == g.block_nodes
    assert h.containment == g.containment
    assert sorted(h.edge_nodes) == sorted(g.edge_nodes)
    for eid, e in g.edge_nodes.items():
        f = h.edge_nodes[eid]
        assert (f.kind, f.position, f.source, f.target, f.branch) == (
            e.kind,
            e.position,
            e.source,
            e.target,
            e.branch,
        )


def test_save_is_deterministic_and_stable_under_reload():
    g = build_min_plus_one(3, 5, "lt")
    blob = save_native(g)
    assert blob == save_native(g)
    assert save_native(load_native(blob)) == blob


def test_save_matches_the_element_tree_writer_byte_for_byte():
    graphs = [build_min_plus_one(3, 5, "lt"), ProgramGraph()]
    graphs += [random_graph(random.Random(seed)) for seed in range(60)]
    rng = random.Random(5)
    graphs += [diamond_chain(rng, 3, frozenset({0, 2}), frozenset({1})) for _ in range(3)]
    extremes = ProgramGraph()
    block = extremes.add_block(BlockKind.START_BLOCK)
    extremes.add_op(Const(INT32_MIN), block)
    extremes.add_op(Const(INT32_MAX), block)
    graphs.append(extremes)
    for index, g in enumerate(graphs):
        assert save_native(g) == reference_save_native(g), index


def test_load_parses_each_document_once(monkeypatch):
    calls = []
    real = ET.fromstring

    def counted(data):
        calls.append(data)
        return real(data)

    # `gxl` imports ElementTree where it parses, so the spy sits on the module.
    monkeypatch.setattr(ET, "fromstring", counted)
    native = save_native(build_min_plus_one(3, 5, "lt"))
    commented = native.replace(b"<graph", b"<!-- c --><graph", 1)
    for doc, trees in ((native, 0), (commented, 1), (FIXTURE.read_bytes(), 1)):
        calls.clear()
        load(doc)
        assert len(calls) == trees


def with_comment(doc: str) -> str:
    """`doc` with a comment after `<graph ...>`, which takes it out of the
    plain subset."""
    return doc.replace('edgemode="directed">', 'edgemode="directed"><!-- c -->', 1)


# Invalid documents in the plain subset, each with the error it raises.
INVALID_PLAIN = (
    (
        start_and_return() + '<node id="n01"><type xlink:href="#Return"/></node>',
        "duplicate node id 'n01'",
    ),
    ('<node id="n1"><type xlink:href="#Cmp"/></node>', "node 'n1': missing attr 'relation'"),
    (
        '<node id="n1"><type xlink:href="#Const"/><attr name="value"><int>1</int></attr></node>'
        '<node id="n2"><type xlink:href="#Const"/><attr name="value"><int>2</int></attr></node>'
        '<node id="n3"><type xlink:href="#DataflowEdge"/>'
        '<attr name="position"><int>0</int></attr></node>'
        '<edge from="n1" to="n3"/><edge from="n2" to="n3"/>',
        "Edge node n3 has two sources",
    ),
    (
        '<node id="n1"><type xlink:href="#StartBlock"/></node>'
        '<node id="n1"><type xlink:href="#EndBlock"/></node>',
        "duplicate node id 'n1'",
    ),
)


def test_invalid_plain_documents_are_parsed_once(monkeypatch):
    built = []

    class Spy(gxl._Document):
        def __init__(self, data):
            built.append(data)
            super().__init__(data)

    monkeypatch.setattr(gxl, "_Document", Spy)
    for body, message in INVALID_PLAIN:
        doc = wrap_native(body)
        assert gxl._PLAIN.fullmatch(doc), body
        twin = with_comment(doc)
        for reader in (load, load_native):
            built.clear()
            assert outcome(reader, doc) == (SchemaError, message)
            assert built == []
            assert outcome(reader, twin) == (SchemaError, message)
            assert built == [twin]


def test_a_document_and_its_commented_twin_fold_to_the_same_bytes():
    # the plain reader reads the document, and ElementTree its twin
    doc = save_native(diamond_chain(random.Random(1), 8)).decode()
    twin = with_comment(doc)
    assert gxl._PLAIN.fullmatch(doc) and not gxl._PLAIN.fullmatch(twin)
    plain, commented = (save_native(fold(load(d.encode()), CATALOG).graph) for d in (doc, twin))
    assert plain == commented


@pytest.mark.parametrize(
    "body, message",
    [
        ('<node id="x">', "node id 'x' is not of the form n<int>"),
        ('<node id="n1"><type xlink:href="#Block"/></node><node id="n1">', "duplicate node id 'n1'"),
    ],
)
def test_an_id_error_comes_before_a_type_error(body, message):
    twice = '<type xlink:href="#Block"/><type xlink:href="#Block"/></node>'
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        load(wrap_native(body + twice))


def test_native_references_resolve_by_number():
    body = (
        '<node id="n00"><type xlink:href="#StartBlock"/></node>'
        '<node id="n01"><type xlink:href="#Return"/></node>'
        '<edge from="n0" to="n1"/>'
    )
    g = load_native(wrap_native(body))
    assert g.containment == {1: 0}
    with pytest.raises(SchemaError, match="duplicate node id 'n1'"):
        load_native(wrap_native(body + '<node id="n1"><type xlink:href="#Block"/></node>'))


def test_unknown_encoding_and_unencodable_text_are_parse_errors():
    with pytest.raises(GxlParseError):
        load(b"<?xml version='1.0' encoding='utf-9'?><gxl><graph id='g'/></gxl>")
    with pytest.raises(GxlParseError):
        load(b"<?xml version='1.0' encoding='utf-7'?><gxl><graph id='g'/></gxl>")
    with pytest.raises(GxlParseError):
        load("<gxl><graph id='\ud800'/></gxl>")


def test_overlong_numbers_are_parse_errors():
    limit = sys.get_int_max_str_digits()
    # at the limit, leading zeros included, an id still names its number
    at_limit = "n" + "1".zfill(limit)
    g = load(wrap_native(f'<node id="{at_limit}"><type xlink:href="#StartBlock"/></node>'))
    assert g.block_nodes == {1: BlockKind.START_BLOCK}
    digits = "7" * (limit + 1)
    start = '<node id="n0"><type xlink:href="#StartBlock"/></node>'
    for body in (
        f'<node id="n{digits}"><type xlink:href="#StartBlock"/></node>',
        f'{start}<node id="n1"><type xlink:href="#Return"/></node>'
        f'<edge from="n1" to="n{digits}"/>',
        f'<node id="n1"><type xlink:href="#Const"/>'
        f'<attr name="value"><int>{digits}</int></attr></node>',
        f'<node id="n1"><type xlink:href="#Const"/>'
        f'<attr name="value"><int>-{digits}</int></attr></node>',
    ):
        with pytest.raises(GxlParseError, match="digits, too many to read"):
            load(wrap_native(body))


def test_overlong_attr_numbers_name_their_node_and_attr():
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    cases = (
        (
            f'<node id="n1"><type xlink:href="#Const"/>'
            f'<attr name="value"><int>{digits}</int></attr></node>',
            f"node 'n1': attr 'value' has {len(digits)} digits, too many to read",
        ),
        (
            # the count leaves out the sign
            f'<node id="n1"><type xlink:href="#Const"/>'
            f'<attr name="value"><int>-{digits}</int></attr></node>',
            f"node 'n1': attr 'value' has {len(digits)} digits, too many to read",
        ),
        (
            f'<node id="n3"><type xlink:href="#DataflowEdge"/>'
            f'<attr name="position"><int> {digits}\n</int></attr></node>',
            f"node 'n3': attr 'position' has {len(digits)} digits, too many to read",
        ),
    )
    for body, message in cases:
        doc = wrap_native(body)
        assert gxl._PLAIN.fullmatch(doc), body
        # the plain reader reads the document, and ElementTree its twin
        for text in (doc, with_comment(doc)):
            assert outcome(load, text) == (GxlParseError, message)
    # an attributed edge is named by its endpoints
    fixture = FIXTURE.read_text().replace(
        "<attr name=\"position\"><int>1</int></attr>",
        f"<attr name=\"position\"><int>{digits}</int></attr>",
        1,
    )
    message = f"edge 'const_b' -> 'compare': attr 'position' has {len(digits)} digits, too many to read"
    assert outcome(load, fixture) == (GxlParseError, message)


def mutated_documents() -> list[bytes]:
    """2,000 damaged copies of four documents of both dialects."""
    seeds = [
        save_native(build_min_plus_one(3, 5, "lt")),
        save_native(random_graph(random.Random(3))),
        save_native(diamond_chain(random.Random(4), 1, frozenset({0}), frozenset({0}))),
        FIXTURE.read_bytes(),
    ]
    rng = random.Random(2024)
    return [mutate_document(seeds[index % len(seeds)], rng) for index in range(2000)]


def test_mutated_documents_raise_only_gxl_errors():
    outcomes = {"graph": 0, "error": 0}
    for doc in mutated_documents():
        for reader in (load, load_native, import_firm_gxl):
            try:
                assert isinstance(reader(doc), ProgramGraph)
                outcomes["graph"] += 1
            except GxlError:
                outcomes["error"] += 1
    # the mutations reach both outcomes
    assert min(outcomes.values()) > 100, outcomes


def outcome(reader, doc: bytes) -> object:
    """What `reader` makes of `doc`: a graph's maps, a dialect, or an error."""
    try:
        result = reader(doc)
    except GxlError as exc:
        return type(exc), str(exc)
    if isinstance(result, ProgramGraph):
        return result.op_nodes, result.block_nodes, result.edge_nodes, result.containment
    return result


def has_edge_with_children(doc: bytes) -> bool:
    return any(el.tag.endswith("edge") and len(el) for el in ET.fromstring(doc).iter())


def has_non_ascii_digit(doc: bytes) -> bool:
    return any(ch.isdecimal() and not ch.isascii() for ch in doc.decode(errors="ignore"))


def reader_corpus() -> list[bytes]:
    """A 9,896-element chain, 20 documents with permuted ids, the
    non-ASCII digits and the 2,000 mutated documents."""
    big = save_native(diamond_chain(random.Random(0), 430))
    permuted = []
    for seed in range(20):
        rng = random.Random(seed)
        permuted.append(permute_native_ids(save_native(random_graph(rng)), rng))
    digits = [wrap_native(body).encode() for body in NON_ASCII_DIGITS]
    return [big, *permuted, *digits, *mutated_documents()]


def test_reader_matches_the_reference_reader():
    pairs = (
        (load, reference_load),
        (load_native, reference_load_native),
        (import_firm_gxl, reference_import_firm_gxl),
        (detect_dialect, reference_detect_dialect),
    )
    refused = 0
    for doc in reader_corpus():
        for reader, reference in pairs:
            got, want = outcome(reader, doc), outcome(reference, doc)
            if got == want:
                continue
            # the two intended changes: native edges with children are
            # refused, and so are ids and ints with non-ASCII digits, which
            # the reference reader took
            if got == (SchemaError, BARE_EDGES):
                assert has_edge_with_children(doc), doc
            else:
                assert got[0] in (SchemaError, GxlReferenceError), doc
                assert isinstance(want[0], dict) and has_non_ascii_digit(doc), doc
                refused += 1
    # each by load and by load_native, and the <int> by import_firm_gxl too
    assert refused == 2 * len(NON_ASCII_DIGITS) + 1


def compact(doc: bytes) -> bytes:
    """`doc` without the whitespace between its tags, as perfbench writes it."""
    return re.sub(rb">\s+<", b"><", doc)


def near_misses() -> list[bytes]:
    """Native documents just outside the plain subset, one edit each."""
    doc = save_native(build_min_plus_one(3, 5, "lt"))
    edits = (
        (b'<node id="n5">', b'<node id="n&#53;">'),  # an entity in an id
        (b"<int>3</int>", b"<int>&#51;</int>"),  # an entity in an int
        (b"<int>3</int>", b"<int>\r\n3</int>"),
        (b'edgemode="directed">', b'edgemode="directed"><!-- c -->'),
        (b'<node id="n5">', b"<node id='n5'>"),
        (b'<edge from="n5" to="n15" />', b'<edge to="n15" from="n5" />'),
        (b'xmlns:xlink="http://www.w3.org/1999/xlink"', b'xmlns:xlink="urn:other"'),
        (b"<gxl ", f'<gxl xmlns="{GXL_NS}" '.encode()),
        (b'<node id="n5">', '<node id="n\u0665">'.encode()),
        (b"<?xml", b"\xef\xbb\xbf<?xml"),  # a byte order mark
    )
    misses = []
    for old, new in edits:
        assert doc.count(old) >= 1, old
        misses.append(doc.replace(old, new, 1))
    return misses


def in_order(reader, doc: bytes) -> object:
    """`outcome`, with each map as its items in insertion order."""
    result = outcome(reader, doc)
    if isinstance(result, tuple) and isinstance(result[0], dict):
        return tuple(list(part.items()) for part in result)
    return result


def test_plain_reader_matches_the_element_tree_reader(monkeypatch):
    entered = read = 0
    misses = near_misses()
    for doc in [*reader_corpus(), *misses]:
        if gxl._PLAIN.fullmatch(doc.decode("latin-1")):
            assert doc not in misses, doc
            entered += 1
            read += isinstance(outcome(gxl._read_plain, doc)[0], dict)
        got = [in_order(reader, doc) for reader in (load, load_native)]
        with monkeypatch.context() as tree_only:
            tree_only.setattr(gxl, "_read_plain", lambda data: None)
            want = [in_order(reader, doc) for reader in (load, load_native)]
        assert got == want, doc
    # The plain reader reads the big chain, the permuted documents and
    # some mutated ones to graphs; on the other mutated ones it enters,
    # it raises the error that the tree reader raises.
    assert entered > 300 and read > 50, (entered, read)


def test_plain_reader_reads_what_save_native_writes():
    graphs = [random_graph(random.Random(seed)) for seed in range(60)]
    rng = random.Random(5)
    graphs += [diamond_chain(rng, n, frozenset({0}), frozenset({n - 1})) for n in (1, 3, 40)]
    graphs.append(diamond_chain(random.Random(0), 430))
    for index, g in enumerate(graphs):
        doc = save_native(g)
        for layout in (doc, compact(doc)):
            assert gxl._read_plain(layout) is not None, index
            tree = in_order(lambda d: gxl._read_native(gxl._Document(d)), layout)
            assert in_order(gxl._read_plain, layout) == tree, index


def test_roundtrip_random_graphs():
    for seed in range(15):
        rng = random.Random(seed)
        g = materialize(random_program(rng), rng)
        h = load_native(save_native(g))
        assert is_isomorphic(g, h), seed
        assert canonical_hash(g) == canonical_hash(h), seed


def test_loading_permuted_ids_gives_isomorphic_graph():
    rng = random.Random(42)
    g = build_min_plus_one(3, 5, "lt")
    blob = permute_native_ids(save_native(g), rng)
    h = load_native(blob)
    assert h.op_nodes != g.op_nodes  # genuinely renamed
    assert is_isomorphic(g, h)


def test_detect_dialect():
    g = build_min_plus_one(3, 5, "lt")
    assert detect_dialect(save_native(g)) is DialectTag.NATIVE
    assert detect_dialect(FIXTURE.read_bytes()) is DialectTag.FIRM_ATTRIBUTED


def test_load_auto_detects():
    g1 = load(save_native(build_min_plus_one(3, 5, "lt")))
    g2 = load(FIXTURE.read_bytes())
    assert is_isomorphic(g1, g2)


def test_fixture_imports_isomorphic_to_builder():
    g = import_firm_gxl(FIXTURE.read_bytes())
    assert is_isomorphic(g, build_min_plus_one(3, 5, "lt"))


def test_import_numbers_nodes_in_document_order():
    doc = """<gxl xmlns:xlink="http://www.w3.org/1999/xlink"><graph id="g">
      <node id="entry"><type xlink:href="#StartBlock"/></node>
      <node id="three"><type xlink:href="#Const"/>
        <attr name="value"><int>3</int></attr></node>
      <node id="give"><type xlink:href="#Return"/></node>
      <edge from="three" to="give">
        <type xlink:href="#Dataflow"/>
        <attr name="position"><int>0</int></attr>
      </edge>
      <edge from="entry" to="three"><type xlink:href="#contains"/></edge>
      <edge from="entry" to="give"><type xlink:href="#contains"/></edge>
    </graph></gxl>"""
    g = import_firm_gxl(doc)
    assert g.block_nodes == {0: BlockKind.START_BLOCK}
    assert sorted(g.op_nodes) == [1, 2]
    assert g.op_nodes[1].value == 3
    # the nodified edge is numbered after every declared node
    assert sorted(g.edge_nodes) == [3]
    assert g.containment == {1: 0, 2: 0}


def test_malformed_xml():
    with pytest.raises(GxlParseError):
        load(b"<gxl><graph id='g'>")


def test_missing_graph_element():
    with pytest.raises(SchemaError):
        load(b"<gxl></gxl>")


def test_native_rejects_bad_ids_and_duplicates():
    with pytest.raises(SchemaError):
        load_native(wrap_native('<node id="x1"><type xlink:href="#Block"/></node>'))
    with pytest.raises(SchemaError):
        load_native(
            wrap_native(
                '<node id="n1"><type xlink:href="#Block"/></node>'
                '<node id="n1"><type xlink:href="#Block"/></node>'
            )
        )


def test_native_ids_take_ascii_digits_only():
    assert load_native(wrap_native(start_and_return())).containment == {1: 0}
    with pytest.raises(SchemaError, match="is not of the form n<int>"):
        load_native(wrap_native(NON_ASCII_DIGITS[0]))


def test_native_endpoints_take_ascii_digits_only():
    with pytest.raises(GxlReferenceError, match="undeclared node 'n\u0661'"):
        load_native(wrap_native(NON_ASCII_DIGITS[1]))


def test_native_ints_take_ascii_digits_only():
    assert load_native(wrap_native(const_of("37"))).op_nodes == {1: Const(37)}
    with pytest.raises(SchemaError, match="is not a decimal integer"):
        load_native(wrap_native(NON_ASCII_DIGITS[2]))


def test_native_rejects_unknown_type():
    with pytest.raises(UnsupportedNodeTypeError) as err:
        load_native(wrap_native('<node id="n1"><type xlink:href="#Mul"/></node>'))
    assert "Mul" in str(err.value)


def test_native_rejects_untyped_node_and_typed_edge():
    with pytest.raises(SchemaError):
        load_native(wrap_native('<node id="n1"/>'))
    with pytest.raises(SchemaError):
        load_native(
            wrap_native(
                '<node id="n1"><type xlink:href="#Block"/></node>'
                '<node id="n2"><type xlink:href="#Jmp"/></node>'
                '<edge from="n2" to="n1"><type xlink:href="#Controlflow"/></edge>'
            )
        )


def test_native_rejects_edges_with_children():
    nodes = (
        '<node id="n0"><type xlink:href="#StartBlock"/></node>'
        '<node id="n1"><type xlink:href="#Return"/></node>'
    )
    for children in (
        '<attr name="position"><int>7</int></attr><foo/>',
        '<attr name="position"><int>7</int></attr>',
        "<foo/>",
    ):
        doc = wrap_native(f'{nodes}<edge from="n0" to="n1">{children}</edge>')
        for reader in (load, load_native):
            with pytest.raises(SchemaError, match=BARE_EDGES):
                reader(doc)
    # text is not a child element
    g = load_native(wrap_native(f'{nodes}<edge from="n0" to="n1"> </edge>'))
    assert g.containment == {1: 0}


def namespaced(doc: bytes, prefix: str) -> bytes:
    """`doc` with every element in the GXL namespace, as the default
    namespace or under `prefix`."""
    if not prefix:
        return doc.replace(b"<gxl", f'<gxl xmlns="{GXL_NS}"'.encode(), 1)
    doc = re.sub(rb"<(/?)(\w+)", rf"<\1{prefix}:\2".encode(), doc)
    root = f"<{prefix}:gxl"
    return doc.replace(root.encode(), f'{root} xmlns:{prefix}="{GXL_NS}"'.encode(), 1)


def test_namespaced_elements_load_like_plain_ones():
    native = save_native(diamond_chain(random.Random(1), 3, frozenset({1}), frozenset({2})))
    for reader, doc in ((load_native, native), (import_firm_gxl, FIXTURE.read_bytes())):
        for prefix in ("", "g"):
            spaced = namespaced(doc, prefix)
            assert ET.fromstring(spaced).tag == f"{{{GXL_NS}}}gxl"
            plain = outcome(reader, doc)
            assert isinstance(plain, tuple) and isinstance(plain[0], dict)
            assert outcome(load, spaced) == plain, prefix
            assert detect_dialect(spaced) is detect_dialect(doc)


def test_endpoints_resolve_under_another_spelling():
    doc = save_native(diamond_chain(random.Random(2), 40))
    # every endpoint `nK` respelled `n0K`; declarations keep their ids
    respelled = re.sub(rb'(from|to)="n(\d+)"', rb'\1="n0\2"', doc)
    assert respelled.count(b'"n0') > 1000
    plain = outcome(load, doc)
    assert isinstance(plain, tuple) and isinstance(plain[0], dict)
    assert outcome(load, respelled) == plain


def test_native_rejects_undeclared_reference():
    with pytest.raises(GxlReferenceError):
        load_native(
            wrap_native(
                '<node id="n1"><type xlink:href="#Block"/></node>'
                '<edge from="n1" to="n9"/>'
            )
        )


def test_native_rejects_incomplete_edge_node():
    body = (
        '<node id="n0"><type xlink:href="#StartBlock"/></node>'
        '<node id="n1"><type xlink:href="#Const"/><attr name="value"><int>1</int></attr></node>'
        '<node id="n2"><type xlink:href="#DataflowEdge"/>'
        '<attr name="position"><int>0</int></attr></node>'
        '<edge from="n1" to="n2"/>'
    )
    with pytest.raises(SchemaError) as err:
        load_native(wrap_native(body))
    assert "source or target" in str(err.value)


def test_native_rejects_edge_ids():
    doc = (
        '<gxl><graph id="g" edgeids="true" edgemode="directed"></graph></gxl>'
    )
    with pytest.raises(SchemaError):
        load_native(doc)


def test_native_rejects_missing_position():
    body = '<node id="n1"><type xlink:href="#DataflowEdge"/></node>'
    with pytest.raises(SchemaError) as err:
        load_native(wrap_native(body))
    assert "position" in str(err.value)


def test_native_rejects_wrong_endpoint_classes():
    # a Dataflow Edge node wired block-to-op fails model validation
    body = (
        '<node id="n0"><type xlink:href="#StartBlock"/></node>'
        '<node id="n1"><type xlink:href="#Const"/><attr name="value"><int>1</int></attr></node>'
        '<node id="n2"><type xlink:href="#DataflowEdge"/>'
        '<attr name="position"><int>0</int></attr></node>'
        '<edge from="n0" to="n2"/><edge from="n2" to="n1"/>'
    )
    with pytest.raises(SchemaError):
        load_native(wrap_native(body))


def test_native_rejects_nameless_and_mistyped_attrs():
    for body, message in (
        (
            '<node id="n5"><type xlink:href="#Const"/><attr><int>1</int></attr></node>',
            "node 'n5': attr without a name",
        ),
        (
            '<node id="n1"><type xlink:href="#Const"/>'
            '<attr name="value"><string>3</string></attr></node>',
            "node 'n1': attr 'value' has the wrong value type",
        ),
        (
            '<node id="n2"><type xlink:href="#DataflowEdge"/>'
            '<attr name="position"><string>0</string></attr></node>',
            "node 'n2': attr 'position' has the wrong value type",
        ),
        (
            '<node id="n2"><type xlink:href="#ControlflowEdge"/>'
            '<attr name="position"><int>0</int></attr>'
            '<attr name="branch"><string>1</string></attr></node>',
            "node 'n2': attr 'branch' has the wrong value type",
        ),
    ):
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_native(wrap_native(body))


def test_native_rejects_a_node_without_an_id():
    with pytest.raises(SchemaError, match="node without an id"):
        load_native(wrap_native('<node><type xlink:href="#Block"/></node>'))


def test_native_rejects_a_relation_edge_between_edge_nodes():
    edge_node = (
        '<node id="n{}"><type xlink:href="#DataflowEdge"/>'
        '<attr name="position"><int>0</int></attr></node>'
    )
    body = edge_node.format(1) + edge_node.format(2) + '<edge from="n1" to="n2"/>'
    with pytest.raises(SchemaError, match="relation edge links two Edge nodes n1 and n2"):
        load_native(wrap_native(body))


def test_native_rejects_a_negative_position():
    doc = save_native(build_min_plus_one(3, 5, "lt")).decode()
    start = doc.index('<node id="n15">')
    doc = doc[:start] + doc[start:].replace("<int>0</int>", "<int>-1</int>", 1)
    # the graph model refuses it, and the reader reports that as a schema error
    with pytest.raises(SchemaError, match="edge n15 has negative position"):
        load_native(doc)


def test_native_accepts_unprefixed_href():
    doc = wrap_native('<node id="n0"><type href="#StartBlock"/></node>')
    g = load_native(doc.replace(' xmlns:xlink="http://www.w3.org/1999/xlink"', ""))
    assert g.block_nodes == {0: BlockKind.START_BLOCK}


def test_native_rejects_non_decimal_int():
    for bad in ("+3", "0x3", "three", "3.0", ""):
        body = (
            f'<node id="n1"><type xlink:href="#Const"/>'
            f'<attr name="value"><int>{bad}</int></attr></node>'
        )
        with pytest.raises(SchemaError):
            load_native(wrap_native(body))


def test_native_rejects_out_of_range_const():
    body = (
        '<node id="n1"><type xlink:href="#Const"/>'
        '<attr name="value"><int>2147483648</int></attr></node>'
    )
    with pytest.raises(SchemaError):
        load_native(wrap_native(body))


def test_firm_rejects_untyped_edge():
    doc = """<gxl xmlns:xlink="http://www.w3.org/1999/xlink"><graph id="g">
      <node id="a"><type xlink:href="#StartBlock"/></node>
      <node id="b"><type xlink:href="#Jmp"/></node>
      <edge from="b" to="a"/>
    </graph></gxl>"""
    with pytest.raises(SchemaError):
        import_firm_gxl(doc)


def test_firm_rejects_unknown_edge_type_and_decorated_contains():
    base = """<gxl xmlns:xlink="http://www.w3.org/1999/xlink"><graph id="g">
      <node id="a"><type xlink:href="#StartBlock"/></node>
      <node id="b"><type xlink:href="#Jmp"/></node>
      {edge}
    </graph></gxl>"""
    with pytest.raises(SchemaError):
        import_firm_gxl(base.format(edge='<edge from="a" to="b"><type xlink:href="#member"/></edge>'))
    with pytest.raises(SchemaError):
        import_firm_gxl(
            base.format(
                edge='<edge from="a" to="b"><type xlink:href="#contains"/>'
                '<attr name="position"><int>0</int></attr></edge>'
            )
        )


def test_firm_rejects_backward_containment():
    doc = """<gxl xmlns:xlink="http://www.w3.org/1999/xlink"><graph id="g">
      <node id="a"><type xlink:href="#StartBlock"/></node>
      <node id="b"><type xlink:href="#Jmp"/></node>
      <edge from="b" to="a"><type xlink:href="#contains"/></edge>
    </graph></gxl>"""
    with pytest.raises(SchemaError):
        import_firm_gxl(doc)


def test_firm_rejects_branch_on_jmp_edge():
    doc = """<gxl xmlns:xlink="http://www.w3.org/1999/xlink"><graph id="g">
      <node id="a"><type xlink:href="#Block"/></node>
      <node id="b"><type xlink:href="#Jmp"/></node>
      <edge from="b" to="a">
        <type xlink:href="#Controlflow"/>
        <attr name="position"><int>0</int></attr>
        <attr name="branch"><int>1</int></attr>
      </edge>
    </graph></gxl>"""
    with pytest.raises(SchemaError):
        import_firm_gxl(doc)


def test_export_dot_is_deterministic_and_complete():
    g = build_min_plus_one(3, 5, "lt")
    dot = export_dot(g)
    assert dot == export_dot(g)
    assert dot.startswith("digraph {")
    assert dot.rstrip().endswith("}")
    assert 'subgraph cluster_n0' in dot
    assert 'n5 [label="n5: Const 3"]' in dot
    assert 'n8 [label="n8: Cmp lt"]' in dot
    assert 'label="Dataflow@0"' in dot
    assert 'label="Controlflow@0 branch=1", style=dashed' in dot


def test_export_dot_empty_graph():
    dot = export_dot(ProgramGraph())
    assert dot.startswith("digraph {")
    assert dot.rstrip().endswith("}")


def test_export_dot_places_blockless_ops_outside_clusters():
    g = ProgramGraph()
    block = g.add_block(BlockKind.BLOCK)
    g.add_op(JMP, block)
    g.delete_node(block)
    dot = export_dot(g)
    assert "cluster" not in dot
    assert 'n1 [label="n1: Jmp"]' in dot


def test_ten_thousand_element_chain_round_trips_byte_for_byte():
    g = diamond_chain(random.Random(0), 430)
    assert g.element_count() == 9896
    doc = save_native(g)
    assert save_native(load(doc)) == doc
