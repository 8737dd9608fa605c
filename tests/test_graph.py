"""Core model: construction, validation, deletion, queries."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firmfold import (
    ADD,
    CATALOG,
    COND,
    INT32_MAX,
    INT32_MIN,
    JMP,
    PHI,
    RETURN,
    BlockKind,
    Cmp,
    Const,
    DuplicatePositionError,
    EdgeKind,
    EdgeNode,
    FirmFoldError,
    IncompatibleEndpointsError,
    OpKind,
    ProgramGraph,
    Rule,
    UnknownBlockError,
    UnknownNodeError,
    fold,
    wrap32,
)
from firmfold.graph import _Adjacency, contiguous
from helpers import diamond_chain, gapped, random_graph, relabel


def test_wrap32_identity_inside_range():
    rng = random.Random(1)
    for _ in range(200):
        v = rng.randint(INT32_MIN, INT32_MAX)
        assert wrap32(v) == v


def test_wrap32_overflow():
    assert wrap32(INT32_MAX + 1) == INT32_MIN
    assert wrap32(INT32_MIN - 1) == INT32_MAX
    assert wrap32(2**32) == 0
    assert wrap32(-(2**32)) == 0
    assert wrap32(INT32_MAX + INT32_MAX) == -2


def test_const_factory_wraps():
    assert Const(INT32_MAX + 1).value == INT32_MIN


def test_op_kind_validation():
    with pytest.raises(ValueError):
        OpKind("Mul")
    with pytest.raises(ValueError):
        OpKind("Add", value=1)
    with pytest.raises(ValueError):
        OpKind("Const")
    with pytest.raises(ValueError):
        OpKind("Const", value=INT32_MAX + 1)
    with pytest.raises(ValueError):
        OpKind("Cmp")
    with pytest.raises(ValueError):
        Cmp("approx")
    with pytest.raises(ValueError):
        OpKind("Add", relation="lt")


def test_ids_are_sequential_and_never_reused():
    g = ProgramGraph()
    b = g.add_block(BlockKind.START_BLOCK)
    c = g.add_op(Const(1), b)
    assert (b, c) == (0, 1)
    g.delete_node(c)
    c2 = g.add_op(Const(2), b)
    assert c2 == 2


def test_add_op_requires_block():
    g = ProgramGraph()
    with pytest.raises(UnknownBlockError):
        g.add_op(Const(1), 99)
    b = g.add_block(BlockKind.START_BLOCK)
    c = g.add_op(Const(1), b)
    with pytest.raises(UnknownBlockError):
        g.add_op(Const(2), c)


def test_connect_validates_endpoints():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    c = g.add_op(Const(1), start)
    ret = g.add_op(RETURN, start)
    end = g.add_block(BlockKind.END_BLOCK)
    with pytest.raises(UnknownNodeError):
        g.connect(c, 99, EdgeKind.DATAFLOW, 0)
    with pytest.raises(IncompatibleEndpointsError):
        g.connect(c, end, EdgeKind.DATAFLOW, 0)
    with pytest.raises(IncompatibleEndpointsError):
        g.connect(start, c, EdgeKind.DATAFLOW, 0)
    with pytest.raises(IncompatibleEndpointsError):
        g.connect(ret, c, EdgeKind.CONTROLFLOW, 0)
    with pytest.raises(IncompatibleEndpointsError):
        g.connect(c, end, EdgeKind.CONTROLFLOW, 0)
    with pytest.raises(ValueError):
        g.connect(c, ret, EdgeKind.DATAFLOW, -1)
    g.connect(c, ret, EdgeKind.DATAFLOW, 0)
    g.connect(ret, end, EdgeKind.CONTROLFLOW, 0)


def test_branch_only_on_cond_sourced_control_edges():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    block = g.add_block(BlockKind.BLOCK)
    cond = g.add_op(COND, start)
    jmp = g.add_op(JMP, block)
    with pytest.raises(IncompatibleEndpointsError):
        g.connect(cond, block, EdgeKind.CONTROLFLOW, 0)
    with pytest.raises(IncompatibleEndpointsError):
        g.connect(cond, block, EdgeKind.CONTROLFLOW, 0, branch=2)
    with pytest.raises(IncompatibleEndpointsError):
        g.connect(jmp, block, EdgeKind.CONTROLFLOW, 0, branch=1)
    g.connect(cond, block, EdgeKind.CONTROLFLOW, 0, branch=1)
    c = g.add_op(Const(1), start)
    with pytest.raises(IncompatibleEndpointsError):
        g.connect(c, cond, EdgeKind.DATAFLOW, 0, branch=0)


def test_duplicate_position_rejected():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    a = g.add_op(Const(1), start)
    b = g.add_op(Const(2), start)
    add = g.add_op(ADD, start)
    g.connect(a, add, EdgeKind.DATAFLOW, 0)
    with pytest.raises(DuplicatePositionError):
        g.connect(b, add, EdgeKind.DATAFLOW, 0)
    # same position on a different consumer, and on the same consumer in
    # the other edge kind's port space, are both fine
    g.connect(b, add, EdgeKind.DATAFLOW, 1)


def test_delete_op_cascades_incident_edges():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    a = g.add_op(Const(1), start)
    b = g.add_op(Const(2), start)
    add = g.add_op(ADD, start)
    ret = g.add_op(RETURN, start)
    g.connect(a, add, EdgeKind.DATAFLOW, 0)
    g.connect(b, add, EdgeKind.DATAFLOW, 1)
    g.connect(add, ret, EdgeKind.DATAFLOW, 0)
    before = g.element_count()
    deleted = g.delete_node(add)
    assert deleted == 4
    assert g.element_count() == before - 4
    assert g.data_inputs(ret) == []
    assert g.data_users(a) == []


def test_delete_block_leaves_members_blockless():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    block = g.add_block(BlockKind.BLOCK)
    jmp = g.add_op(JMP, block)
    g.connect(jmp, start, EdgeKind.CONTROLFLOW, 0)
    deleted = g.delete_node(block)
    assert deleted == 1
    assert jmp in g.op_nodes
    assert jmp not in g.containment
    # the member's own control edge survives; only edges incident to the
    # block itself cascade
    assert len(g.edge_nodes) == 1


def test_delete_block_cascades_entry_edges():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    block = g.add_block(BlockKind.BLOCK)
    jmp = g.add_op(JMP, start)
    g.connect(jmp, block, EdgeKind.CONTROLFLOW, 0)
    assert g.delete_node(block) == 2
    assert g.control_succs(jmp) == []


def test_delete_unknown_node():
    g = ProgramGraph()
    with pytest.raises(UnknownNodeError):
        g.delete_node(0)


def test_query_ordering():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    a = g.add_op(Const(1), start)
    b = g.add_op(Const(2), start)
    phi_block = g.add_block(BlockKind.BLOCK)
    phi = g.add_op(PHI, phi_block)
    # connect out of position order; data_inputs must sort by position
    e1 = g.connect(b, phi, EdgeKind.DATAFLOW, 1)
    e0 = g.connect(a, phi, EdgeKind.DATAFLOW, 0)
    assert g.data_inputs(phi) == [(e0, a), (e1, b)]
    assert g.data_users(a) == [(e0, phi)]
    assert g.members(start) == [a, b]
    assert g.blocks_of_kind(BlockKind.BLOCK) == [phi_block]


def test_kind_queries():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    c = g.add_op(Const(7), start)
    assert g.op_kind(c) == Const(7)
    assert g.block_kind(start) is BlockKind.START_BLOCK
    with pytest.raises(UnknownNodeError):
        g.op_kind(start)
    with pytest.raises(UnknownBlockError):
        g.block_kind(c)
    with pytest.raises(UnknownBlockError):
        g.block_kind(99)


def test_operation_queries_reject_other_nodes():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    a = g.add_op(Const(1), start)
    ret = g.add_op(RETURN, start)
    edge = g.connect(a, ret, EdgeKind.DATAFLOW, 0)
    for query in (g.data_inputs, g.data_users, g.control_succs):
        for node in (start, edge, 99):
            with pytest.raises(UnknownNodeError):
                query(node)
    for node in (a, edge, 99):
        with pytest.raises(UnknownBlockError):
            g.members(node)


def test_contiguous():
    assert contiguous([]) and contiguous([0]) and contiguous([0, 1, 2])
    assert not contiguous([1]) and not contiguous([0, 2]) and not contiguous([0, 0])


def test_input_positions_of_an_operation_and_a_block():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    merge = g.add_block(BlockKind.BLOCK)
    a = g.add_op(Const(1), start)
    b = g.add_op(Const(2), start)
    add = g.add_op(ADD, start)
    jmps = [g.add_op(JMP, start) for _ in range(2)]
    assert g.input_positions(add) == [] and g.input_positions(merge) == []
    # gapped, connected out of order: listed ascending
    g.connect(b, add, EdgeKind.DATAFLOW, 4)
    data = g.connect(a, add, EdgeKind.DATAFLOW, 1)
    g.connect(jmps[0], merge, EdgeKind.CONTROLFLOW, 3)
    entry = g.connect(jmps[1], merge, EdgeKind.CONTROLFLOW, 0)
    assert g.input_positions(add) == [1, 4]
    assert g.input_positions(merge) == [0, 3]
    # duplicates, which only set_position or a loader can make
    g.set_position(data, 4)
    g.set_position(entry, 3)
    assert g.input_positions(add) == [4, 4]
    assert g.input_positions(merge) == [3, 3]
    with pytest.raises(UnknownNodeError):
        g.input_positions(data)


def test_stale_phi_inputs():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    merge = g.add_block(BlockKind.BLOCK)
    phi = g.add_op(PHI, merge)
    entries, inputs = [], []
    for position in (1, 3):
        jmp, value = g.add_op(JMP, start), g.add_op(Const(position), start)
        entries.append(g.connect(jmp, merge, EdgeKind.CONTROLFLOW, position))
        inputs.append(g.connect(value, phi, EdgeKind.DATAFLOW, position))
    assert g.stale_phi_inputs(phi) == []  # aligned, though gapped
    g.delete_node(entries[0])
    assert g.stale_phi_inputs(phi) == [inputs[0]]
    g.delete_node(entries[1])
    assert g.stale_phi_inputs(phi) == inputs  # an entryless block
    g.delete_node(merge)
    assert g.stale_phi_inputs(phi) == []  # a blockless Phi


def test_copy_is_independent():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    a = g.add_op(Const(1), start)
    ret = g.add_op(RETURN, start)
    eid = g.connect(a, ret, EdgeKind.DATAFLOW, 0)
    h = g.copy()
    h.set_position(eid, 5)
    h.delete_node(a)
    assert g.edge_nodes[eid].position == 0
    assert a in g.op_nodes
    # copies continue the id sequence of the original
    assert h.add_block(BlockKind.BLOCK) == g.add_block(BlockKind.BLOCK)


def _assert_index_is_its_own(g: ProgramGraph) -> None:
    """`g` has an index, and it lists, as sets, what a fresh index of its maps lists."""
    index, fresh = g._adj, _Adjacency(g)
    assert index is not None
    for table, rebuilt in (
        (index.ins, fresh.ins),
        (index.outs, fresh.outs),
        (index.members, fresh.members),
    ):
        assert {k: set(ids) for k, ids in table.items()} == {
            k: set(ids) for k, ids in rebuilt.items()
        }


def _mutate(g: ProgramGraph, draw: st.DrawFn) -> None:
    """One mutator call on `g` with drawn arguments; a refused call changes nothing."""
    ops, blocks, edges = sorted(g.op_nodes), sorted(g.block_nodes), sorted(g.edge_nodes)
    nodes = ops + blocks + edges
    action = draw(st.sampled_from(["add_op", "connect", "redirect", "set_position", "delete"]))
    try:
        if action == "add_op" and blocks:
            kind = draw(st.sampled_from([Const(draw(st.integers(0, 3))), JMP, ADD]))
            g.add_op(kind, draw(st.sampled_from(blocks)))
        elif action == "connect" and ops:
            source, target = draw(st.sampled_from(ops)), draw(st.sampled_from(ops + blocks))
            kind = EdgeKind.DATAFLOW if target in g.op_nodes else EdgeKind.CONTROLFLOW
            position = draw(st.integers(0, len(g.input_positions(target))))
            g.connect(source, target, kind, position, branch=draw(st.sampled_from([None, 0, 1])))
        elif action == "redirect" and edges and ops:
            g.redirect(draw(st.sampled_from(edges)), draw(st.sampled_from(ops)))
        elif action == "set_position" and edges:
            g.set_position(draw(st.sampled_from(edges)), draw(st.integers(0, 3)))
        elif action == "delete" and nodes:
            g.delete_node(draw(st.sampled_from(nodes)))
    except FirmFoldError:
        pass


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_a_copy_shares_the_index_copy_on_write(seed, data):
    # A copy shares its parent's index; whichever graph writes an inner
    # set first must copy it, so neither sees the other's writes.  A
    # copy drawn mid-way shares again what both sides already own.
    parent = random_graph(random.Random(seed))
    parent.members(min(parent.block_nodes))  # a query builds the index
    graphs = [parent, parent.copy()]
    for _ in range(data.draw(st.integers(1, 30))):
        side = data.draw(st.integers(0, 1))
        if data.draw(st.integers(0, 9)) == 0:
            graphs[1 - side] = graphs[side].copy()
        else:
            _mutate(graphs[side], data.draw)
        for g in graphs:
            _assert_index_is_its_own(g)


def _assert_predicates_agree_with_their_twins(g: ProgramGraph) -> None:
    """On every node of `g` and one id it lacks, `has_data_users` answers
    `bool(data_users(n))` and `entry_count` answers `len(control_preds(n))`,
    or each raises what its list twin raises."""
    pairs = (
        (g.has_data_users, lambda n: bool(g.data_users(n))),
        (g.entry_count, lambda n: len(g.control_preds(n))),
    )
    for n in (*g.op_nodes, *g.block_nodes, *g.edge_nodes, g._next_id):
        for predicate, twin in pairs:
            try:
                expected = twin(n)
            except FirmFoldError as exc:
                with pytest.raises(type(exc), match=str(exc)):
                    predicate(n)
            else:
                assert predicate(n) == expected, (predicate.__name__, n)


def test_predicates_on_every_answer():
    # Consts with 0, 1 and 3 users, a Cond and a Jmp that source a
    # Dataflow edge beside their Controlflow edges, a Return that sources
    # only a Controlflow edge, and blocks with 0, 1 and 2 entries.
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    one, two, entryless = (g.add_block(BlockKind.BLOCK) for _ in range(3))
    end = g.add_block(BlockKind.END_BLOCK)
    unread, read_once, read_thrice = (g.add_op(Const(v), start) for v in range(3))
    cond, jmp = g.add_op(COND, start), g.add_op(JMP, one)
    add, phi, ret = g.add_op(ADD, two), g.add_op(PHI, two), g.add_op(RETURN, two)
    g.connect(read_once, cond, EdgeKind.DATAFLOW, 0)
    g.connect(cond, one, EdgeKind.CONTROLFLOW, 0, branch=1)
    g.connect(cond, two, EdgeKind.CONTROLFLOW, 0, branch=0)
    g.connect(jmp, two, EdgeKind.CONTROLFLOW, 1)
    for position, source in enumerate((read_thrice, cond, jmp)):
        g.connect(source, phi, EdgeKind.DATAFLOW, position)
    for position in (0, 1):
        g.connect(read_thrice, add, EdgeKind.DATAFLOW, position)
    g.connect(add, ret, EdgeKind.DATAFLOW, 0)
    g.connect(ret, end, EdgeKind.CONTROLFLOW, 0)
    users = {unread: False, read_once: True, read_thrice: True, cond: True, jmp: True}
    assert {n: g.has_data_users(n) for n in users} == users
    assert not g.has_data_users(ret) and g.control_succs(ret)
    entries = {entryless: 0, one: 1, two: 2, start: 0, end: 1}
    assert {b: g.entry_count(b) for b in entries} == entries
    with pytest.raises(UnknownNodeError):
        g.has_data_users(start)
    with pytest.raises(UnknownBlockError):
        g.entry_count(cond)
    _assert_predicates_agree_with_their_twins(g)


def _check_drawn_graph(check, seed, gaps, blockless, data) -> None:
    """`check` a random program, gapped or not, with a block deleted (its
    members left blockless) or not, before and after drawn mutator calls
    malform it."""
    g = random_graph(random.Random(seed))
    if gaps:
        g = gapped(g)
    if blockless:
        g.delete_node(data.draw(st.sampled_from(sorted(g.block_nodes))))
    check(g)
    for _ in range(data.draw(st.integers(0, 20))):
        _mutate(g, data.draw)
    check(g)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.data())
def test_predicates_agree_with_their_list_twins(seed, gaps, blockless, data):
    _check_drawn_graph(_assert_predicates_agree_with_their_twins, seed, gaps, blockless, data)


def _assert_edge_lists_equal_scans(g: ProgramGraph) -> None:
    """On every node of `g`, each edge-list query equals a scan of
    `edge_nodes`; on a node of the other class and on an id `g` lacks,
    it raises its class error."""

    def into(n):
        ins = [e for e in g.edge_nodes.values() if e.target == n]
        return [(e.id, e.source) for e in sorted(ins, key=lambda e: (e.position, e.id))]

    def out_of(n, kind, key):
        outs = [e for e in g.edge_nodes.values() if e.source == n and e.kind is kind]
        return [(e.id, e.target) for e in sorted(outs, key=key)]

    for n in g.op_nodes:
        assert g.data_inputs(n) == into(n)
        assert g.data_users(n) == out_of(n, EdgeKind.DATAFLOW, lambda e: (e.target, e.id))
        assert g.control_succs(n) == out_of(n, EdgeKind.CONTROLFLOW, lambda e: e.id)
    for b in g.block_nodes:
        assert g.control_preds(b) == into(b)
    for n in (*g.op_nodes, *g.block_nodes, *g.edge_nodes, g._next_id):
        if n not in g.block_nodes:
            with pytest.raises(UnknownBlockError, match=f"^n{n} is not a block node$"):
                g.control_preds(n)
        if n not in g.op_nodes:
            for query in (g.data_inputs, g.data_users, g.control_succs):
                with pytest.raises(UnknownNodeError, match=f"^n{n} is not an operation node$"):
                    query(n)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.data())
def test_edge_list_queries_equal_a_scan_of_the_edge_nodes(seed, gaps, blockless, data):
    _check_drawn_graph(_assert_edge_lists_equal_scans, seed, gaps, blockless, data)


def _reassembled(g: ProgramGraph) -> ProgramGraph:
    return ProgramGraph._from_parts(g.op_nodes, g.block_nodes, g.edge_nodes, g.containment)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_start_block_is_the_smallest_start_block_id(seed, data):
    # Each call is made on two graphs with the same nodes: `checked` is
    # asked after every call, so it always remembers an answer when a
    # mutator runs; `unchecked` is asked only at the end.
    def start(g: ProgramGraph):
        return min(g.blocks_of_kind(BlockKind.START_BLOCK), default=None)

    checked = random_graph(random.Random(seed))
    unchecked = _reassembled(checked)
    assert checked.start_block() == start(checked)
    for _ in range(data.draw(st.integers(1, 30))):
        action = data.draw(st.sampled_from(["add", "delete", "copy", "from_parts", "relabel"]))
        if action == "add":
            kind = data.draw(st.sampled_from(list(BlockKind)))
            assert checked.add_block(kind) == unchecked.add_block(kind)
        elif action == "delete" and checked.block_nodes:
            block = data.draw(st.sampled_from(sorted(checked.block_nodes)))
            checked.delete_node(block)
            unchecked.delete_node(block)
        elif action == "copy":
            checked, unchecked = checked.copy(), unchecked.copy()
        elif action == "from_parts":
            checked, unchecked = _reassembled(checked), _reassembled(unchecked)
        elif action == "relabel":
            checked, unchecked = relabel(checked), relabel(unchecked)
        assert checked.start_block() == start(checked)
    assert unchecked.start_block() == start(unchecked) == start(checked)


def _parts() -> tuple[dict, dict, dict, dict]:
    """The four node maps of a start block holding a Const that feeds a Return."""
    ops = {1: Const(1), 2: RETURN}
    edges = {3: EdgeNode(3, EdgeKind.DATAFLOW, 0, 1, 2)}
    return ops, {0: BlockKind.START_BLOCK}, edges, {1: 0, 2: 0}


def test_from_parts_rejects_broken_maps():
    ops, blocks, edges, containment = _parts()
    assert ProgramGraph._from_parts(ops, blocks, edges, containment).element_count() == 4
    with pytest.raises(UnknownNodeError, match="share an id"):
        ProgramGraph._from_parts(ops, {1: BlockKind.BLOCK, **blocks}, edges, containment)
    with pytest.raises(UnknownNodeError, match="containment key n0 is not an operation"):
        ProgramGraph._from_parts(ops, blocks, edges, {**containment, 0: 0})
    with pytest.raises(UnknownBlockError, match="containment target n2 is not a block"):
        ProgramGraph._from_parts(ops, blocks, edges, {1: 0, 2: 2})


def test_from_parts_inserts_blocks_by_ascending_id():
    ops, blocks, edges, containment = _parts()
    blocks = {9: BlockKind.BLOCK, 5: BlockKind.START_BLOCK, **blocks}
    g = ProgramGraph._from_parts(ops, blocks, edges, containment)
    assert list(g.block_nodes) == [0, 5, 9]
    # Fresh ids only grow, and copies keep the order.
    g.add_block(BlockKind.BLOCK)
    assert list(g.copy().block_nodes) == [0, 5, 9, 10]


def test_element_count():
    g = ProgramGraph()
    assert g.element_count() == 0
    start = g.add_block(BlockKind.START_BLOCK)
    c = g.add_op(Const(3), start)
    ret = g.add_op(RETURN, start)
    g.connect(c, ret, EdgeKind.DATAFLOW, 0)
    assert g.element_count() == 4


def test_edge_nodes_are_read_only():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    a = g.add_op(Const(1), start)
    ret = g.add_op(RETURN, start)
    e = g.edge_nodes[g.connect(a, ret, EdgeKind.DATAFLOW, 0)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.position = 5  # type: ignore[misc]
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.source = ret  # type: ignore[misc]


def test_redirect_and_set_position():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    arm = g.add_block(BlockKind.BLOCK)
    a = g.add_op(Const(1), start)
    b = g.add_op(Const(0), start)
    ret = g.add_op(RETURN, start)
    cond = g.add_op(COND, start)
    jmp = g.add_op(JMP, start)
    eid = g.connect(a, ret, EdgeKind.DATAFLOW, 0)
    assert g.data_users(a) == [(eid, ret)]
    g.redirect(eid, b)
    assert g.data_users(a) == []
    assert g.data_users(b) == [(eid, ret)]
    assert g.data_inputs(ret) == [(eid, b)]
    g.set_position(eid, 3)
    assert g.edge_nodes[eid].position == 3
    assert g.data_inputs(ret) == [(eid, b)]
    with pytest.raises(IncompatibleEndpointsError):
        g.redirect(eid, start)
    with pytest.raises(UnknownNodeError):
        g.redirect(eid, 999)
    with pytest.raises(UnknownNodeError):
        g.set_position(a, 0)
    with pytest.raises(ValueError):
        g.set_position(eid, -1)
    # moving a Cond's successor edge onto a Jmp drops its branch
    succ = g.connect(cond, arm, EdgeKind.CONTROLFLOW, 0, branch=1)
    g.redirect(succ, jmp)
    assert g.edge_nodes[succ].branch is None
    assert g.control_succs(cond) == []
    assert g.control_succs(jmp) == [(succ, arm)]
    with pytest.raises(IncompatibleEndpointsError):
        g.redirect(succ, cond)


def test_take_touched_records_consumers_that_lost_an_input():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    a = g.add_op(Const(1), start)
    b = g.add_op(Const(2), start)
    add = g.add_op(ADD, start)
    ret = g.add_op(RETURN, start)
    g.connect(a, add, EdgeKind.DATAFLOW, 0)
    g.connect(b, add, EdgeKind.DATAFLOW, 1)
    g.connect(add, ret, EdgeKind.DATAFLOW, 0)
    assert g.copy().take_touched() is None  # a copy keeps an unknown record
    assert g.take_touched() is None  # unknown on a fresh graph
    assert g.take_touched() == set()
    # an operation losing an input records its block too
    g.delete_node(b)
    assert g.take_touched() == {add, start}
    g.delete_node(add)
    assert g.take_touched() == {add, ret, start}
    c = g.add_op(Const(3), start)
    eid = g.connect(c, ret, EdgeKind.DATAFLOW, 1)
    assert g.copy().take_touched() == {ret}  # the copy carries the record
    assert g.take_touched() == {ret}
    g.set_position(eid, 2)
    assert g.take_touched() == {ret}


def test_take_written_records_every_node_a_mutator_wrote():
    g = ProgramGraph()
    assert g.take_written() is None  # unknown on a fresh graph
    start = g.add_block(BlockKind.START_BLOCK)
    a = g.add_op(Const(1), start)
    b = g.add_op(Const(2), start)
    add = g.add_op(ADD, start)
    assert g.take_written() == {start, a, b, add}
    e0 = g.connect(a, add, EdgeKind.DATAFLOW, 0)
    e1 = g.connect(b, add, EdgeKind.DATAFLOW, 1)
    assert g.take_written() == {e0, e1, a, b, add}
    g.set_position(e1, 2)
    assert g.take_written() == {e1, b, add}
    g.redirect(e1, a)  # both the old and the new source
    assert g.copy().take_written() is None  # a copy's record starts unknown
    assert g.take_written() == {e1, a, b, add}
    g.delete_node(a)  # deleted nodes stay in the record
    assert g.take_written() == {a, e0, e1, add}
    arm = g.add_block(BlockKind.BLOCK)
    jmp = g.add_op(JMP, arm)
    exit_ = g.connect(jmp, arm, EdgeKind.CONTROLFLOW, 0)
    g.take_written()
    g.delete_node(arm)  # its members lose their block
    assert g.take_written() == {arm, exit_, jmp}
    assert g.take_written() == set()


def _assert_index_matches_maps(g: ProgramGraph) -> None:
    rebuilt = ProgramGraph._from_parts(g.op_nodes, g.block_nodes, g.edge_nodes, g.containment)
    for n in sorted(g.op_nodes):
        assert g.data_inputs(n) == rebuilt.data_inputs(n)
        assert g.data_users(n) == rebuilt.data_users(n)
        assert g.control_succs(n) == rebuilt.control_succs(n)
    for b in sorted(g.block_nodes):
        assert g.control_preds(b) == rebuilt.control_preds(b)
        assert g.members(b) == rebuilt.members(b)


def test_index_stays_consistent_through_in_place_folds():
    checked: list[int] = []

    def checking(matcher):
        def match(g: ProgramGraph):
            _assert_index_matches_maps(g)
            checked.append(g.element_count())
            return matcher(g)

        return match

    first, *rest = sorted(CATALOG, key=lambda r: r.priority)
    rules = (Rule(first.name, first.priority, checking(first.matcher), first.applier), *rest)
    graphs = [random_graph(random.Random(seed)) for seed in range(30)]
    rng = random.Random(11)
    graphs += [diamond_chain(rng, 4, frozenset({0, 3}), frozenset({1})) for _ in range(3)]
    steps = sum(fold(g, rules).steps for g in graphs)
    # one check per step plus one on each fixpoint
    assert len(checked) == steps + len(graphs)
