"""Rule-by-rule behavior: patterns, rewrites, and what each leaves alone."""

from __future__ import annotations

import random

import pytest

from firmfold import engine
from firmfold import (
    ADD,
    COND,
    INT32_MAX,
    INT32_MIN,
    JMP,
    PHI,
    RETURN,
    BlockKind,
    Cmp,
    Const,
    EdgeKind,
    Match,
    ProgramGraph,
    StaleMatchError,
    apply,
    build_min_plus_one,
    explore,
    fold,
    load_native,
    matches,
    verify,
)
from firmfold.rules import CATALOG, RULE_NAMES

from helpers import diamond_chain, disjoint_union, witnesses


def rule(name: str):
    return next(r for r in CATALOG if r.name == name)


def fold_and_explore(g: ProgramGraph) -> tuple[int, tuple[int, int, int]]:
    """`fold`'s step count and `explore`'s states, transitions and final states."""
    lts = explore(g, CATALOG)
    return fold(g, CATALOG).steps, (len(lts.states), len(lts.transitions), len(lts.final))


def test_catalog_shape():
    assert len(CATALOG) == 10
    assert [r.priority for r in CATALOG] == list(range(1, 11))
    assert len(set(RULE_NAMES)) == 10


def test_each_rule_matches_its_witness_exactly_once():
    ordered = sorted(CATALOG, key=lambda r: r.priority)
    graphs = witnesses()
    assert sorted(graphs) == sorted(RULE_NAMES)
    for index, r in enumerate(ordered):
        g = graphs[r.name]
        (match,) = matches(g, r)
        assert engine._Table.build(g, ordered).listed()[index] == [match.anchors], r.name


def _stale_and_single_phis() -> ProgramGraph:
    """One single-entry block holding a Phi with a stale input and a one-input Phi."""
    g = ProgramGraph()
    start, block = g.add_block(BlockKind.START_BLOCK), g.add_block(BlockKind.BLOCK)
    g.connect(g.add_op(JMP, start), block, EdgeKind.CONTROLFLOW, 0)
    stale, single = g.add_op(PHI, block), g.add_op(PHI, block)
    for phi, positions in ((stale, (0, 1)), (single, (0,))):
        for position in positions:
            g.connect(g.add_op(Const(7), start), phi, EdgeKind.DATAFLOW, position)
    return g


@pytest.mark.parametrize(
    "first, second",
    [
        ("cleanup-dangling-dataflow", "cleanup-dangling-control"),
        ("cleanup-dangling-control", "cleanup-unref-const"),
        ("cmp-fold-int", "cond-fold-true"),
        ("cond-fold-true", "cond-fold-false"),
        ("cond-fold-false", "block-remove"),
        ("phi-adjust", "phi-fold-single"),
        ("phi-fold-single", "add-fold-int"),
    ],
)
def test_fold_first_fires_the_earlier_of_two_matching_rules(first, second):
    # Rules adjacent in priority, each matching once in a graph; fold's
    # first step is the earlier rule's.  phi-adjust's witness has no
    # entry, so there block-remove would fire first.
    if first == "phi-adjust":
        g = _stale_and_single_phis()
    else:
        g = disjoint_union(witnesses()[first], witnesses()[second])
    assert [len(matches(g, rule(name))) for name in (first, second)] == [1, 1]
    assert fold(g, CATALOG).trace[0].rule_name == first


def straightline(*values: int) -> tuple[ProgramGraph, list[int]]:
    """A start block with the given constants; returns (graph, const ids)."""
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    g.add_block(BlockKind.END_BLOCK)
    return g, [g.add_op(Const(v), start) for v in values]


def test_add_fold_basic():
    g, (a, b) = straightline(2, 3)
    add = g.add_op(ADD, 0)
    ret = g.add_op(RETURN, 0)
    g.connect(a, add, EdgeKind.DATAFLOW, 0)
    g.connect(b, add, EdgeKind.DATAFLOW, 1)
    user = g.connect(add, ret, EdgeKind.DATAFLOW, 0)
    found = matches(g, rule("add-fold-int"))
    assert found == [Match("add-fold-int", (add, a, b))]
    h = rule("add-fold-int").applier(g.copy(), found[0])
    # the операnds themselves survive; only the Add and its input edges go
    assert a in h.op_nodes and b in h.op_nodes
    assert add not in h.op_nodes
    (new_const,) = [
        n for n, k in h.op_nodes.items() if k.name == "Const" and n not in (a, b)
    ]
    assert h.op_nodes[new_const].value == 5
    assert h.containment[new_const] == 0
    # the user edge is the same Edge node, redirected
    assert h.edge_nodes[user].source == new_const
    assert h.edge_nodes[user].target == ret
    assert h.element_count() == g.element_count() - 2


def test_add_fold_wraps_around():
    g, (a, b) = straightline(INT32_MAX, 1)
    add = g.add_op(ADD, 0)
    ret = g.add_op(RETURN, 0)
    g.connect(a, add, EdgeKind.DATAFLOW, 0)
    g.connect(b, add, EdgeKind.DATAFLOW, 1)
    g.connect(add, ret, EdgeKind.DATAFLOW, 0)
    h = rule("add-fold-int").applier(g.copy(), matches(g, rule("add-fold-int"))[0])
    (new_const,) = [
        n for n, k in h.op_nodes.items() if k.name == "Const" and n not in (a, b)
    ]
    assert h.op_nodes[new_const].value == INT32_MIN


def test_add_fold_preserves_every_user():
    g, (a, b) = straightline(2, 3)
    add = g.add_op(ADD, 0)
    g.connect(a, add, EdgeKind.DATAFLOW, 0)
    g.connect(b, add, EdgeKind.DATAFLOW, 1)
    users = []
    for position in range(3):
        ret = g.add_op(RETURN, 0)
        users.append(g.connect(add, ret, EdgeKind.DATAFLOW, 0))
    h = rule("add-fold-int").applier(g.copy(), matches(g, rule("add-fold-int"))[0])
    survivors = [eid for eid in users if eid in h.edge_nodes]
    assert survivors == users
    sources = {h.edge_nodes[eid].source for eid in users}
    assert len(sources) == 1
    (folded,) = sources
    assert h.op_nodes[folded].value == 5


def test_an_unread_add_of_constants_folds_away():
    g, (a, b) = straightline(2, 3)
    add = g.add_op(ADD, 0)
    g.connect(a, add, EdgeKind.DATAFLOW, 0)
    g.connect(b, add, EdgeKind.DATAFLOW, 1)
    assert matches(g, rule("add-fold-int")) == [Match("add-fold-int", (add, a, b))]
    result = fold(g, CATALOG)
    # the sum is unread too, so cleanup-unref-const deletes it with the operands
    assert [m.rule_name for m in result.trace] == ["add-fold-int", *["cleanup-unref-const"] * 3]
    assert result.graph.op_nodes == {}


def test_add_fold_requires_const_operands():
    g, (a, b, c) = straightline(2, 3, 4)
    inner = g.add_op(ADD, 0)
    outer = g.add_op(ADD, 0)
    ret = g.add_op(RETURN, 0)
    g.connect(a, inner, EdgeKind.DATAFLOW, 0)
    g.connect(b, inner, EdgeKind.DATAFLOW, 1)
    g.connect(inner, outer, EdgeKind.DATAFLOW, 0)
    g.connect(c, outer, EdgeKind.DATAFLOW, 1)
    g.connect(outer, ret, EdgeKind.DATAFLOW, 0)
    found = matches(g, rule("add-fold-int"))
    assert [m.anchors[0] for m in found] == [inner]


def test_add_fold_requires_a_start_block():
    g = ProgramGraph()
    block = g.add_block(BlockKind.BLOCK)
    a = g.add_op(Const(1), block)
    b = g.add_op(Const(2), block)
    add = g.add_op(ADD, block)
    ret = g.add_op(RETURN, block)
    g.connect(a, add, EdgeKind.DATAFLOW, 0)
    g.connect(b, add, EdgeKind.DATAFLOW, 1)
    g.connect(add, ret, EdgeKind.DATAFLOW, 0)
    assert matches(g, rule("add-fold-int")) == []


def test_add_fold_leaves_an_add_of_three_constants():
    # The binary folds read inputs 0 and 1 only, so a third input keeps
    # the pattern from matching rather than making it raise.
    g, consts = straightline(1, 2, 3)
    add = g.add_op(ADD, 0)
    for position, const in enumerate(consts):
        g.connect(const, add, EdgeKind.DATAFLOW, position)
    assert matches(g, rule("add-fold-int")) == []
    assert fold_and_explore(g) == (0, (1, 0, 1))


# Two start blocks, the larger id declared first.  An Add of two
# constants in n9 feeds a Return.
TWO_START_BLOCKS = """<?xml version='1.0' encoding='utf-8'?>
<gxl xmlns:xlink="http://www.w3.org/1999/xlink">
  <graph id="program" edgeids="false" edgemode="directed">
    <node id="n9"><type xlink:href="#StartBlock" /></node>
    <node id="n1"><type xlink:href="#StartBlock" /></node>
    <node id="n2"><type xlink:href="#Const" /><attr name="value"><int>2</int></attr></node>
    <node id="n3"><type xlink:href="#Const" /><attr name="value"><int>3</int></attr></node>
    <node id="n4"><type xlink:href="#Add" /></node>
    <node id="n5"><type xlink:href="#Return" /></node>
    <node id="n6"><type xlink:href="#DataflowEdge" /><attr name="position"><int>0</int></attr></node>
    <node id="n7"><type xlink:href="#DataflowEdge" /><attr name="position"><int>1</int></attr></node>
    <node id="n8"><type xlink:href="#DataflowEdge" /><attr name="position"><int>0</int></attr></node>
    <edge from="n2" to="n6" /><edge from="n6" to="n4" />
    <edge from="n3" to="n7" /><edge from="n7" to="n4" />
    <edge from="n4" to="n8" /><edge from="n8" to="n5" />
    <edge from="n9" to="n2" /><edge from="n9" to="n3" />
    <edge from="n9" to="n4" /><edge from="n9" to="n5" />
  </graph>
</gxl>
"""


def test_binary_fold_parks_its_constant_in_the_smallest_start_block():
    g = load_native(TWO_START_BLOCKS)
    assert list(g.block_nodes) == [1, 9]
    result = fold(g, CATALOG)
    assert result.format_trace().splitlines() == [
        "step 1: add-fold-int @ [n4, n2, n3]",
        "step 2: cleanup-unref-const @ [n2]",
        "step 3: cleanup-unref-const @ [n3]",
    ]
    assert result.graph.op_nodes == {5: RETURN, 10: Const(5)}
    assert result.graph.containment == {5: 9, 10: 1}


def test_fold_finds_the_start_block_without_sorting_blocks(monkeypatch):
    calls = []
    real = ProgramGraph.blocks_of_kind
    monkeypatch.setattr(
        ProgramGraph, "blocks_of_kind", lambda g, kind: calls.append(kind) or real(g, kind)
    )
    assert fold(diamond(), CATALOG).steps == 10
    assert fold(diamond_chain(random.Random(4), 6), CATALOG).steps > 0
    assert calls == []


@pytest.mark.parametrize(
    "relation,a,b,expected",
    [
        ("lt", 3, 5, 1),
        ("lt", 5, 5, 0),
        ("le", 5, 5, 1),
        ("gt", -1, -2, 1),
        ("ge", INT32_MIN, INT32_MAX, 0),
        ("eq", 7, 7, 1),
        ("ne", -1, -1, 0),
    ],
)
def test_cmp_fold_signed_relations(relation, a, b, expected):
    g, (ca, cb) = straightline(a, b)
    cmp_ = g.add_op(Cmp(relation), 0)
    ret = g.add_op(RETURN, 0)
    g.connect(ca, cmp_, EdgeKind.DATAFLOW, 0)
    g.connect(cb, cmp_, EdgeKind.DATAFLOW, 1)
    user = g.connect(cmp_, ret, EdgeKind.DATAFLOW, 0)
    h = rule("cmp-fold-int").applier(g.copy(), matches(g, rule("cmp-fold-int"))[0])
    assert h.op_nodes[h.edge_nodes[user].source].value == expected


def diamond() -> ProgramGraph:
    return build_min_plus_one(3, 5, "lt")


def cond_ready(selector_value: int) -> ProgramGraph:
    """A Cond whose selector is already a constant."""
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    bt = g.add_block(BlockKind.BLOCK)
    bf = g.add_block(BlockKind.BLOCK)
    sel = g.add_op(Const(selector_value), start)
    cond = g.add_op(COND, start)
    g.connect(sel, cond, EdgeKind.DATAFLOW, 0)
    g.connect(cond, bt, EdgeKind.CONTROLFLOW, 0, branch=1)
    g.connect(cond, bf, EdgeKind.CONTROLFLOW, 0, branch=0)
    return g


def test_cond_fold_true_keeps_branch_one():
    g = cond_ready(7)
    assert matches(g, rule("cond-fold-false")) == []
    found = matches(g, rule("cond-fold-true"))
    assert found == [Match("cond-fold-true", (4, 3))]
    h = rule("cond-fold-true").applier(g.copy(), found[0])
    assert 4 not in h.op_nodes
    (jmp,) = [n for n, k in h.op_nodes.items() if k.name == "Jmp"]
    assert h.containment[jmp] == 0
    succs = h.control_succs(jmp)
    assert [target for _, target in succs] == [1]
    assert h.edge_nodes[succs[0][0]].branch is None
    assert h.element_count() == g.element_count() - 2


def test_cond_fold_false_keeps_branch_zero():
    g = cond_ready(0)
    assert matches(g, rule("cond-fold-true")) == []
    h = rule("cond-fold-false").applier(g.copy(), matches(g, rule("cond-fold-false"))[0])
    (jmp,) = [n for n, k in h.op_nodes.items() if k.name == "Jmp"]
    assert [target for _, target in h.control_succs(jmp)] == [2]


def test_cond_fold_negative_selector_counts_as_true():
    g = cond_ready(-1)
    assert len(matches(g, rule("cond-fold-true"))) == 1


def test_cond_fold_needs_const_selector():
    g = diamond()
    assert matches(g, rule("cond-fold-true")) == []
    assert matches(g, rule("cond-fold-false")) == []


def test_cond_fold_needs_both_branch_successors():
    g = cond_ready(1)
    cond = next(op for op, kind in g.op_nodes.items() if kind == COND)
    g.delete_node(g.control_succs(cond)[1][0])
    assert len(g.control_succs(cond)) == 1
    assert matches(g, rule("cond-fold-true")) == []
    assert matches(g, rule("cond-fold-false")) == []


def test_cond_fold_leaves_a_blockless_cond():
    # A Cond whose block was deleted has no block for the Jmp; its
    # control edges dangle, and only the cleanups and block-remove fire.
    # `fold` is safe by priority alone, but `explore` tries every rule.
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    arm_true = g.add_block(BlockKind.BLOCK)
    arm_false = g.add_block(BlockKind.BLOCK)
    home = g.add_block(BlockKind.BLOCK)
    cond = g.add_op(COND, home)
    g.connect(g.add_op(Const(1), start), cond, EdgeKind.DATAFLOW, 0)
    g.connect(cond, arm_true, EdgeKind.CONTROLFLOW, 0, branch=1)
    g.connect(cond, arm_false, EdgeKind.CONTROLFLOW, 0, branch=0)
    g.delete_node(home)
    assert matches(g, rule("cond-fold-true")) == []
    assert fold_and_explore(g) == (4, (8, 10, 1))


def test_cond_fold_leaves_a_cond_with_two_inputs():
    g = cond_ready(1)
    cond = next(op for op, kind in g.op_nodes.items() if kind == COND)
    g.connect(g.add_op(Const(0), 0), cond, EdgeKind.DATAFLOW, 1)
    assert matches(g, rule("cond-fold-true")) == []
    assert fold_and_explore(g) == (0, (1, 0, 1))


def test_block_remove_only_predless_ordinary_blocks():
    g = diamond()
    assert matches(g, rule("block-remove")) == []
    g2 = ProgramGraph()
    g2.add_block(BlockKind.START_BLOCK)
    g2.add_block(BlockKind.END_BLOCK)
    dead = g2.add_block(BlockKind.BLOCK)
    found = matches(g2, rule("block-remove"))
    # start and end blocks are never candidates, predless or not
    assert found == [Match("block-remove", (dead,))]


def test_block_remove_takes_members_and_their_edges():
    g = ProgramGraph()
    g.add_block(BlockKind.START_BLOCK)
    merge = g.add_block(BlockKind.BLOCK)
    dead = g.add_block(BlockKind.BLOCK)
    jmp = g.add_op(JMP, dead)
    g.connect(jmp, merge, EdgeKind.CONTROLFLOW, 0)
    before = g.element_count()
    h = rule("block-remove").applier(g.copy(), Match("block-remove", (dead,)))
    assert h.element_count() == before - 3
    assert jmp not in h.op_nodes
    assert h.control_preds(merge) == []


def test_phi_adjust_drops_stale_input():
    g = diamond()
    # sever the false arm by hand: the entry edge at position 1 goes away
    g.delete_node(21)
    found = matches(g, rule("phi-adjust"))
    assert found == [Match("phi-adjust", (12, 23))]
    h = rule("phi-adjust").applier(g.copy(), found[0])
    assert 23 not in h.edge_nodes
    assert [src for _, src in h.data_inputs(12)] == [5]


def test_phi_adjust_quiet_on_aligned_phi():
    assert matches(diamond(), rule("phi-adjust")) == []


def test_phi_fold_single_shorts_out_the_phi():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    merge = g.add_block(BlockKind.BLOCK)
    c = g.add_op(Const(9), start)
    jmp = g.add_op(JMP, start)
    phi = g.add_op(PHI, merge)
    ret = g.add_op(RETURN, merge)
    g.connect(jmp, merge, EdgeKind.CONTROLFLOW, 0)
    g.connect(c, phi, EdgeKind.DATAFLOW, 0)
    user = g.connect(phi, ret, EdgeKind.DATAFLOW, 0)
    found = matches(g, rule("phi-fold-single"))
    assert found == [Match("phi-fold-single", (phi, c))]
    h = rule("phi-fold-single").applier(g.copy(), found[0])
    assert phi not in h.op_nodes
    assert h.edge_nodes[user].source == c
    assert h.element_count() == g.element_count() - 2


def test_phi_fold_single_needs_single_entry():
    g = diamond()
    assert matches(g, rule("phi-fold-single")) == []


def test_phi_fold_single_needs_a_block():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    merge = g.add_block(BlockKind.BLOCK)
    c = g.add_op(Const(9), start)
    jmp = g.add_op(JMP, start)
    phi = g.add_op(PHI, merge)
    g.connect(jmp, merge, EdgeKind.CONTROLFLOW, 0)
    g.connect(c, phi, EdgeKind.DATAFLOW, 0)
    assert matches(g, rule("phi-fold-single")) == [Match("phi-fold-single", (phi, c))]
    g.delete_node(merge)
    assert matches(g, rule("phi-fold-single")) == []


def test_phi_fold_single_leaves_a_phi_in_an_entryless_block():
    # A one-input Phi whose block has no entry is not a single-entry Phi.
    # Shorting it out would let the Add in the live merge block fold,
    # while block-remove deletes the Phi first and leaves the Add alone,
    # so `explore` would end in two different graphs.
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    end = g.add_block(BlockKind.END_BLOCK)
    orphan = g.add_block(BlockKind.BLOCK)
    merge = g.add_block(BlockKind.BLOCK)
    two, three = g.add_op(Const(2), start), g.add_op(Const(3), start)
    g.connect(g.add_op(JMP, start), merge, EdgeKind.CONTROLFLOW, 0)
    phi = g.add_op(PHI, orphan)
    g.connect(two, phi, EdgeKind.DATAFLOW, 0)
    g.connect(g.add_op(JMP, orphan), merge, EdgeKind.CONTROLFLOW, 1)
    add = g.add_op(ADD, merge)
    g.connect(phi, add, EdgeKind.DATAFLOW, 0)
    g.connect(three, add, EdgeKind.DATAFLOW, 1)
    ret = g.add_op(RETURN, merge)
    g.connect(add, ret, EdgeKind.DATAFLOW, 0)
    g.connect(ret, end, EdgeKind.CONTROLFLOW, 0)
    assert [v.check for v in verify(g)] == ["phi-check"]
    assert matches(g, rule("phi-fold-single")) == []
    assert fold_and_explore(g) == (2, (5, 6, 1))
    assert explore(g, CATALOG).final_states_isomorphic()


def test_cleanup_dangling_dataflow():
    g = ProgramGraph()
    g.add_block(BlockKind.START_BLOCK)
    block = g.add_block(BlockKind.BLOCK)
    stray = g.add_op(Const(5), block)
    ret = g.add_op(RETURN, 0)
    edge = g.connect(stray, ret, EdgeKind.DATAFLOW, 0)
    g.delete_node(block)
    found = matches(g, rule("cleanup-dangling-dataflow"))
    assert found == [Match("cleanup-dangling-dataflow", (edge,))]
    h = rule("cleanup-dangling-dataflow").applier(g.copy(), found[0])
    assert edge not in h.edge_nodes
    assert stray in h.op_nodes  # the constant itself is unref-const's turn


def test_cleanup_dangling_control():
    g = ProgramGraph()
    g.add_block(BlockKind.START_BLOCK)
    block = g.add_block(BlockKind.BLOCK)
    jmp = g.add_op(JMP, block)
    edge = g.connect(jmp, 0, EdgeKind.CONTROLFLOW, 0)
    g.delete_node(block)
    found = matches(g, rule("cleanup-dangling-control"))
    assert found == [Match("cleanup-dangling-control", (edge,))]
    h = rule("cleanup-dangling-control").applier(g.copy(), found[0])
    assert edge not in h.edge_nodes


def test_cleanup_unref_const():
    g, (a, b) = straightline(1, 2)
    ret = g.add_op(RETURN, 0)
    g.connect(a, ret, EdgeKind.DATAFLOW, 0)
    found = matches(g, rule("cleanup-unref-const"))
    assert found == [Match("cleanup-unref-const", (b,))]
    h = rule("cleanup-unref-const").applier(g.copy(), found[0])
    assert b not in h.op_nodes
    assert a in h.op_nodes


def test_appliers_reject_fabricated_matches():
    g = diamond()
    cases = [
        (rule("add-fold-int").applier, Match("add-fold-int", (13, 5, 6))),
        (rule("cmp-fold-int").applier, Match("cmp-fold-int", (8, 6, 5))),
        (rule("cond-fold-true").applier, Match("cond-fold-true", (9, 8))),
        (rule("cond-fold-false").applier, Match("cond-fold-false", (9, 8))),
        (rule("block-remove").applier, Match("block-remove", (1,))),
        (rule("phi-adjust").applier, Match("phi-adjust", (12, 22))),
        (rule("phi-fold-single").applier, Match("phi-fold-single", (12, 5))),
        (rule("cleanup-dangling-dataflow").applier, Match("cleanup-dangling-dataflow", (15,))),
        (rule("cleanup-dangling-control").applier, Match("cleanup-dangling-control", (18,))),
        (rule("cleanup-unref-const").applier, Match("cleanup-unref-const", (5,))),
        # a first anchor that does not exist
        (rule("add-fold-int").applier, Match("add-fold-int", (99, 5, 6))),
        (rule("block-remove").applier, Match("block-remove", (99,))),
        (rule("cleanup-dangling-dataflow").applier, Match("cleanup-dangling-dataflow", (99,))),
        # a first anchor of another node class
        (rule("add-fold-int").applier, Match("add-fold-int", (3, 5, 6))),
        (rule("cleanup-dangling-control").applier, Match("cleanup-dangling-control", (9,))),
        (rule("phi-adjust").applier, Match("phi-adjust", (22, 12))),
        # a first anchor of the right class but the wrong kind
        (rule("cond-fold-true").applier, Match("cond-fold-true", (5, 8))),
        (rule("block-remove").applier, Match("block-remove", (0,))),
        (rule("cleanup-dangling-control").applier, Match("cleanup-dangling-control", (15,))),
        # a real cmp-fold-int match, named for another rule
        (rule("cmp-fold-int").applier, Match("add-fold-int", (8, 5, 6))),
    ]
    # an empty anchor tuple, and a match named for no rule
    for r in CATALOG:
        cases += [(r.applier, Match(r.name, ())), (r.applier, Match("no-such-rule", (5,)))]
    for applier, bogus in cases:
        with pytest.raises(StaleMatchError):
            applier(g.copy(), bogus)
    h = rule("cmp-fold-int").applier(g.copy(), Match("cmp-fold-int", (8, 5, 6)))
    assert h.element_count() < g.element_count()


ADJACENCY_QUERIES = (
    "data_inputs",
    "data_users",
    "control_preds",
    "control_succs",
    "members",
    "input_positions",
)


@pytest.mark.parametrize("diamonds", [4, 32])
def test_appliers_query_only_the_match_neighbourhood(monkeypatch, diamonds):
    # Folding a chain, every applier that could fire at a step re-checks
    # its match and rewrites while reading the adjacency of at most four
    # nodes, however long the chain.
    queried: list[set[int]] = []
    for name in ADJACENCY_QUERIES:

        def spy(g, n, original=getattr(ProgramGraph, name)):
            if queried:
                queried[-1].add(n)
            return original(g, n)

        monkeypatch.setattr(ProgramGraph, name, spy)
    g = diamond_chain(
        random.Random(diamonds), diamonds, dead=frozenset({1}), blockless=frozenset({2})
    )
    fired = set()
    while True:
        found = [(r, m) for r in CATALOG for m in matches(g, r)]
        if not found:
            break
        for r, m in found:
            queried.append(set())
            r.applier(g.copy(), m)
            nodes = queried.pop()
            assert len(nodes) <= 4, (r.name, m.anchors, sorted(nodes))
            fired.add(r.name)
        g = apply(g, *found[0])
    assert fired == set(RULE_NAMES)
