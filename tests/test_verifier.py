"""Well-formedness checks: each mutation trips exactly its own check."""

from __future__ import annotations

import random

from firmfold import (
    BlockKind,
    Const,
    ProgramGraph,
    Violation,
    build_min_plus_one,
    load_native,
    save_native,
    verify,
)
from firmfold.verifier import (
    CONSTS,
    CONTAINMENT,
    PHI_CHECK,
    POS_CHECK,
    SINGLE_END,
    SINGLE_START,
    check_consts,
    check_positions,
)
from helpers import diamond_chain


def checks_hit(g) -> set[str]:
    return {v.check for v in verify(g)}


def test_builder_graph_is_clean():
    assert verify(build_min_plus_one(3, 5, "lt")) == []


def test_empty_graph_reports_missing_start_and_end():
    violations = verify(ProgramGraph())
    assert [v.check for v in violations] == [SINGLE_START, SINGLE_END]
    assert all(v.absence for v in violations)
    assert all(v.witnesses == () for v in violations)
    # absence findings render without a witness bracket
    assert violations[0].render() == "single-start: no start block exists"


def test_duplicate_start_block():
    g = build_min_plus_one(3, 5, "lt")
    extra = g.add_block(BlockKind.START_BLOCK)
    violations = verify(g)
    assert [v.check for v in violations] == [SINGLE_START]
    assert violations[0].witnesses == (0, extra)
    assert violations[0].render() == (
        f"single-start: two start blocks [witnesses: n0, n{extra}]"
    )


def test_triple_start_block_reports_each_extra_block_once():
    g = build_min_plus_one(3, 5, "lt")
    e1 = g.add_block(BlockKind.START_BLOCK)
    e2 = g.add_block(BlockKind.START_BLOCK)
    violations = verify(g)
    assert [v.witnesses for v in violations] == [(0, e1), (0, e2)]


def test_many_start_blocks_give_one_finding_per_extra_block():
    # One finding per pair would be 179,700 here, and a megabyte-sized
    # document would exhaust memory.
    g = build_min_plus_one(3, 5, "lt")
    extras = [g.add_block(BlockKind.START_BLOCK) for _ in range(599)]
    violations = verify(load_native(save_native(g)))
    assert len(violations) == 599
    assert all(v.check == SINGLE_START for v in violations)
    assert [v.witnesses for v in violations] == [(0, extra) for extra in extras]
    assert violations[-1].render() == (
        f"single-start: two start blocks [witnesses: n0, n{extras[-1]}]"
    )


def test_duplicate_end_block():
    g = build_min_plus_one(3, 5, "lt")
    extra = g.add_block(BlockKind.END_BLOCK)
    violations = verify(g)
    assert [v.check for v in violations] == [SINGLE_END]
    assert violations[0].witnesses == (4, extra)


def test_blockless_op_trips_containment_only():
    g = build_min_plus_one(3, 5, "lt")
    # deleting the true-arm block leaves its Jmp without a home
    g.delete_node(1)
    violations = verify(g)
    assert [v.check for v in violations] == [CONTAINMENT]
    assert violations[0].witnesses == (10,)


def test_missing_phi_input_trips_phi_check_only():
    g = build_min_plus_one(3, 5, "lt")
    # edge 23 is the Phi's position-1 input
    g.delete_node(23)
    violations = verify(g)
    assert [v.check for v in violations] == [PHI_CHECK]
    assert violations[0].witnesses == (3, 12)
    assert violations[0].render() == (
        "phi-check: phi inputs do not align with block entries [witnesses: n3, n12]"
    )


def test_missing_operand_trips_pos_check_only():
    g = build_min_plus_one(3, 5, "lt")
    # edge 25 is the Add's position-1 input; with it gone the Add has
    # one input, which is both a contiguity issue (positions are fine,
    # 0 only) and an arity issue
    g.delete_node(25)
    violations = verify(g)
    assert [v.check for v in violations] == [POS_CHECK]
    assert violations[0].witnesses == (13,)


def test_position_gap_and_arity_both_fire():
    g = build_min_plus_one(3, 5, "lt")
    g.delete_node(24)  # the Add's position-0 input; position 1 remains
    findings = check_positions(g)
    assert [v.witnesses for v in findings] == [(13,), (13,)]
    messages = {v.message for v in findings}
    assert any("0..n-1" in m for m in messages)
    assert any("takes 2 inputs" in m for m in messages)


def test_entry_gap_trips_pos_check():
    g = build_min_plus_one(3, 5, "lt")
    (phi,) = [op for op, kind in g.op_nodes.items() if kind.name == "Phi"]
    merge = g.containment[phi]
    # entries at 0 and 2, with the Phi input aligned to each
    for eid, _ in [*g.control_preds(merge), *g.data_inputs(phi)]:
        g.set_position(eid, 2 * g.edge_nodes[eid].position)
    assert [g.edge_nodes[eid].position for eid, _ in g.control_preds(merge)] == [0, 2]
    (gap,) = [v for v in verify(g) if v.witnesses == (merge,)]
    assert gap.render() == (
        f"pos-check: control entry positions are not 0..n-1 [witnesses: n{merge}]"
    )


def test_const_outside_start_block():
    g = build_min_plus_one(3, 5, "lt")
    stray = g.add_op(Const(9), 3)
    violations = verify(g)
    assert [v.check for v in violations] == [CONSTS]
    assert violations[0].witnesses == (3, stray)


def test_blockless_const_is_not_a_consts_finding():
    g = ProgramGraph()
    g.add_block(BlockKind.START_BLOCK)
    g.add_block(BlockKind.END_BLOCK)
    block = g.add_block(BlockKind.BLOCK)
    stray = g.add_op(Const(1), block)
    g.delete_node(block)
    assert check_consts(g) == []
    assert checks_hit(g) == {CONTAINMENT}
    assert stray in g.op_nodes


def test_duplicate_positions_admitted_by_loader_are_flagged():
    # the model's connect refuses duplicate positions, but a document
    # can declare them; pos-check owns that diagnosis
    doc = """<?xml version="1.0" encoding="utf-8"?>
    <gxl xmlns:xlink="http://www.w3.org/1999/xlink">
      <graph id="g" edgeids="false" edgemode="directed">
        <node id="n0"><type xlink:href="#StartBlock"/></node>
        <node id="n1"><type xlink:href="#Const"/>
          <attr name="value"><int>1</int></attr></node>
        <node id="n2"><type xlink:href="#Const"/>
          <attr name="value"><int>2</int></attr></node>
        <node id="n3"><type xlink:href="#Add"/></node>
        <node id="n4"><type xlink:href="#DataflowEdge"/>
          <attr name="position"><int>0</int></attr></node>
        <node id="n5"><type xlink:href="#DataflowEdge"/>
          <attr name="position"><int>0</int></attr></node>
        <edge from="n1" to="n4"/><edge from="n4" to="n3"/>
        <edge from="n2" to="n5"/><edge from="n5" to="n3"/>
        <edge from="n0" to="n1"/><edge from="n0" to="n2"/>
        <edge from="n0" to="n3"/>
      </graph>
    </gxl>"""
    g = load_native(doc)
    findings = [v for v in verify(g) if v.check == POS_CHECK]
    assert (3,) in [v.witnesses for v in findings]


def test_violation_ordering_is_deterministic():
    g = build_min_plus_one(3, 5, "lt")
    g.add_block(BlockKind.START_BLOCK)
    g.add_op(Const(9), 3)
    g.delete_node(23)
    rendered = [v.render() for v in verify(g)]
    assert rendered == [v.render() for v in verify(g)]
    assert [v.check for v in verify(g)] == [SINGLE_START, PHI_CHECK, CONSTS]


def test_violation_equality():
    a = Violation("consts", (1, 2), "constant outside the start block")
    b = Violation("consts", (1, 2), "constant outside the start block", absence=False)
    assert a == b


def test_ten_thousand_element_chain_is_clean():
    g = diamond_chain(random.Random(0), 430)
    assert g.element_count() == 9896
    assert verify(g) == []
