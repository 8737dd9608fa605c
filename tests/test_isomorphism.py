"""Canonical forms and the exact isomorphism test.

The two routes are independent implementations, so they are tested
against each other: equal canonical hashes must coincide with the
backtracking test's verdict across randomized renamings and edits.
"""

from __future__ import annotations

import random

from firmfold import (
    ADD,
    JMP,
    RETURN,
    BlockKind,
    Cmp,
    Const,
    EdgeKind,
    ProgramGraph,
    build_min_plus_one,
    canonical_form,
    canonical_hash,
    is_isomorphic,
    load_native,
    save_native,
)
from helpers import GraphPlan, diamond_chain, materialize, permute_native_ids, random_program


def test_empty_graphs():
    assert is_isomorphic(ProgramGraph(), ProgramGraph())
    assert canonical_hash(ProgramGraph()) == canonical_hash(ProgramGraph())


def test_insertion_order_is_irrelevant():
    rng = random.Random(11)
    for seed in range(20):
        plan = random_program(random.Random(seed))
        g1 = materialize(plan)
        g2 = materialize(plan, rng)
        assert is_isomorphic(g1, g2)
        assert canonical_form(g1) == canonical_form(g2)
        assert canonical_hash(g1) == canonical_hash(g2)


def test_builder_is_isomorphic_to_itself_only_with_same_labels():
    g1 = build_min_plus_one(3, 5, "lt")
    g2 = build_min_plus_one(3, 5, "lt")
    assert is_isomorphic(g1, g2)
    assert canonical_hash(g1) == canonical_hash(g2)
    for other in (build_min_plus_one(3, 6, "lt"), build_min_plus_one(3, 5, "le")):
        assert not is_isomorphic(g1, other)
        assert canonical_hash(g1) != canonical_hash(other)


def test_operand_order_distinguishes():
    def wired(first: int, second: int) -> ProgramGraph:
        g = ProgramGraph()
        start = g.add_block(BlockKind.START_BLOCK)
        a = g.add_op(Const(3), start)
        b = g.add_op(Const(5), start)
        add = g.add_op(ADD, start)
        ret = g.add_op(RETURN, start)
        operands = {3: a, 5: b}
        g.connect(operands[first], add, EdgeKind.DATAFLOW, 0)
        g.connect(operands[second], add, EdgeKind.DATAFLOW, 1)
        g.connect(add, ret, EdgeKind.DATAFLOW, 0)
        return g

    assert is_isomorphic(wired(3, 5), wired(3, 5))
    assert not is_isomorphic(wired(3, 5), wired(5, 3))
    assert canonical_hash(wired(3, 5)) != canonical_hash(wired(5, 3))


def test_wiring_distinguishes_same_node_multiset():
    # Both graphs hold Const 1, Const 1, Add, Add, Return and five
    # dataflow edges; they differ only in which Add feeds which.
    def chain(nested_first: bool) -> ProgramGraph:
        g = ProgramGraph()
        start = g.add_block(BlockKind.START_BLOCK)
        c1 = g.add_op(Const(1), start)
        c2 = g.add_op(Const(1), start)
        inner = g.add_op(ADD, start)
        outer = g.add_op(ADD, start)
        ret = g.add_op(RETURN, start)
        g.connect(c1, inner, EdgeKind.DATAFLOW, 0)
        g.connect(c2, inner, EdgeKind.DATAFLOW, 1)
        if nested_first:
            g.connect(inner, outer, EdgeKind.DATAFLOW, 0)
            g.connect(c1, outer, EdgeKind.DATAFLOW, 1)
        else:
            g.connect(c1, outer, EdgeKind.DATAFLOW, 0)
            g.connect(inner, outer, EdgeKind.DATAFLOW, 1)
        g.connect(outer, ret, EdgeKind.DATAFLOW, 0)
        return g

    assert not is_isomorphic(chain(True), chain(False))
    assert canonical_hash(chain(True)) != canonical_hash(chain(False))


def test_symmetric_twins_need_individualization():
    # Two structurally interchangeable constants: refinement alone
    # cannot split them, so the canonical form has to branch.  Swapping
    # which twin feeds which port must not change the certificate.
    def twins(swap: bool) -> ProgramGraph:
        g = ProgramGraph()
        start = g.add_block(BlockKind.START_BLOCK)
        a = g.add_op(Const(7), start)
        b = g.add_op(Const(7), start)
        add = g.add_op(ADD, start)
        first, second = (b, a) if swap else (a, b)
        g.connect(first, add, EdgeKind.DATAFLOW, 0)
        g.connect(second, add, EdgeKind.DATAFLOW, 1)
        return g

    assert is_isomorphic(twins(False), twins(True))
    assert canonical_form(twins(False)) == canonical_form(twins(True))


def test_size_mismatch_is_cheap_rejection():
    g1 = build_min_plus_one(3, 5, "lt")
    g2 = build_min_plus_one(3, 5, "lt")
    g2.add_block(BlockKind.BLOCK)
    assert not is_isomorphic(g1, g2)


def test_random_edits_break_isomorphism():
    for seed in range(10):
        rng = random.Random(seed)
        plan = random_program(rng)
        g1 = materialize(plan)
        g2 = materialize(plan, rng)
        victim = sorted(
            n for n, k in g2.op_nodes.items() if k.name == "Const" and k.value != 2
        )[0]
        g2.op_nodes[victim] = Const(2)
        values1 = sorted(k.value for k in g1.op_nodes.values() if k.name == "Const")
        values2 = sorted(k.value for k in g2.op_nodes.values() if k.name == "Const")
        if values1 == values2:
            continue  # the edit collided with an existing label; skip
        assert not is_isomorphic(g1, g2), seed
        assert canonical_hash(g1) != canonical_hash(g2), seed


def test_routes_agree_pairwise():
    graphs = []
    for seed in range(8):
        rng = random.Random(100 + seed)
        graphs.append(materialize(random_program(rng), rng))
    for i, gi in enumerate(graphs):
        for gj in graphs[i:]:
            assert is_isomorphic(gi, gj) == (canonical_hash(gi) == canonical_hash(gj))


def test_isomorphism_search_does_not_recurse_per_node():
    # 1,386 elements: deeper than the interpreter's default recursion limit
    g = diamond_chain(random.Random(0), 60)
    h = load_native(permute_native_ids(save_native(g), random.Random(1)))
    assert is_isomorphic(g, h)
    const = min(n for n, kind in h.op_nodes.items() if kind.name == "Const")
    mutant = ProgramGraph._from_parts(
        {**h.op_nodes, const: Const(h.op_nodes[const].value + 1)},
        h.block_nodes,
        h.edge_nodes,
        h.containment,
    )
    assert not is_isomorphic(g, mutant)


def _jmp_cycles(sizes: list[int]) -> ProgramGraph:
    """Rings of blocks, each block's Jmp entering the next block of its ring."""
    g = ProgramGraph()
    for size in sizes:
        blocks = [g.add_block(BlockKind.BLOCK) for _ in range(size)]
        for i, block in enumerate(blocks):
            g.connect(g.add_op(JMP, block), blocks[(i + 1) % size], EdgeKind.CONTROLFLOW, 0)
    return g


def test_isomorphism_search_backtracks_where_refinement_cannot_split():
    # Color refinement sees every block, Jmp and edge of these rings
    # alike, so only the search can tell one ring of six from two of three.
    six = _jmp_cycles([6])
    for seed in range(10):
        renamed = load_native(permute_native_ids(save_native(six), random.Random(seed)))
        assert is_isomorphic(six, renamed), seed
    assert not is_isomorphic(six, _jmp_cycles([3, 3]))
