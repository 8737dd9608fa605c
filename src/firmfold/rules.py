"""The constant-folding rule catalog.

Seven folding/simplification rules plus three cleanup rules.  Each rule
is one pattern matched around an anchor node, as a graph-transformation
rule is: the anchor is an operation of one kind (say, every `Add`), a
block of one kind, or an Edge node of one kind, and `pattern(g, n)`
lists the anchor tuples of the matches at one such node `n`, reading
only `n`'s neighbourhood as the engine's read invariant bounds it (the
binary folds also ask the graph for its start block, which
`ProgramGraph.start_block` answers without a scan).  A pattern demands
everything its rewrite reads, including what must be absent.  The match
table asks the patterns at every node a step may have changed, so each
asks the cheapest query that decides it: cleanup-unref-const asks
`has_data_users` and block-remove and phi-fold-single ask
`entry_count`, which build no list, and the binary and cond folds read
their input positions off the Edge nodes of their one `data_inputs`
answer.

This module holds just the patterns and their rewrites.  What a folded
operation computes is not restated here: add-fold-int and cmp-fold-int
share one rewrite, which asks `graph.op_value` for the constant, and
the cond folds follow `graph.taken_branch`, as `evaluate` does.  The
engine builds each rule from the two (`Rule.of`): it asks the pattern
to find matches and to re-check a match before the rewrite, and each
of its steps restarts the graph's write record, so no rewrite manages
either.  A rewrite changes the graph it is given in place, through the
graph's mutators only.

Folding a binary operation keeps every user edge alive by redirecting
it to the freshly created constant.  It fires whether or not anything
reads the operation: an unread one folds to an unread constant, which
cleanup-unref-const deletes, so it ends deleted in every rewrite order,
also where phi-adjust dropped its last user.  Orphaned constants left
behind when their last user disappears are the cleanup rules' job,
which is why cleanups take priority over folds.

Priorities (lower fires first under the deterministic driver) and
anchors:

==  ==========================  ==================
 1  cleanup-dangling-dataflow   Dataflow edge
 2  cleanup-dangling-control    Controlflow edge
 3  cleanup-unref-const         Const
 4  cmp-fold-int                Cmp
 5  cond-fold-true              Cond
 6  cond-fold-false             Cond
 7  block-remove                ordinary Block
 8  phi-adjust                  Phi
 9  phi-fold-single             Phi
10  add-fold-int                Add
==  ==========================  ==================
"""

from __future__ import annotations

from functools import partial

from .engine import Rule
from .graph import (
    ADD,
    COND,
    JMP,
    PHI,
    RETURN,
    BlockKind,
    Cmp,
    Const,
    EdgeKind,
    NodeId,
    ProgramGraph,
    op_value,
    taken_branch,
)

#: The anchor tuples of the matches at one anchor node.
_Matches = list[tuple[NodeId, ...]]


# -- binary folds: cmp-fold-int, add-fold-int -------------------------


def _binary_on_consts(g: ProgramGraph, op: NodeId) -> _Matches:
    inputs = g.data_inputs(op)
    if any(g.op_nodes[src].name != "Const" for _, src in inputs):
        return []
    if [g.edge_nodes[eid].position for eid, _ in inputs] != [0, 1]:
        return []
    (_, s0), (_, s1) = inputs
    # The rewrite parks the result constant in the start block, so a
    # start block is part of the pattern.
    if g.start_block() is None:
        return []
    return [(op, s0, s1)]


def _fold_binary(g: ProgramGraph, op: NodeId, a: NodeId, b: NodeId) -> None:
    """Replace an Add or Cmp of two constants with the constant it computes."""
    kinds = g.op_nodes
    value = op_value(kinds[op], (kinds[a].value, kinds[b].value))
    folded = g.add_op(Const(value), g.start_block())
    for eid, _ in g.data_users(op):
        g.redirect(eid, folded)
    g.delete_node(op)


# -- cond folds -------------------------------------------------------


def _cond_on_const(g: ProgramGraph, cond: NodeId, branch: int) -> _Matches:
    inputs = g.data_inputs(cond)
    if cond not in g.containment or [g.edge_nodes[eid].position for eid, _ in inputs] != [0]:
        return []
    ((_, selector),) = inputs
    kind = g.op_nodes[selector]
    if kind.name != "Const" or taken_branch(kind.value) != branch:
        return []
    succs = g.control_succs(cond)
    if len(succs) != 2 or {g.edge_nodes[eid].branch for eid, _ in succs} != {0, 1}:
        return []
    return [(cond, selector)]


def _cond_to_jmp(g: ProgramGraph, cond: NodeId, selector: NodeId) -> None:
    """Turn a Cond on a constant into a Jmp along the branch it takes."""
    taken = taken_branch(g.op_nodes[selector].value)
    jmp = g.add_op(JMP, g.containment[cond])
    for eid, _ in g.control_succs(cond):
        if g.edge_nodes[eid].branch == taken:
            g.redirect(eid, jmp)
        else:
            g.delete_node(eid)
    g.delete_node(cond)


# -- structural simplification ---------------------------------------


def _entryless(g: ProgramGraph, block: NodeId) -> _Matches:
    return [] if g.entry_count(block) else [(block,)]


def _remove_block(g: ProgramGraph, block: NodeId) -> None:
    """Delete an unreachable ordinary block together with its members."""
    for op in g.members(block):
        g.delete_node(op)
    g.delete_node(block)


def _stale_phi_inputs(g: ProgramGraph, phi: NodeId) -> _Matches:
    return [(phi, edge) for edge in g.stale_phi_inputs(phi)]


def _drop_phi_input(g: ProgramGraph, phi: NodeId, edge: NodeId) -> None:
    """Drop a Phi input whose entry edge no longer exists."""
    g.delete_node(edge)


def _single_entry_phi(g: ProgramGraph, phi: NodeId) -> _Matches:
    block = g.containment.get(phi)
    if block is None:
        return []
    inputs = g.data_inputs(phi)
    if len(inputs) != 1 or g.entry_count(block) != 1:
        return []
    return [(phi, inputs[0][1])]


def _short_phi(g: ProgramGraph, phi: NodeId, operand: NodeId) -> None:
    """Short a Phi in a single-entry block out to its only operand."""
    for eid, _ in g.data_users(phi):
        g.redirect(eid, operand)
    g.delete_node(phi)


# -- cleanup ----------------------------------------------------------


def _sourced_outside_blocks(g: ProgramGraph, edge: NodeId) -> _Matches:
    source = g.edge_nodes[edge].source
    return [] if source in g.containment else [(edge,)]


def _unreferenced(g: ProgramGraph, const: NodeId) -> _Matches:
    return [] if g.has_data_users(const) else [(const,)]


def _delete_anchor(g: ProgramGraph, node: NodeId) -> None:
    """Delete the anchor: a dangling edge, or a constant no dataflow edge reads."""
    g.delete_node(node)


CATALOG: tuple[Rule, ...] = (
    Rule.of("cleanup-dangling-dataflow", 1, EdgeKind.DATAFLOW, _sourced_outside_blocks, _delete_anchor),
    Rule.of("cleanup-dangling-control", 2, EdgeKind.CONTROLFLOW, _sourced_outside_blocks, _delete_anchor),
    Rule.of("cleanup-unref-const", 3, "Const", _unreferenced, _delete_anchor),
    Rule.of("cmp-fold-int", 4, "Cmp", _binary_on_consts, _fold_binary),
    Rule.of("cond-fold-true", 5, "Cond", partial(_cond_on_const, branch=1), _cond_to_jmp),
    Rule.of("cond-fold-false", 6, "Cond", partial(_cond_on_const, branch=0), _cond_to_jmp),
    Rule.of("block-remove", 7, BlockKind.BLOCK, _entryless, _remove_block),
    Rule.of("phi-adjust", 8, "Phi", _stale_phi_inputs, _drop_phi_input),
    Rule.of("phi-fold-single", 9, "Phi", _single_entry_phi, _short_phi),
    Rule.of("add-fold-int", 10, "Add", _binary_on_consts, _fold_binary),
)

RULE_NAMES: tuple[str, ...] = tuple(r.name for r in CATALOG)


def build_min_plus_one(a: int, b: int, relation: str = "lt") -> ProgramGraph:
    """A diamond program computing `(a <relation> b ? a : b) + 1`.

    The start block compares two constants and branches; each arm is a
    bare Jmp into a merge block, where a Phi selects the operand that
    won the comparison, adds one, and returns the sum.
    """
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    arm_true = g.add_block(BlockKind.BLOCK)
    arm_false = g.add_block(BlockKind.BLOCK)
    merge = g.add_block(BlockKind.BLOCK)
    end = g.add_block(BlockKind.END_BLOCK)
    ca = g.add_op(Const(a), start)
    cb = g.add_op(Const(b), start)
    one = g.add_op(Const(1), start)
    cmp_ = g.add_op(Cmp(relation), start)
    cond = g.add_op(COND, start)
    jmp_true = g.add_op(JMP, arm_true)
    jmp_false = g.add_op(JMP, arm_false)
    phi = g.add_op(PHI, merge)
    add = g.add_op(ADD, merge)
    ret = g.add_op(RETURN, merge)
    g.connect(ca, cmp_, EdgeKind.DATAFLOW, 0)
    g.connect(cb, cmp_, EdgeKind.DATAFLOW, 1)
    g.connect(cmp_, cond, EdgeKind.DATAFLOW, 0)
    g.connect(cond, arm_true, EdgeKind.CONTROLFLOW, 0, branch=1)
    g.connect(cond, arm_false, EdgeKind.CONTROLFLOW, 0, branch=0)
    g.connect(jmp_true, merge, EdgeKind.CONTROLFLOW, 0)
    g.connect(jmp_false, merge, EdgeKind.CONTROLFLOW, 1)
    g.connect(ca, phi, EdgeKind.DATAFLOW, 0)
    g.connect(cb, phi, EdgeKind.DATAFLOW, 1)
    g.connect(phi, add, EdgeKind.DATAFLOW, 0)
    g.connect(one, add, EdgeKind.DATAFLOW, 1)
    g.connect(add, ret, EdgeKind.DATAFLOW, 0)
    g.connect(ret, end, EdgeKind.CONTROLFLOW, 0)
    assert g.element_count() == 28
    return g
