"""The constant-folding rule catalog.

Seven folding/simplification rules plus three cleanup rules.  Each rule
is one pattern matched around an anchor node, as a graph-transformation
rule is: the anchor is an operation of one kind (say, every `Add`), a
block of one kind, or an Edge node of one kind, and `pattern(g, n)`
lists the anchor tuples of the matches at one such node `n`, reading
only `n`'s neighbourhood as the engine's read invariant bounds it (the
binary folds also ask whether a start block exists).  A pattern demands
everything its rewrite reads, including what must be absent.

`_rule` derives both halves of a `Rule` from that one pattern, and
hands the anchor and the pattern on, so that `fold` and `explore` can
re-ask the pattern only where a step wrote.  Both halves classify nodes
through `ProgramGraph.kind_of`, as the engine's match table does.  The
matcher asks the pattern at every node of the anchor's kind; the
drivers call it only for a rule without a pattern.  The applier
re-checks the one match it is given locally: the first anchor must
still be a node of the anchor's kind, and the pattern at that node must
still list the match.  Otherwise it raises StaleMatchError.  So the
check reads the anchor's neighbourhood instead of matching over the
whole graph.  The applier then rewrites the graph it is given in place,
through the graph's mutators only, and returns it.  `rule_add_fold_int`
is the one copying form: it drives add-fold-int's applier on a copy
without the engine and leaves its input untouched.

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
from typing import Callable

from .engine import Match, Pattern, Rule
from .errors import StaleMatchError
from .graph import (
    ADD,
    COND,
    JMP,
    PHI,
    RELATION_TESTS,
    RETURN,
    BlockKind,
    Cmp,
    Const,
    EdgeKind,
    NodeId,
    NodeKind,
    ProgramGraph,
    wrap32,
)

#: The anchor tuples of the matches at one anchor node.
_Matches = list[tuple[NodeId, ...]]


def _rule(
    name: str,
    priority: int,
    anchor: NodeKind,
    pattern: Pattern,
    rewrite: Callable[..., None],
) -> Rule:
    """The rule that rewrites, with `rewrite(g, *anchors)`, each match of `pattern`."""

    def matcher(g: ProgramGraph) -> list[Match]:
        return [
            Match(name, anchors)
            for n in (*g.op_nodes, *g.block_nodes, *g.edge_nodes)
            if g.kind_of(n) == anchor
            for anchors in pattern(g, n)
        ]

    def applier(g: ProgramGraph, match: Match) -> ProgramGraph:
        anchors = match.anchors
        if not (
            match.rule_name == name
            and anchors
            and g.kind_of(anchors[0]) == anchor
            and anchors in pattern(g, anchors[0])
        ):
            raise StaleMatchError(f"{name} does not match at {anchors}")
        rewrite(g, *anchors)
        return g

    applier.__doc__ = rewrite.__doc__
    return Rule(name, priority, matcher, applier, anchor, pattern)


# -- binary folds: cmp-fold-int, add-fold-int -------------------------


def _binary_on_consts(g: ProgramGraph, op: NodeId) -> _Matches:
    sources = [src for _, src in g.data_inputs(op)]
    if any(g.op_nodes[src].name != "Const" for src in sources):
        return []
    if g.input_positions(op) != [0, 1]:
        return []
    s0, s1 = sources
    # The rewrite parks the result constant in the start block, so a
    # start block is part of the pattern.
    if BlockKind.START_BLOCK not in g.block_nodes.values():
        return []
    return [(op, s0, s1)]


def _replace_with_const(g: ProgramGraph, op: NodeId, value: int) -> None:
    start = next(b for b, kind in g.block_nodes.items() if kind is BlockKind.START_BLOCK)
    folded = g.add_op(Const(value), start)
    for eid, _ in g.data_users(op):
        g.redirect(eid, folded)
    g.delete_node(op)


def _fold_add(g: ProgramGraph, add: NodeId, a: NodeId, b: NodeId) -> None:
    """Replace an Add of two constants with their wrapped sum."""
    total = g.op_nodes[a].value + g.op_nodes[b].value  # type: ignore[operator]
    _replace_with_const(g, add, wrap32(total))


def _fold_cmp(g: ProgramGraph, cmp_: NodeId, a: NodeId, b: NodeId) -> None:
    """Replace a Cmp of two constants with 1 or 0 (signed comparison)."""
    test = RELATION_TESTS[g.op_nodes[cmp_].relation]  # type: ignore[index]
    _replace_with_const(g, cmp_, int(test(g.op_nodes[a].value, g.op_nodes[b].value)))


# -- cond folds -------------------------------------------------------


def _cond_on_const(g: ProgramGraph, cond: NodeId, nonzero: bool) -> _Matches:
    if cond not in g.containment or g.input_positions(cond) != [0]:
        return []
    ((_, selector),) = g.data_inputs(cond)
    kind = g.op_nodes[selector]
    if kind.name != "Const" or (kind.value != 0) != nonzero:
        return []
    succs = g.control_succs(cond)
    if len(succs) != 2 or {g.edge_nodes[eid].branch for eid, _ in succs} != {0, 1}:
        return []
    return [(cond, selector)]


def _cond_to_jmp(g: ProgramGraph, cond: NodeId, selector: NodeId) -> None:
    """Turn a Cond on a constant into a Jmp along the branch it takes:
    branch 1 on a non-zero constant, branch 0 on zero."""
    taken = int(g.op_nodes[selector].value != 0)
    jmp = g.add_op(JMP, g.containment[cond])
    for eid, _ in g.control_succs(cond):
        if g.edge_nodes[eid].branch == taken:
            g.redirect(eid, jmp)
        else:
            g.delete_node(eid)
    g.delete_node(cond)


# -- structural simplification ---------------------------------------


def _entryless(g: ProgramGraph, block: NodeId) -> _Matches:
    return [] if g.control_preds(block) else [(block,)]


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
    if len(inputs) != 1 or len(g.control_preds(block)) != 1:
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
    return [] if g.data_users(const) else [(const,)]


def _delete_anchor(g: ProgramGraph, node: NodeId) -> None:
    """Delete the anchor: a dangling edge, or a constant no dataflow edge reads."""
    g.delete_node(node)


CATALOG: tuple[Rule, ...] = (
    _rule("cleanup-dangling-dataflow", 1, EdgeKind.DATAFLOW, _sourced_outside_blocks, _delete_anchor),
    _rule("cleanup-dangling-control", 2, EdgeKind.CONTROLFLOW, _sourced_outside_blocks, _delete_anchor),
    _rule("cleanup-unref-const", 3, "Const", _unreferenced, _delete_anchor),
    _rule("cmp-fold-int", 4, "Cmp", _binary_on_consts, _fold_cmp),
    _rule("cond-fold-true", 5, "Cond", partial(_cond_on_const, nonzero=True), _cond_to_jmp),
    _rule("cond-fold-false", 6, "Cond", partial(_cond_on_const, nonzero=False), _cond_to_jmp),
    _rule("block-remove", 7, BlockKind.BLOCK, _entryless, _remove_block),
    _rule("phi-adjust", 8, "Phi", _stale_phi_inputs, _drop_phi_input),
    _rule("phi-fold-single", 9, "Phi", _single_entry_phi, _short_phi),
    _rule("add-fold-int", 10, "Add", _binary_on_consts, _fold_add),
)

RULE_NAMES: tuple[str, ...] = tuple(r.name for r in CATALOG)


def rule_add_fold_int(g: ProgramGraph, match: Match) -> ProgramGraph:
    """Rewrite one add-fold-int match on a copy of `g` and return the copy.

    `g` itself is left as it was.
    """
    (add_fold,) = (r for r in CATALOG if r.name == "add-fold-int")
    return add_fold.applier(g.copy(), match)


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
