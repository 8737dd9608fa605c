"""The constant-folding rule catalog.

Seven folding/simplification rules plus three cleanup rules, each a
(matcher, applier) pair over the program-graph model.  Matchers demand
everything the rewrite reads (the pattern), including what must be
absent.  The `CATALOG` appliers rewrite the graph they are given in
place, through the graph's mutators only, and return it; each re-checks
its own match first and raises StaleMatchError on a pattern that is no
longer there.  The exported `rule_*` functions drive a single rewrite
without the engine: each applies the same rewrite to a copy and leaves
its input untouched.

Folding a binary operation keeps every user edge alive by redirecting
it to the freshly created constant; the rule only fires when at least
one user edge exists, so the new constant is never born unreferenced.
Orphaned constants left behind when their last user disappears are the
cleanup rules' job, which is why cleanups take priority over folds.

Priorities (lower fires first under the deterministic driver):

==  ==========================
 1  cleanup-dangling-dataflow
 2  cleanup-dangling-control
 3  cleanup-unref-const
 4  cmp-fold-int
 5  cond-fold-true
 6  cond-fold-false
 7  block-remove
 8  phi-adjust
 9  phi-fold-single
10  add-fold-int
==  ==========================
"""

from __future__ import annotations

import operator
from typing import Callable

from .engine import Match, Rule
from .errors import StaleMatchError
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
    wrap32,
)

ADD_FOLD_INT = "add-fold-int"
CMP_FOLD_INT = "cmp-fold-int"
COND_FOLD_TRUE = "cond-fold-true"
COND_FOLD_FALSE = "cond-fold-false"
BLOCK_REMOVE = "block-remove"
PHI_ADJUST = "phi-adjust"
PHI_FOLD_SINGLE = "phi-fold-single"
CLEANUP_DANGLING_DATAFLOW = "cleanup-dangling-dataflow"
CLEANUP_DANGLING_CONTROL = "cleanup-dangling-control"
CLEANUP_UNREF_CONST = "cleanup-unref-const"

_RELATION_TESTS: dict[str, Callable[[int, int], bool]] = {
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "eq": operator.eq,
    "ne": operator.ne,
}


def _require(g: ProgramGraph, match: Match, matcher) -> None:
    if match not in matcher(g):
        raise StaleMatchError(
            f"{match.rule_name} does not match at {match.anchors}"
        )


# -- binary folds: cmp-fold-int, add-fold-int -------------------------


def _binary_fold_matches(g: ProgramGraph, op_name: str, rule_name: str) -> list[Match]:
    # The applier parks the result constant in the start block, so a
    # start block is part of the pattern.
    if not g.blocks_of_kind(BlockKind.START_BLOCK):
        return []
    out = []
    for op in sorted(g.op_nodes):
        if g.op_nodes[op].name != op_name:
            continue
        inputs = g.data_inputs(op)
        if len(inputs) != 2:
            continue
        if [g.edge_nodes[eid].position for eid, _ in inputs] != [0, 1]:
            continue
        (_, s0), (_, s1) = inputs
        if g.op_nodes[s0].name != "Const" or g.op_nodes[s1].name != "Const":
            continue
        # All user edges get redirected, and there must be at least one;
        # an unused operation is deletion's case, not folding's.
        if not g.data_users(op):
            continue
        out.append(Match(rule_name, (op, s0, s1)))
    return out


def _apply_binary_fold(
    g: ProgramGraph, match: Match, compute: Callable[[int, int], int]
) -> ProgramGraph:
    op, s0, s1 = match.anchors
    value = compute(g.op_nodes[s0].value, g.op_nodes[s1].value)  # type: ignore[arg-type]
    start = g.blocks_of_kind(BlockKind.START_BLOCK)[0]
    folded = g.add_op(Const(value), start)
    for eid, _ in g.data_users(op):
        g.redirect(eid, folded)
    g.delete_node(op)
    return g


def _match_add_fold_int(g: ProgramGraph) -> list[Match]:
    return _binary_fold_matches(g, "Add", ADD_FOLD_INT)


def _add_fold_int(g: ProgramGraph, match: Match) -> ProgramGraph:
    """Replace an Add of two constants with their wrapped sum."""
    _require(g, match, _match_add_fold_int)
    return _apply_binary_fold(g, match, lambda a, b: wrap32(a + b))


def _match_cmp_fold_int(g: ProgramGraph) -> list[Match]:
    return _binary_fold_matches(g, "Cmp", CMP_FOLD_INT)


def _cmp_fold_int(g: ProgramGraph, match: Match) -> ProgramGraph:
    """Replace a Cmp of two constants with 1 or 0 (signed comparison)."""
    _require(g, match, _match_cmp_fold_int)
    op, _, _ = match.anchors
    test = _RELATION_TESTS[g.op_nodes[op].relation]  # type: ignore[index]
    return _apply_binary_fold(g, match, lambda a, b: 1 if test(a, b) else 0)


# -- cond folds -------------------------------------------------------


def _cond_matches(g: ProgramGraph, rule_name: str, want_nonzero: bool) -> list[Match]:
    out = []
    for op in sorted(g.op_nodes):
        if g.op_nodes[op].name != "Cond":
            continue
        if op not in g.containment:
            continue
        inputs = g.data_inputs(op)
        if len(inputs) != 1 or g.edge_nodes[inputs[0][0]].position != 0:
            continue
        selector = inputs[0][1]
        kind = g.op_nodes[selector]
        if kind.name != "Const":
            continue
        if (kind.value != 0) != want_nonzero:
            continue
        succs = g.control_succs(op)
        if len(succs) != 2:
            continue
        if {g.edge_nodes[eid].branch for eid, _ in succs} != {0, 1}:
            continue
        out.append(Match(rule_name, (op, selector)))
    return out


def _apply_cond_fold(g: ProgramGraph, match: Match, taken: int) -> ProgramGraph:
    cond, _ = match.anchors
    jmp = g.add_op(JMP, g.containment[cond])
    for eid, _ in g.control_succs(cond):
        if g.edge_nodes[eid].branch == taken:
            g.redirect(eid, jmp)
        else:
            g.delete_node(eid)
    g.delete_node(cond)
    return g


def _match_cond_fold_true(g: ProgramGraph) -> list[Match]:
    return _cond_matches(g, COND_FOLD_TRUE, want_nonzero=True)


def _cond_fold_true(g: ProgramGraph, match: Match) -> ProgramGraph:
    """Turn a Cond on a non-zero constant into a Jmp along branch 1."""
    _require(g, match, _match_cond_fold_true)
    return _apply_cond_fold(g, match, taken=1)


def _match_cond_fold_false(g: ProgramGraph) -> list[Match]:
    return _cond_matches(g, COND_FOLD_FALSE, want_nonzero=False)


def _cond_fold_false(g: ProgramGraph, match: Match) -> ProgramGraph:
    """Turn a Cond on the constant 0 into a Jmp along branch 0."""
    _require(g, match, _match_cond_fold_false)
    return _apply_cond_fold(g, match, taken=0)


# -- structural simplification ---------------------------------------


def _match_block_remove(g: ProgramGraph) -> list[Match]:
    out = []
    for block in sorted(g.block_nodes):
        if g.block_nodes[block] is not BlockKind.BLOCK:
            continue
        if g.control_preds(block):
            continue
        out.append(Match(BLOCK_REMOVE, (block,)))
    return out


def _block_remove(g: ProgramGraph, match: Match) -> ProgramGraph:
    """Delete an unreachable ordinary block together with its members."""
    _require(g, match, _match_block_remove)
    (block,) = match.anchors
    for op in g.members(block):
        g.delete_node(op)
    g.delete_node(block)
    return g


def _match_phi_adjust(g: ProgramGraph) -> list[Match]:
    out = []
    for phi in sorted(g.op_nodes):
        if g.op_nodes[phi].name != "Phi":
            continue
        block = g.containment.get(phi)
        if block is None:
            continue
        entries = {g.edge_nodes[eid].position for eid, _ in g.control_preds(block)}
        for eid, _ in g.data_inputs(phi):
            if g.edge_nodes[eid].position not in entries:
                out.append(Match(PHI_ADJUST, (phi, eid)))
    return out


def _phi_adjust(g: ProgramGraph, match: Match) -> ProgramGraph:
    """Drop a Phi input whose entry edge no longer exists."""
    _require(g, match, _match_phi_adjust)
    _, edge = match.anchors
    g.delete_node(edge)
    return g


def _match_phi_fold_single(g: ProgramGraph) -> list[Match]:
    out = []
    for phi in sorted(g.op_nodes):
        if g.op_nodes[phi].name != "Phi":
            continue
        block = g.containment.get(phi)
        if block is None:
            continue
        inputs = g.data_inputs(phi)
        if len(inputs) != 1 or len(g.control_preds(block)) != 1:
            continue
        out.append(Match(PHI_FOLD_SINGLE, (phi, inputs[0][1])))
    return out


def _phi_fold_single(g: ProgramGraph, match: Match) -> ProgramGraph:
    """Short a Phi in a single-entry block out to its only operand."""
    _require(g, match, _match_phi_fold_single)
    phi, operand = match.anchors
    for eid, _ in g.data_users(phi):
        g.redirect(eid, operand)
    g.delete_node(phi)
    return g


# -- cleanup ----------------------------------------------------------


def _dangling_matches(g: ProgramGraph, kind: EdgeKind, rule_name: str) -> list[Match]:
    out = []
    for eid in sorted(g.edge_nodes):
        e = g.edge_nodes[eid]
        if e.kind is not kind:
            continue
        if e.source in g.op_nodes and e.source not in g.containment:
            out.append(Match(rule_name, (eid,)))
    return out


def _match_cleanup_dangling_dataflow(g: ProgramGraph) -> list[Match]:
    return _dangling_matches(g, EdgeKind.DATAFLOW, CLEANUP_DANGLING_DATAFLOW)


def _cleanup_dangling_dataflow(g: ProgramGraph, match: Match) -> ProgramGraph:
    """Drop a dataflow edge sourced by an operation outside every block."""
    _require(g, match, _match_cleanup_dangling_dataflow)
    (edge,) = match.anchors
    g.delete_node(edge)
    return g


def _match_cleanup_dangling_control(g: ProgramGraph) -> list[Match]:
    return _dangling_matches(g, EdgeKind.CONTROLFLOW, CLEANUP_DANGLING_CONTROL)


def _cleanup_dangling_control(g: ProgramGraph, match: Match) -> ProgramGraph:
    """Drop a control edge sourced by an operation outside every block."""
    _require(g, match, _match_cleanup_dangling_control)
    (edge,) = match.anchors
    g.delete_node(edge)
    return g


def _match_cleanup_unref_const(g: ProgramGraph) -> list[Match]:
    out = []
    for op in sorted(g.op_nodes):
        if g.op_nodes[op].name != "Const":
            continue
        if g.data_users(op):
            continue
        out.append(Match(CLEANUP_UNREF_CONST, (op,)))
    return out


def _cleanup_unref_const(g: ProgramGraph, match: Match) -> ProgramGraph:
    """Delete a constant no dataflow edge reads."""
    _require(g, match, _match_cleanup_unref_const)
    (const,) = match.anchors
    g.delete_node(const)
    return g


CATALOG: tuple[Rule, ...] = (
    Rule(CLEANUP_DANGLING_DATAFLOW, 1, _match_cleanup_dangling_dataflow, _cleanup_dangling_dataflow),
    Rule(CLEANUP_DANGLING_CONTROL, 2, _match_cleanup_dangling_control, _cleanup_dangling_control),
    Rule(CLEANUP_UNREF_CONST, 3, _match_cleanup_unref_const, _cleanup_unref_const),
    Rule(CMP_FOLD_INT, 4, _match_cmp_fold_int, _cmp_fold_int),
    Rule(COND_FOLD_TRUE, 5, _match_cond_fold_true, _cond_fold_true),
    Rule(COND_FOLD_FALSE, 6, _match_cond_fold_false, _cond_fold_false),
    Rule(BLOCK_REMOVE, 7, _match_block_remove, _block_remove),
    Rule(PHI_ADJUST, 8, _match_phi_adjust, _phi_adjust),
    Rule(PHI_FOLD_SINGLE, 9, _match_phi_fold_single, _phi_fold_single),
    Rule(ADD_FOLD_INT, 10, _match_add_fold_int, _add_fold_int),
)


_Applier = Callable[[ProgramGraph, Match], ProgramGraph]


def _on_copy(applier: _Applier) -> _Applier:
    """The copying form of an in-place applier: `g` itself is left as it was."""

    def rewrite(g: ProgramGraph, match: Match) -> ProgramGraph:
        return applier(g.copy(), match)

    rewrite.__name__ = rewrite.__qualname__ = f"rule{applier.__name__}"
    rewrite.__doc__ = f"{applier.__doc__}\n\nRewrites and returns a copy of `g`."
    return rewrite


rule_cleanup_dangling_dataflow = _on_copy(_cleanup_dangling_dataflow)
rule_cleanup_dangling_control = _on_copy(_cleanup_dangling_control)
rule_cleanup_unref_const = _on_copy(_cleanup_unref_const)
rule_cmp_fold_int = _on_copy(_cmp_fold_int)
rule_cond_fold_true = _on_copy(_cond_fold_true)
rule_cond_fold_false = _on_copy(_cond_fold_false)
rule_block_remove = _on_copy(_block_remove)
rule_phi_adjust = _on_copy(_phi_adjust)
rule_phi_fold_single = _on_copy(_phi_fold_single)
rule_add_fold_int = _on_copy(_add_fold_int)

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
