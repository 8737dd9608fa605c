"""Well-formedness checks for program graphs.

Six checks, each a conjunction-free pattern over the graph; a check
either finds nothing or produces one `Violation` per offending witness
tuple.  `verify` runs them all in a fixed order and concatenates the
findings, so its output is deterministic for a given graph.  An empty
list means the graph is well formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import ARITY, BlockKind, NodeId, ProgramGraph, contiguous

SINGLE_START = "single-start"
SINGLE_END = "single-end"
CONTAINMENT = "containment"
PHI_CHECK = "phi-check"
POS_CHECK = "pos-check"
CONSTS = "consts"

CHECK_NAMES = (SINGLE_START, SINGLE_END, CONTAINMENT, PHI_CHECK, POS_CHECK, CONSTS)


@dataclass(frozen=True)
class Violation:
    """One well-formedness finding.

    `witnesses` are the node ids the offending pattern matched;
    `absence` marks findings about something required but missing,
    which naturally have no witnesses.
    """

    check: str
    witnesses: tuple[NodeId, ...]
    message: str
    absence: bool = field(default=False, compare=False)

    def render(self) -> str:
        text = f"{self.check}: {self.message}"
        if self.witnesses:
            ids = ", ".join(f"n{w}" for w in self.witnesses)
            text += f" [witnesses: {ids}]"
        return text


def _unique_block(g: ProgramGraph, kind: BlockKind, check: str, what: str) -> list[Violation]:
    blocks = g.blocks_of_kind(kind)
    if not blocks:
        return [Violation(check, (), f"no {what} exists", absence=True)]
    # Each extra block once, paired with the first: k blocks give k - 1
    # findings, so a document of many duplicates stays linear.
    first = blocks[0]
    return [Violation(check, (first, extra), f"two {what}s") for extra in blocks[1:]]


def check_single_start(g: ProgramGraph) -> list[Violation]:
    """Exactly one StartBlock."""
    return _unique_block(g, BlockKind.START_BLOCK, SINGLE_START, "start block")


def check_single_end(g: ProgramGraph) -> list[Violation]:
    """Exactly one EndBlock."""
    return _unique_block(g, BlockKind.END_BLOCK, SINGLE_END, "end block")


def check_containment(g: ProgramGraph) -> list[Violation]:
    """Every operation node belongs to some block."""
    return [
        Violation(CONTAINMENT, (op,), "operation belongs to no block")
        for op in sorted(g.op_nodes)
        if op not in g.containment
    ]


def check_phi(g: ProgramGraph) -> list[Violation]:
    """Phi inputs align positionally with the entries of the Phi's block.

    A Phi selects among its inputs by the position of the control edge
    through which its block was entered, so its dataflow input position
    set must equal the block's control predecessor position set.
    Blockless Phis are containment's finding, not this check's.
    """
    return [
        Violation(
            PHI_CHECK, tuple(sorted((phi, block))), "phi inputs do not align with block entries"
        )
        for phi, block in sorted(g.containment.items())
        if g.op_nodes[phi].name == "Phi"
        and set(g.input_positions(phi)) != set(g.input_positions(block))
    ]


def check_positions(g: ProgramGraph) -> list[Violation]:
    """Input positions are contiguous from 0 and match fixed arities.

    Two patterns: (a) the position list of an input port set is not
    exactly 0..n-1 (gaps or duplicates), for operation dataflow inputs
    and block control entries alike; (b) an operation of fixed arity
    has the wrong number of dataflow inputs.  Phi has no fixed arity.
    """
    out = []
    for op in sorted(g.op_nodes):
        positions = g.input_positions(op)
        if not contiguous(positions):
            out.append(
                Violation(POS_CHECK, (op,), "dataflow input positions are not 0..n-1")
            )
        arity = ARITY.get(g.op_nodes[op].name)
        if arity is not None and len(positions) != arity:
            out.append(
                Violation(
                    POS_CHECK,
                    (op,),
                    f"{g.op_nodes[op].name} takes {arity} inputs, found {len(positions)}",
                )
            )
    for block in sorted(g.block_nodes):
        if not contiguous(g.input_positions(block)):
            out.append(
                Violation(POS_CHECK, (block,), "control entry positions are not 0..n-1")
            )
    return out


def check_consts(g: ProgramGraph) -> list[Violation]:
    """Constants live in the start block; blockless ones are containment's case."""
    out = []
    for op in sorted(g.op_nodes):
        if g.op_nodes[op].name != "Const":
            continue
        block = g.containment.get(op)
        if block is None:
            continue
        if g.block_nodes[block] is not BlockKind.START_BLOCK:
            witnesses = tuple(sorted((op, block)))
            out.append(
                Violation(CONSTS, witnesses, "constant outside the start block")
            )
    return out


_CHECKS = (
    check_single_start,
    check_single_end,
    check_containment,
    check_phi,
    check_positions,
    check_consts,
)


def verify(g: ProgramGraph) -> list[Violation]:
    """All findings of all six checks, in fixed check order."""
    out: list[Violation] = []
    for check in _CHECKS:
        out.extend(check(g))
    return out
