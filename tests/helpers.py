"""Shared test utilities.

`GraphPlan` describes a program symbolically so the same program can be
materialized through the public construction API in many different
insertion orders; since node ids are handed out sequentially, each
order realizes a different id assignment of the same graph.  That is
the workhorse for isomorphism and round-trip tests.

`random_program` emits plans for a family of branch-and-merge programs:
constants in the start block, one or two compare/branch diamonds whose
arms jump into a merge block with a Phi (sometimes followed by an Add),
optionally an unreachable block feeding the merge, and a final Return.
Every plan is well formed and executable, and folds to a fixpoint.

`diamond_chain` builds a longer chain of diamonds directly, optionally
with dead merge entries and with entries from operations outside every
block.  `reference_fold` is the slow oracle for `fold`: it copies the
graph on every step and re-checks every consumer's positions.
`reference_explore` is the oracle for `explore`: it canonicalizes every
successor and confirms every digest hit by isomorphism.
"""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from collections import deque
from dataclasses import dataclass, replace

from firmfold import (
    ADD,
    CATALOG,
    COND,
    INT32_MAX,
    INT32_MIN,
    JMP,
    PHI,
    RELATIONS,
    RETURN,
    BlockKind,
    Cmp,
    Const,
    EdgeKind,
    Lts,
    Match,
    OpKind,
    ProgramGraph,
    Rule,
    StateLimitExceeded,
    apply,
    canonical_hash,
    is_isomorphic,
    matches,
    normalize_positions,
)


@dataclass(frozen=True)
class GraphPlan:
    blocks: tuple[tuple[str, BlockKind], ...]
    ops: tuple[tuple[str, OpKind, str], ...]
    edges: tuple[tuple[str, str, EdgeKind, int, int | None], ...]


def materialize(plan: GraphPlan, rng: random.Random | None = None) -> ProgramGraph:
    """Build the planned graph, in plan order or a random legal order."""
    g = ProgramGraph()
    ids: dict[str, int] = {}
    blocks = list(plan.blocks)
    ops = list(plan.ops)
    edges = list(plan.edges)
    while blocks or ops or edges:
        ready: list[tuple[str, int]] = []
        ready += [("block", i) for i in range(len(blocks))]
        ready += [("op", i) for i, (_, _, blk) in enumerate(ops) if blk in ids]
        ready += [
            ("edge", i)
            for i, (src, tgt, _, _, _) in enumerate(edges)
            if src in ids and tgt in ids
        ]
        assert ready, "plan has unsatisfiable dependencies"
        kind, index = ready[0] if rng is None else rng.choice(ready)
        if kind == "block":
            name, block_kind = blocks.pop(index)
            ids[name] = g.add_block(block_kind)
        elif kind == "op":
            name, op_kind, blk = ops.pop(index)
            ids[name] = g.add_op(op_kind, ids[blk])
        else:
            src, tgt, edge_kind, position, branch = edges.pop(index)
            g.connect(ids[src], ids[tgt], edge_kind, position, branch=branch)
    return g


def random_program(rng: random.Random) -> GraphPlan:
    blocks: list[tuple[str, BlockKind]] = [
        ("start", BlockKind.START_BLOCK),
        ("end", BlockKind.END_BLOCK),
    ]
    ops: list[tuple[str, OpKind, str]] = []
    edges: list[tuple[str, str, EdgeKind, int, int | None]] = []

    consts: list[str] = []
    for i in range(rng.randint(2, 5)):
        if rng.random() < 0.5:
            value = rng.randint(-10, 10)
        else:
            value = rng.randint(INT32_MIN, INT32_MAX)
        ops.append((f"c{i}", Const(value), "start"))
        consts.append(f"c{i}")

    values = list(consts)
    current_block = "start"
    for d in range(rng.randint(1, 2)):
        cmp_name = f"cmp{d}"
        ops.append((cmp_name, Cmp(rng.choice(RELATIONS)), current_block))
        edges.append((rng.choice(consts), cmp_name, EdgeKind.DATAFLOW, 0, None))
        edges.append((rng.choice(consts), cmp_name, EdgeKind.DATAFLOW, 1, None))
        cond_name = f"cond{d}"
        ops.append((cond_name, COND, current_block))
        edges.append((cmp_name, cond_name, EdgeKind.DATAFLOW, 0, None))
        for arm, branch in (("t", 1), ("f", 0)):
            arm_block = f"arm{d}{arm}"
            blocks.append((arm_block, BlockKind.BLOCK))
            edges.append((cond_name, arm_block, EdgeKind.CONTROLFLOW, 0, branch))
            ops.append((f"jmp{d}{arm}", JMP, arm_block))
        merge = f"merge{d}"
        blocks.append((merge, BlockKind.BLOCK))
        edges.append((f"jmp{d}t", merge, EdgeKind.CONTROLFLOW, 0, None))
        edges.append((f"jmp{d}f", merge, EdgeKind.CONTROLFLOW, 1, None))
        entries = 2
        if rng.random() < 0.3:
            dead = f"dead{d}"
            blocks.append((dead, BlockKind.BLOCK))
            ops.append((f"jmp{d}dead", JMP, dead))
            edges.append((f"jmp{d}dead", merge, EdgeKind.CONTROLFLOW, 2, None))
            entries = 3
        phi_name = f"phi{d}"
        ops.append((phi_name, PHI, merge))
        for position in range(entries):
            edges.append((rng.choice(values), phi_name, EdgeKind.DATAFLOW, position, None))
        result = phi_name
        if rng.random() < 0.7:
            add_name = f"add{d}"
            ops.append((add_name, ADD, merge))
            edges.append((phi_name, add_name, EdgeKind.DATAFLOW, 0, None))
            edges.append((rng.choice(values), add_name, EdgeKind.DATAFLOW, 1, None))
            result = add_name
        values.append(result)
        current_block = merge

    ops.append(("ret", RETURN, current_block))
    edges.append((values[-1], "ret", EdgeKind.DATAFLOW, 0, None))
    edges.append(("ret", "end", EdgeKind.CONTROLFLOW, 0, None))
    return GraphPlan(tuple(blocks), tuple(ops), tuple(edges))


def random_graph(rng: random.Random) -> ProgramGraph:
    return materialize(random_program(rng), rng)


def permute_native_ids(data: bytes, rng: random.Random) -> bytes:
    """Consistently rename the node ids of a native-dialect document."""
    root = ET.fromstring(data)
    graph = root.find("graph")
    assert graph is not None
    old = [el.get("id") for el in graph if el.tag == "node"]
    shuffled = list(old)
    rng.shuffle(shuffled)
    mapping = dict(zip(old, shuffled))
    for el in graph:
        for attr in ("id", "from", "to"):
            value = el.get(attr)
            if value is not None:
                el.set(attr, mapping[value])
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def diamond_chain(
    rng: random.Random,
    diamonds: int,
    dead: frozenset[int] = frozenset(),
    blockless: frozenset[int] = frozenset(),
) -> ProgramGraph:
    """A chain of compare/branch/Phi/Add diamonds over small constants.

    Each diamond's merge block has a Phi of the running value and a
    fresh constant, and an Add of the Phi and another constant gives
    the next running value.  Diamond i gets an extra merge entry from a
    block nothing reaches when i is in `dead`, and one from a Jmp
    outside every block, with a Phi input from a constant outside every
    block, when i is in `blockless`.
    """
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    end = g.add_block(BlockKind.END_BLOCK)
    # Operations put here lose their block when it is deleted at the end.
    limbo = g.add_block(BlockKind.BLOCK)

    def const(block: int = start) -> int:
        return g.add_op(Const(rng.randint(-20, 20)), block)

    current, block = const(), start
    for i in range(diamonds):
        cmp_ = g.add_op(Cmp(rng.choice(RELATIONS)), block)
        operands = [current, const()]
        rng.shuffle(operands)
        for position, src in enumerate(operands):
            g.connect(src, cmp_, EdgeKind.DATAFLOW, position)
        cond = g.add_op(COND, block)
        g.connect(cmp_, cond, EdgeKind.DATAFLOW, 0)
        merge = g.add_block(BlockKind.BLOCK)
        phi = g.add_op(PHI, merge)
        # (Phi input, block of the entry's Jmp, Cond branch into that block)
        entries = [
            (current, g.add_block(BlockKind.BLOCK), 1),
            (const(), g.add_block(BlockKind.BLOCK), 0),
        ]
        if i in dead:
            entries.append((const(), g.add_block(BlockKind.BLOCK), None))
        if i in blockless:
            entries.append((const(limbo), limbo, None))
        for position, (value, jmp_block, branch) in enumerate(entries):
            if branch is not None:
                g.connect(cond, jmp_block, EdgeKind.CONTROLFLOW, 0, branch=branch)
            jmp = g.add_op(JMP, jmp_block)
            g.connect(jmp, merge, EdgeKind.CONTROLFLOW, position)
            g.connect(value, phi, EdgeKind.DATAFLOW, position)
        add = g.add_op(ADD, merge)
        g.connect(phi, add, EdgeKind.DATAFLOW, 0)
        g.connect(const(), add, EdgeKind.DATAFLOW, 1)
        current, block = add, merge
    ret = g.add_op(RETURN, block)
    g.connect(current, ret, EdgeKind.DATAFLOW, 0)
    g.connect(ret, end, EdgeKind.CONTROLFLOW, 0)
    g.delete_node(limbo)
    return g


def gapped(g: ProgramGraph) -> ProgramGraph:
    """`g` with every input position p moved to 2p + 1, keeping Phis aligned."""
    edges = {eid: replace(e, position=2 * e.position + 1) for eid, e in g.edge_nodes.items()}
    return ProgramGraph._from_parts(g.op_nodes, g.block_nodes, edges, g.containment)


def _contiguous(positions: list[int]) -> bool:
    return positions == list(range(len(positions)))


def _reference_normalize(g: ProgramGraph) -> ProgramGraph:
    """Compact every consumer's positions until nothing changes, a copy per consumer."""
    current = g
    while True:
        changed = False
        for block in sorted(current.block_nodes):
            positions = [current.edge_nodes[eid].position for eid, _ in current.control_preds(block)]
            if _contiguous(positions):
                continue
            phi_positions = [
                current.edge_nodes[eid].position
                for phi in current.members(block)
                if current.op_nodes[phi].name == "Phi"
                for eid, _ in current.data_inputs(phi)
            ]
            if not set(phi_positions) <= set(positions):
                continue
            current = normalize_positions(current, block)
            changed = True
        for op in sorted(current.op_nodes):
            if current.op_nodes[op].name == "Phi":
                continue
            positions = [current.edge_nodes[eid].position for eid, _ in current.data_inputs(op)]
            if not _contiguous(positions):
                current = normalize_positions(current, op)
                changed = True
        if not changed:
            return current


def reference_fold(
    g: ProgramGraph, rules: tuple[Rule, ...] = CATALOG
) -> tuple[ProgramGraph, tuple[Match, ...]]:
    """The deterministic fold, one fresh copy per step and per renumbered consumer.

    After every step each consumer is re-checked, not just those the
    step touched.  Returns the final graph and the trace.
    """
    ordered = sorted(rules, key=lambda r: r.priority)
    current = g
    trace: list[Match] = []
    while True:
        chosen = next(((r, found[0]) for r in ordered if (found := matches(current, r))), None)
        if chosen is None:
            return current, tuple(trace)
        rule, match = chosen
        current = _reference_normalize(rule.applier(current.copy(), match))
        trace.append(match)


def reference_explore(
    g: ProgramGraph, rules: tuple[Rule, ...] = CATALOG, max_states: int = 10_000
) -> Lts:
    """The breadth-first explorer with no identity shortcut.

    Every successor is canonicalized, and every digest hit is confirmed
    with `is_isomorphic`.
    """
    ordered = sorted(rules, key=lambda r: r.priority)
    initial = canonical_hash(g)
    states: dict[str, ProgramGraph] = {initial: g}
    transitions: set[tuple[str, str, str]] = set()
    queue: deque[str] = deque([initial])
    while queue:
        digest = queue.popleft()
        state = states[digest]
        for rule in ordered:
            for match in matches(state, rule):
                successor = apply(state, rule, match)
                succ_digest = canonical_hash(successor)
                if succ_digest in states:
                    if not is_isomorphic(successor, states[succ_digest]):
                        raise RuntimeError(
                            "canonical digest collision between non-isomorphic states"
                        )
                else:
                    if len(states) >= max_states:
                        raise StateLimitExceeded(
                            f"state space exceeds {max_states} states"
                        )
                    successor.drop_index()
                    states[succ_digest] = successor
                    queue.append(succ_digest)
                transitions.add((digest, rule.name, succ_digest))
        state.drop_index()
    outgoing = {src for src, _, _ in transitions}
    final = frozenset(d for d in states if d not in outgoing)
    return Lts(states, tuple(sorted(transitions)), initial, final)
