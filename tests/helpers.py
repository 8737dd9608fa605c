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
block, and `relabel` renames a graph's ids.  `witnesses` gives each
rule of the catalog a small graph in which it matches exactly once, and
`disjoint_union` puts two graphs side by side.  `scan_inputs` gives
three inputs for one seed, and `scan` explores them under a catalog for
each of a range of seeds.  `reference_fold` is the
slow oracle for `fold`: it copies the graph on every step and re-checks
every consumer's positions.
`reference_explore` is the oracle for `explore`: it canonicalizes every
successor and confirms every digest hit by `search_isomorphic`.
`reference_independent` is `explore`'s independence test as it was
when a step's written nodes were a tuple, the oracle for the set form.
`search_isomorphic` decides isomorphism by a backtracking search over
jointly refined color classes.  The library decides it by comparing
canonical forms (`firmfold.is_isomorphic`), so the search is the
independent oracle that every test comparing canonical forms or digests
with isomorphism calls.

`index_builds` records each adjacency index the library builds.

`reference_save_native` is the native writer as it was built on
ElementTree, kept as the oracle for the byte layout of `save_native`;
`mutate_document` damages a GXL document for robustness tests.
`reference_load` and its siblings are the GXL reader as it was before
it read each document in one walk, kept as the oracle for the reader.
"""

from __future__ import annotations

import random
import re
import xml.etree.ElementTree as ET
from collections import defaultdict, deque
from collections.abc import Iterable, Iterator
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
    explore,
    matches,
    normalize_positions,
)
from firmfold.engine import _Step
from firmfold.errors import (
    FirmFoldError,
    GxlParseError,
    GxlReferenceError,
    SchemaError,
    UnsupportedNodeTypeError,
)
from firmfold import graph
from firmfold.graph import OP_NAMES, EdgeNode, NodeId
from firmfold.gxl import XLINK_NS, DialectTag
from firmfold.isomorphism import (
    _CONTAINS,
    _IN,
    _OUT,
    _Adjacency,
    _Arcs,
    _Color,
    _compress,
    _initial_colors,
    _refine,
)

ET.register_namespace("xlink", XLINK_NS)


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


def _blockless(g: ProgramGraph, kind: OpKind) -> NodeId:
    """A new operation of `kind` outside every block."""
    limbo = g.add_block(BlockKind.BLOCK)
    op = g.add_op(kind, limbo)
    g.delete_node(limbo)
    return op


def _on_two_consts(kind: OpKind) -> ProgramGraph:
    """A start block holding an operation of `kind` over two constants."""
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    op = g.add_op(kind, start)
    for position, value in enumerate((3, 5)):
        g.connect(g.add_op(Const(value), start), op, EdgeKind.DATAFLOW, position)
    return g


def _cond_on(value: int) -> ProgramGraph:
    """A start block branching on `Const(value)` to two blocks."""
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    cond = g.add_op(COND, start)
    g.connect(g.add_op(Const(value), start), cond, EdgeKind.DATAFLOW, 0)
    for branch in (0, 1):
        g.connect(cond, g.add_block(BlockKind.BLOCK), EdgeKind.CONTROLFLOW, 0, branch=branch)
    return g


def _phi(entry: bool) -> ProgramGraph:
    """A Phi over one constant at input 0, in a block whose one entry, a
    Jmp from the start block, exists only if `entry`."""
    g = ProgramGraph()
    start, block = g.add_block(BlockKind.START_BLOCK), g.add_block(BlockKind.BLOCK)
    if entry:
        g.connect(g.add_op(JMP, start), block, EdgeKind.CONTROLFLOW, 0)
    phi = g.add_op(PHI, block)
    g.connect(g.add_op(Const(7), start), phi, EdgeKind.DATAFLOW, 0)
    return g


def witnesses() -> dict[str, ProgramGraph]:
    """For each rule of the catalog, by name, a graph in which it matches
    exactly once, made of just what its pattern reads."""
    dataflow, control, unread, entryless = (ProgramGraph() for _ in range(4))
    source, target = _blockless(dataflow, Const(1)), _blockless(dataflow, RETURN)
    dataflow.connect(source, target, EdgeKind.DATAFLOW, 0)
    source, target = _blockless(control, JMP), control.add_block(BlockKind.BLOCK)
    control.connect(source, target, EdgeKind.CONTROLFLOW, 0)
    _blockless(unread, Const(1))
    entryless.add_block(BlockKind.BLOCK)
    return {
        "cleanup-dangling-dataflow": dataflow,
        "cleanup-dangling-control": control,
        "cleanup-unref-const": unread,
        "cmp-fold-int": _on_two_consts(Cmp("lt")),
        "cond-fold-true": _cond_on(1),
        "cond-fold-false": _cond_on(0),
        "block-remove": entryless,
        "phi-adjust": _phi(entry=False),
        "phi-fold-single": _phi(entry=True),
        "add-fold-int": _on_two_consts(ADD),
    }


def disjoint_union(g: ProgramGraph, h: ProgramGraph) -> ProgramGraph:
    """`g` and `h` side by side in one graph, `h`'s ids moved past `g`'s."""
    to = {n: g._next_id + n for n in (*h.op_nodes, *h.block_nodes, *h.edge_nodes)}
    return ProgramGraph._from_parts(
        {**g.op_nodes, **{to[n]: kind for n, kind in h.op_nodes.items()}},
        {**g.block_nodes, **{to[n]: kind for n, kind in h.block_nodes.items()}},
        {
            **g.edge_nodes,
            **{
                to[eid]: replace(e, id=to[eid], source=to[e.source], target=to[e.target])
                for eid, e in h.edge_nodes.items()
            },
        },
        {**g.containment, **{to[op]: to[block] for op, block in h.containment.items()}},
    )


def scan_inputs(seed: int) -> dict[str, ProgramGraph]:
    """The three inputs `scan` explores for `seed`, by name: a random
    program, its `gapped` variant and a one-diamond chain."""
    g = random_graph(random.Random(seed))
    return {
        f"random {seed}": g,
        f"gapped {seed}": gapped(g),
        f"diamond {seed}": diamond_chain(random.Random(seed), 1),
    }


def scan(
    catalog: tuple[Rule, ...], seeds: Iterable[int], max_states: int = 3000
) -> Iterator[tuple[str, Lts | None]]:
    """Explore `scan_inputs(seed)` under `catalog` for each seed in turn:
    each input's name with its LTS, or with None when it passes
    `max_states`."""
    for seed in seeds:
        for name, g in scan_inputs(seed).items():
            try:
                yield name, explore(g, catalog, max_states=max_states)
            except StateLimitExceeded:
                yield name, None


def gapped(g: ProgramGraph) -> ProgramGraph:
    """`g` with every input position p moved to 2p + 1, keeping Phis aligned."""
    edges = {eid: replace(e, position=2 * e.position + 1) for eid, e in g.edge_nodes.items()}
    return ProgramGraph._from_parts(g.op_nodes, g.block_nodes, edges, g.containment)


def index_builds(monkeypatch) -> list[ProgramGraph]:
    """Spy on index builds: the list returned gets each graph an adjacency
    index is built from, kept or not.  A copy-on-write share is no build."""
    built: list[ProgramGraph] = []
    real = graph._Adjacency.__init__

    def counted(index, g=None):
        if g is not None:
            built.append(g)
        real(index, g)

    monkeypatch.setattr(graph._Adjacency, "__init__", counted)
    return built


def relabel(g: ProgramGraph, rng: random.Random | None = None) -> ProgramGraph:
    """`g` with its node ids consistently renamed by a random permutation,
    or, without `rng`, in reverse order, which flips every tie broken by id."""
    old = sorted([*g.op_nodes, *g.block_nodes, *g.edge_nodes])
    new = rng.sample(range(len(old)), len(old)) if rng else range(len(old) - 1, -1, -1)
    to = dict(zip(old, new))
    return ProgramGraph._from_parts(
        {to[n]: kind for n, kind in g.op_nodes.items()},
        {to[n]: kind for n, kind in g.block_nodes.items()},
        {
            to[eid]: replace(e, id=to[eid], source=to[e.source], target=to[e.target])
            for eid, e in g.edge_nodes.items()
        },
        {to[op]: to[block] for op, block in g.containment.items()},
    )


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
            current = current.copy()
            normalize_positions(current, block)
            changed = True
        for op in sorted(current.op_nodes):
            if current.op_nodes[op].name == "Phi":
                continue
            positions = [current.edge_nodes[eid].position for eid, _ in current.data_inputs(op)]
            if not _contiguous(positions):
                current = current.copy()
                normalize_positions(current, op)
                changed = True
        if not changed:
            return current


def reference_fold(
    g: ProgramGraph, rules: tuple[Rule, ...] = CATALOG
) -> tuple[ProgramGraph, tuple[Match, ...]]:
    """The deterministic fold, one fresh copy per step and per renumbered consumer.

    The input is normalized first, as `fold`'s is.  After every step
    each consumer is re-checked, not just those the step touched.
    Returns the final graph and the trace.
    """
    ordered = sorted(rules, key=lambda r: r.priority)
    current = _reference_normalize(g)
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

    The initial state is a normalized copy of `g`, as `explore`'s is.
    Every successor is canonicalized, and every digest hit is confirmed
    with `search_isomorphic`.
    """
    ordered = sorted(rules, key=lambda r: r.priority)
    start = _reference_normalize(g.copy())
    initial = canonical_hash(start)
    states: dict[str, ProgramGraph] = {initial: start}
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
                    if not search_isomorphic(successor, states[succ_digest]):
                        raise RuntimeError(
                            "canonical digest collision between non-isomorphic states"
                        )
                else:
                    if len(states) >= max_states:
                        raise StateLimitExceeded(
                            f"state space exceeds {max_states} states"
                        )
                    successor.shelve()
                    states[succ_digest] = successor
                    queue.append(succ_digest)
                transitions.add((digest, rule.name, succ_digest))
        state.shelve()
    outgoing = {src for src, _, _ in transitions}
    final = frozenset(d for d in states if d not in outgoing)
    return Lts(states, tuple(sorted(transitions)), initial, final)


def _reference_apart(g: ProgramGraph, anchors: tuple[NodeId, ...], other: _Step) -> bool:
    """Whether a step at `anchors` of `g` reads nothing that the step `other` wrote."""
    written = tuple(other.written)
    for a in anchors:
        if a in written or a in other.fresh_blocks:
            return False
        block = g.containment.get(a)
        if block is not None and block in written:
            return False
        edge = g.edge_nodes.get(a)
        if edge is not None and edge.source in written:
            return False
        if a in g.block_nodes and any(g.containment.get(n) == a for n in written):
            return False
    return True


def reference_independent(
    g: ProgramGraph,
    first: tuple[NodeId, ...],
    first_step: _Step,
    second: tuple[NodeId, ...],
    second_step: _Step,
) -> bool:
    """`engine._independent` as it was when a step's written nodes were a
    tuple: each record is scanned as a sequence, and the first is copied
    into a set to test the two for overlap."""
    return (
        _reference_apart(g, second, first_step)
        and _reference_apart(g, first, second_step)
        and set(tuple(first_step.written)).isdisjoint(tuple(second_step.written))
    )


# The oracle for `canonical_form`: an exact isomorphism search that
# shares neither the traversal nor the individualization of the
# canonical form.

_Arc = tuple[NodeId, int, NodeId]


def _arcs(g: ProgramGraph) -> list[_Arc]:
    arcs: list[_Arc] = []
    for eid, e in g.edge_nodes.items():
        arcs.append((e.source, _OUT, eid))
        arcs.append((eid, _IN, e.target))
    for op, blk in g.containment.items():
        arcs.append((blk, _CONTAINS, op))
    return arcs


def _adjacency(arcs: list[_Arc]) -> _Adjacency:
    """Each node's out-arcs and in-arcs as (label, neighbor) lists."""
    out_arcs: _Arcs = defaultdict(list)
    in_arcs: _Arcs = defaultdict(list)
    for src, label, dst in arcs:
        out_arcs[src].append((label, dst))
        in_arcs[dst].append((label, src))
    return out_arcs, in_arcs


_Links = dict[NodeId, dict[NodeId, tuple[list[int], list[int]]]]


def _links(arcs: list[_Arc]) -> _Links:
    """Per node and neighbor: the sorted labels of the arcs to and from it."""
    links: _Links = defaultdict(dict)
    for s, lab, d in arcs:
        links[s].setdefault(d, ([], []))[0].append(lab)
        links[d].setdefault(s, ([], []))[1].append(lab)
    for per_node in links.values():
        for to, back in per_node.values():
            to.sort()
            back.sort()
    return links


def _extends(
    mapping: dict[NodeId, NodeId],
    used: set[NodeId],
    links1: _Links,
    links2: _Links,
    n1: NodeId,
    n2: NodeId,
) -> bool:
    """Whether adding n1 -> n2 to `mapping` (whose image is `used`) keeps
    every arc between the mapped nodes, in both graphs.

    Each mapped neighbor of n1 must map to a neighbor of n2 linked by the
    same arcs; and n2 must have no more mapped neighbors than that, or
    some arc of g2 would have no counterpart in g1.
    """
    mapped = 0
    for m1, labels in links1.get(n1, {}).items():
        m2 = mapping.get(m1)
        if m2 is not None:
            if links2.get(n2, {}).get(m2) != labels:
                return False
            mapped += 1
    return mapped == sum(m2 in used for m2 in links2.get(n2, ()))


def search_isomorphic(g1: ProgramGraph, g2: ProgramGraph) -> bool:
    """Exact isomorphism test by backtracking over refined color classes.

    The two graphs are refined jointly, and a class with unequal
    per-graph populations rules the pair out before any search: that
    alone rejects graphs that differ in size, in initial colors or in
    containment.
    """
    init1 = _initial_colors(g1)
    init2 = _initial_colors(g2)
    if not init1 and not init2:
        return True

    # Joint refinement over the tagged disjoint union: nodes of the two
    # graphs share the color space.
    joint_initial: dict[tuple[int, NodeId], _Color] = {}
    for n, c in init1.items():
        joint_initial[(1, n)] = c
    for n, c in init2.items():
        joint_initial[(2, n)] = c
    arcs1, arcs2 = _arcs(g1), _arcs(g2)
    joint_arcs = [((1, s), lab, (1, d)) for s, lab, d in arcs1]
    joint_arcs += [((2, s), lab, (2, d)) for s, lab, d in arcs2]
    joint = _refine(
        _compress(joint_initial), _adjacency(joint_arcs), joint_initial  # type: ignore[arg-type]
    )

    classes1: dict[int, list[NodeId]] = defaultdict(list)
    classes2: dict[int, list[NodeId]] = defaultdict(list)
    for (tag, n), c in joint.items():
        (classes1 if tag == 1 else classes2)[c].append(n)
    if any(len(classes1[c]) != len(classes2[c]) for c in {*classes1, *classes2}):
        return False

    color1 = {n: c for (tag, n), c in joint.items() if tag == 1}
    links1, links2 = _links(arcs1), _links(arcs2)

    nodes1 = sorted(color1, key=lambda n: (len(classes1[color1[n]]), color1[n], n))
    mapping: dict[NodeId, NodeId] = {}
    used: set[NodeId] = set()

    def candidates(depth: int):
        return iter(sorted(classes2[color1[nodes1[depth]]]))

    # Depth-first search with an explicit stack: stack[d] yields the
    # untried images of nodes1[d], and nodes1[:len(stack) - 1] are mapped.
    stack = [candidates(0)]
    while stack:
        n1 = nodes1[len(stack) - 1]
        for n2 in stack[-1]:
            if n2 not in used and _extends(mapping, used, links1, links2, n1, n2):
                mapping[n1] = n2
                used.add(n2)
                if len(mapping) == len(nodes1):
                    return True
                stack.append(candidates(len(stack)))
                break
        else:
            stack.pop()
            if stack:
                used.remove(mapping.pop(nodes1[len(stack) - 1]))
    return False


def _attr_element(parent: ET.Element, name: str, value: int | str) -> None:
    attr = ET.SubElement(parent, "attr", {"name": name})
    if isinstance(value, int):
        ET.SubElement(attr, "int").text = str(value)
    else:
        ET.SubElement(attr, "string").text = value


def reference_save_native(g: ProgramGraph) -> bytes:
    """The native writer built on ElementTree: a tree, indented, then serialized."""
    root = ET.Element("gxl")
    graph_el = ET.SubElement(
        root, "graph", {"id": "program", "edgeids": "false", "edgemode": "directed"}
    )
    for nid in sorted(set(g.op_nodes) | set(g.block_nodes) | set(g.edge_nodes)):
        node_el = ET.SubElement(graph_el, "node", {"id": f"n{nid}"})
        if nid in g.op_nodes:
            kind = g.op_nodes[nid]
            href = kind.name
        elif nid in g.block_nodes:
            href = g.block_nodes[nid].value
        else:
            e = g.edge_nodes[nid]
            href = "DataflowEdge" if e.kind is EdgeKind.DATAFLOW else "ControlflowEdge"
        type_el = ET.SubElement(node_el, "type")
        type_el.set(f"{{{XLINK_NS}}}href", f"#{href}")
        if nid in g.op_nodes:
            kind = g.op_nodes[nid]
            if kind.value is not None:
                _attr_element(node_el, "value", kind.value)
            if kind.relation is not None:
                _attr_element(node_el, "relation", kind.relation)
        elif nid in g.edge_nodes:
            e = g.edge_nodes[nid]
            _attr_element(node_el, "position", e.position)
            if e.branch is not None:
                _attr_element(node_el, "branch", e.branch)
    for eid in sorted(g.edge_nodes):
        e = g.edge_nodes[eid]
        ET.SubElement(graph_el, "edge", {"from": f"n{e.source}", "to": f"n{eid}"})
        ET.SubElement(graph_el, "edge", {"from": f"n{eid}", "to": f"n{e.target}"})
    for op in sorted(g.containment):
        ET.SubElement(graph_el, "edge", {"from": f"n{g.containment[op]}", "to": f"n{op}"})
    ET.indent(root)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True) + b"\n"


_TYPE_NAMES = [
    *OP_NAMES,
    *(k.value for k in BlockKind),
    *(k.value for k in EdgeKind),
    *(f"{k.value}Edge" for k in EdgeKind),
    "contains",
    "Mul",
]


def mutate_document(doc: bytes, rng: random.Random) -> bytes:
    """`doc` after one to three random edits: a truncation, the deletion
    or duplication of a span, a digit edit, or a swap of type names."""
    for _ in range(rng.randint(1, 3)):
        if not doc:
            return doc
        edit = rng.randrange(5)
        i = rng.randrange(len(doc))
        j = min(len(doc), i + rng.randint(1, 60))
        if rng.random() < 0.5:  # whole lines, so more documents stay well formed
            i, j = doc.rfind(b"\n", 0, i) + 1, doc.find(b"\n", j) + 1 or len(doc)
        if edit == 0:
            doc = doc[:i]
        elif edit == 1:
            doc = doc[:i] + doc[j:]
        elif edit == 2:
            doc = doc[:j] + doc[i:j] + doc[j:]
        elif edit == 3:
            digits = [k for k, byte in enumerate(doc) if chr(byte).isdigit()]
            if digits:
                k = rng.choice(digits)
                doc = doc[:k] + rng.choice([b"0", b"1", b"7", b"-", b"", b"99"]) + doc[k + 1 :]
        else:
            old, new = rng.sample(_TYPE_NAMES, 2)
            doc = doc.replace(f"#{old}\"".encode(), f"#{new}\"".encode(), rng.randint(1, 3))
    return doc


# The GXL reader as it was before it read each document in one walk,
# kept verbatim as the oracle for `firmfold.gxl`'s reader; only its four
# entry points are renamed.

_INT_RE = re.compile(r"-?\d+")
_NATIVE_ID_RE = re.compile(r"n(\d+)")

_BLOCK_TYPES = {k.value: k for k in BlockKind}
_EDGE_NODE_TYPES = {"DataflowEdge": EdgeKind.DATAFLOW, "ControlflowEdge": EdgeKind.CONTROLFLOW}
_FLOW_EDGE_TYPES = {"Dataflow": EdgeKind.DATAFLOW, "Controlflow": EdgeKind.CONTROLFLOW}

#: The attributes, with their value types, of each operation kind that has any.
_OP_ATTRS: dict[str, dict[str, type]] = {"Const": {"value": int}, "Cmp": {"relation": str}}


def _local(tag: object) -> str:
    if not isinstance(tag, str):
        return ""
    return tag.rsplit("}", 1)[-1]


def _graph_element(data: bytes | str) -> ET.Element:
    """Parse `data` and return its `<graph>` element."""
    try:
        if isinstance(data, str):
            data = data.encode("utf-8")
        root = ET.fromstring(data)
    except (ET.ParseError, ValueError, LookupError) as exc:
        # Besides bad XML: a str that UTF-8 cannot encode, or a declared
        # encoding that is unknown (LookupError) or multi-byte (ValueError).
        raise GxlParseError(f"malformed XML: {exc}") from None
    for el in root.iter():  # the root first
        if _local(el.tag) == "graph":
            return el
    raise SchemaError("document contains no graph element")


def _type_href(el: ET.Element) -> str | None:
    """The fragment of the single <type> child, or None if there is none."""
    types = [c for c in el if _local(c.tag) == "type"]
    if not types:
        return None
    if len(types) > 1:
        raise SchemaError("element declares more than one type")
    href = types[0].get(f"{{{XLINK_NS}}}href") or types[0].get("href")
    if href is None or not href.startswith("#") or len(href) < 2:
        raise SchemaError("type element lacks a usable href fragment")
    return href[1:]


def _decimal(digits: str, what: str) -> int:
    """`int(digits)`, or GxlParseError past the interpreter's digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise GxlParseError(f"{what} has {len(digits)} digits, too many to read") from None


def _attrs(el: ET.Element, context: str) -> dict[str, int | str]:
    out: dict[str, int | str] = {}
    for child in el:
        if _local(child.tag) != "attr":
            continue
        name = child.get("name")
        if not name:
            raise SchemaError(f"{context}: attr without a name")
        if name in out:
            raise SchemaError(f"{context}: duplicate attr {name!r}")
        values = [c for c in child if _local(c.tag) in ("int", "string")]
        if len(values) != 1 or len(list(child)) != 1:
            raise SchemaError(f"{context}: attr {name!r} needs exactly one int or string value")
        value_el = values[0]
        text = (value_el.text or "").strip()
        if _local(value_el.tag) == "int":
            if not _INT_RE.fullmatch(text):
                raise SchemaError(f"{context}: attr {name!r} is not a decimal integer")
            out[name] = _decimal(text, f"{context}: attr {name!r}")
        else:
            out[name] = text
    return out


def _expect_attrs(
    attrs: dict[str, int | str],
    context: str,
    required: dict[str, type],
    optional: dict[str, type] = {},
) -> None:
    for name, typ in required.items():
        if name not in attrs:
            raise SchemaError(f"{context}: missing attr {name!r}")
        if not isinstance(attrs[name], typ):
            raise SchemaError(f"{context}: attr {name!r} has the wrong value type")
    for name in attrs:
        if name not in required and name not in optional:
            raise SchemaError(f"{context}: unexpected attr {name!r}")
        if name in optional and not isinstance(attrs[name], optional[name]):
            raise SchemaError(f"{context}: attr {name!r} has the wrong value type")


def _flow_attrs(
    kind: EdgeKind, attrs: dict[str, int | str], context: str
) -> tuple[int, int | None]:
    """The position and branch of a flow edge: `position` is required,
    and `branch` is allowed on Controlflow edges only."""
    optional = {"branch": int} if kind is EdgeKind.CONTROLFLOW else {}
    _expect_attrs(attrs, context, {"position": int}, optional)
    return attrs["position"], attrs.get("branch")  # type: ignore[return-value]


def _key(raw: str, native: bool) -> NodeId | str | None:
    """What an id names, or None: in native documents its number (so `n1`
    names a node declared `n01`), in attributed ones the id itself."""
    if not native:
        return raw or None
    m = _NATIVE_ID_RE.fullmatch(raw)
    return _decimal(m.group(1), "node id") if m else None


def _declarations(graph_el: ET.Element, native: bool) -> tuple[dict, dict, dict, dict]:
    """Read the `<node>` elements of either dialect.

    Native nodes keep the number their id names; attributed nodes are
    numbered in document order and may not be Edge nodes.  Returns the
    operation and block maps, each Edge node's (kind, position, branch),
    and each node's number by its `_key`.
    """
    op_nodes: dict[NodeId, OpKind] = {}
    block_nodes: dict[NodeId, BlockKind] = {}
    edge_meta: dict[NodeId, tuple[EdgeKind, int, int | None]] = {}
    ids: dict[NodeId | str, NodeId] = {}
    for el in graph_el:
        if _local(el.tag) != "node":
            continue
        raw_id = el.get("id")
        if raw_id is None or (key := _key(raw_id, native)) is None:
            if native and raw_id is not None:
                raise SchemaError(f"node id {raw_id!r} is not of the form n<int>")
            raise SchemaError("node without an id")
        if key in ids:
            raise SchemaError(f"duplicate node id {raw_id!r}")
        nid = ids[key] = key if native else len(ids)  # type: ignore[assignment]
        type_name = _type_href(el)
        if type_name is None:
            raise SchemaError(f"node {raw_id!r} declares no type")
        context = f"node {raw_id!r}"
        attrs = _attrs(el, context)
        if type_name in OP_NAMES:
            _expect_attrs(attrs, context, _OP_ATTRS.get(type_name, {}))
            try:
                op_nodes[nid] = OpKind(type_name, **attrs)  # type: ignore[arg-type]
            except ValueError as exc:
                raise SchemaError(f"{context}: {exc}") from None
        elif type_name in _BLOCK_TYPES:
            _expect_attrs(attrs, context, {})
            block_nodes[nid] = _BLOCK_TYPES[type_name]
        elif native and type_name in _EDGE_NODE_TYPES:
            kind = _EDGE_NODE_TYPES[type_name]
            edge_meta[nid] = (kind, *_flow_attrs(kind, attrs, context))
        else:
            raise UnsupportedNodeTypeError(f"unsupported node type #{type_name}")
    return op_nodes, block_nodes, edge_meta, ids


def _endpoints(el: ET.Element, ids: dict, native: bool) -> tuple[NodeId, NodeId]:
    """The declared nodes an `<edge>` runs from and to."""
    ends = []
    for attr in ("from", "to"):
        raw = el.get(attr)
        if raw is None:
            raise SchemaError(f"edge without a {attr!r} endpoint")
        nid = ids.get(_key(raw, native))
        if nid is None:
            raise GxlReferenceError(f"edge references undeclared node {raw!r}")
        ends.append(nid)
    return ends[0], ends[1]


def _assemble(*parts: dict) -> ProgramGraph:
    try:
        return ProgramGraph._from_parts(*parts)
    except FirmFoldError as exc:
        raise SchemaError(str(exc)) from None


def _dialect(graph_el: ET.Element) -> DialectTag:
    for el in graph_el:
        if _local(el.tag) == "edge" and any(_local(c.tag) == "type" for c in el):
            return DialectTag.FIRM_ATTRIBUTED
    return DialectTag.NATIVE


def _read_native(graph_el: ET.Element) -> ProgramGraph:
    if graph_el.get("edgeids", "false") != "false":
        raise SchemaError("native documents do not assign edge identities")
    op_nodes, block_nodes, edge_meta, ids = _declarations(graph_el, native=True)
    sources: dict[NodeId, NodeId] = {}
    targets: dict[NodeId, NodeId] = {}
    containment: dict[NodeId, NodeId] = {}
    for el in graph_el:
        if _local(el.tag) != "edge":
            continue
        if any(_local(c.tag) == "type" for c in el):
            raise SchemaError("native documents use bare relation edges only")
        frm, to = _endpoints(el, ids, native=True)
        if frm in edge_meta and to in edge_meta:
            raise SchemaError(f"relation edge links two Edge nodes n{frm} and n{to}")
        if to in edge_meta:
            if to in sources:
                raise SchemaError(f"Edge node n{to} has two sources")
            sources[to] = frm
        elif frm in edge_meta:
            if frm in targets:
                raise SchemaError(f"Edge node n{frm} has two targets")
            targets[frm] = to
        elif frm in block_nodes and to in op_nodes:
            if to in containment:
                raise SchemaError(f"operation n{to} is contained twice")
            containment[to] = frm
        else:
            raise SchemaError(f"relation edge n{frm} -> n{to} fits no structural role")

    edge_nodes: dict[NodeId, EdgeNode] = {}
    for eid, (kind, position, branch) in edge_meta.items():
        if eid not in sources or eid not in targets:
            raise SchemaError(f"Edge node n{eid} lacks a source or target")
        edge_nodes[eid] = EdgeNode(eid, kind, position, sources[eid], targets[eid], branch)
    return _assemble(op_nodes, block_nodes, edge_nodes, containment)


def _read_attributed(graph_el: ET.Element) -> ProgramGraph:
    op_nodes, block_nodes, _, ids = _declarations(graph_el, native=False)
    edge_nodes: dict[NodeId, EdgeNode] = {}
    containment: dict[NodeId, NodeId] = {}
    for el in graph_el:
        if _local(el.tag) != "edge":
            continue
        frm, to = _endpoints(el, ids, native=False)
        type_name = _type_href(el)
        if type_name is None:
            raise SchemaError("attributed documents require a type on every edge")
        context = f"edge {el.get('from')!r} -> {el.get('to')!r}"
        attrs = _attrs(el, context)
        if type_name in _FLOW_EDGE_TYPES:
            kind = _FLOW_EDGE_TYPES[type_name]
            position, branch = _flow_attrs(kind, attrs, context)
            eid = len(ids) + len(edge_nodes)
            edge_nodes[eid] = EdgeNode(eid, kind, position, frm, to, branch)
        elif type_name == "contains":
            _expect_attrs(attrs, context, {})
            if frm not in block_nodes or to not in op_nodes:
                raise SchemaError(f"{context}: containment runs from a block to an operation")
            if to in containment:
                raise SchemaError(f"{context}: operation is contained twice")
            containment[to] = frm
        else:
            raise SchemaError(f"{context}: unknown edge type #{type_name}")
    return _assemble(op_nodes, block_nodes, edge_nodes, containment)


def reference_detect_dialect(data: bytes | str) -> DialectTag:
    """Attributed if any <edge> carries a <type> child, native otherwise."""
    return _dialect(_graph_element(data))


def reference_load_native(data: bytes | str) -> ProgramGraph:
    """Read a native-dialect document, preserving its node numbering."""
    return _read_native(_graph_element(data))


def reference_import_firm_gxl(data: bytes | str) -> ProgramGraph:
    """Read an attributed-dialect document, nodifying its flow edges.

    Node ids in this dialect are arbitrary strings; the imported graph
    numbers declared nodes in document order and Edge nodes after them.
    """
    return _read_attributed(_graph_element(data))


def reference_load(data: bytes | str, dialect: DialectTag | None = None) -> ProgramGraph:
    """Read either dialect, auto-detecting unless one is forced."""
    graph_el = _graph_element(data)
    if (dialect or _dialect(graph_el)) is DialectTag.NATIVE:
        return _read_native(graph_el)
    return _read_attributed(graph_el)
