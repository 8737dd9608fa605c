"""Graph canonicalization, and isomorphism decided by it.

`canonical_form` computes a label-preserving certificate, `form_digest`
digests one, and `canonical_hash` digests a graph's.  The certificate
has one row per node, in canonical order: the node's initial color,
then an Edge node's source's and target's numbers, or an operation's
block's number (-1 without one), or -1 for a block.  The rows are
concatenated into one tuple of ints; each row's length follows from its
first int, so the tuple splits into rows one way only.  The rows fix
every arc, so two equal certificates define a bijection that keeps
every color and every arc: they prove isomorphism.  And every
id-renaming of a graph gets the same certificate, so the certificate
is complete, and `is_isomorphic` is the equality of two forms, as in
canonical labelling (McKay & Piperno 2014).  The state-space explorer
keys its states by the digest and confirms a digest hit by comparing
the two certificates.  The digest is the SHA-256 of a certificate's
`marshal` version 2 bytes, which depend on its value alone (see
`form_digest`).  CPython's built-in SHA-256 module computes it, and
`hashlib` only where the interpreter has none, so a digest does not
load OpenSSL's libcrypto; `fold` and `verify` take no digest at all.

An independent decision, a backtracking search over jointly refined
color classes, lives in the tests (`tests/helpers.py`) as the oracle
that checks the canonical form.

The graph is treated as a colored digraph: each node's initial color
encodes its attributes as a tuple of ints, and the arcs, labelled by
ints, are the out/in halves of every Edge node plus the containment
adjacencies.

The canonical form numbers nodes in three stages:

1. **Ordered backward traversal, block members, settled nodes.**  In
   a graph with exactly one EndBlock, a breadth-first search runs
   backwards from it.  At each operation or block it visits the
   in-edges in the order of their initial colors, (kind, position,
   branch), each edge followed by its source; then an operation's
   block, or a block's waiting members (those not yet numbered) whose
   color no other waiting member has, in color order.  A member that
   shares its color waits: it may yet be reached as an edge source.
   Every isomorphism maps the EndBlock to the EndBlock and preserves
   that order, so each visited node's visit index is an invariant
   label.  With no EndBlock, two or more, or two in-edges of one
   visited node with equal colors (duplicate positions in a loaded
   graph), the order is not determined by the labels, and nothing is
   visited.  After the traversal, each node whose neighbors are all
   numbered is settled: such nodes follow in the order of their
   initial colors and their arcs renumbered.  Two with equal keys are
   twins, alike and with no other arcs, so their tie is an
   automorphism.  Where stage 1 numbers every node, its order is the
   canonical order, and stages 2 and 3 do not run.  Nodes it leaves
   unnumbered, such as unread operations that share a color and have
   inputs, or nodes adjacent only to one another, keep their initial
   colors, ranked above the numbered ones.
2. **Color refinement** splits classes by neighborhood signature until
   the partition is stable.  It re-signs only the nodes stage 1 left
   unnumbered: the numbered ones are singletons below every other
   color, so full refinement would keep their colors, and refining
   the rest alone gives the same coloring.
3. **Individualization.**  While a class has several members, each
   candidate of the smallest class is given a fresh color in turn and
   the result refined again; the smallest certificate over all leaves
   wins.  A candidate whose raw neighborhood (its multisets of (label,
   neighbor) arcs, in and out) equals that of a candidate already tried
   is skipped: swapping the two is an automorphism of the colored
   graph, so its subtree yields the same certificates (twin pruning,
   after McKay & Piperno 2014).  A class made entirely of twins is
   individualized in one step.  The search keeps an explicit stack.
"""

from __future__ import annotations

import marshal
from collections import defaultdict
from typing import Collection, Iterator

from .graph import OP_NAMES, RELATIONS, BlockKind, EdgeKind, NodeId, ProgramGraph
from .graph import _Adjacency as _GraphIndex

_Color = tuple[int, ...]
_Arcs = dict[NodeId, list[tuple[int, NodeId]]]
_Adjacency = tuple[_Arcs, _Arcs]

#: Arc labels: an Edge node's source arc, its target arc, and a block's
#: arc to each operation it contains.
_OUT, _IN, _CONTAINS = 0, 1, 2

_OP_INDEX = {name: i for i, name in enumerate(OP_NAMES)}
_RELATION_INDEX = {relation: i for i, relation in enumerate(RELATIONS)}
_BLOCK_INDEX = {kind: i for i, kind in enumerate(BlockKind)}
_EDGE_INDEX = {kind: i for i, kind in enumerate(EdgeKind)}


def _initial_colors(g: ProgramGraph) -> dict[NodeId, _Color]:
    """Each node's attributes as a tuple of ints; equal tuples mean equal
    attributes.

    An operation gets (0, name, value or 0, relation or -1), a block
    (1, kind) and an Edge node (2, kind, position, branch or -1), each
    name, kind and relation by its index in its declaration.
    """
    colors: dict[NodeId, _Color] = {}
    for n, kind in g.op_nodes.items():
        relation = _RELATION_INDEX.get(kind.relation, -1)
        colors[n] = (0, _OP_INDEX[kind.name], kind.value or 0, relation)
    for b, kind in g.block_nodes.items():
        colors[b] = (1, _BLOCK_INDEX[kind])
    for eid, e in g.edge_nodes.items():
        colors[eid] = (2, _EDGE_INDEX[e.kind], e.position, -1 if e.branch is None else e.branch)
    return colors


def _adjacency_of(g: ProgramGraph, index: _GraphIndex, nodes: list[NodeId]) -> _Adjacency:
    """The out-arcs and in-arcs of `nodes` alone, each as a list of (label,
    neighbor) pairs, read from `g`'s adjacency index."""
    edges, containment = g.edge_nodes, g.containment
    out_arcs: _Arcs = {}
    in_arcs: _Arcs = {}
    for n in nodes:
        e = edges.get(n)
        if e is not None:
            out_arcs[n] = [(_IN, e.target)]
            in_arcs[n] = [(_OUT, e.source)]
            continue
        out_arcs[n] = [(_OUT, eid) for eid in index.outs.get(n, ())]
        out_arcs[n] += [(_CONTAINS, op) for op in index.members.get(n, ())]
        in_arcs[n] = [(_IN, eid) for eid in index.ins.get(n, ())]
        if n in containment:
            in_arcs[n].append((_CONTAINS, containment[n]))
    return out_arcs, in_arcs


def _refine(
    colors: dict[NodeId, int], adjacency: _Adjacency, movable: Collection[NodeId]
) -> dict[NodeId, int]:
    """Iterate neighborhood-signature splitting until the partition is stable.

    Only the `movable` nodes are re-signed, and
    `adjacency` needs only their arcs.  They are ranked from k, the
    number of other nodes, which must be singletons colored 0 to k - 1,
    below every movable color.  A signature starts with the node's
    color, so full refinement would rank those k nodes 0 to k - 1 again
    and the rest from k: it gives the same coloring.
    """
    out_arcs, in_arcs = adjacency
    current = dict(colors)
    start = len(current) - len(movable)
    n_classes = len({current[n] for n in movable})
    while n_classes < len(movable):
        signatures = {
            n: (
                current[n],
                tuple(sorted((lab, current[d]) for lab, d in out_arcs.get(n, ()))),
                tuple(sorted((lab, current[s]) for lab, s in in_arcs.get(n, ()))),
            )
            for n in movable
        }
        ranking = {sig: start + i for i, sig in enumerate(sorted(set(signatures.values())))}
        for n, sig in signatures.items():
            current[n] = ranking[sig]
        if len(ranking) == n_classes:
            break
        n_classes = len(ranking)
    return current


def _compress(colors: dict[NodeId, _Color]) -> dict[NodeId, int]:
    ranking = {c: i for i, c in enumerate(sorted(set(colors.values())))}
    return {n: ranking[c] for n, c in colors.items()}


def _backward_order(
    g: ProgramGraph, colors: dict[NodeId, _Color], index: _GraphIndex
) -> list[NodeId]:
    """The nodes the backward traversal numbers, in traversal order: those
    that reach the one EndBlock, and the block members it numbers on its
    way.  An expanded block numbers its waiting members whose color no
    other waiting member shares; the rest may yet be reached as sources.

    Empty when the order is not determined by the labels: there is no
    EndBlock or more than one, or an expanded node has two in-edges of
    equal color.
    """
    ends = [b for b, kind in g.block_nodes.items() if kind is BlockKind.END_BLOCK]
    if len(ends) != 1:
        return []
    edges, containment, ins, members = g.edge_nodes, g.containment, index.ins, index.members
    color = colors.__getitem__
    order = ends
    seen = set(order)
    for n in order:  # grows while it is read: a queue
        if n in edges:
            continue
        entries = ins.get(n, ())
        if len(entries) > 1:
            entries = sorted(entries, key=color)
            if len(set(map(color, entries))) < len(entries):
                return []
        for eid in entries:
            order.append(eid)
            src = edges[eid].source
            if src not in seen:
                seen.add(src)
                order.append(src)
        block = containment.get(n)
        if block is not None:
            if block not in seen:
                seen.add(block)
                order.append(block)
        elif n in members:
            waiting = [m for m in members[n] if m not in seen]
            if len(waiting) > 1:
                counts: dict[_Color, int] = {}
                for m in waiting:
                    c = color(m)
                    counts[c] = counts.get(c, 0) + 1
                waiting = sorted((m for m in waiting if counts[color(m)] == 1), key=color)
            seen.update(waiting)
            order += waiting
    return order


def _numbering(
    g: ProgramGraph, colors: dict[NodeId, _Color], index: _GraphIndex
) -> list[NodeId]:
    """Stage 1: the backward traversal's order, then the settled nodes.

    A node outside the traversal's order is settled when all its
    neighbors lie inside it: an Edge node's source and target, an
    operation's block, in-edges and out-edges, a block's entries and
    members.  The traversal numbers an edge only with its source and
    target, and a member only with its block, so a settled node has no
    edges and no members: it is an operation in a numbered block or in
    none, or an isolated block.  Its key, its initial color and its
    block's number or -1, holds all its arcs, and settled nodes follow
    in key order.  Two with equal keys are twins, so swapping them is an
    automorphism, and their tie may fall either way.
    """
    order = _backward_order(g, colors, index)
    if len(order) == len(colors):
        return order
    number = {n: i for i, n in enumerate(order)}
    edges, containment = g.edge_nodes, g.containment
    ins, outs, members = index.ins, index.outs, index.members
    keys: dict[NodeId, _Color] = {}
    for n, c in colors.items():
        if n in number or n in edges or n in ins or n in outs or n in members:
            continue
        block = containment.get(n)
        if block is None:
            keys[n] = (*c, -1)
        elif block in number:
            keys[n] = (*c, number[block])
    return order + sorted(keys, key=keys.__getitem__)


def _certificate(order: list[NodeId], initial: dict[NodeId, _Color], g: ProgramGraph) -> tuple:
    """One row per node of `order`, concatenated into one tuple of ints:
    the node's initial color, then an Edge node's source's and target's
    numbers in `order`, or an operation's block's number, or -1 for a
    block or a blockless operation.

    A row's length follows from its first int, which tells operations,
    blocks and Edge nodes apart, so the tuple splits into rows one way
    only.  The rows fix every arc, so two
    equal certificates define a bijection that keeps every color and
    every arc.
    """
    number = {n: i for i, n in enumerate(order)}
    edges, containment = g.edge_nodes, g.containment
    rows: list[int] = []
    for n in order:
        rows += initial[n]
        e = edges.get(n)
        if e is None:
            block = containment.get(n)
            rows.append(-1 if block is None else number[block])
        else:
            rows += (number[e.source], number[e.target])
    return tuple(rows)


def canonical_form(g: ProgramGraph) -> tuple:
    """A certificate identical across all id-renamings of `g`: one row
    per node in canonical order (see `_certificate`).

    The order is stage 1's numbering where that numbers every node, and
    otherwise that numbering followed by the rest in the order of the
    smallest certificate that stages 2 and 3 find.  Leaves `g`'s
    adjacency index as it found it, built or absent.
    """
    initial = _initial_colors(g)
    index = g.adjacency_index()
    order = _numbering(g, initial, index)
    if len(order) == len(initial):
        return _certificate(order, initial, g)
    # Stages 2 and 3 move only the nodes stage 1 left unnumbered,
    # colored above the numbered ones in the order of their initial colors.
    seeded = {n: i for i, n in enumerate(order)}
    movable = [n for n in initial if n not in seeded]
    ranks = _compress({n: initial[n] for n in movable})
    seeded.update((n, len(order) + ranks[n]) for n in movable)
    adjacency = out_arcs, in_arcs = _adjacency_of(g, index, movable)

    def branches(colors: dict[NodeId, int], cell: list[NodeId]) -> Iterator[dict[NodeId, int]]:
        """The refined colorings below `colors` that individualize `cell`."""
        fresh = max(colors[n] for n in movable) + 1
        candidates: dict[tuple, NodeId] = {}  # one per raw neighborhood
        for n in sorted(cell):
            raw = (tuple(sorted(out_arcs[n])), tuple(sorted(in_arcs[n])))
            candidates.setdefault(raw, n)
        if len(candidates) == 1:  # all twins: any order is an automorphism
            twins = {n: fresh + i for i, n in enumerate(sorted(cell))}
            yield _refine({**colors, **twins}, adjacency, movable)
            return
        for n in candidates.values():
            yield _refine({**colors, n: fresh}, adjacency, movable)

    best: tuple | None = None
    # Depth-first over the individualization tree: stack[d] yields the
    # untried colorings at depth d.
    stack: list[Iterator[dict[NodeId, int]]] = [iter([_refine(seeded, adjacency, movable)])]
    while stack:
        colors = next(stack[-1], None)
        if colors is None:
            stack.pop()
            continue
        classes: dict[int, list[NodeId]] = defaultdict(list)
        for n in movable:
            classes[colors[n]].append(n)
        cells = [(len(ns), c) for c, ns in classes.items() if len(ns) > 1]
        if cells:
            stack.append(branches(colors, classes[min(cells)[1]]))
            continue
        cert = _certificate(order + sorted(movable, key=colors.__getitem__), initial, g)
        if best is None or cert < best:
            best = cert
    assert best is not None
    return best


def _builtin_sha256():
    """CPython's own SHA-256 constructor, or `hashlib`'s where it has none.

    `hashlib` would load OpenSSL's libcrypto, a few megabytes of memory,
    for this one hash function.
    """
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.11
        except ImportError:
            from hashlib import sha256
    return sha256


#: The SHA-256 constructor, resolved by the first digest a process takes.
_sha256 = None


def form_digest(form: tuple) -> str:
    """Hex SHA-256 digest of a canonical form's `marshal` version 2 bytes.

    A form holds only tuples and ints, and `marshal` version 2 writes
    those by value alone, so equal forms give equal bytes in every
    process, whatever its hash seed.  Later versions, the default
    included, write an object met twice as a back-reference chosen by
    object identity and reference count: two equal forms whose large
    ints are distinct objects would then digest differently, and one
    state would be split in two.  The digest is the same whichever
    module computes it (`_builtin_sha256`).
    """
    global _sha256
    if _sha256 is None:
        _sha256 = _builtin_sha256()
    return _sha256(marshal.dumps(form, 2)).hexdigest()


def canonical_hash(g: ProgramGraph) -> str:
    """Hex digest of the canonical form; stable across id-renamings."""
    return form_digest(canonical_form(g))


def is_isomorphic(g1: ProgramGraph, g2: ProgramGraph) -> bool:
    """Whether `g1` and `g2` are isomorphic: whether their canonical forms are equal.

    Exact both ways: every id-renaming keeps the canonical form, and two
    equal forms define a bijection that keeps every color and every arc.
    """
    return canonical_form(g1) == canonical_form(g2)
