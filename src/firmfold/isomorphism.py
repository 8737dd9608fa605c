"""Graph canonicalization and isomorphism testing.

Two independent routes to the same question:

* `canonical_form` computes a label-preserving certificate,
  `form_digest` digests one, and `canonical_hash` digests a graph's.
  The certificate lists every node's initial color in canonical order
  and every arc renumbered by that order, so two equal certificates
  define a bijection that keeps every color and every arc: they prove
  isomorphism.  The state-space explorer keys its states by the
  digest and confirms a digest hit by comparing the two certificates.
* `is_isomorphic` decides isomorphism exactly, by backtracking search
  over refinement-compatible candidate maps.  It shares neither the
  traversal nor the search of the canonical form, so it is the
  independent oracle that checks the canonical form in the tests and
  the benchmark, and compares an exploration's final states.

Both treat the graph as a colored digraph: nodes keep their attribute
tuples as initial colors, and the arcs are the out/in halves of every
Edge node plus the containment adjacencies.

The canonical form numbers nodes in three stages:

1. **Ordered backward traversal.**  In a graph with exactly one
   EndBlock, a breadth-first search runs backwards from it.  At each
   operation or block it visits the in-edges in the order of their
   initial colors, (kind, position, branch), each edge followed by its
   source, and an operation's block last.  Every isomorphism maps the
   EndBlock to the EndBlock and preserves that order, so each visited
   node's visit index is an invariant label: the node becomes a
   singleton color.  With no EndBlock, two or more, or two in-edges of
   one visited node with equal colors (duplicate positions in a loaded
   graph), the order is not determined by the labels, and no node is
   seeded.  Nodes the traversal does not reach, such as unreferenced
   constants or blocks that never reach the end, keep their initial
   colors.
2. **Color refinement** splits classes by neighborhood signature until
   the partition is stable.  Where the traversal numbered every node,
   this costs one pass.
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

import hashlib
from collections import defaultdict
from typing import Iterator

from .graph import BlockKind, NodeId, ProgramGraph

_Color = tuple
_Arc = tuple[NodeId, str, NodeId]
_Arcs = dict[NodeId, list[tuple[str, NodeId]]]
_Adjacency = tuple[_Arcs, _Arcs]


def _initial_colors(g: ProgramGraph) -> dict[NodeId, _Color]:
    colors: dict[NodeId, _Color] = {}
    for n, kind in g.op_nodes.items():
        colors[n] = ("op", kind.name, kind.value, kind.relation)
    for b, kind in g.block_nodes.items():
        colors[b] = ("block", kind.value)
    for eid, e in g.edge_nodes.items():
        colors[eid] = ("edge", e.kind.value, e.position, e.branch)
    return colors


def _arcs(g: ProgramGraph) -> list[_Arc]:
    arcs: list[_Arc] = []
    for eid, e in g.edge_nodes.items():
        arcs.append((e.source, "out", eid))
        arcs.append((eid, "in", e.target))
    for op, blk in g.containment.items():
        arcs.append((blk, "contains", op))
    return arcs


def _adjacency(arcs: list[_Arc]) -> _Adjacency:
    """Each node's out-arcs and in-arcs as (label, neighbor) lists."""
    out_arcs: _Arcs = defaultdict(list)
    in_arcs: _Arcs = defaultdict(list)
    for src, label, dst in arcs:
        out_arcs[src].append((label, dst))
        in_arcs[dst].append((label, src))
    return out_arcs, in_arcs


def _refine(colors: dict[NodeId, int], adjacency: _Adjacency) -> dict[NodeId, int]:
    """Iterate neighborhood-signature splitting until the partition is stable."""
    out_arcs, in_arcs = adjacency
    current = dict(colors)
    n_classes = len(set(current.values()))
    while n_classes < len(current):
        signatures = {}
        for n in current:
            sig = (
                current[n],
                tuple(sorted((lab, current[d]) for lab, d in out_arcs.get(n, ()))),
                tuple(sorted((lab, current[s]) for lab, s in in_arcs.get(n, ()))),
            )
            signatures[n] = sig
        ranking = {sig: i for i, sig in enumerate(sorted(set(signatures.values())))}
        new = {n: ranking[signatures[n]] for n in current}
        new_classes = len(set(new.values()))
        if new_classes == n_classes:
            return new
        current, n_classes = new, new_classes
    return current


def _compress(colors: dict[NodeId, _Color]) -> dict[NodeId, int]:
    ranking = {c: i for i, c in enumerate(sorted(set(colors.values()), key=repr))}
    return {n: ranking[c] for n, c in colors.items()}


def _backward_order(g: ProgramGraph, colors: dict[NodeId, int], in_arcs: _Arcs) -> list[NodeId]:
    """The nodes that reach the one EndBlock, in backward traversal order.

    A node's in-edges are its `"in"` in-arcs, and an Edge node's one
    in-arc names its source.  Empty when the order is not determined by
    the labels: there is no EndBlock or more than one, or a visited node
    has two in-edges of equal color.
    """
    ends = [b for b, kind in g.block_nodes.items() if kind is BlockKind.END_BLOCK]
    if len(ends) != 1:
        return []
    order = ends
    seen = set(order)
    for n in order:  # grows while it is read: a queue
        if n in g.edge_nodes:
            continue
        entries = sorted((colors[eid], eid) for label, eid in in_arcs.get(n, ()) if label == "in")
        if any(a[0] == b[0] for a, b in zip(entries, entries[1:])):
            return []
        for _, eid in entries:
            order.append(eid)
            [(_, src)] = in_arcs[eid]
            if src not in seen:
                seen.add(src)
                order.append(src)
        block = g.containment.get(n)
        if block is not None and block not in seen:
            seen.add(block)
            order.append(block)
    return order


def _certificate(order: list[NodeId], initial: dict[NodeId, _Color], arcs: list[_Arc]) -> tuple:
    index = {n: i for i, n in enumerate(order)}
    numbered = sorted((index[s], lab, index[d]) for s, lab, d in arcs)
    return (tuple(initial[n] for n in order), tuple(numbered))


def canonical_form(g: ProgramGraph) -> tuple:
    """A certificate identical across all id-renamings of `g`."""
    initial = _initial_colors(g)
    if not initial:
        return ((), ())
    arcs = _arcs(g)
    adjacency = out_arcs, in_arcs = _adjacency(arcs)
    compressed = _compress(initial)
    order = _backward_order(g, compressed, in_arcs)
    seeded = {n: len(order) + c for n, c in compressed.items()}
    seeded.update((n, i) for i, n in enumerate(order))

    def branches(colors: dict[NodeId, int], cell: list[NodeId]) -> Iterator[dict[NodeId, int]]:
        """The refined colorings below `colors` that individualize `cell`."""
        fresh = max(colors.values()) + 1
        candidates: dict[tuple, NodeId] = {}  # one per raw neighborhood
        for n in sorted(cell):
            raw = (tuple(sorted(out_arcs.get(n, ()))), tuple(sorted(in_arcs.get(n, ()))))
            candidates.setdefault(raw, n)
        if len(candidates) == 1:  # all twins: any order is an automorphism
            twins = {n: fresh + i for i, n in enumerate(sorted(cell))}
            yield _refine({**colors, **twins}, adjacency)
            return
        for n in candidates.values():
            yield _refine({**colors, n: fresh}, adjacency)

    best: tuple | None = None
    # Depth-first over the individualization tree: stack[d] yields the
    # untried colorings at depth d.
    stack: list[Iterator[dict[NodeId, int]]] = [iter([_refine(seeded, adjacency)])]
    while stack:
        colors = next(stack[-1], None)
        if colors is None:
            stack.pop()
            continue
        classes: dict[int, list[NodeId]] = defaultdict(list)
        for n, c in colors.items():
            classes[c].append(n)
        cells = [(len(ns), c) for c, ns in classes.items() if len(ns) > 1]
        if cells:
            stack.append(branches(colors, classes[min(cells)[1]]))
            continue
        cert = _certificate(sorted(colors, key=colors.__getitem__), initial, arcs)
        if best is None or cert < best:
            best = cert
    assert best is not None
    return best


def form_digest(form: tuple) -> str:
    """Hex digest of a canonical form."""
    return hashlib.sha256(repr(form).encode("utf-8")).hexdigest()


def canonical_hash(g: ProgramGraph) -> str:
    """Hex digest of the canonical form; stable across id-renamings."""
    return form_digest(canonical_form(g))


_Links = dict[NodeId, dict[NodeId, tuple[list[str], list[str]]]]


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


def is_isomorphic(g1: ProgramGraph, g2: ProgramGraph) -> bool:
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
    joint = _refine(_compress(joint_initial), _adjacency(joint_arcs))  # type: ignore[arg-type]

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
