"""Graph canonicalization and isomorphism testing.

Two independent routes to the same question:

* `canonical_hash` computes a label-preserving canonical form by
  iterative color refinement with an individualization fallback, then
  digests it.  Equal hashes mean isomorphic graphs (collisions aside);
  the state-space explorer uses the digest as a dedup key.
* `is_isomorphic` decides isomorphism exactly, by backtracking search
  over refinement-compatible candidate maps.  It shares no code path
  with the canonical form, so the two can cross-check each other.

Both treat the graph as a colored digraph: nodes keep their attribute
tuples as initial colors, and the arcs are the out/in halves of every
Edge node plus the containment adjacencies.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict

from .graph import NodeId, ProgramGraph

_Color = tuple
_Arc = tuple[NodeId, str, NodeId]


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


def _refine(
    colors: dict[NodeId, int], arcs: list[_Arc]
) -> dict[NodeId, int]:
    """Iterate neighborhood-signature splitting until the partition is stable."""
    out_arcs: dict[NodeId, list[tuple[str, NodeId]]] = defaultdict(list)
    in_arcs: dict[NodeId, list[tuple[str, NodeId]]] = defaultdict(list)
    for src, label, dst in arcs:
        out_arcs[src].append((label, dst))
        in_arcs[dst].append((label, src))
    current = dict(colors)
    n_classes = len(set(current.values()))
    while True:
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


def _compress(colors: dict[NodeId, _Color]) -> dict[NodeId, int]:
    ranking = {c: i for i, c in enumerate(sorted(set(colors.values()), key=repr))}
    return {n: ranking[c] for n, c in colors.items()}


def _certificate(
    g: ProgramGraph, order: list[NodeId], initial: dict[NodeId, _Color]
) -> tuple:
    index = {n: i for i, n in enumerate(order)}
    arcs = sorted((index[s], lab, index[d]) for s, lab, d in _arcs(g))
    return (tuple(initial[n] for n in order), tuple(arcs))


def canonical_form(g: ProgramGraph) -> tuple:
    """A certificate identical across all id-renamings of `g`."""
    initial = _initial_colors(g)
    if not initial:
        return ((), ())
    arcs = _arcs(g)
    base = _refine(_compress(initial), arcs)

    best: list[tuple | None] = [None]

    def descend(colors: dict[NodeId, int]) -> None:
        classes: dict[int, list[NodeId]] = defaultdict(list)
        for n, c in colors.items():
            classes[c].append(n)
        non_singleton = sorted(
            (c for c, ns in classes.items() if len(ns) > 1),
            key=lambda c: (len(classes[c]), c),
        )
        if not non_singleton:
            order = sorted(colors, key=lambda n: (colors[n], repr(initial[n])))
            cert = _certificate(g, order, initial)
            if best[0] is None or cert < best[0]:
                best[0] = cert
            return
        pivot = non_singleton[0]
        fresh = max(colors.values()) + 1
        for candidate in sorted(classes[pivot]):
            branched = dict(colors)
            branched[candidate] = fresh
            descend(_refine(branched, arcs))

    descend(base)
    assert best[0] is not None
    return best[0]


def canonical_hash(g: ProgramGraph) -> str:
    """Hex digest of the canonical form; stable across id-renamings."""
    return hashlib.sha256(repr(canonical_form(g)).encode("utf-8")).hexdigest()


def is_isomorphic(g1: ProgramGraph, g2: ProgramGraph) -> bool:
    """Exact isomorphism test by backtracking over refined color classes."""
    if (
        len(g1.op_nodes) != len(g2.op_nodes)
        or len(g1.block_nodes) != len(g2.block_nodes)
        or len(g1.edge_nodes) != len(g2.edge_nodes)
        or len(g1.containment) != len(g2.containment)
    ):
        return False
    init1 = _initial_colors(g1)
    init2 = _initial_colors(g2)
    if sorted(init1.values(), key=repr) != sorted(init2.values(), key=repr):
        return False
    if not init1:
        return True

    # Joint refinement over the tagged disjoint union: nodes of the two
    # graphs share the color space, so a class with unequal per-graph
    # populations rules the pair out immediately.
    joint_initial: dict[tuple[int, NodeId], _Color] = {}
    for n, c in init1.items():
        joint_initial[(1, n)] = c
    for n, c in init2.items():
        joint_initial[(2, n)] = c
    joint_arcs = [((1, s), lab, (1, d)) for s, lab, d in _arcs(g1)]
    joint_arcs += [((2, s), lab, (2, d)) for s, lab, d in _arcs(g2)]
    joint = _refine(_compress(joint_initial), joint_arcs)  # type: ignore[arg-type]

    classes1: dict[int, list[NodeId]] = defaultdict(list)
    classes2: dict[int, list[NodeId]] = defaultdict(list)
    for (tag, n), c in joint.items():
        (classes1 if tag == 1 else classes2)[c].append(n)
    if set(classes1) != set(classes2):
        return False
    for c in classes1:
        if len(classes1[c]) != len(classes2[c]):
            return False

    color1 = {n: c for (tag, n), c in joint.items() if tag == 1}
    color2 = {n: c for (tag, n), c in joint.items() if tag == 2}

    adj1: dict[tuple[NodeId, NodeId], list[str]] = defaultdict(list)
    adj2: dict[tuple[NodeId, NodeId], list[str]] = defaultdict(list)
    for s, lab, d in _arcs(g1):
        adj1[(s, d)].append(lab)
    for s, lab, d in _arcs(g2):
        adj2[(s, d)].append(lab)
    for pairs in (adj1, adj2):
        for key in pairs:
            pairs[key].sort()

    nodes1 = sorted(color1, key=lambda n: (len(classes1[color1[n]]), color1[n], n))
    mapping: dict[NodeId, NodeId] = {}
    used: set[NodeId] = set()

    def consistent(n1: NodeId, n2: NodeId) -> bool:
        for m1, m2 in mapping.items():
            if adj1.get((n1, m1), []) != adj2.get((n2, m2), []):
                return False
            if adj1.get((m1, n1), []) != adj2.get((m2, n2), []):
                return False
        return True

    def candidates(depth: int):
        return iter(sorted(classes2[color1[nodes1[depth]]]))

    # Depth-first search with an explicit stack: stack[d] yields the
    # untried images of nodes1[d], and nodes1[:len(stack) - 1] are mapped.
    stack = [candidates(0)]
    while stack:
        n1 = nodes1[len(stack) - 1]
        for n2 in stack[-1]:
            if n2 not in used and consistent(n1, n2):
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
