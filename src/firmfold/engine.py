"""Deterministic rewriting and exhaustive state-space exploration.

A rule pairs a matcher, which enumerates every match of its pattern in
a graph, with an applier that rewrites one match in place.  The fold
driver copies its input once and rewrites that copy; it is
deterministic: at each step it takes the lowest-priority-value
rule that matches at all and that rule's anchor-lexicographically
smallest match.  The explorer instead takes every match of every rule
from every reachable state, deduplicating states up to isomorphism, and
so observes whether all maximal rewrites end in the same place; it keeps
every state, so each successor comes from `apply`, which rewrites a
copy.  Confluent rewrites often rebuild a stored state node id for node
id, so a successor is first looked up by its exact content; only one
that is not identical to a stored state is canonicalized, and a digest
hit on it is confirmed by the independent isomorphism test.

Both drivers advance by one `_step`: rewrite a match, assert that the
element count shrank (the measure that bounds both drivers), then
compact input positions back to 0..n-1 (see `normalize_positions`), so
no rule has to renumber anything itself.  Only a consumer whose inputs
changed can acquire a gap, so a step renumbers just those; the graph
records them, and a copy carries the record.  Only a graph whose record
is unknown (fresh or loaded) has every consumer checked.  A block with
a stale Phi input (`ProgramGraph.stale_phi_inputs`) keeps its gap until
the input is dropped, which records the block again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from .errors import StateLimitExceeded, StepLimitExceeded
from .graph import NodeId, ProgramGraph, contiguous
from .isomorphism import canonical_hash, is_isomorphic


@dataclass(frozen=True)
class Match:
    """One occurrence of a rule's pattern, identified by its anchor nodes."""

    rule_name: str
    anchors: tuple[NodeId, ...]


@dataclass(frozen=True)
class Rule:
    """A named pattern: `matcher` lists its matches, `applier` rewrites one in place.

    The applier re-checks its match, raising StaleMatchError, mutates
    the graph it is given through the graph's mutators, and returns it.
    """

    name: str
    priority: int
    matcher: Callable[[ProgramGraph], list[Match]]
    applier: Callable[[ProgramGraph, Match], ProgramGraph]


def matches(g: ProgramGraph, rule: Rule) -> list[Match]:
    """All matches of `rule` in `g`, anchor-lexicographic order."""
    return sorted(rule.matcher(g), key=lambda m: m.anchors)


def _step(g: ProgramGraph, rule: Rule, match: Match) -> None:
    """Rewrite one match in place, assert the termination measure, normalize."""
    before = g.element_count()
    rule.applier(g, match)
    assert g.element_count() < before, f"{rule.name} did not shrink the graph"
    _normalize_all(g)


def apply(g: ProgramGraph, rule: Rule, match: Match) -> ProgramGraph:
    """Take one `_step` on a copy of `g`.

    Raises StaleMatchError when the match does not occur in `g` (for
    example, a match computed before an earlier rewrite invalidated it).
    """
    h = g.copy()
    _step(h, rule, match)
    return h


def _renumber(g: ProgramGraph, target: NodeId) -> None:
    """Compact the input positions of one consumer to 0..n-1, in place."""
    if target in g.op_nodes:
        for index, (eid, _) in enumerate(g.data_inputs(target)):
            g.set_position(eid, index)
        return
    mapping: dict[int, int] = {}
    for index, (eid, _) in enumerate(g.control_preds(target)):
        mapping.setdefault(g.edge_nodes[eid].position, index)
        g.set_position(eid, index)
    for phi in g.members(target):
        if g.op_nodes[phi].name != "Phi":
            continue
        for eid, _ in g.data_inputs(phi):
            position = g.edge_nodes[eid].position
            if position in mapping:
                g.set_position(eid, mapping[position])


def normalize_positions(g: ProgramGraph, target: NodeId) -> ProgramGraph:
    """Compact the input positions of one consumer to 0..n-1 on a copy.

    For an operation node the dataflow input edges are renumbered in
    (position, edge id) order.  For a block the control entry edges are
    renumbered the same way, and the identical old-to-new position
    mapping is applied to the dataflow inputs of every Phi in the block,
    keeping Phi selection aligned with block entries.
    """
    h = g.copy()
    _renumber(h, target)
    return h


def _normalize_all(g: ProgramGraph) -> None:
    """Compact, in place, the positions of every consumer that may have gaps.

    Those are the consumers `g` recorded since its last normalization;
    on a graph whose record is unknown, every consumer.  A Phi is
    renumbered with its block, never alone.  A block with a stale Phi
    input is deferred: renumbering it now could collide that input with
    a live one.  Dropping the input is phi-adjust's rewrite, and it
    records the block again.

    Consumers are independent of each other here, so one pass leaves
    every consumer compact or deferred.
    """
    touched = g.take_touched()
    for n in sorted(touched if touched is not None else [*g.op_nodes, *g.block_nodes]):
        if n in g.op_nodes:
            if g.op_nodes[n].name == "Phi":
                continue
        elif n not in g.block_nodes:
            continue  # deleted since it was recorded
        if contiguous(g.input_positions(n)):
            continue
        if n in g.block_nodes and any(
            g.stale_phi_inputs(op) for op in g.members(n) if g.op_nodes[op].name == "Phi"
        ):
            continue
        _renumber(g, n)
    # Renumbering recorded only consumers it has just made compact.
    g.take_touched()


def format_trace(trace: tuple[Match, ...]) -> str:
    """One line per step: `step 1: rule-name @ [n8, n5]`."""
    out = []
    for index, m in enumerate(trace, 1):
        anchors = ", ".join(f"n{a}" for a in m.anchors)
        out.append(f"step {index}: {m.rule_name} @ [{anchors}]\n")
    return "".join(out)


@dataclass(frozen=True)
class FoldResult:
    graph: ProgramGraph
    trace: tuple[Match, ...]
    steps: int

    def format_trace(self) -> str:
        return format_trace(self.trace)


def fold(
    g: ProgramGraph, rules: tuple[Rule, ...], max_steps: int = 10_000
) -> FoldResult:
    """Rewrite deterministically until no rule matches.

    Works on one copy of `g`, rewritten in place; `g` is left as it
    was.  Raises StepLimitExceeded if a rule still matches after
    `max_steps` applications.
    """
    ordered = sorted(rules, key=lambda r: r.priority)
    current = g.copy()
    trace: list[Match] = []
    while True:
        chosen: tuple[Rule, Match] | None = None
        for rule in ordered:
            found = matches(current, rule)
            if found:
                chosen = (rule, found[0])
                break
        if chosen is None:
            return FoldResult(current, tuple(trace), len(trace))
        if len(trace) >= max_steps:
            raise StepLimitExceeded(f"no fixpoint within {max_steps} steps")
        rule, match = chosen
        _step(current, rule, match)
        trace.append(match)


def replay(g: ProgramGraph, rules: tuple[Rule, ...], trace: tuple[Match, ...]) -> ProgramGraph:
    """Re-apply a recorded trace step by step, on one copy of `g`.

    Raises StaleMatchError when a recorded match does not occur.
    """
    by_name = {r.name: r for r in rules}
    current = g.copy()
    for match in trace:
        _step(current, by_name[match.rule_name], match)
    return current


@dataclass(frozen=True)
class Lts:
    """Labelled transition system over rewrite states.

    States are keyed by canonical digest; transitions are
    (source digest, rule name, target digest) triples.  Final states
    have no outgoing transition.
    """

    states: dict[str, ProgramGraph]
    transitions: tuple[tuple[str, str, str], ...]
    initial: str
    final: frozenset[str]

    def final_states_isomorphic(self) -> bool:
        """Whether all maximal rewrites ended in the same graph."""
        finals = sorted(self.final)
        if not finals:
            return True
        first = self.states[finals[0]]
        return all(is_isomorphic(first, self.states[d]) for d in finals[1:])


def _content_key(g: ProgramGraph) -> int:
    """A hash of `g`'s four node maps: graphs of equal content hash equal."""
    return hash(
        (
            frozenset(g.op_nodes.items()),
            frozenset(g.block_nodes.items()),
            frozenset(g.edge_nodes.items()),
            frozenset(g.containment.items()),
        )
    )


def _same_content(a: ProgramGraph, b: ProgramGraph) -> bool:
    """Whether `a` and `b` have equal node maps, node id for node id."""
    return (
        a.op_nodes == b.op_nodes
        and a.block_nodes == b.block_nodes
        and a.edge_nodes == b.edge_nodes
        and a.containment == b.containment
    )


def explore(
    g: ProgramGraph, rules: tuple[Rule, ...], max_states: int = 10_000
) -> Lts:
    """Breadth-first closure of `g` under all matches of all rules.

    States are deduplicated by canonical digest.  A successor identical,
    node id for node id, to a stored state takes that state's digest
    without being canonicalized: the identity map is the isomorphism.
    Any other successor is canonicalized, and a digest it shares with a
    stored state is confirmed with the independent isomorphism test.
    Raises StateLimitExceeded when more than `max_states` distinct
    states turn up.
    """
    ordered = sorted(rules, key=lambda r: r.priority)
    initial = canonical_hash(g)
    states: dict[str, ProgramGraph] = {initial: g}
    # Content key -> digests of the stored states with that key.
    by_content: dict[int, list[str]] = {_content_key(g): [initial]}
    transitions: set[tuple[str, str, str]] = set()
    queue: deque[str] = deque([initial])
    while queue:
        digest = queue.popleft()
        state = states[digest]
        for rule in ordered:
            for match in matches(state, rule):
                successor = apply(state, rule, match)
                key = _content_key(successor)
                candidates = by_content.get(key, ())
                succ_digest = next(
                    (d for d in candidates if _same_content(successor, states[d])), None
                )
                if succ_digest is None:
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
                        # Stored states hold no index; expansion rebuilds it.
                        successor.drop_index()
                        states[succ_digest] = successor
                        by_content.setdefault(key, []).append(succ_digest)
                        queue.append(succ_digest)
                transitions.add((digest, rule.name, succ_digest))
        state.drop_index()
    outgoing = {src for src, _, _ in transitions}
    final = frozenset(d for d in states if d not in outgoing)
    return Lts(states, tuple(sorted(transitions)), initial, final)
