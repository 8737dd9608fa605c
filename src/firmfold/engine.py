"""Deterministic rewriting and exhaustive state-space exploration.

A rule pairs a matcher, which enumerates every match of its pattern in
a graph, with an applier that rewrites one match in place.  The engine
builds both from a rule's pattern and rewrite (`Rule.of`), so the rule
catalog states only those.  The fold driver copies its input once and
rewrites that copy; it is deterministic: at each step it takes the
lowest-priority-value rule that matches at all and that rule's
anchor-lexicographically smallest match.  The explorer instead takes
every match of every rule from every reachable state, deduplicating
states up to isomorphism, and so observes whether all maximal rewrites
end in the same place; it keeps every state, so each successor comes
from `apply`, which rewrites a copy; the copy shares its parent's
adjacency index copy-on-write, so it pays for what its step writes,
not for a new index.  A stored successor keeps that index while it
waits in the queue, so its expansion builds none, and drops it once
expanded (`ProgramGraph.shelve`): only the breadth-first frontier holds
indexes.  A built successor that is identical, node id for node id,
to the stored state that a refused inference named (see below and
`explore`) takes that state's digest; every other built successor is
canonicalized, once, and looked up by its packed canonical form
(`isomorphism.pack`), bytes equal exactly when the forms are, so the
lookup itself confirms a hit and no stored state is canonicalized
again.  A certificate has one row per node in canonical order, holding
its initial colour and the numbers of an Edge node's source and target
or of an operation's block, so two equal certificates define a
bijection that keeps every colour and every arc, which is an
isomorphism.  Only a new form takes a digest, the SHA-256 of its bytes,
and a digest that a stored state already has raises rather than merging
the two.  A fault in the canonical form can thus split one state in two
but never merge two that differ.  So isomorphic states are one state, and
`Lts.final_states_isomorphic` reads its verdict from the number of
final states; the tests check the canonical form against an
independent isomorphism search (`tests/helpers.py`).

Most successors are known before they are built.  If two matches m1
and m2 of a state S are parallel independent, S·m1·m2 and S·m2·m1 are
isomorphic: the Local Church–Rosser theorem (Ehrig & Kreowski 1976;
Ehrig, Ehrig, Prange & Taentzer 2006).  So a state first reached as
S·m1 takes its m2-successor from the m1-successor of S·m2, when that
is already known and an exact test of the two steps' write records
passes (`_independent`); only the other successors come from `apply`.
Each expanded state keeps a child map for this until the next
breadth-first level is expanded (see `explore`).

Neither driver matches every rule over the whole graph before each
step, as a graph-transformation tool does.  Both keep one match table
(`_Table`): for each node, the anchor tuples of every rule whose
`pattern` matches there.  It is built by asking the patterns at every
node of the start graph; after a step, `refresh` asks them again only
at the nodes where the step may have changed their answer, in the
manner of Rete (Forgy 1982) and of incremental graph queries (Bergmann
et al. 2008).  `fold` keeps one heap per rule on top of its table;
`explore` gives each state its parent's table, refreshed where the step
that made the state wrote.  The table rests on one read invariant: a
pattern asked at node `n` reads only
- `n` itself;
- `n`'s in-edges and out-edges, and their far endpoints, whose kinds
  never change;
- `n`'s block and that block's entries;
- for an Edge node `n`, its source's block;
- whether a start block exists, which no rule changes.
The graph records every node its mutators wrote (`take_written`), and
each `_step` restarts that record before it rewrites, so after a step
it holds just that step's writes: each node added or deleted, the
members of a deleted block, and each edge written together with its
endpoints.  So a step's answers can change only at (a) a recorded node
that still exists, (b) a member of a recorded block, whose entries
changed, and (c) an out-edge of a recorded operation that has no block
(it lost it).  Only those are re-asked (`_dirty`).  The record is not
a radius-2 walk: the start block holds every constant, and re-asking
all its members on every step would cost as much as matching from
scratch.  A rule without a pattern is
asked through its matcher before every step and in every state.

Both drivers advance by one `_step`: rewrite a match, assert that the
element count shrank (the measure that bounds both drivers, and so
`fold`'s default step budget), then compact input positions back to
0..n-1 (see `normalize_positions`), so no rule has to renumber
anything itself.  Only a consumer whose inputs changed can acquire a
gap, so a step renumbers just those; the graph records them, and a
copy carries the record.  Each driver also compacts the copy it starts
from (`_start`), so that gaps in a loaded graph hide no match; only
there, when the graph's record is unknown (fresh or loaded), is every
consumer checked.  A block whose renumbering could collide a stale Phi
input with a live one keeps its gap until the input is dropped (see
`normalize_positions`).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from .errors import StaleMatchError, StateLimitExceeded, StepLimitExceeded
from .graph import NodeId, NodeKind, ProgramGraph, contiguous
# Nothing here calls canonical_hash or is_isomorphic; they stay imported
# because perfbench/tracer.py wraps them by the names engine.canonical_hash
# and engine.is_isomorphic.
from .isomorphism import canonical_form, canonical_hash, is_isomorphic, pack, packed_digest


@dataclass(frozen=True)
class Match:
    """One occurrence of a rule's pattern, identified by its anchor nodes."""

    rule_name: str
    anchors: tuple[NodeId, ...]


#: The anchor tuples of a rule's matches at one node of its anchor kind.
Pattern = Callable[[ProgramGraph, NodeId], list[tuple[NodeId, ...]]]


@dataclass(frozen=True)
class Rule:
    """A named pattern: `matcher` lists its matches, `applier` rewrites one in place.

    The applier re-checks its match, raising StaleMatchError, mutates
    the graph it is given through the graph's mutators, and returns it.

    A rule may also name its `anchor`, the kind of node its matches
    start at, and its `pattern`: `pattern(g, n)` lists the anchor
    tuples of the matches at one node `n` of that kind, each starting
    with `n`, and reads no more than the module docstring allows.
    Both drivers then keep the rule's matches in their match table,
    asking the pattern again only where a step wrote, and never call
    `matcher`; without both, either driver asks `matcher` before every
    step and in every state.  `Rule.of` builds such a rule from its
    pattern and its rewrite alone.

    A rewrite reads no more than its pattern may read at the first
    anchor, the start block, a block anchor's members and the nodes it
    writes; `explore` infers transitions on that ground.
    """

    name: str
    priority: int
    matcher: Callable[[ProgramGraph], list[Match]]
    applier: Callable[[ProgramGraph, Match], ProgramGraph]
    anchor: NodeKind | None = None
    pattern: Pattern | None = None

    @classmethod
    def of(
        cls,
        name: str,
        priority: int,
        anchor: NodeKind,
        pattern: Pattern,
        rewrite: Callable[..., None],
    ) -> Rule:
        """The rule that rewrites, with `rewrite(g, *anchors)`, each match of `pattern`.

        Its matcher asks the pattern at every node of the anchor's kind,
        independently of the match table.  Its applier re-checks the one
        match it is given locally: the first anchor must still be a node
        of the anchor's kind, and the pattern at that node must still
        list the match; otherwise it raises StaleMatchError.  The applier
        then rewrites the graph it is given in place and returns it.
        """

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
        return cls(name, priority, matcher, applier, anchor, pattern)


def matches(g: ProgramGraph, rule: Rule) -> list[Match]:
    """All matches of `rule` in `g`, anchor-lexicographic order."""
    return sorted(rule.matcher(g), key=lambda m: m.anchors)


def _step(g: ProgramGraph, rule: Rule, match: Match) -> None:
    """Restart `g`'s write record, rewrite one match in place, assert the
    termination measure, normalize; the record then holds this step's writes."""
    g.take_written()
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


def normalize_positions(g: ProgramGraph, target: NodeId) -> None:
    """Compact the input positions of one consumer to 0..n-1, in place.

    `_normalize_all` calls it on every consumer with a gap; a caller
    that wants the graph kept copies it first.  For an operation node
    the dataflow input edges are renumbered in (position, edge id)
    order.  For a block the control entry edges are renumbered the
    same way, and the identical old-to-new position mapping is applied
    to the dataflow inputs of every Phi in the block, keeping Phi
    selection aligned with block entries; a stale Phi input
    (`ProgramGraph.stale_phi_inputs`) keeps its position.  A block with
    k entries waits, unchanged, while a stale Phi input sits below k:
    renumbering moves the entries, and the Phi inputs aligned with them,
    to 0..k-1, where the stale input could end up beside a live one and
    be selected.  Dropping the input is phi-adjust's rewrite, and it
    records the block again.
    """
    if target in g.op_nodes:
        for index, (eid, _) in enumerate(g.data_inputs(target)):
            g.set_position(eid, index)
        return
    entries = g.control_preds(target)
    phis = [op for op in g.members(target) if g.op_nodes[op].name == "Phi"]
    edges = g.edge_nodes
    if any(edges[eid].position < len(entries) for phi in phis for eid in g.stale_phi_inputs(phi)):
        return
    mapping: dict[int, int] = {}
    for index, (eid, _) in enumerate(entries):
        mapping.setdefault(edges[eid].position, index)
        g.set_position(eid, index)
    for phi in phis:
        for eid, _ in g.data_inputs(phi):
            position = edges[eid].position
            if position in mapping:
                g.set_position(eid, mapping[position])


def _normalize_all(g: ProgramGraph) -> None:
    """Compact, in place, the positions of every consumer that may have gaps,
    with `normalize_positions` on each one that has a gap.

    Those are the consumers `g` recorded since its last normalization;
    on a graph whose record is unknown, every consumer.  A Phi is
    renumbered with its block, never alone, and a block may wait (see
    `normalize_positions`).

    Consumers are independent of each other here, so one pass leaves
    every consumer compact or waiting.
    """
    touched = g.take_touched()
    for n in sorted(touched if touched is not None else [*g.op_nodes, *g.block_nodes]):
        if n in g.op_nodes:
            if g.op_nodes[n].name == "Phi":
                continue
        elif n not in g.block_nodes:
            continue  # deleted since it was recorded
        if not contiguous(g.input_positions(n)):
            normalize_positions(g, n)
    # Renumbering recorded only consumers it has just made compact.
    g.take_touched()


def _start(g: ProgramGraph) -> ProgramGraph:
    """The copy of `g` a driver starts from, with its positions compacted
    as every step leaves them; a loaded graph's gaps could otherwise hide
    matches from the rules, which read positions 0 and 1."""
    start = g.copy()
    _normalize_all(start)
    return start


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


def _dirty(g: ProgramGraph, written: set[NodeId]) -> set[NodeId]:
    """The nodes of `g` where a pattern's answer may differ from before the
    step that wrote `written` (see the module docstring).

    Those are the written nodes, the members of each written block,
    and the out-edges of each written operation that has no block.
    """
    dirty = set(written)
    for n in written:
        if n in g.block_nodes:
            dirty.update(g.members(n))
        elif n in g.op_nodes and n not in g.containment:
            dirty.update(eid for eid, _ in g.data_users(n))
            dirty.update(eid for eid, _ in g.control_succs(n))
    return dirty


#: The anchor tuples at one node, by the priority index of each rule that matches there.
_Here = dict[int, list[tuple[NodeId, ...]]]


@dataclass
class _Table:
    """Which rules match at which node of one graph: the match table of both drivers.

    `at` maps each node to the anchor tuples of every rule whose pattern
    matches there, keyed by the rule's index in priority order;
    `patterns` holds those indices and patterns by anchor kind.  A rule
    without an anchor and a pattern is not in the table, and the
    drivers ask its matcher instead.
    """

    patterns: dict[NodeKind, list[tuple[int, Pattern]]]
    at: dict[NodeId, _Here]

    @classmethod
    def build(cls, g: ProgramGraph, ordered: list[Rule]) -> _Table:
        """The table of `g`, from the patterns asked at every node."""
        patterns: dict[NodeKind, list[tuple[int, Pattern]]] = {}
        for index, rule in enumerate(ordered):
            if rule.anchor is not None and rule.pattern is not None:
                patterns.setdefault(rule.anchor, []).append((index, rule.pattern))
        table = cls(patterns, {})
        table.refresh(g, [*g.op_nodes, *g.block_nodes, *g.edge_nodes])
        return table

    def refresh(
        self, g: ProgramGraph, nodes: Iterable[NodeId]
    ) -> list[tuple[int, tuple[NodeId, ...]]]:
        """Re-ask the patterns of each node's kind at `nodes`; a deleted
        node is just dropped.  Returns the (index, anchor tuple) pairs
        that were not in the table before."""
        new: list[tuple[int, tuple[NodeId, ...]]] = []
        for n in nodes:
            old = self.at.pop(n, {})
            here: _Here = {}
            for index, pattern in self.patterns.get(g.kind_of(n), ()):
                if tuples := pattern(g, n):
                    here[index] = tuples
                    kept = old.get(index, ())
                    new += [(index, t) for t in tuples if t not in kept]
            if here:
                self.at[n] = here
        return new

    def inherit(self, g: ProgramGraph, written: set[NodeId]) -> _Table:
        """The table of `g`, which a step that wrote `written` made from this table's graph.

        The node map is copied shallowly: `refresh` replaces a node's
        entry and never changes one.
        """
        child = _Table(self.patterns, dict(self.at))
        child.refresh(g, _dirty(g, written))
        return child

    def listed(self) -> dict[int, list[tuple[NodeId, ...]]]:
        """Each tabled rule's anchor tuples, sorted, by priority index."""
        listed: dict[int, list[tuple[NodeId, ...]]] = {
            index: [] for kind in self.patterns.values() for index, _ in kind
        }
        for here in self.at.values():
            for index, tuples in here.items():
                listed[index] += tuples
        for tuples in listed.values():
            tuples.sort()
        return listed


def fold(
    g: ProgramGraph, rules: tuple[Rule, ...], max_steps: int | None = None
) -> FoldResult:
    """Rewrite deterministically until no rule matches.

    Works on one copy of `g` (`_start`), rewritten in place; `g` is
    left as it was.  Raises StepLimitExceeded if a rule still matches
    after `max_steps` applications.  By default the budget is `g`'s
    element count: every step removes an element, so rules that keep the
    measure never reach it, and under `python -O`, where `_step`'s
    assertion is stripped, it still stops a rule that breaks it.
    """
    if max_steps is None:
        max_steps = g.element_count()
    current = _start(g)
    ordered = sorted(rules, key=lambda r: r.priority)
    table = _Table.build(current, ordered)
    heaps = table.listed()  # a sorted list is a heap
    trace: list[Match] = []
    while True:
        for index, rule in enumerate(ordered):
            heap = heaps.get(index)
            if heap is None:
                listed = matches(current, rule)
                match = listed[0] if listed else None
            else:
                # A tuple no longer in the table is dropped when it reaches the top.
                while heap and heap[0] not in table.at.get(heap[0][0], {}).get(index, ()):
                    heapq.heappop(heap)
                match = Match(rule.name, heap[0]) if heap else None
            if match is not None:
                break
        else:
            return FoldResult(current, tuple(trace), len(trace))
        if len(trace) >= max_steps:
            raise StepLimitExceeded(f"no fixpoint within {max_steps} steps")
        _step(current, rule, match)
        for index, t in table.refresh(current, _dirty(current, current.take_written())):
            heapq.heappush(heaps[index], t)
        trace.append(match)


def replay(g: ProgramGraph, rules: tuple[Rule, ...], trace: tuple[Match, ...]) -> ProgramGraph:
    """Re-apply a recorded trace step by step, on one copy of `g` (`_start`).

    Raises StaleMatchError when a recorded match does not occur.
    """
    by_name = {r.name: r for r in rules}
    current = _start(g)
    for match in trace:
        if match.rule_name not in by_name:
            raise StaleMatchError(f"no rule named {match.rule_name}")
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
        """Whether all maximal rewrites ended in the same graph up to
        isomorphism: whether there is at most one final state.

        States are keyed by canonical digest, so two final states have
        distinct canonical forms and are not isomorphic.  A fault that
        split one final state in two would therefore show as a
        divergence, never hide one.
        """
        return len(self.final) <= 1


def _identical(a: ProgramGraph, b: ProgramGraph) -> bool:
    """Whether `a` and `b` are equal node id for node id, next free id included."""
    return (
        a._next_id == b._next_id
        and a.op_nodes == b.op_nodes
        and a.block_nodes == b.block_nodes
        and a.edge_nodes == b.edge_nodes
        and a.containment == b.containment
    )


#: A match's key in a child map: its rule's index in priority order and its anchors.
_Key = tuple[int, tuple[NodeId, ...]]


class _Step(NamedTuple):
    """What `explore` keeps of a step S·m whose stored state is S·m node for node.

    `written` is the set of nodes of S that the step wrote
    (`take_written`), each Phi among them with its block, built once so
    that `_independent` tests two records for overlap without copying
    either; `fresh_blocks` holds the blocks of the nodes it added, and
    `fresh` counts those nodes.
    """

    written: frozenset[NodeId]
    fresh_blocks: tuple[NodeId, ...]
    fresh: int


def _step_of(parent: ProgramGraph, child: ProgramGraph, written: set[NodeId]) -> _Step:
    """The `_Step` of the step that made `child` from `parent` and wrote `written`."""
    ops, containment = parent.op_nodes, parent.containment
    old: list[NodeId] = []
    fresh_blocks: list[NodeId] = []
    fresh = 0
    for n in written:
        kind = ops.get(n)
        if kind is not None:
            old.append(n)
            if kind.name == "Phi" and n in containment:
                old.append(containment[n])
        elif n in parent.block_nodes or n in parent.edge_nodes:
            old.append(n)
        else:
            fresh += 1
            block = child.containment.get(n)
            if block is not None:
                fresh_blocks.append(block)
                if child.op_nodes[n].name == "Phi":
                    old.append(block)
    return _Step(frozenset(old), tuple(fresh_blocks), fresh)


def _apart(g: ProgramGraph, anchors: tuple[NodeId, ...], other: _Step) -> bool:
    """Whether a step at `anchors` of `g` reads nothing that the step `other` wrote.

    It must not find in `other`'s record an anchor, an anchor's block, or
    an Edge node anchor's source, and no block anchor may have gained or
    lost a member.
    """
    written = other.written
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


def _independent(
    g: ProgramGraph,
    first: tuple[NodeId, ...],
    first_step: _Step,
    second: tuple[NodeId, ...],
    second_step: _Step,
) -> bool:
    """Whether two steps of `g`, at anchors `first` and `second`, are parallel
    independent: neither reads what the other wrote, and they wrote no node
    of `g` in common, which their `written` sets answer directly (see
    `explore`)."""
    return (
        _apart(g, second, first_step)
        and _apart(g, first, second_step)
        and first_step.written.isdisjoint(second_step.written)
    )


def explore(
    g: ProgramGraph, rules: tuple[Rule, ...], max_states: int = 10_000
) -> Lts:
    """Breadth-first closure of `g` under all matches of all rules.

    The initial state is a copy of `g` (`_start`); `g` is left as it was.
    States are deduplicated up to isomorphism and named by canonical
    digest.  A built successor that is identical (`_identical`), node id
    for node id and next free id, to the state V that a refused
    inference named (below) takes V's digest without being
    canonicalized, since the identity map is the isomorphism.  Any other
    successor is canonicalized once, and takes the digest of the stored
    state with the same packed form (`isomorphism.pack`); a new form's
    digest that a stored state already has raises RuntimeError.  No
    stored state is canonicalized again.
    Raises StateLimitExceeded when more than `max_states` distinct
    states turn up, the initial state included.

    Only the initial state is matched in full.  Each stored successor
    waits in the queue with its parent's match table, the nodes its step
    wrote (`take_written`) and the adjacency index that step left; on
    expansion its table is its parent's with the patterns re-asked
    around those nodes (`_Table.inherit`), which reads that index rather
    than building one.  Each successor's record holds just its own
    step's writes, since `_step` restarts it.  An expanded state is
    shelved (`shelve`), so the states returned keep no index and no
    records.  Each rule's matches are walked as the table's sorted anchor
    tuples (`_Table.listed`), and a `Match` is made only for a successor
    that `apply` builds; a rule without a pattern is asked through
    `matches`.

    Most successors are inferred rather than built.  A waiting state T
    also carries its first parent S and the key `(rule index, anchors)`
    of the match m1 with T = S·m1, and each expanded state keeps a child
    map from the key of each of its matches to the successor's digest.
    Beside the digest goes the step's `_Step` when the stored state is
    that successor node for node, next free id included: a new state, a
    built successor `_identical` to V (below) or to the stored state its
    form found, or an exact inference.  If T has a match m2 that S had,
    S's map holds S·m2 node for node as U, U is expanded and its map
    holds U's m1-successor V, and `_independent` holds for m1 and m2 in
    S, then T's m2-successor is V: no `apply` and no form.  When
    `_independent` refuses the pair, the successor is built and checked
    against V first.  The argument, which is the Local Church–Rosser
    theorem (Ehrig & Kreowski 1976; Ehrig, Ehrig, Prange & Taentzer
    2006) for these steps:

    1. A step changes the four node maps only at the nodes it records,
       and changes a node's in- or out-edges only when it records that
       node, since an Edge node is recorded with its endpoints whenever
       it is written.  So a node the step did not record keeps its
       label, its block and its incident Edge nodes.
    2. A step reads labels, which never change; the start block, which
       no rule adds or deletes; its anchors, their blocks and an Edge
       node anchor's source, as far as the read invariant lets a pattern
       read; a block anchor's members; and the nodes it writes (`Rule`).
    3. `_normalize_all` leaves a step's graph as renumbering every
       consumer with a gap would, since each consumer the step did not
       touch was compact or waiting and stays so; and it renumbers a
       consumer from that consumer's input positions alone: its
       in-edges, and a block's Phis and theirs.  A step that changes
       them records the consumer, or the Phi, which `_Step` counts
       together with its block.

    `_independent` asks that neither step wrote an anchor of the other,
    an anchor's block, an Edge node anchor's source or a block anchor's
    members, and that the two wrote no node of S in common.  By 1 and 2,
    m2 then reads in T what it read in S and makes the same changes, as
    m1 does in U.  The changes lie at disjoint nodes, so both orders
    reach S with both sets of changes, and by 3 they normalize alike:
    at most one step changed any consumer's positions.  The two results
    differ at most in the fresh ids each step took, so they are
    isomorphic, and equal node for node when one step took none.  V is
    isomorphic to U·m1, so the inferred transition is the one `apply`
    would have found.  T's map keeps m2's `_Step` with V when U's map
    kept one with V and one of the steps took no fresh id, since m2
    writes the same nodes in T as in S.  An inferred transition names a
    stored state, so discovery order, digests, stored graphs and
    `max_states` are as they would be without inference.  A state's map
    is dropped once the level after its own is expanded: by then no
    state that it is the first parent of waits.
    """
    if max_states < 1:
        raise StateLimitExceeded(f"state space exceeds {max_states} states")
    ordered = sorted(rules, key=lambda r: r.priority)
    g = _start(g)
    packed = pack(canonical_form(g))
    initial = packed_digest(packed)
    states: dict[str, ProgramGraph] = {initial: g}
    # Packed canonical form -> digest of the stored state with that form.
    by_form: dict[bytes, str] = {packed: initial}
    transitions: set[tuple[str, str, str]] = set()
    # The child maps that a later expansion may still read, by the digest
    # of the state expanded; `held` lists those states with their levels.
    children: dict[str, dict[_Key, tuple[str, _Step | None]]] = {}
    held: deque[tuple[int, str]] = deque()
    # Each waiting state's digest and level, its parent's match table, its
    # step's written nodes, and its first parent's digest with the key of
    # the step from it (`g` waits with its own table and neither).
    queue: deque[tuple[str, int, _Table, set[NodeId], tuple[str, _Key] | None]] = deque(
        [(initial, 0, _Table.build(g, ordered), set(), None)]
    )
    while queue:
        digest, level, parent, written, origin = queue.popleft()
        while held and held[0][0] < level - 1:
            del children[held.popleft()[1]]
        state = states[digest]
        table = parent.inherit(state, written)
        listed = table.listed()
        mine = children[digest] = {}
        held.append((level, digest))
        if origin is not None:
            # This state is S·m1: S and the key of m1.
            source = states[origin[0]]
            siblings = children[origin[0]]
            first = origin[1]
            first_step = siblings[first][1]
        for index, rule in enumerate(ordered):
            tuples = listed.get(index)
            if tuples is None:
                tuples = [match.anchors for match in matches(state, rule)]
            for anchors in tuples:
                key = (index, anchors)
                onward = None
                if origin is not None:
                    # S·m2, if stored node for node as U, and U's m1-successor.
                    across, second_step = siblings.get(key, (None, None))
                    onward = children.get(across, {}).get(first) if second_step else None
                    if onward is not None and _independent(
                        source, first[1], first_step, anchors, second_step
                    ):
                        succ_digest, onward_step = onward
                        exact = onward_step is not None and not (
                            first_step.fresh and second_step.fresh
                        )
                        mine[key] = (succ_digest, second_step if exact else None)
                        transitions.add((digest, rule.name, succ_digest))
                        continue
                successor = apply(state, rule, Match(rule.name, anchors))
                # The state that the refused inference named needs no form
                # when the successor is identical to it.
                succ_digest = onward[0] if onward is not None else None
                same = succ_digest is not None and _identical(successor, states[succ_digest])
                if not same:
                    packed = pack(canonical_form(successor))
                    succ_digest = by_form.get(packed)
                    if succ_digest is None:
                        succ_digest = packed_digest(packed)
                        if succ_digest in states:
                            raise RuntimeError(
                                "canonical digest collision between non-isomorphic states"
                            )
                        if len(states) >= max_states:
                            raise StateLimitExceeded(
                                f"state space exceeds {max_states} states"
                            )
                        states[succ_digest] = successor
                        by_form[packed] = succ_digest
                    same = states[succ_digest] is successor or _identical(
                        successor, states[succ_digest]
                    )
                step: _Step | None = None
                if same:
                    succ_written = successor.take_written()
                    step = _step_of(state, successor, succ_written)
                    if states[succ_digest] is successor:
                        queue.append(
                            (succ_digest, level + 1, table, succ_written, (digest, key))
                        )
                mine[key] = (succ_digest, step)
                transitions.add((digest, rule.name, succ_digest))
        state.shelve()
    outgoing = {src for src, _, _ in transitions}
    final = frozenset(d for d in states if d not in outgoing)
    return Lts(states, tuple(sorted(transitions)), initial, final)
