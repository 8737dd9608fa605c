"""Deterministic folding, normalization, and state-space exploration.

The expected trace for the built-in example was worked out by hand on
paper, step by step, before the engine existed: which rule has the
lowest priority among those that match, which match is anchor-smallest,
what each application deletes and creates, and which node ids the
sequential allocator hands out.  The test freezes that derivation.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from firmfold import engine, isomorphism, rules
from firmfold import (
    CATALOG,
    JMP,
    PHI,
    RELATIONS,
    RETURN,
    BlockKind,
    Const,
    EdgeKind,
    Match,
    NodeId,
    ProgramGraph,
    Rule,
    StaleMatchError,
    StateLimitExceeded,
    StepLimitExceeded,
    UnknownBlockError,
    apply,
    build_min_plus_one,
    canonical_hash,
    evaluate,
    explore,
    fold,
    format_trace,
    is_isomorphic,
    load,
    matches,
    normalize_positions,
    replay,
    save_native,
    verify,
)
from helpers import (
    _reference_normalize,
    diamond_chain,
    explore_differential_cases,
    gapped,
    index_builds,
    materialize,
    random_graph,
    random_program,
    reference_explore,
    reference_fold,
    reference_independent,
    relabel,
    scan,
    scan_inputs,
    search_isomorphic,
    witnesses,
)

EXPECTED_TRACE = (
    Match("cmp-fold-int", (8, 5, 6)),
    Match("cond-fold-true", (9, 28)),
    Match("cleanup-unref-const", (28,)),
    Match("block-remove", (2,)),
    Match("phi-adjust", (12, 23)),
    Match("cleanup-unref-const", (6,)),
    Match("phi-fold-single", (12, 5)),
    Match("add-fold-int", (13, 5, 7)),
    Match("cleanup-unref-const", (5,)),
    Match("cleanup-unref-const", (7,)),
)


def rule(name: str):
    return next(r for r in CATALOG if r.name == name)


def test_fold_follows_the_hand_derived_trace():
    result = fold(build_min_plus_one(3, 5, "lt"), CATALOG)
    assert result.trace == EXPECTED_TRACE
    assert result.steps == 10


def test_fold_fixpoint_contents():
    result = fold(build_min_plus_one(3, 5, "lt"), CATALOG)
    g = result.graph
    assert g.element_count() == 12
    assert {n: k.name for n, k in sorted(g.op_nodes.items())} == {
        10: "Jmp",
        14: "Return",
        29: "Jmp",
        30: "Const",
    }
    assert g.op_nodes[30].value == 4
    assert sorted(g.block_nodes) == [0, 1, 3, 4]
    assert sorted(g.edge_nodes) == [18, 20, 26, 27]
    assert verify(g) == []


def test_fixpoint_has_no_matches():
    result = fold(build_min_plus_one(3, 5, "lt"), CATALOG)
    for r in CATALOG:
        assert matches(result.graph, r) == []


def test_trace_formatting():
    result = fold(build_min_plus_one(3, 5, "lt"), CATALOG)
    lines = result.format_trace().splitlines()
    assert lines[0] == "step 1: cmp-fold-int @ [n8, n5, n6]"
    assert lines[3] == "step 4: block-remove @ [n2]"
    assert lines[9] == "step 10: cleanup-unref-const @ [n7]"
    assert format_trace(()) == ""


def test_replay_reproduces_the_fold():
    g = build_min_plus_one(3, 5, "lt")
    result = fold(g, CATALOG)
    replayed = replay(g, CATALOG, result.trace)
    assert replayed.op_nodes == result.graph.op_nodes
    assert replayed.block_nodes == result.graph.block_nodes
    assert sorted(replayed.edge_nodes) == sorted(result.graph.edge_nodes)
    assert canonical_hash(replayed) == canonical_hash(result.graph)


def test_replay_rejects_a_match_of_an_unknown_rule():
    g = build_min_plus_one(3, 5, "lt")
    with pytest.raises(StaleMatchError, match="no-such-rule"):
        replay(g, CATALOG, (Match("no-such-rule", (1,)),))


def test_step_limit():
    g = build_min_plus_one(3, 5, "lt")
    with pytest.raises(StepLimitExceeded):
        fold(g, CATALOG, max_steps=3)
    with pytest.raises(StepLimitExceeded):
        fold(g, CATALOG, max_steps=9)
    assert fold(g, CATALOG, max_steps=10).steps == 10
    # a graph already at its fixpoint tolerates a zero budget
    fixpoint = fold(g, CATALOG).graph
    assert fold(fixpoint, CATALOG, max_steps=0).steps == 0


def _differential_cases() -> list[ProgramGraph]:
    cases = [random_graph(random.Random(seed)) for seed in range(60)]
    rng = random.Random(5)
    for _ in range(16):
        n = rng.randint(1, 6)
        dead = frozenset(i for i in range(n) if rng.random() < 0.4)
        blockless = frozenset(i for i in range(n) if rng.random() < 0.3)
        cases.append(diamond_chain(rng, n, dead, blockless))
    return cases + [gapped(g) for g in cases[::3]]


def test_fold_and_replay_agree_with_the_reference_fold():
    for g in _differential_cases():
        before = save_native(g)
        result = fold(g, CATALOG)
        expected, expected_trace = reference_fold(g)
        assert save_native(result.graph) == save_native(expected)
        assert result.format_trace() == format_trace(expected_trace)
        assert save_native(replay(g, CATALOG, result.trace)) == save_native(result.graph)
        assert save_native(g) == before


def _without_patterns(catalog: tuple[Rule, ...]) -> tuple[Rule, ...]:
    """`catalog` rebuilt from matchers and appliers alone, as a wrapping tracer rebuilds it."""
    return tuple(Rule(r.name, r.priority, r.matcher, r.applier) for r in catalog)


def test_rules_without_a_pattern_fold_the_same():
    bare = _without_patterns(CATALOG)
    mixed = tuple(b if i % 2 else r for i, (r, b) in enumerate(zip(CATALOG, bare)))
    assert {r.pattern is None for r in mixed} == {True, False}
    for index, g in enumerate(_differential_cases()):
        expected = fold(g, CATALOG)
        for catalog in (bare, mixed):
            result = fold(g, catalog)
            assert save_native(result.graph) == save_native(expected.graph), index
            assert result.format_trace() == expected.format_trace(), index


def _drop_block(g: ProgramGraph, block: NodeId) -> None:
    """Delete an entryless block alone; its members lose their block."""
    g.delete_node(block)


# block-remove replaced by a rewrite that leaves blockless operations
# behind, whose out-edges the cleanup rules then delete.
_DROP_BLOCKS = tuple(
    Rule.of("block-drop", r.priority, BlockKind.BLOCK, rules._entryless, _drop_block)
    if r.name == "block-remove"
    else r
    for r in CATALOG
)


def _assert_table_lists_the_matches(table, g: ProgramGraph, ordered: list[Rule]) -> None:
    listed = table.listed()
    for index, rule in enumerate(ordered):
        assert listed[index] == [m.anchors for m in matches(g, rule)], rule.name


def test_incremental_match_sets_equal_the_matchers_after_every_step(monkeypatch):
    # Once built and after every step, `fold`'s match table lists
    # exactly the matchers' answers, and every step takes the first
    # match the matchers give in priority order.
    cases = [(g, CATALOG) for g in _differential_cases()]
    cases += [(build_min_plus_one(3, 5, relation), CATALOG) for relation in RELATIONS]
    cases += [(g, _DROP_BLOCKS) for g in _differential_cases()[60::2]]
    ordered: list[Rule] = []
    checked: Counter[str] = Counter()
    real_refresh, real_step = engine._Table.refresh, engine._step

    def refresh_checked(table, g, nodes):
        new = real_refresh(table, g, nodes)
        _assert_table_lists_the_matches(table, g, ordered)
        checked["tables"] += 1
        return new

    def step_checked(g, rule, match):
        assert (rule, match) == next((r, found[0]) for r in ordered if (found := matches(g, r)))
        checked["steps"] += 1
        real_step(g, rule, match)

    monkeypatch.setattr(engine._Table, "refresh", refresh_checked)
    monkeypatch.setattr(engine, "_step", step_checked)
    for index, (g, catalog) in enumerate(cases):
        ordered[:] = sorted(catalog, key=lambda r: r.priority)
        checked.clear()
        result = fold(g, catalog)
        assert all(matches(result.graph, r) == [] for r in catalog), index
        # one check when the table is built, and one after every step
        assert checked == Counter(tables=result.steps + 1, steps=result.steps), index


#: The one whole-graph read the read invariant allows.
_START_EXISTS = "a start block exists"


class _RecordedMap:
    """A node map that records each key looked up in it."""

    def __init__(self, entries: dict, reads: set) -> None:
        self._entries, self._reads = entries, reads

    def __getitem__(self, n):
        self._reads.add(n)
        return self._entries[n]

    def __contains__(self, n) -> bool:
        self._reads.add(n)
        return n in self._entries

    def get(self, n, default=None):
        self._reads.add(n)
        return self._entries.get(n, default)


class _ReadSpy:
    """A view of `g` for a pattern to read, which records the nodes it reads.

    A map lookup reads its key.  A neighbourhood query reads the node
    asked about and every node its answer names: Edge nodes, far
    endpoints, members, and the input edges whose positions it lists.
    A predicate reads the node asked about and the Edge nodes it looks
    at: `has_data_users` every out-edge, whose kind it reads, and
    `entry_count` every in-edge, which it counts.
    `start_block` reads only whether a start block exists.  The view
    offers no other read.
    """

    def __init__(self, g: ProgramGraph, incident: dict[NodeId, list]) -> None:
        self.g, self.incident, self.reads = g, incident, set()
        self.op_nodes = _RecordedMap(g.op_nodes, self.reads)
        self.block_nodes = _RecordedMap(g.block_nodes, self.reads)
        self.edge_nodes = _RecordedMap(g.edge_nodes, self.reads)
        self.containment = _RecordedMap(g.containment, self.reads)

    def __getattr__(self, name: str):
        assert name in ("data_inputs", "data_users", "control_preds", "control_succs", "members")

        def query(n: NodeId) -> list:
            self.reads.add(n)
            answer = getattr(self.g, name)(n)
            for item in answer:
                self.reads.update(item if isinstance(item, tuple) else (item,))
            return answer

        return query

    def input_positions(self, n: NodeId) -> list[int]:
        self.reads.add(n)
        self.reads.update(e.id for e in self.incident[n] if e.target == n)
        return self.g.input_positions(n)

    def has_data_users(self, n: NodeId) -> bool:
        self.reads.add(n)
        self.reads.update(e.id for e in self.incident[n] if e.source == n)
        return self.g.has_data_users(n)

    def entry_count(self, n: NodeId) -> int:
        self.reads.add(n)
        self.reads.update(e.id for e in self.incident[n] if e.target == n)
        return self.g.entry_count(n)

    def start_block(self) -> NodeId | None:
        self.reads.add(_START_EXISTS)
        return self.g.start_block()

    # Through this view's own reads.
    stale_phi_inputs = ProgramGraph.stale_phi_inputs


def _incident(g: ProgramGraph) -> dict[NodeId, list]:
    """Each node's Edge nodes, read from the edge map alone."""
    incident: dict[NodeId, list] = {n: [] for n in (*g.op_nodes, *g.block_nodes)}
    for e in g.edge_nodes.values():
        incident[e.source].append(e)
        incident[e.target].append(e)
    return incident


def _allowed_reads(g: ProgramGraph, incident: dict[NodeId, list], n: NodeId) -> set:
    """What the engine's read invariant lets a pattern asked at `n` read.

    Reading an Edge node reads the ids of its endpoints too, so each
    edge comes with its far endpoint: an entry of `n`'s block with the
    operation that sources it.
    """
    allowed = {n, _START_EXISTS}
    edge = g.edge_nodes.get(n)
    if edge is not None:
        allowed |= {edge.source, edge.target, g.containment.get(edge.source)}
    else:
        for e in incident[n]:
            allowed |= {e.id, e.source, e.target}
    block = g.containment.get(n)
    if block is not None:
        allowed.add(block)
        for e in incident[block]:
            if e.target == block:
                allowed |= {e.id, e.source}
    return allowed


def _assert_patterns_read_within_bounds(g: ProgramGraph, catalog: tuple[Rule, ...]) -> None:
    incident = _incident(g)
    for n in (*g.op_nodes, *g.block_nodes, *g.edge_nodes):
        kind = g.kind_of(n)
        for r in catalog:
            if r.anchor == kind:
                spy = _ReadSpy(g, incident)
                assert r.pattern(spy, n) == r.pattern(g, n), (r.name, n)
                stray = spy.reads - _allowed_reads(g, incident, n)
                assert not stray, (r.name, n, sorted(stray))


def test_patterns_read_only_what_the_read_invariant_allows():
    graphs = [*witnesses().values(), *_differential_cases()]
    graphs += [g for g, _ in explore_differential_cases()]
    graphs += explore(diamond_chain(random.Random(0), 2), CATALOG).states.values()
    for g in graphs:
        _assert_patterns_read_within_bounds(g, CATALOG)


def _cmp_fold_reading_its_operands_users(g: ProgramGraph, op: NodeId):
    """cmp-fold-int's pattern, reading one hop further: its operands' users."""
    for _, source in g.data_inputs(op):
        g.data_users(source)
    return rule("cmp-fold-int").pattern(g, op)


def test_the_read_check_catches_a_pattern_that_reads_one_hop_further():
    far = replace(rule("cmp-fold-int"), pattern=_cmp_fold_reading_its_operands_users)
    with pytest.raises(AssertionError, match="cmp-fold-int"):
        _assert_patterns_read_within_bounds(build_min_plus_one(3, 5, "lt"), (far,))


def test_a_step_records_only_its_own_writes():
    # A write recorded before the step, here a no-op renumbering of the
    # Return's control edge, is not in the successor's record.
    g = build_min_plus_one(3, 5, "lt")
    match = matches(g, rule("cmp-fold-int"))[0]
    clean, dirty = g.copy(), g.copy()
    clean.take_written()
    dirty.take_written()
    dirty.set_position(27, dirty.edge_nodes[27].position)
    expected = apply(clean, rule("cmp-fold-int"), match).take_written()
    assert 27 not in expected
    assert apply(dirty, rule("cmp-fold-int"), match).take_written() == expected


def test_ten_thousand_element_chain_folds():
    g = diamond_chain(random.Random(0), 430)
    assert g.element_count() == 9896
    began = time.perf_counter()
    result = fold(g, CATALOG)
    assert time.perf_counter() - began < 5.0
    assert evaluate(result.graph) == evaluate(g)
    assert verify(result.graph) == []
    for r in CATALOG:
        assert matches(result.graph, r) == []


def test_fold_time_does_not_depend_on_where_the_start_block_sits():
    # Reversing the ids makes the start block the last block of the
    # chain.  The binary folds ask for it on every match and every
    # rewrite, so a scan for it that stops at the first start block
    # makes this fold quadratic: 3-6x the time of the chain as built.
    built = diamond_chain(random.Random(0), 2048)
    reversed_ids = relabel(built)
    assert max(reversed_ids.block_nodes) in reversed_ids.blocks_of_kind(BlockKind.START_BLOCK)

    def timed(g: ProgramGraph):
        seconds = []
        for _ in range(2):
            began = time.perf_counter()
            result = fold(g, CATALOG)
            seconds.append(time.perf_counter() - began)
        return result, min(seconds)

    (as_built, built_s), (start_last, start_last_s) = timed(built), timed(reversed_ids)
    assert start_last.steps == as_built.steps == 22528
    assert is_isomorphic(start_last.graph, as_built.graph)
    assert start_last_s < 2.0 * built_s, (start_last_s, built_s)


def test_default_budgets_reach_past_ten_thousand():
    g = diamond_chain(random.Random(0), 2048)
    # 24,580 units of fuel and 22,528 steps, both past 10,000
    assert len(g.op_nodes) + len(g.block_nodes) == 24580
    result = fold(g, CATALOG)
    assert result.steps == 22528
    assert evaluate(g) == evaluate(result.graph)


_STALL = """
from firmfold import Match, Rule, StepLimitExceeded, build_min_plus_one, fold
stall = Rule("stall", 0, lambda g: [Match("stall", (min(g.op_nodes),))], lambda g, m: g)
try:
    fold(build_min_plus_one(3, 5, "lt"), (stall,))
except StepLimitExceeded as exc:
    print(exc)
"""


def test_default_step_budget_stops_a_rule_that_keeps_the_size():
    stall = Rule("stall", 0, lambda g: [Match("stall", (min(g.op_nodes),))], lambda g, m: g)
    with pytest.raises(AssertionError, match="stall did not shrink the graph"):
        fold(build_min_plus_one(3, 5, "lt"), (stall,))
    # Under -O the assertion is gone; the budget, 28 elements, remains.
    env = {**os.environ, "PYTHONPATH": str(Path(engine.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-O", "-c", _STALL],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert run.stdout == "no fixpoint within 28 steps\n"


def test_fold_and_replay_copy_their_input_once(monkeypatch):
    copies: list[ProgramGraph] = []
    original = ProgramGraph.copy

    def counting_copy(self: ProgramGraph) -> ProgramGraph:
        copies.append(self)
        return original(self)

    monkeypatch.setattr(ProgramGraph, "copy", counting_copy)
    g = diamond_chain(random.Random(8), 8, dead=frozenset({2, 5}))
    result = fold(g, CATALOG)
    assert result.steps > 80
    assert copies == [g]
    replay(g, CATALOG, result.trace)
    assert copies == [g, g]


def test_stale_match_is_rejected():
    g = build_min_plus_one(3, 5, "lt")
    cmp_rule = rule("cmp-fold-int")
    stale = Match("cmp-fold-int", (8, 5, 7))  # wrong operand anchor
    with pytest.raises(StaleMatchError):
        apply(g, cmp_rule, stale)
    good = matches(g, cmp_rule)[0]
    after = apply(g, cmp_rule, good)
    with pytest.raises(StaleMatchError):
        apply(after, cmp_rule, good)


def test_apply_leaves_input_untouched():
    g = build_min_plus_one(3, 5, "lt")
    before = canonical_hash(g)
    apply(g, rule("cmp-fold-int"), matches(g, rule("cmp-fold-int"))[0])
    assert canonical_hash(g) == before


def test_single_add_fold_match_after_driving_everything_else():
    # drive the example to quiescence with add-fold-int withheld: the
    # surviving graph offers exactly one match, the Add of two constants
    reduced = tuple(r for r in CATALOG if r.name != "add-fold-int")
    g = build_min_plus_one(3, 5, "lt")
    rest = fold(g, reduced).graph
    found = matches(rest, rule("add-fold-int"))
    assert len(found) == 1
    assert found[0].rule_name == "add-fold-int"
    op, a, b = found[0].anchors
    assert rest.op_nodes[op].name == "Add"
    assert {rest.op_nodes[a].value, rest.op_nodes[b].value} == {3, 1}


def test_normalize_positions_op_variant():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    a = g.add_op(Const(1), start)
    b = g.add_op(Const(2), start)
    phi_block = g.add_block(BlockKind.BLOCK)
    phi = g.add_op(PHI, phi_block)
    g.connect(a, phi, EdgeKind.DATAFLOW, 2)
    g.connect(b, phi, EdgeKind.DATAFLOW, 5)
    h = g.copy()
    normalize_positions(h, phi)
    assert [h.edge_nodes[eid].position for eid, _ in h.data_inputs(phi)] == [0, 1]
    assert [src for _, src in h.data_inputs(phi)] == [a, b]
    # the original is untouched
    assert [g.edge_nodes[eid].position for eid, _ in g.data_inputs(phi)] == [2, 5]


def test_normalize_positions_block_variant_carries_phis_along():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    a = g.add_op(Const(1), start)
    b = g.add_op(Const(2), start)
    merge = g.add_block(BlockKind.BLOCK)
    j1 = g.add_op(JMP, start)
    phi = g.add_op(PHI, merge)
    g.connect(j1, merge, EdgeKind.CONTROLFLOW, 3)
    g.connect(a, phi, EdgeKind.DATAFLOW, 3)
    g.connect(b, phi, EdgeKind.DATAFLOW, 7)
    h = g.copy()
    normalize_positions(h, merge)
    entry_positions = [h.edge_nodes[eid].position for eid, _ in h.control_preds(merge)]
    assert entry_positions == [0]
    phi_positions = [h.edge_nodes[eid].position for eid, _ in h.data_inputs(phi)]
    # the entry at 3 moved to 0 and took the matching phi input along;
    # the input at 7 has no entry and stays put for phi-adjust
    assert phi_positions == [0, 7]


def test_normalize_positions_defers_a_block_whose_stale_phi_input_could_collide():
    g = build_min_plus_one(3, 5, "lt")
    (phi,) = [op for op, kind in g.op_nodes.items() if kind == PHI]
    merge = g.containment[phi]
    g.delete_node(g.control_preds(merge)[0][0])  # the entry at position 0
    stale = g.stale_phi_inputs(phi)
    assert len(stale) == 1
    # renumbering would move the entry at 1, and the live input, onto the stale input's 0
    h = g.copy()
    normalize_positions(h, merge)
    assert save_native(h) == save_native(g)
    assert h.stale_phi_inputs(phi) == stale


def test_fold_and_explore_renumber_through_normalize_positions(monkeypatch):
    g = gapped(diamond_chain(random.Random(0), 2))
    folded = save_native(fold(g, CATALOG).graph)
    calls: Counter[str] = Counter()
    _spy(monkeypatch, calls, "normalize_positions", engine)
    assert save_native(fold(g, CATALOG).graph) == folded
    # `_start`, in `fold` and in `explore`, renumbers the 14 consumers with
    # an input, all gapped; no step on this chain leaves a gap.
    assert calls["normalize_positions"] == 14
    calls.clear()
    lts = explore(g, CATALOG)
    assert (len(lts.states), len(lts.transitions), len(lts.final)) == (1467, 6604, 1)
    assert calls["normalize_positions"] == 14


def test_normalize_positions_rejects_a_target_that_is_no_consumer():
    g = build_min_plus_one(3, 5, "lt")
    for target in (max(g.edge_nodes), g.element_count() + 1):
        with pytest.raises(UnknownBlockError):
            normalize_positions(g, target)


def test_explore_is_deterministic():
    g = build_min_plus_one(3, 5, "lt")
    runs = [explore(g, CATALOG) for _ in range(3)]
    first = runs[0]
    for lts in runs[1:]:
        assert sorted(lts.states) == sorted(first.states)
        assert lts.transitions == first.transitions
        assert lts.initial == first.initial
        assert lts.final == first.final


#: The initial digest and the SHA-256 of the digests in discovery order
#: (`"\n".join(lts.states)`), of the example under each relation and of
#: the 2-diamond chain.  A change to the canonical form or its digest
#: changes them, and must say so in CHANGES.md.
PINNED_DIGESTS = {
    "lt": (
        "e8e7d92ca9dbdd07e939ec787f1653fd6265c88972d3f86501b4e787449c5164",
        "e014e85d6b2f7a4986cff3e7f0877ec92eb0870a9795437e080d51209517135d",
    ),
    "le": (
        "876d0093499e28ed2864ffcc5e04e0e32e32c8692aef968b3590d431fcb01d2a",
        "95710e45f74113e1a26a89ea65703c0a8775ab96d943e16be0666a6ad9ab18f2",
    ),
    "gt": (
        "50c32fb5ceaa57c4c36dd9505e55dfaaa22467b474ead4c4a852115d507a3920",
        "82a287e2383405f842eecfe93998ef2525632420315314ee355fe46be1df7996",
    ),
    "ge": (
        "6621339387b147d4ae145a520166aae75941da1af5bff302781e78f7bda21199",
        "ff14130c2a0c677ffe0215b09aadebb40fc3f1ef43bd2e841ce6c009c4f42130",
    ),
    "eq": (
        "55df2cb9ec930de094f931b1c81fecb07e2184213699de3dcfb373aad8db5fc6",
        "9d16c3e8c3319d4cb2dad08c7e1692eaabfde8b5b808225dc9b43b99d797af4d",
    ),
    "ne": (
        "9465d4caacf97eef41f5d166a3e1bb5349531adbf7719d39b2027055d0237ffa",
        "29bd92c0d87db681f3b33655be9ecea764616bd99b7dac2d3d72218d2fe270bf",
    ),
    "chain": (
        "4b6579a777511c8b6abef0d2ce93ec3050bdb9c00daea67f042de584e6984f95",
        "ae17ae70207fb1b42b95941ec4f70917c1ba3978815420b749ccc2e2ee37de5c",
    ),
}


def test_explore_digests_are_pinned():
    graphs = {relation: build_min_plus_one(3, 5, relation) for relation in RELATIONS}
    graphs["chain"] = diamond_chain(random.Random(0), 2)
    assert set(graphs) == set(PINNED_DIGESTS)
    for name, g in graphs.items():
        lts = explore(g, CATALOG)
        listed = hashlib.sha256("\n".join(lts.states).encode()).hexdigest()
        assert (lts.initial, listed) == PINNED_DIGESTS[name], name


def test_explore_confluence_on_the_example():
    lts = explore(build_min_plus_one(3, 5, "lt"), CATALOG)
    assert len(lts.final) == 1
    assert lts.final_states_isomorphic()
    (final_digest,) = lts.final
    final = lts.states[final_digest]
    assert is_isomorphic(final, fold(build_min_plus_one(3, 5, "lt"), CATALOG).graph)


def test_every_transition_shrinks_the_graph():
    lts = explore(build_min_plus_one(3, 5, "lt"), CATALOG)
    assert len(lts.transitions) > 0
    for src, _, dst in lts.transitions:
        assert lts.states[src].element_count() > lts.states[dst].element_count()


def test_fold_trace_is_a_path_in_the_lts():
    g = build_min_plus_one(3, 5, "lt")
    lts = explore(g, CATALOG)
    result = fold(g, CATALOG)
    here = canonical_hash(g)
    assert here == lts.initial
    for index, match in enumerate(result.trace, 1):
        prefix_graph = replay(g, CATALOG, result.trace[:index])
        there = canonical_hash(prefix_graph)
        assert (here, match.rule_name, there) in lts.transitions
        here = there
    assert here in lts.final


def test_state_limit():
    g = build_min_plus_one(3, 5, "lt")
    with pytest.raises(StateLimitExceeded):
        explore(g, CATALOG, max_states=1)
    with pytest.raises(StateLimitExceeded):
        explore(g, CATALOG, max_states=10)


def test_state_limit_counts_the_initial_state():
    fixpoint = fold(build_min_plus_one(3, 5, "lt"), CATALOG).graph
    with pytest.raises(StateLimitExceeded, match="exceeds 0 states"):
        explore(fixpoint, CATALOG, max_states=0)


def test_explore_of_a_fixpoint_is_a_single_state():
    fixpoint = fold(build_min_plus_one(3, 5, "lt"), CATALOG).graph
    lts = explore(fixpoint, CATALOG, max_states=1)
    assert len(lts.states) == 1
    assert lts.transitions == ()
    assert lts.final == {lts.initial}


def test_random_programs_fold_clean_and_confluent():
    for seed in range(6):
        rng = random.Random(seed)
        g = materialize(random_program(rng), rng)
        result = fold(g, CATALOG)
        assert verify(result.graph) == [], seed
        lts = explore(g, CATALOG, max_states=5000)
        assert lts.final_states_isomorphic(), seed
        assert canonical_hash(result.graph) in lts.final, seed


def test_an_unread_add_ends_deleted_in_every_rewrite_order():
    # phi-adjust can drop the only user of an Add of constants before
    # add-fold-int folds it; the Add must fold away all the same
    for seed in (9, 28, 37):
        rng = random.Random(seed)
        g = materialize(random_program(rng), rng)
        lts = explore(g, CATALOG, max_states=3000)
        assert len(lts.final) == 1, seed
        assert canonical_hash(fold(g, CATALOG).graph) in lts.final, seed


def _requiring_a_user(rule: Rule) -> Rule:
    """`rule` matching only where its anchor's result is read, as the
    binary folds once did; the applier's re-check, which asks the
    original pattern, still accepts these matches, a subset of its own."""

    def pattern(g: ProgramGraph, n: NodeId) -> list[tuple[NodeId, ...]]:
        return rule.pattern(g, n) if g.data_users(n) else []

    return replace(rule, pattern=pattern)


def test_divergence_verdicts_flag_exactly_the_user_requiring_catalogs_faults():
    # With binary folds that require a user, an Add or Cmp of constants
    # whose user a rewrite deletes first stays unfolded in some rewrite
    # orders: the final states of these inputs are not all isomorphic.
    requiring = tuple(
        _requiring_a_user(r) if r.name in ("add-fold-int", "cmp-fold-int") else r
        for r in CATALOG
    )
    flagged, inputs = [], 0
    for name, lts in scan(requiring, [*range(10), 28, 29]):
        verdict = lts.final_states_isomorphic()
        first, *rest = (lts.states[d] for d in sorted(lts.final))
        assert verdict == all(search_isomorphic(first, h) for h in rest), name
        if not verdict:
            flagged.append(name)
        inputs += 1
    assert inputs == 36
    assert flagged == [f"{kind} {seed}" for seed in (9, 28, 29) for kind in ("random", "gapped")]


def test_the_shipped_catalog_ends_every_scan_input_in_one_final_state():
    # The 40 seeds include 9, 28, 29, 36, 37 and 38, whose inputs
    # diverged while the binary folds still required a user.
    explored, over_cap, divergent = 0, [], []
    for name, lts in scan(CATALOG, range(40)):
        if lts is None:
            over_cap.append(name)
            continue
        explored += 1
        if not lts.final_states_isomorphic():
            divergent.append(name)
    assert (explored, len(over_cap), len(divergent)) == (120, 0, 0), (over_cap, divergent)


def test_drivers_start_from_a_normalized_copy_of_their_input():
    # gaps in a loaded graph would otherwise hide the rules' matches,
    # which read positions 0 and 1
    for seed in range(60):
        g = random_graph(random.Random(seed))
        wide = gapped(g)
        before = save_native(wide)
        result = fold(wide, CATALOG)
        assert result.steps == fold(g, CATALOG).steps, seed
        assert verify(result.graph) == [], seed
        assert save_native(replay(wide, CATALOG, result.trace)) == save_native(result.graph)
        if seed < 6:
            lts = explore(wide, CATALOG, max_states=5000)
            assert lts.initial == canonical_hash(g), seed
            assert lts.states[lts.initial] is not wide, seed
        # the caller's graph is left as it was, its write record unknown
        assert save_native(wide) == before, seed
        assert wide.take_written() is None, seed


def _maps(g: ProgramGraph) -> tuple:
    return g.op_nodes, g.block_nodes, g.edge_nodes, g.containment


def assert_same_lts(lts, expected, case) -> None:
    """Equal digests in equal order, equal graphs node id for node id, equal transitions."""
    assert list(lts.states) == list(expected.states), case
    for digest, g in lts.states.items():
        assert _maps(g) == _maps(expected.states[digest]), case
    assert lts.transitions == expected.transitions, case
    assert (lts.initial, lts.final) == (expected.initial, expected.final), case


def test_explore_agrees_with_the_reference_explore():
    for index, (g, rules) in enumerate(explore_differential_cases()):
        assert_same_lts(explore(g, rules), reference_explore(g, rules), index)


def _spy(monkeypatch, calls: Counter[str], name: str, *modules) -> None:
    """Count in `calls[name]` every call of `name` through any of `modules`."""
    for module in modules:
        real = getattr(module, name)

        def counted(*args, _real=real):
            calls[name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)


def test_explore_canonicalizes_each_distinct_state_once(monkeypatch):
    calls: Counter[str] = Counter()
    # `canonical_hash` digests through `isomorphism.packed_digest`, and
    # `is_isomorphic` computes through `isomorphism.canonical_form`
    _spy(monkeypatch, calls, "packed_digest", engine, isomorphism)
    _spy(monkeypatch, calls, "canonical_form", engine, isomorphism)
    lts = explore(build_min_plus_one(3, 5, "lt"), CATALOG)
    assert (len(lts.states), len(lts.transitions)) == (26, 44)
    # 1 initial + 25 new states: a form hit takes the stored digest
    assert calls["packed_digest"] == 26
    # and the 4 successors whose form hits compute only their own form;
    # an isomorphism test of two graphs would compute both forms
    assert calls["canonical_form"] == 30


def test_explore_computes_each_successor_form_once(monkeypatch):
    calls: Counter[str] = Counter()
    # `canonical_hash` computes through `isomorphism.canonical_form`
    _spy(monkeypatch, calls, "canonical_form", engine, isomorphism)
    _spy(monkeypatch, calls, "apply", engine)
    lts = explore(diamond_chain(random.Random(0), 2), CATALOG)
    assert (len(lts.states), len(lts.transitions)) == (1467, 6604)
    # 1 initial + 1,914 canonicalized successors
    assert calls["canonical_form"] == 1915
    # Only those are built: every other successor of the 7,052 is
    # inferred from the commuting step of a sibling (see `explore`).
    assert calls["apply"] == 1914


def test_explore_makes_a_match_only_for_each_successor_it_builds(monkeypatch):
    # The loop walks the match table's anchor tuples; a `Match` is made
    # only to hand one to `apply`, not for each of the tuples listed.
    calls: Counter[str] = Counter()
    _spy(monkeypatch, calls, "Match", engine)
    _spy(monkeypatch, calls, "apply", engine)
    _spy(monkeypatch, calls, "canonical_form", engine, isomorphism)
    lts = explore(build_min_plus_one(3, 5, "lt"), CATALOG)
    assert (len(lts.states), len(lts.transitions), len(lts.final)) == (26, 44, 1)
    assert calls["canonical_form"] == 30
    assert calls["Match"] == calls["apply"] == 29
    calls.clear()
    lts = explore(diamond_chain(random.Random(0), 2), CATALOG)
    assert (len(lts.states), len(lts.transitions), len(lts.final)) == (1467, 6604, 1)
    assert calls["Match"] == calls["apply"] == 1914


def test_explore_merges_the_three_diamond_chain_to_one_final_state():
    lts = explore(diamond_chain(random.Random(0), 3), CATALOG, max_states=60_000)
    assert (len(lts.states), len(lts.transitions), len(lts.final)) == (24123, 150540, 1)


def test_explore_never_canonicalizes_a_stored_state(monkeypatch):
    canonicalized: list[ProgramGraph] = []
    real = engine.canonical_form

    def spying(g):
        canonicalized.append(g)
        return real(g)

    monkeypatch.setattr(engine, "canonical_form", spying)
    for index, (g, rules) in enumerate(explore_differential_cases()):
        canonicalized.clear()
        lts = explore(g, rules)
        # each stored state once, before it was stored; every other
        # graph canonicalized is a successor that was dropped
        calls = Counter(map(id, canonicalized))
        assert all(calls[id(state)] == 1 for state in lts.states.values()), index
        assert max(calls.values()) == 1, index


def test_explore_without_identity_hits_gives_the_same_lts(monkeypatch):
    cases = [
        (build_min_plus_one(3, 5, "lt"), 26),
        (build_min_plus_one(3, 5, "gt"), 30),
        (diamond_chain(random.Random(3), 1, dead=frozenset({0})), 164),
    ]
    expected = [explore(g, CATALOG) for g, _ in cases]
    # No built successor is identical to a stored state: each one takes
    # the canonical path, and only a new state keeps its step.
    monkeypatch.setattr(engine, "_identical", lambda a, b: False)
    for index, ((g, states), want) in enumerate(zip(cases, expected)):
        lts = explore(g, CATALOG)
        assert len(lts.states) == states, index
        assert_same_lts(lts, want, index)
        assert (lts.initial, lts.final) == (want.initial, want.final), index


def test_explore_checks_identity_only_against_the_state_it_names(monkeypatch):
    calls: Counter[str] = Counter()
    _spy(monkeypatch, calls, "canonical_form", engine, isomorphism)
    _spy(monkeypatch, calls, "apply", engine)
    for g, rules in explore_differential_cases():
        explore(g, rules)
    # A built successor skips its form only when it is identical to the
    # state that a refused inference named; every other one takes a form,
    # also when it is identical to the stored state that the form finds.
    assert (calls["canonical_form"], calls["apply"]) == (1258, 1410)
    calls.clear()
    lts = explore(diamond_chain(random.Random(3), 2, dead=frozenset({0})), CATALOG)
    assert (len(lts.states), len(lts.transitions), len(lts.final)) == (3108, 15565, 1)
    assert (calls["canonical_form"], calls["apply"]) == (3884, 3895)


def test_identity_ignores_object_identity_but_not_the_next_id():
    # Separately built graphs hold separately created but equal labels
    # (`Const(3)`, `Const(5)`, ...), and setting every Edge node to its
    # old position replaces it with a new, equal object.
    g, h = build_min_plus_one(3, 5, "lt"), build_min_plus_one(3, 5, "lt")
    for eid in sorted(h.edge_nodes):
        h.set_position(eid, h.edge_nodes[eid].position)
    consts = [n for n, kind in g.op_nodes.items() if kind.name == "Const"]
    assert consts and all(g.op_nodes[n] is not h.op_nodes[n] for n in consts)
    assert all(g.edge_nodes[eid] is not h.edge_nodes[eid] for eid in g.edge_nodes)
    assert engine._identical(g, h) and engine._identical(h, g)
    # A node added and deleted again leaves equal maps, but the next
    # node either graph adds would take a different id.
    h.delete_node(h.add_block(BlockKind.BLOCK))
    assert _maps(g) == _maps(h)
    assert not engine._identical(g, h) and not engine._identical(h, g)


def test_explore_still_confirms_digest_hits(monkeypatch):
    # States are looked up by their packed forms, so a digest shared by
    # two unequal forms raises rather than merging the two states.
    monkeypatch.setattr(engine, "packed_digest", lambda packed: "same digest for every form")
    with pytest.raises(RuntimeError, match="digest collision"):
        explore(build_min_plus_one(3, 5, "lt"), CATALOG)
    # A fixpoint has one form, and so takes no second digest.
    fixpoint = fold(build_min_plus_one(3, 5, "lt"), CATALOG).graph
    assert explore(fixpoint, CATALOG).initial == "same digest for every form"


def test_explore_stores_only_normalized_successors():
    cases = explore_differential_cases()[:4]
    cases += [(gapped(g), rules) for g, rules in cases]
    for index, (g, rules) in enumerate(cases):
        lts = explore(g, rules)
        for state in lts.states.values():
            assert save_native(_reference_normalize(state)) == save_native(state), index


def test_explore_keeps_a_waiting_states_index_until_it_is_expanded(monkeypatch):
    # A state waits with the index its step left, so its expansion, which
    # re-asks the patterns and copies the state for each successor,
    # builds none.  No stored state is canonicalized again, so none is
    # indexed again once it is shelved: only the initial state may build one.
    built = index_builds(monkeypatch)
    expanded: list[bool] = []
    real = engine._Table.inherit

    def spying(table, g, written):
        expanded.append(g._adj is not None)
        return real(table, g, written)

    monkeypatch.setattr(engine._Table, "inherit", spying)
    for index, (g, rules) in enumerate(explore_differential_cases()[:4]):
        built.clear()
        expanded.clear()
        lts = explore(g, rules)
        assert len(expanded) == len(lts.states) and all(expanded), index
        assert all(h is lts.states[lts.initial] for h in built), index
        assert all(s._adj is None for s in lts.states.values()), index


def test_explore_leaves_no_record_on_its_states():
    # An expanded state is shelved: its records are unknown, as a loaded
    # graph's are, so folding it checks every consumer's positions.
    for index, (g, rules) in enumerate(explore_differential_cases()[:4]):
        for state in explore(g, rules).states.values():
            folded = save_native(fold(state, CATALOG).graph)
            assert folded == save_native(fold(load(save_native(state)), CATALOG).graph), index
            assert state.take_touched() is None and state.take_written() is None, index


def test_explore_inherits_the_matchers_answers(monkeypatch):
    # The initial state's match table, and the table every expanded
    # state inherits from its parent, equal the matchers' answers.
    checked: Counter[str] = Counter()
    ordered: list[Rule] = []
    real_build, real_inherit = engine._Table.build, engine._Table.inherit

    def built(cls, g, by_priority):
        table = real_build(g, by_priority)
        _assert_table_lists_the_matches(table, g, by_priority)
        checked["initial"] += 1
        return table

    def inherited(table, g, written):
        child = real_inherit(table, g, written)
        _assert_table_lists_the_matches(child, g, ordered)
        checked["inherited"] += 1
        return child

    monkeypatch.setattr(engine._Table, "build", classmethod(built))
    monkeypatch.setattr(engine._Table, "inherit", inherited)
    cases = explore_differential_cases()
    cases += [(gapped(g), rules) for g, rules in cases]
    for g, rules in cases:
        ordered[:] = sorted(rules, key=lambda r: r.priority)
        explore(g, rules)
    assert checked["initial"] == len(cases)
    assert checked["inherited"] > 1000


def test_explore_without_patterns_gives_the_same_lts():
    # The traced benchmark rebuilds the catalog without patterns, so its
    # explores ask every matcher at every expansion.
    for index, (g, rules) in enumerate(explore_differential_cases()):
        bare = _without_patterns(rules)
        mixed = tuple(b if i % 2 else r for i, (r, b) in enumerate(zip(rules, bare)))
        expected = explore(g, rules)
        for catalog in (bare, mixed):
            assert_same_lts(explore(g, catalog), expected, index)


def test_steps_that_pass_the_independence_test_commute():
    # Every pair of matches of a state that `_independent` accepts, not
    # only the pairs `explore` infers through: each step still matches
    # after the other, and the two orders end in one graph up to
    # isomorphism, node for node when one step took no fresh id.
    inputs = [(build_min_plus_one(3, 5, relation), CATALOG) for relation in RELATIONS]
    inputs += explore_differential_cases()[:8]
    inputs += [(g, _DROP_BLOCKS) for g, _ in explore_differential_cases()[1:4]]
    accepted = 0
    for g, rules in inputs:
        ordered = sorted(rules, key=lambda r: r.priority)
        for state in list(explore(g, rules).states.values())[:150]:
            state = state.copy()
            steps = []
            for r in ordered:
                for m in matches(state, r):
                    h = apply(state, r, m)
                    steps.append((r, m, h, engine._step_of(state, h, h.take_written())))
            for i, (r1, m1, t, first) in enumerate(steps):
                for r2, m2, u, second in steps[i + 1 :]:
                    if not engine._independent(state, m1.anchors, first, m2.anchors, second):
                        continue
                    accepted += 1
                    tu, ut = apply(t, r2, m2), apply(u, r1, m1)
                    assert canonical_hash(tu) == canonical_hash(ut), (m1, m2)
                    if not (first.fresh and second.fresh):
                        assert _maps(tu) == _maps(ut), (m1, m2)
    assert accepted == 2751


def test_the_independence_test_agrees_with_its_tuple_based_reference(monkeypatch):
    # Every pair `explore` asks about gets the answer the test gave when
    # a step's written nodes were a tuple (`helpers.reference_independent`).
    answers: Counter[tuple[bool, bool]] = Counter()
    real = engine._independent

    def checked(g, first, first_step, second, second_step):
        got = real(g, first, first_step, second, second_step)
        answers[got, reference_independent(g, first, first_step, second, second_step)] += 1
        return got

    monkeypatch.setattr(engine, "_independent", checked)
    cases = [(build_min_plus_one(3, 5, relation), CATALOG) for relation in RELATIONS]
    differential = explore_differential_cases()
    cases += differential + [(gapped(g), rules) for g, rules in differential]
    for g, rules in cases:
        explore(g, rules)
    assert answers[True, False] == answers[False, True] == 0
    # accepted and refused pairs
    assert (answers[True, True], answers[False, False]) == (3082, 392)


# Scan inputs on which inferring by equal keys alone, without the
# independence test, names a wrong successor.
_ANCHORS_ALONE_FAILS = (31, 28)


def test_explore_infers_only_the_transitions_it_would_build():
    # With the independence test always false, `explore` builds every
    # successor; inferring them must give the same LTS.  The test takes
    # no fixture, so that the mutant harness can run it.
    cases = [(build_min_plus_one(3, 5, relation), CATALOG) for relation in RELATIONS]
    differential = explore_differential_cases()
    cases += differential + [(gapped(g), rules) for g, rules in differential]
    cases += [
        (diamond_chain(random.Random(0), 2), CATALOG),
        (diamond_chain(random.Random(3), 2, dead=frozenset({0})), CATALOG),
        *((scan_inputs(seed)[f"random {seed}"], CATALOG) for seed in _ANCHORS_ALONE_FAILS),
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_independent", lambda *steps: False)
        expected = [explore(g, rules) for g, rules in cases]
    for index, ((g, rules), want) in enumerate(zip(cases, expected)):
        assert_same_lts(explore(g, rules), want, index)
