"""Properties of `fold`, `explore`, `evaluate`, canonical forms and a
step's write record on generated programs, checked with hypothesis.

Each example draws a seed and a shape for a generator in `helpers`: a
random program built in a random legal order, or a diamond chain with
dead and, where a test allows it, blockless merge entries.  Some tests
also spread the input positions apart (`gapped`), which `evaluate`
refuses.  Examples are derandomized, so every run checks the same
programs.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from firmfold import (
    CATALOG,
    FirmFoldError,
    ProgramGraph,
    apply,
    canonical_form,
    canonical_hash,
    evaluate,
    explore,
    fold,
    is_isomorphic,
    matches,
    replay,
    save_native,
    verify,
)
from helpers import diamond_chain, gapped, random_graph, relabel, search_isomorphic

CHECKED = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def programs(draw: st.DrawFn, blockless: bool = True) -> ProgramGraph:
    """An executable program; clean unless it has blockless entries."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_graph(rng)
    diamonds = draw(st.integers(1, 6))
    indices = st.frozensets(st.integers(0, diamonds - 1))
    return diamond_chain(
        rng, diamonds, draw(indices), draw(indices) if blockless else frozenset()
    )


def _outcome(g: ProgramGraph, fuel: int | None = None) -> int | type[FirmFoldError]:
    try:
        return evaluate(g, fuel)
    except FirmFoldError as exc:
        return type(exc)


@CHECKED
@given(programs())
def test_fold_preserves_evaluate(g):
    assert evaluate(fold(g, CATALOG).graph) == evaluate(g)


@CHECKED
@given(programs())
def test_a_second_fold_takes_no_step(g):
    assert fold(fold(g, CATALOG).graph, CATALOG).steps == 0


@CHECKED
@given(programs(), st.booleans())
def test_replaying_the_trace_rebuilds_the_result(g, gaps):
    g = gapped(g) if gaps else g
    result = fold(g, CATALOG)
    assert save_native(replay(g, CATALOG, result.trace)) == save_native(result.graph)


@CHECKED
@given(programs(blockless=False))
def test_clean_input_folds_to_clean_output(g):
    assert verify(g) == []
    assert verify(fold(g, CATALOG).graph) == []


@CHECKED
@given(programs(), st.booleans())
def test_default_fuel_decides_as_ample_fuel_does(g, gaps):
    g = gapped(g) if gaps else g
    for h in (g, fold(g, CATALOG).graph):
        assert _outcome(h) == _outcome(h, 10**7)


@CHECKED
@given(programs(), st.booleans(), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_canonical_form_is_invariant_under_relabelling(g, gaps, steps, seed):
    g = gapped(g) if gaps else g
    # part way through a fold, unreferenced constants lie outside the
    # backward traversal
    g = replay(g, CATALOG, fold(g, CATALOG).trace[:steps])
    assert canonical_form(relabel(g, random.Random(seed))) == canonical_form(g)


@st.composite
def small_programs(draw: st.DrawFn) -> ProgramGraph:
    """A random program or one diamond, whose state space stays small."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        g = random_graph(rng)
    else:
        entries = st.frozensets(st.just(0))
        g = diamond_chain(rng, 1, draw(entries), draw(entries))
    return gapped(g) if draw(st.booleans()) else g


@settings(CHECKED, max_examples=15)
@given(small_programs(), st.integers(0, 2**32 - 1))
def test_digests_agree_with_isomorphism_on_explored_states(g, seed):
    states = list(explore(g, CATALOG, max_states=5000).states.values())
    # the most crowded size holds the pairs hardest to tell apart
    size, _ = Counter(s.element_count() for s in states).most_common(1)[0]
    crowd = [s for s in states if s.element_count() == size][:8]
    rng = random.Random(seed)
    for a in crowd:
        for b in crowd:
            b = relabel(b, rng)
            assert (canonical_hash(a) == canonical_hash(b)) == search_isomorphic(a, b)


@settings(CHECKED, max_examples=15)
@given(small_programs())
def test_explore_converges_to_the_fold(g):
    # every maximal rewrite order ends in the graph `fold` gives
    lts = explore(g, CATALOG, max_states=5000)
    (final,) = lts.final
    assert is_isomorphic(lts.states[final], fold(g, CATALOG).graph)


def _entries(g: ProgramGraph, n: int) -> tuple:
    return g.op_nodes.get(n), g.block_nodes.get(n), g.edge_nodes.get(n), g.containment.get(n)


@CHECKED
@given(programs(), st.booleans())
def test_a_step_records_every_node_whose_entries_it_changes(g, gaps):
    # `explore`'s inherited match tables and step-updated content keys
    # both rest on this record.
    g = gapped(g) if gaps else g
    for rule in CATALOG:
        for match in matches(g, rule):
            h = apply(g, rule, match)
            written = h.take_written()
            nodes = {*g.op_nodes, *g.block_nodes, *g.edge_nodes}
            nodes |= {*h.op_nodes, *h.block_nodes, *h.edge_nodes}
            changed = {n for n in nodes if _entries(g, n) != _entries(h, n)}
            assert changed <= written, (rule.name, match)
