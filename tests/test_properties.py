"""Properties of `fold` and `evaluate` on generated programs, checked with hypothesis.

Each example draws a seed and a shape for a generator in `helpers`: a
random program built in a random legal order, or a diamond chain with
dead and, where a test allows it, blockless merge entries.  Some tests
also spread the input positions apart (`gapped`), which `evaluate`
refuses.  Examples are derandomized, so every run checks the same
programs.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from firmfold import (
    CATALOG,
    FirmFoldError,
    ProgramGraph,
    evaluate,
    fold,
    replay,
    save_native,
    verify,
)
from helpers import diamond_chain, gapped, random_graph

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
