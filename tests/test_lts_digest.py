"""Tests for tools/lts_digest.py, which compares `explore` across checkouts."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from firmfold import CATALOG, build_min_plus_one

_spec = importlib.util.spec_from_file_location(
    "lts_digest", Path(__file__).parents[1] / "tools" / "lts_digest.py"
)
lts_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lts_digest)


def test_the_example_summary_counts_its_lts_and_the_successors_built():
    summary = lts_digest.summarize([(build_min_plus_one(3, 5, "lt"), CATALOG, 10_000)])
    assert (summary["states"], summary["transitions"], summary["final"]) == (26, 44, 1)
    assert (summary["apply"], summary["canonical_form"]) == (29, 30)
    again = lts_digest.summarize([(build_min_plus_one(3, 5, "lt"), CATALOG, 10_000)])
    assert again == summary


def test_the_explore_small_shapes_are_the_workloads():
    import workloads  # importable once the tool has put perfbench on the path

    assert lts_digest.EXPLORE_SMALL_SHAPES == workloads.ExploreSmall.SHAPES
    assert len(lts_digest.explore_small(1)) == len(workloads.ExploreSmall.SHAPES) + 1
