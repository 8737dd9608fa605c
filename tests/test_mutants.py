"""Mutation analysis of the catalog's guards (DeMillo, Lipton & Sayward 1978).

Each guard in `rules.py` and `interp.py` keeps a malformed input from
making `fold` or `explore` raise or end in two different graphs, or
`evaluate` run on misplaced operands.  Each row of `MUTANTS` makes one
mutant of the library and names the test that must fail on it:

- a text row replaces the one occurrence of a guard's text in a module's
  source and executes the result as a fresh module of the package,
  which is written to no file and put in no `sys.modules`; the mutant's
  `CATALOG` or `evaluate` then replaces that name in the module the
  killing test reads it from;
- a patch row replaces a definition the rules compute with
  (`graph.wrap32`, a relation test), swaps two rules' priorities,
  makes `explore` infer a successor by equal keys alone, with its
  independence test (`engine._independent`) always true, or makes its
  identity test (`engine._identical`) ignore the next free id.

Each killer runs under its mutant and must raise.  A killer whose own
`pytest.raises` does not fire raises `Failed`, which is not an
`Exception`, so both count.  The identity mutant, a guard's text
replaced by itself, must pass every killer of its module, so a kill is
the mutation's doing and not the harness's.
"""

from __future__ import annotations

import inspect
import operator
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from types import ModuleType
from typing import Callable

import pytest

from firmfold import engine, graph, rules

import test_engine
import test_interp
import test_rules

#: The name a module's mutant replaces in its killer's module.
_REPLACES = {"rules": "CATALOG", "interp": "evaluate"}

#: What a mutant's maker returns: the names to replace in the killer's module.
Installs = dict[str, object]
Maker = Callable[[pytest.MonkeyPatch], Installs]


@dataclass(frozen=True)
class Text:
    """`firmfold.<module>` with its one occurrence of `old` replaced by `new`."""

    module: str
    old: str
    new: str

    def __call__(self, mp: pytest.MonkeyPatch) -> Installs:
        path = Path(rules.__file__).with_name(f"{self.module}.py")
        source = path.read_text()
        assert source.count(self.old) == 1, self.old
        mutant = ModuleType(f"firmfold.{self.module}")
        mutant.__package__ = "firmfold"
        exec(compile(source.replace(self.old, self.new), str(path), "exec"), mutant.__dict__)
        name = _REPLACES[self.module]
        return {name: getattr(mutant, name)}


def _unwrapped(mp: pytest.MonkeyPatch) -> Installs:
    mp.setattr(graph, "wrap32", lambda value: value)
    return {}


def _lt_as_ge(mp: pytest.MonkeyPatch) -> Installs:
    mp.setitem(graph.RELATION_TESTS, "lt", operator.ge)
    return {}


def _infer_by_anchors_alone(mp: pytest.MonkeyPatch) -> Installs:
    mp.setattr(engine, "_independent", lambda *steps: True)
    return {}


def _identity_ignores_next_id(mp: pytest.MonkeyPatch) -> Installs:
    def identical(a: graph.ProgramGraph, b: graph.ProgramGraph) -> bool:
        return (
            a.op_nodes == b.op_nodes
            and a.block_nodes == b.block_nodes
            and a.edge_nodes == b.edge_nodes
            and a.containment == b.containment
        )

    mp.setattr(engine, "_identical", identical)
    return {}


def _swapped(first: int, second: int) -> Maker:
    """The catalog with the priorities `first` and `second` swapped."""
    swap = {first: second, second: first}
    catalog = tuple(replace(r, priority=swap.get(r.priority, r.priority)) for r in rules.CATALOG)
    return lambda mp: {"CATALOG": catalog}


def _swap_row(first: int) -> tuple[Maker, partial]:
    """The catalog with the priorities `first` and `first + 1` swapped, and
    its killer: fold's first step on a graph where both rules match."""
    names = rules.RULE_NAMES[first - 1 : first + 1]
    killer = test_rules.test_fold_first_fires_the_earlier_of_two_matching_rules
    return _swapped(first, first + 1), partial(killer, *names)


_BINARY_POSITIONS = "    if [g.edge_nodes[eid].position for eid, _ in inputs] != [0, 1]:\n        return []\n"
_START_BLOCK = "    if g.start_block() is None:\n        return []\n"
_COND = "if cond not in g.containment or [g.edge_nodes[eid].position for eid, _ in inputs] != [0]:"
_SINGLE_ENTRY = "if len(inputs) != 1 or g.entry_count(block) != 1:"
_OPERANDS = "if [g.edge_nodes[eid].position for eid, _ in inputs] != list(range(count)):"

#: Each mutant's maker, and the test, with its arguments, that must fail on it.
MUTANTS: dict[str, tuple[Maker, partial]] = {
    "binary-folds-read-any-positions": (
        Text("rules", _BINARY_POSITIONS, ""),
        partial(test_rules.test_add_fold_leaves_an_add_of_three_constants),
    ),
    "binary-folds-need-no-start-block": (
        Text("rules", _START_BLOCK, ""),
        partial(test_rules.test_add_fold_requires_a_start_block),
    ),
    "cond-folds-need-no-block": (
        Text("rules", _COND, "if [g.edge_nodes[eid].position for eid, _ in inputs] != [0]:"),
        partial(test_rules.test_cond_fold_leaves_a_blockless_cond),
    ),
    "cond-folds-read-any-positions": (
        Text("rules", _COND, "if cond not in g.containment:"),
        partial(test_rules.test_cond_fold_leaves_a_cond_with_two_inputs),
    ),
    "phi-fold-single-needs-no-entry": (
        Text("rules", _SINGLE_ENTRY, "if len(inputs) != 1:"),
        partial(test_rules.test_phi_fold_single_leaves_a_phi_in_an_entryless_block),
    ),
    "evaluate-counts-operands": (
        Text("interp", _OPERANDS, "if len(inputs) != count:"),
        partial(test_interp.test_operands_must_sit_at_positions_zero_to_arity),
    ),
    "no-wrap32": (_unwrapped, partial(test_rules.test_add_fold_wraps_around)),
    "lt-as-ge": (_lt_as_ge, partial(test_rules.test_cmp_fold_signed_relations, "lt", 3, 5, 1)),
    "explore-infers-by-anchors-alone": (
        _infer_by_anchors_alone,
        partial(test_engine.test_explore_infers_only_the_transitions_it_would_build),
    ),
    # No explore input is known on which this mutant changes an LTS or a
    # count, so its killer is the unit test of the identity test.
    "identity-ignores-next-id": (
        _identity_ignores_next_id,
        partial(test_engine.test_identity_ignores_object_identity_but_not_the_next_id),
    ),
    "priorities-3-4": (_swapped(3, 4), partial(test_engine.test_explore_digests_are_pinned)),
    "priorities-7-8": (
        _swapped(7, 8),
        partial(test_rules.test_phi_fold_single_leaves_a_phi_in_an_entryless_block),
    ),
    **{f"priorities-{p}-{p + 1}": _swap_row(p) for p in (1, 2, 4, 5, 6, 8, 9)},
}


def _survives(mp: pytest.MonkeyPatch, make: Maker, killer: partial) -> bool:
    """Whether `killer` passes once `make`'s names replace those of its module."""
    module = inspect.getmodule(killer.func)
    for name, value in make(mp).items():
        mp.setattr(module, name, value)
    try:
        killer()
    except (Exception, pytest.fail.Exception):
        return False
    return True


@pytest.mark.parametrize("name", MUTANTS)
def test_each_mutant_is_killed(monkeypatch, name):
    make, killer = MUTANTS[name]
    assert not _survives(monkeypatch, make, killer), (killer.func.__name__, killer.args)


TEXT_ROWS = {name: row for name, row in MUTANTS.items() if isinstance(row[0], Text)}


@pytest.mark.parametrize("name", TEXT_ROWS)
def test_the_identity_mutant_survives_every_killer_of_its_module(monkeypatch, name):
    guard = TEXT_ROWS[name][0]
    identity = replace(guard, new=guard.old)
    for make, killer in TEXT_ROWS.values():
        if make.module == identity.module:
            with monkeypatch.context() as mp:
                assert _survives(mp, identity, killer), killer.func.__name__
