"""Print what `explore` finds on a fixed set of inputs, to compare two checkouts.

Usage, from the root of a checkout:

    python3 tools/lts_digest.py

It imports firmfold from the checkout's `src`, the test helpers from
`tests/helpers.py` and the benchmark's program generator from
`perfbench/programs.py`, and reads nothing else.  For each corpus it
prints one JSON line: the corpus name; the states, transitions and
final states, summed over its inputs; how often `explore` called
`apply` and `canonical_form`; and one SHA-256 digest over every input's
LTS: each state's digest and `save_native` bytes in discovery order,
then the transitions, the initial state and the final states.  Two
checkouts whose lines differ only in the counts found the same LTSs.
Run it in each checkout as a separate process, since both import a
package named firmfold.  The 3-diamond chain takes several seconds and
about 200 MB.  Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from firmfold import (  # noqa: E402
    CATALOG,
    RELATIONS,
    ProgramGraph,
    Rule,
    build_min_plus_one,
    engine,
    explore,
    load,
    save_native,
)
from helpers import diamond_chain, explore_differential_cases, gapped  # noqa: E402
import programs  # noqa: E402

#: An input to explore: the graph, its catalog and its state budget.
Case = tuple[ProgramGraph, tuple[Rule, ...], int]

#: explore-small's program shapes, as `perfbench/workloads.py` lists them:
#: (diamonds, dead entries, diamonds with an Add, dangling entries, branches taken).
EXPLORE_SMALL_SHAPES = (
    (1, (), (), (), (True,)),
    (1, (), (), (), (False,)),
    (1, (), (0,), (), (True,)),
    (1, (), (0,), (), (False,)),
    (1, (0,), (), (), (True,)),
    (1, (0,), (), (), (False,)),
    (1, (), (), (0,), (True,)),
    (1, (), (), (0,), (False,)),
    (1, (), (), (0,), (True,)),
    (1, (0,), (0,), (), (True,)),
    (1, (0,), (0,), (), (False,)),
    (1, (), (0,), (0,), (True,)),
    (1, (), (0,), (0,), (False,)),
    (1, (), (0,), (0,), (True,)),
    (1, (), (0,), (0,), (False,)),
    (2, (), (1,), (), (True, True)),
)


def explore_small(seed: int) -> list[Case]:
    """The 17 programs that explore-small explores for `seed`, loaded from
    their documents as its `explore` command loads them."""
    rng = random.Random(f"explore-small/{seed}")
    cases: list[Case] = []
    for index, (n, dead, adds, dangling, branches) in enumerate(EXPLORE_SMALL_SHAPES):
        plan = programs.diamond_chain(
            f"small{index}-d{n}",
            rng,
            n,
            dead=frozenset(dead),
            adds=frozenset(adds),
            dangling=frozenset(dangling),
            branches=branches,
        )
        cases.append((load(programs.to_native_gxl(plan, rng)), CATALOG, 10_000))
    cases.append((load(save_native(build_min_plus_one(3, 5))), CATALOG, 10_000))
    return cases


def corpora() -> dict[str, list[Case]]:
    """Each corpus's inputs, by name."""
    differential = [(g, rules, 10_000) for g, rules in explore_differential_cases()]
    return {
        "example, six relations": [
            (build_min_plus_one(3, 5, relation), CATALOG, 10_000) for relation in RELATIONS
        ],
        "differential corpus": differential,
        "differential corpus, gapped": [(gapped(g), r, m) for g, r, m in differential],
        "2-diamond chain": [(diamond_chain(random.Random(0), 2), CATALOG, 10_000)],
        "dead-entry chain": [
            (diamond_chain(random.Random(3), 2, dead=frozenset({0})), CATALOG, 10_000)
        ],
        "3-diamond chain": [(diamond_chain(random.Random(0), 3), CATALOG, 60_000)],
        "explore-small, seed 1": explore_small(1),
    }


def summarize(cases: list[Case]) -> dict:
    """Explore each case, counting `apply` and `canonical_form` calls
    through `engine`; the sizes, the counts and the digest over all cases."""
    calls: Counter[str] = Counter()
    real = {name: getattr(engine, name) for name in ("apply", "canonical_form")}

    def counted(name: str):
        def call(*args):
            calls[name] += 1
            return real[name](*args)

        return call

    sha = hashlib.sha256()
    sizes = Counter()
    try:
        for name in real:
            setattr(engine, name, counted(name))
        for g, rules, max_states in cases:
            lts = explore(g, rules, max_states)
            sizes.update(
                states=len(lts.states), transitions=len(lts.transitions), final=len(lts.final)
            )
            for digest, state in lts.states.items():
                sha.update(f"state {digest} ".encode() + save_native(state))
            sha.update(repr((lts.transitions, lts.initial, sorted(lts.final))).encode())
    finally:
        for name, function in real.items():
            setattr(engine, name, function)
    return {
        "states": sizes["states"],
        "transitions": sizes["transitions"],
        "final": sizes["final"],
        "apply": calls["apply"],
        "canonical_form": calls["canonical_form"],
        "digest": sha.hexdigest(),
    }


def main() -> None:
    for name, cases in corpora().items():
        print(json.dumps({"corpus": name, **summarize(cases)}), flush=True)


if __name__ == "__main__":
    main()
