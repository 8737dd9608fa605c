"""Acceptance suite: one test per shipped guarantee.

Each test exercises one end-to-end guarantee and records a PASS/FAIL
line that pytest prints in its terminal summary, so a full run ends
with one line per criterion.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from conftest import record_criterion
from firmfold import (
    ADD,
    CATALOG,
    INT32_MAX,
    INT32_MIN,
    RELATIONS,
    RETURN,
    BlockKind,
    Const,
    EdgeKind,
    Match,
    ProgramGraph,
    StateLimitExceeded,
    build_min_plus_one,
    canonical_hash,
    evaluate,
    explore,
    fold,
    import_firm_gxl,
    is_isomorphic,
    load_native,
    matches,
    save_native,
    verify,
)
from helpers import materialize, random_graph, random_program

FIXTURE = Path(__file__).parent / "data" / "min_plus_one_firm.gxl"


def check(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    record_criterion(f"[{status}] criterion {number}: {title}{suffix}")


def test_criterion_1_example_folds_to_the_right_constant():
    g = build_min_plus_one(3, 5, "lt")
    oracle = evaluate(g)
    began = time.perf_counter()
    result = fold(g, CATALOG)
    elapsed = time.perf_counter() - began

    returns = [n for n, k in result.graph.op_nodes.items() if k.name == "Return"]
    operand_ok = False
    if len(returns) == 1:
        inputs = result.graph.data_inputs(returns[0])
        if len(inputs) == 1:
            source_kind = result.graph.op_nodes[inputs[0][1]]
            operand_ok = source_kind.name == "Const" and source_kind.value == oracle

    used_rules = {m.rule_name for m in result.trace}
    expected_rules = {
        "cmp-fold-int",
        "cond-fold-true",
        "cleanup-unref-const",
        "block-remove",
        "phi-adjust",
        "phi-fold-single",
        "add-fold-int",
    }

    ok = (
        result.steps <= 26
        and operand_ok
        and expected_rules <= used_rules
        and elapsed < 1.0
    )
    check(
        1,
        "example folds to Return of the oracle constant",
        ok,
        f"{result.steps} steps, {elapsed * 1000:.0f} ms",
    )
    assert result.steps <= 26
    assert operand_ok, "fixpoint does not return the interpreter's value"
    assert expected_rules <= used_rules
    assert elapsed < 1.0


def test_criterion_2_semantics_preserved_on_random_programs():
    rng = random.Random(1234)
    began = time.perf_counter()
    failures = []
    for index in range(100):
        if rng.random() < 0.5:
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        else:
            a = rng.randint(INT32_MIN, INT32_MAX)
            b = rng.randint(INT32_MIN, INT32_MAX)
        relation = rng.choice(RELATIONS)
        g = build_min_plus_one(a, b, relation)
        before = evaluate(g)
        result = fold(g, CATALOG)
        if evaluate(result.graph) != before or verify(result.graph) != []:
            failures.append((index, a, b, relation))
    elapsed = time.perf_counter() - began
    ok = not failures and elapsed < 5.0
    check(
        2,
        "folding preserves execution semantics on 100 random programs",
        ok,
        f"{elapsed:.2f} s",
    )
    assert failures == []
    assert elapsed < 5.0


def test_criterion_3_verifier_catches_seeded_faults():
    def extra_start(g):
        g.add_block(BlockKind.START_BLOCK)

    def extra_end(g):
        g.add_block(BlockKind.END_BLOCK)

    def orphan_op(g):
        g.delete_node(1)  # the true arm; its Jmp loses its block

    def misaligned_phi(g):
        g.delete_node(23)  # the Phi's position-1 input edge

    def missing_operand(g):
        g.delete_node(25)  # the Add's position-1 input edge

    def misplaced_const(g):
        g.add_op(Const(9), 3)  # a constant in the merge block

    mutations = [
        (extra_start, "single-start"),
        (extra_end, "single-end"),
        (orphan_op, "containment"),
        (misaligned_phi, "phi-check"),
        (missing_operand, "pos-check"),
        (misplaced_const, "consts"),
    ]
    wrong = []
    for mutate, expected in mutations:
        g = build_min_plus_one(3, 5, "lt")
        mutate(g)
        hit = {v.check for v in verify(g)}
        if hit != {expected}:
            wrong.append((expected, sorted(hit)))
    clean = verify(build_min_plus_one(3, 5, "lt"))
    ok = not wrong and clean == []
    check(
        3,
        "verifier flags each seeded fault with exactly its own check",
        ok,
        f"{len(mutations) - len(wrong)}/{len(mutations)} faults, clean graph "
        f"{len(clean)} findings",
    )
    assert wrong == []
    assert clean == []


def test_criterion_4_every_rewrite_shrinks_the_graph():
    g = build_min_plus_one(3, 5, "lt")
    try:
        lts = explore(g, CATALOG, max_states=1000)
    except StateLimitExceeded:
        check(4, "every rewrite strictly shrinks the graph", False, "state budget hit")
        raise
    growths = [
        (src, rule, dst)
        for src, rule, dst in lts.transitions
        if lts.states[src].element_count() <= lts.states[dst].element_count()
    ]
    ok = not growths and len(lts.transitions) > 0
    check(
        4,
        "every rewrite strictly shrinks the graph",
        ok,
        f"{len(lts.transitions)} transitions checked",
    )
    assert len(lts.transitions) > 0
    assert growths == []


def test_criterion_5_rewriting_is_confluent():
    g = build_min_plus_one(3, 5, "lt")
    runs = [explore(g, CATALOG, max_states=1000) for _ in range(3)]
    sizes = {(len(lts.states), len(lts.transitions), len(lts.final)) for lts in runs}
    digests = {frozenset(lts.states) for lts in runs}
    converged = all(lts.final_states_isomorphic() for lts in runs)
    ok = converged and len(sizes) == 1 and len(digests) == 1
    states, transitions, finals = next(iter(sizes))
    check(
        5,
        "all maximal rewrites converge to one result",
        ok,
        f"{states} states, {transitions} transitions, {finals} final, x3 runs",
    )
    assert converged
    assert len(sizes) == 1
    assert len(digests) == 1


def test_criterion_6_serialization_round_trips():
    bad_seeds = []
    for seed in range(50):
        rng = random.Random(seed)
        g = random_graph(rng)
        if not is_isomorphic(g, load_native(save_native(g))):
            bad_seeds.append(seed)
    imported = import_firm_gxl(FIXTURE.read_bytes())
    fixture_ok = is_isomorphic(imported, build_min_plus_one(3, 5, "lt"))
    ok = not bad_seeds and fixture_ok
    check(
        6,
        "GXL round-trips preserve the graph up to isomorphism",
        ok,
        f"{50 - len(bad_seeds)}/50 random graphs, attributed fixture "
        f"{'ok' if fixture_ok else 'mismatch'}",
    )
    assert bad_seeds == []
    assert fixture_ok


def test_criterion_7_add_fold_rule_local_contract():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    g.add_block(BlockKind.END_BLOCK)
    a = g.add_op(Const(INT32_MAX), start)
    b = g.add_op(Const(1), start)
    bystander = g.add_op(Const(99), start)
    add = g.add_op(ADD, start)
    e0 = g.connect(a, add, EdgeKind.DATAFLOW, 0)
    e1 = g.connect(b, add, EdgeKind.DATAFLOW, 1)
    users = []
    for _ in range(3):
        ret = g.add_op(RETURN, start)
        users.append(g.connect(add, ret, EdgeKind.DATAFLOW, 0))

    add_fold = next(r for r in CATALOG if r.name == "add-fold-int")
    found = matches(g, add_fold)
    single_match = found == [Match("add-fold-int", (add, a, b))]
    h = add_fold.applier(g.copy(), found[0])

    new_consts = [
        n
        for n, k in h.op_nodes.items()
        if k.name == "Const" and n not in (a, b, bystander)
    ]
    created_ok = (
        len(new_consts) == 1
        and h.op_nodes[new_consts[0]].value == INT32_MIN
        and h.containment[new_consts[0]] == start
    )
    removed_ok = (
        add not in h.op_nodes and e0 not in h.edge_nodes and e1 not in h.edge_nodes
    )
    users_ok = all(
        eid in h.edge_nodes
        and h.edge_nodes[eid].source == new_consts[0]
        and h.edge_nodes[eid].target == g.edge_nodes[eid].target
        and h.edge_nodes[eid].position == g.edge_nodes[eid].position
        for eid in users
    )
    untouched_ops = set(g.op_nodes) - {add}
    bystanders_ok = all(h.op_nodes[n] == g.op_nodes[n] for n in untouched_ops) and (
        h.block_nodes == g.block_nodes
    )
    count_ok = h.element_count() == g.element_count() - 2
    original_ok = add in g.op_nodes and e0 in g.edge_nodes

    ok = (
        single_match
        and created_ok
        and removed_ok
        and users_ok
        and bystanders_ok
        and count_ok
        and original_ok
    )
    check(
        7,
        "add folding rewrites exactly its own pattern",
        ok,
        "3 users redirected, wrapped sum created",
    )
    assert single_match
    assert created_ok
    assert removed_ok
    assert users_ok
    assert bystanders_ok
    assert count_ok
    assert original_ok
