"""Reference execution semantics."""

from __future__ import annotations

import random
import re

import pytest

from firmfold import (
    ADD,
    COND,
    INT32_MAX,
    INT32_MIN,
    JMP,
    PHI,
    RELATIONS,
    RETURN,
    BlockKind,
    Cmp,
    Const,
    EdgeKind,
    FuelExhaustedError,
    MalformedGraphError,
    ProgramGraph,
    build_min_plus_one,
    evaluate,
    wrap32,
)

_PYTHON_RELATIONS = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
}


def expected_min_plus_one(a: int, b: int, relation: str) -> int:
    chosen = a if _PYTHON_RELATIONS[relation](a, b) else b
    return wrap32(chosen + 1)


def test_example_program_both_branches():
    assert evaluate(build_min_plus_one(3, 5, "lt")) == 4
    assert evaluate(build_min_plus_one(5, 3, "lt")) == 4
    assert evaluate(build_min_plus_one(7, 7, "lt")) == 8
    assert evaluate(build_min_plus_one(7, 7, "le")) == 8


def test_randomized_against_python_semantics():
    rng = random.Random(23)
    for _ in range(150):
        a = rng.randint(INT32_MIN, INT32_MAX)
        b = rng.randint(INT32_MIN, INT32_MAX)
        relation = rng.choice(RELATIONS)
        g = build_min_plus_one(a, b, relation)
        assert evaluate(g) == expected_min_plus_one(a, b, relation)


def test_addition_wraps():
    assert evaluate(build_min_plus_one(INT32_MAX, INT32_MAX, "le")) == INT32_MIN


def test_straightline_return():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    g.add_block(BlockKind.END_BLOCK)
    c = g.add_op(Const(41), start)
    ret = g.add_op(RETURN, start)
    g.connect(c, ret, EdgeKind.DATAFLOW, 0)
    g.connect(ret, 1, EdgeKind.CONTROLFLOW, 0)
    assert evaluate(g) == 41


def test_return_reads_the_value_the_cond_computed():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    end = g.add_block(BlockKind.END_BLOCK)
    taken = g.add_block(BlockKind.BLOCK)
    a = g.add_op(Const(3), start)
    b = g.add_op(Const(5), start)
    cmp_ = g.add_op(Cmp("lt"), start)
    cond = g.add_op(COND, start)
    ret = g.add_op(RETURN, taken)
    g.connect(a, cmp_, EdgeKind.DATAFLOW, 0)
    g.connect(b, cmp_, EdgeKind.DATAFLOW, 1)
    g.connect(cmp_, cond, EdgeKind.DATAFLOW, 0)
    g.connect(cond, taken, EdgeKind.CONTROLFLOW, 0, branch=1)
    g.connect(cond, end, EdgeKind.CONTROLFLOW, 0, branch=0)
    g.connect(cmp_, ret, EdgeKind.DATAFLOW, 0)
    g.connect(ret, end, EdgeKind.CONTROLFLOW, 1)
    # Four units of fuel: the Cmp and its two operands at the Cond, then
    # the jump.  The Return reads the memoized Cmp for nothing.
    assert evaluate(g, fuel=4) == 1
    with pytest.raises(FuelExhaustedError):
        evaluate(g, fuel=3)


def test_requires_unique_start_block():
    g = ProgramGraph()
    with pytest.raises(MalformedGraphError):
        evaluate(g)
    g.add_block(BlockKind.START_BLOCK)
    g.add_block(BlockKind.START_BLOCK)
    with pytest.raises(MalformedGraphError):
        evaluate(g)


def test_requires_one_control_op_per_block():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    g.add_op(Const(1), start)
    with pytest.raises(MalformedGraphError) as err:
        evaluate(g)
    assert "control operation" in str(err.value)
    g.add_op(RETURN, start)
    g.add_op(JMP, start)
    with pytest.raises(MalformedGraphError):
        evaluate(g)


def test_return_needs_its_operand():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    g.add_op(RETURN, start)
    with pytest.raises(MalformedGraphError):
        evaluate(g)


def _returned_add(positions: list[int]) -> tuple[ProgramGraph, int, int, list[int]]:
    """A start block returning an Add of constants that sit at `positions`:
    the graph, the Add, the Return, and the Add's input edges."""
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    end = g.add_block(BlockKind.END_BLOCK)
    add = g.add_op(ADD, start)
    ret = g.add_op(RETURN, start)
    edges = [
        g.connect(g.add_op(Const(i), start), add, EdgeKind.DATAFLOW, position)
        for i, position in enumerate(positions)
    ]
    g.connect(add, ret, EdgeKind.DATAFLOW, 0)
    g.connect(ret, end, EdgeKind.CONTROLFLOW, 0)
    return g, add, ret, edges


def test_operands_must_sit_at_positions_zero_to_arity():
    def needs(count: int) -> str:
        return re.escape(f"needs {count} operands at positions 0..{count - 1}")

    g, _, _, _ = _returned_add([0, 1])
    assert evaluate(g) == 1
    gapped, add, _, _ = _returned_add([0, 2])
    doubled, _, _, edges = _returned_add([0, 1])
    doubled.set_position(edges[1], 0)
    extra, _, _, _ = _returned_add([0, 1, 2])
    # An Add at 0 and 2, at 0 and 0, or at 0, 1 and 2.
    for g in (gapped, doubled, extra):
        with pytest.raises(MalformedGraphError, match=rf"^n{add} {needs(2)}$"):
            evaluate(g)
    # A Return with two inputs.
    g, add, ret, _ = _returned_add([0, 1])
    g.connect(add, ret, EdgeKind.DATAFLOW, 1)
    with pytest.raises(MalformedGraphError, match=rf"^n{ret} {needs(1)}$"):
        evaluate(g)


def test_phi_without_entry_is_malformed():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    c = g.add_op(Const(1), start)
    phi = g.add_op(PHI, start)
    ret = g.add_op(RETURN, start)
    g.connect(c, phi, EdgeKind.DATAFLOW, 0)
    g.connect(phi, ret, EdgeKind.DATAFLOW, 0)
    with pytest.raises(MalformedGraphError) as err:
        evaluate(g)
    assert "Phi" in str(err.value)


def test_jmp_without_successor_is_malformed():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    jmp = g.add_op(JMP, start)
    with pytest.raises(MalformedGraphError, match=f"Jmp n{jmp} needs exactly one successor"):
        evaluate(g)


def test_phi_without_input_for_its_entry_is_malformed():
    g = build_min_plus_one(3, 5, "lt")
    (phi,) = [op for op, kind in g.op_nodes.items() if kind == PHI]
    for eid, _ in g.data_inputs(phi):
        g.delete_node(eid)
    with pytest.raises(MalformedGraphError, match=f"Phi n{phi} has no unique input for entry"):
        evaluate(g)


def test_add_reading_a_jmp_is_malformed():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    end = g.add_block(BlockKind.END_BLOCK)
    jmp = g.add_op(JMP, g.add_block(BlockKind.BLOCK))
    add = g.add_op(ADD, start)
    ret = g.add_op(RETURN, start)
    g.connect(jmp, add, EdgeKind.DATAFLOW, 0)
    g.connect(g.add_op(Const(1), start), add, EdgeKind.DATAFLOW, 1)
    g.connect(add, ret, EdgeKind.DATAFLOW, 0)
    g.connect(ret, end, EdgeKind.CONTROLFLOW, 0)
    with pytest.raises(MalformedGraphError, match=rf"n{jmp} \(Jmp\) produces no value"):
        evaluate(g)


def test_cond_with_missing_branch_edge():
    g = build_min_plus_one(3, 5, "lt")
    g.delete_node(18)  # the branch-1 successor edge, which (3 < 5) takes
    with pytest.raises(MalformedGraphError, match="Cond n9 needs exactly one branch-1 successor"):
        evaluate(g)


def test_a_second_taken_successor_is_malformed():
    # A second edge into the branch-0 block n2: from the Cond n9 on the
    # taken branch 1, or from the taken block's Jmp n10.
    for source, branch, error in (
        (9, 1, "Cond n9 needs exactly one branch-1 successor"),
        (10, None, "Jmp n10 needs exactly one successor"),
    ):
        g = build_min_plus_one(3, 5, "lt")
        g.connect(source, 2, EdgeKind.CONTROLFLOW, 1, branch=branch)
        with pytest.raises(MalformedGraphError, match=error):
            evaluate(g)


def test_infinite_loop_exhausts_fuel():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    loop = g.add_block(BlockKind.BLOCK)
    j0 = g.add_op(JMP, start)
    jl = g.add_op(JMP, loop)
    g.connect(j0, loop, EdgeKind.CONTROLFLOW, 0)
    g.connect(jl, loop, EdgeKind.CONTROLFLOW, 1)
    with pytest.raises(FuelExhaustedError):
        evaluate(g, fuel=500)
    # the default fuel, 4 operations and blocks, runs out on the second lap
    with pytest.raises(FuelExhaustedError, match="within 4 steps"):
        evaluate(g)


def test_fuel_bounds_value_computations_too():
    g = build_min_plus_one(3, 5, "lt")
    with pytest.raises(FuelExhaustedError):
        evaluate(g, fuel=2)
    assert evaluate(g, fuel=50) == 4


def test_deep_add_chain_evaluates_without_recursion():
    rng = random.Random(7)
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    end = g.add_block(BlockKind.END_BLOCK)
    value = rng.randint(-100, 100)
    current = g.add_op(Const(value), start)
    while g.element_count() < 10_000:
        operand = rng.randint(INT32_MIN, INT32_MAX)
        add = g.add_op(ADD, start)
        g.connect(current, add, EdgeKind.DATAFLOW, 0)
        g.connect(g.add_op(Const(operand), start), add, EdgeKind.DATAFLOW, 1)
        value = wrap32(value + operand)
        current = add
    ret = g.add_op(RETURN, start)
    g.connect(current, ret, EdgeKind.DATAFLOW, 0)
    g.connect(ret, end, EdgeKind.CONTROLFLOW, 0)
    assert evaluate(g, fuel=len(g.op_nodes)) == value


def test_dataflow_cycle_exhausts_fuel_not_the_stack():
    g = ProgramGraph()
    start = g.add_block(BlockKind.START_BLOCK)
    end = g.add_block(BlockKind.END_BLOCK)
    one = g.add_op(Const(1), start)
    a = g.add_op(ADD, start)
    b = g.add_op(ADD, start)
    g.connect(b, a, EdgeKind.DATAFLOW, 0)
    g.connect(one, a, EdgeKind.DATAFLOW, 1)
    g.connect(a, b, EdgeKind.DATAFLOW, 0)
    g.connect(one, b, EdgeKind.DATAFLOW, 1)
    ret = g.add_op(RETURN, start)
    g.connect(a, ret, EdgeKind.DATAFLOW, 0)
    g.connect(ret, end, EdgeKind.CONTROLFLOW, 0)
    with pytest.raises(FuelExhaustedError):
        evaluate(g)
