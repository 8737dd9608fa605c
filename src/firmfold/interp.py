"""Reference execution of program graphs.

`evaluate` runs a graph the way the IR means it: control starts in the
start block, each block hands off through its single control operation,
and the value returned by the Return operation is the program's result.
A Phi resolves to the input whose position matches the entry through
which its block was most recently reached.

Values are memoized per run.  For the acyclic graphs this package
rewrites that is exact; a cyclic graph whose values change between
iterations will pin its exit condition to the first computed value,
never leave the loop, and exhaust its fuel, so the memo can cost
termination but never a wrong result.

The memo also bounds every run that ends.  Each operation's value is
computed, spending one unit of fuel, at most once, and a block's
successor is fixed on its first visit, since its Cond selector is
memoized; so a run that enters a block twice never ends, and one that
ends spends at most operations + blocks - 1.  That count is the
default fuel.
"""

from __future__ import annotations

from .errors import FuelExhaustedError, MalformedGraphError
from .graph import ARITY, CONTROL_SOURCES, BlockKind, NodeId, ProgramGraph
from .graph import contiguous, op_value, taken_branch


def evaluate(g: ProgramGraph, fuel: int | None = None) -> int:
    """Execute `g` and return its Return value.

    Raises MalformedGraphError when the graph cannot be executed (no
    unique start block, a block without exactly one control operation,
    missing operands, an unresolvable Phi) and FuelExhaustedError when
    `fuel` value computations plus block transitions are not enough.
    By default `fuel` is the number of operations and blocks, which
    only a run that never ends exhausts (see the module docstring).
    """
    starts = g.blocks_of_kind(BlockKind.START_BLOCK)
    if len(starts) != 1:
        raise MalformedGraphError(f"execution needs exactly one start block, found {len(starts)}")

    if fuel is None:
        fuel = len(g.op_nodes) + len(g.block_nodes)
    budget = fuel
    env: dict[NodeId, int] = {}
    entered: dict[NodeId, int] = {}

    def spend() -> None:
        nonlocal budget
        if budget <= 0:
            raise FuelExhaustedError(f"no fixpoint of execution within {fuel} steps")
        budget -= 1

    def operands(op: NodeId) -> list[NodeId]:
        count = ARITY[g.op_nodes[op].name]
        positions = g.input_positions(op)
        if len(positions) != count or not contiguous(positions):
            raise MalformedGraphError(
                f"n{op} needs {count} operands at positions 0..{count - 1}"
            )
        return [src for _, src in g.data_inputs(op)]

    def inputs(op: NodeId) -> list[NodeId]:
        """The operands `op`'s value is computed from, in evaluation order."""
        kind = g.op_nodes[op]
        if kind.name == "Const":
            return []
        if kind.name in ("Add", "Cmp"):
            return operands(op)
        if kind.name == "Phi":
            block = g.containment.get(op)
            if block is None or block not in entered:
                raise MalformedGraphError(f"Phi n{op} has no resolved block entry")
            matching = [
                src
                for eid, src in g.data_inputs(op)
                if g.edge_nodes[eid].position == entered[block]
            ]
            if len(matching) != 1:
                raise MalformedGraphError(
                    f"Phi n{op} has no unique input for entry {entered[block]}"
                )
            return matching
        raise MalformedGraphError(f"n{op} ({kind.name}) produces no value")

    def value(root: NodeId) -> int:
        """The value of `root`, computed depth-first with an explicit stack.

        Each frame is an operation, its operands, and the operand values
        computed so far.  Every frame pushed spends one unit of fuel,
        so a dataflow cycle exhausts the fuel rather than the stack.
        """
        if root in env:
            return env[root]
        spend()
        stack = [(root, inputs(root), [])]
        while True:
            op, srcs, args = stack[-1]
            if len(args) < len(srcs):
                src = srcs[len(args)]
                if src in env:
                    args.append(env[src])
                else:
                    spend()
                    stack.append((src, inputs(src), []))
                continue
            kind = g.op_nodes[op]
            result = env[op] = args[0] if kind.name == "Phi" else op_value(kind, args)
            stack.pop()
            if not stack:
                return result
            stack[-1][2].append(result)

    current = starts[0]
    while True:
        control = [
            op for op in g.members(current) if g.op_nodes[op].name in CONTROL_SOURCES
        ]
        if len(control) != 1:
            raise MalformedGraphError(
                f"block n{current} needs exactly one control operation, found {len(control)}"
            )
        op = control[0]
        name = g.op_nodes[op].name
        if name == "Return":
            (operand,) = operands(op)
            return value(operand)
        if name == "Jmp":
            succs = g.control_succs(op)
            if len(succs) != 1:
                raise MalformedGraphError(f"Jmp n{op} needs exactly one successor")
            eid, target = succs[0]
        else:
            (selector,) = operands(op)
            want = taken_branch(value(selector))
            succs = [
                (eid, target)
                for eid, target in g.control_succs(op)
                if g.edge_nodes[eid].branch == want
            ]
            if len(succs) != 1:
                raise MalformedGraphError(
                    f"Cond n{op} needs exactly one branch-{want} successor"
                )
            eid, target = succs[0]
        spend()
        entered[target] = g.edge_nodes[eid].position
        current = target
