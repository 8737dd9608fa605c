"""Seeded program generators with an oracle that shares no code with firmfold.

A generator emits a `Plan`: a symbolic program (blocks, operations,
dataflow and control edges) together with the value it returns.  The
value is computed here, while the plan is built, with this module's own
32-bit wraparound arithmetic and comparison table; neither firmfold's
`evaluate` nor its rules are involved, so a wrong fold or a wrong
interpreter both show up as a mismatch.

Plans are written straight to native-dialect GXL by `to_native_gxl`,
with node ids drawn from a seeded permutation, so the program under test
receives nothing but the document.  An operation planned without a block
is written without a containment edge: that is the only way to reach the
`cleanup-dangling-*` rules, since the construction API refuses such
operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

_NEGATED = {"lt": "ge", "ge": "lt", "le": "gt", "gt": "le", "eq": "ne", "ne": "eq"}

_RELATIONS = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
}


def wrap(value: int) -> int:
    """Two's-complement 32-bit wraparound, independent of firmfold.wrap32."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value & 0x80000000 else value


@dataclass
class Plan:
    """A generated program and the value it returns.

    An operation whose block is None lives outside every block.
    """

    name: str
    expected: int
    blocks: list[tuple[str, str]] = field(default_factory=list)
    ops: list[tuple[str, str, int | str | None, str | None]] = field(default_factory=list)
    edges: list[tuple[str, str, str, int, int | None]] = field(default_factory=list)
    props: dict[str, int] = field(default_factory=dict)

    @property
    def elements(self) -> int:
        return len(self.blocks) + len(self.ops) + len(self.edges)


class _Builder:
    def __init__(self, name: str, rng: random.Random) -> None:
        self.rng = rng
        self.plan = Plan(name, 0)
        self.values: dict[str, int] = {}
        self.used = {0, 1}
        self.block("start", "StartBlock")
        self.block("end", "EndBlock")

    def block(self, name: str, kind: str = "Block") -> str:
        self.plan.blocks.append((name, kind))
        return name

    def op(self, name: str, kind: str, block: str | None, attr: int | str | None = None) -> str:
        self.plan.ops.append((name, kind, attr, block))
        return name

    def const(self, name: str, value: int | None = None) -> str:
        # Values are distinct and never 0 or 1 (what a folded comparison
        # yields), so no two states of a program become isomorphic by a
        # coincidence of constants and the state count depends on the
        # program's shape, not on the seed.  Half are small and half
        # anywhere in 32-bit range, so that additions wrap and
        # comparisons go both ways.
        while value is None or value in self.used:
            if self.rng.random() < 0.5:
                value = self.rng.randint(-99, 99)
            else:
                value = self.rng.randint(-(2**31), 2**31 - 1)
        self.used.add(value)
        self.values[name] = value
        return self.op(name, "Const", "start", value)

    def data(self, src: str, tgt: str, position: int) -> None:
        self.plan.edges.append((src, tgt, "data", position, None))

    def control(self, src: str, tgt: str, position: int, branch: int | None = None) -> None:
        self.plan.edges.append((src, tgt, "control", position, branch))

    def finish(self, block: str, result: str) -> Plan:
        self.op("ret", "Return", block)
        self.data(result, "ret", 0)
        self.control("ret", "end", 0)
        self.plan.expected = self.values[result]
        return self.plan


def diamond_chain(
    name: str,
    rng: random.Random,
    diamonds: int,
    dead: frozenset[int] = frozenset(),
    dangling: frozenset[int] = frozenset(),
    adds: frozenset[int] | None = None,
    branches: tuple[bool, ...] | None = None,
) -> Plan:
    """A chain of compare/branch/Phi(/Add) diamonds.

    Diamond i compares the running value with a fresh constant and
    branches; both arms jump into a merge block whose Phi picks the
    running value on one arm and another constant on the other, and an
    Add of a third constant makes the next running value (only in the
    diamonds listed in `adds`, when it is given).  When `branches` is
    given, diamond i takes its true branch iff `branches[i % len(branches)]`:
    the relation is negated where the drawn one disagrees.  Diamonds in
    `dead` get an extra entry from a block nothing reaches;
    diamonds in `dangling` get an extra entry from a Jmp outside every
    block whose Phi input is a constant outside every block.
    """
    b = _Builder(name, rng)
    current, block = b.const("c0"), "start"
    for i in range(diamonds):
        k = b.const(f"k{i}")
        lhs, rhs = (current, k) if rng.random() < 0.5 else (k, current)
        relation = rng.choice(sorted(_RELATIONS))
        taken = _RELATIONS[relation](b.values[lhs], b.values[rhs])
        if branches is not None and taken != branches[i % len(branches)]:
            relation, taken = _NEGATED[relation], not taken
        b.op(f"cmp{i}", "Cmp", block, relation)
        b.data(lhs, f"cmp{i}", 0)
        b.data(rhs, f"cmp{i}", 1)
        b.op(f"cond{i}", "Cond", block)
        b.data(f"cmp{i}", f"cond{i}", 0)
        merge = b.block(f"merge{i}")
        for arm, branch in (("t", 1), ("f", 0)):
            b.block(f"arm{i}{arm}")
            b.control(f"cond{i}", f"arm{i}{arm}", 0, branch)
            b.op(f"jmp{i}{arm}", "Jmp", f"arm{i}{arm}")
            b.control(f"jmp{i}{arm}", merge, 1 - branch)
        # The Phi input on the taken arm is always the running value, so
        # the result depends on every diamond and the untaken input is
        # always a constant that cleanup removes: which branch a seed
        # takes then does not change the program's rewrite state space.
        other = b.const(f"p{i}")
        inputs = [current, other] if taken else [other, current]
        b.op(f"phi{i}", "Phi", merge)
        for position, src in enumerate(inputs):
            b.data(src, f"phi{i}", position)
        entries = 2
        if i in dead:
            b.block(f"dead{i}")
            b.op(f"jmp{i}d", "Jmp", f"dead{i}")
            b.control(f"jmp{i}d", merge, entries)
            b.data(b.const(f"q{i}"), f"phi{i}", entries)
            entries += 1
        if i in dangling:
            b.op(f"jmp{i}x", "Jmp", None)
            b.control(f"jmp{i}x", merge, entries)
            b.op(f"x{i}", "Const", None, rng.randint(-99, 99))
            b.data(f"x{i}", f"phi{i}", entries)
        b.values[f"phi{i}"] = b.values[current]
        current, block = f"phi{i}", merge
        if adds is None or i in adds:
            addend = b.const(f"a{i}")
            operands = [current, addend]
            rng.shuffle(operands)
            b.op(f"add{i}", "Add", merge)
            b.data(operands[0], f"add{i}", 0)
            b.data(operands[1], f"add{i}", 1)
            b.values[f"add{i}"] = wrap(b.values[current] + b.values[addend])
            current = f"add{i}"
    plan = b.finish(block, current)
    plan.props = {
        "elements": plan.elements,
        "diamonds": diamonds,
        "dead_entries": len(dead),
        "dangling_entries": len(dangling),
        "adds": diamonds if adds is None else len(adds),
    }
    return plan


def add_chain(name: str, rng: random.Random, adds: int, shared: bool = False) -> Plan:
    """Straight-line code: `adds` Adds in a row, each of the previous sum and a constant.

    With `shared`, every Add reads one constant node at input 1 and the
    previous sum at input 0, as in an unrolled `x = x + c`: all Adds look
    alike, so telling them apart takes one refinement round per link.
    Otherwise each Add has its own constant and its operands in a random
    order.
    """
    b = _Builder(name, rng)
    current = b.const("c0")
    addend = b.const("c") if shared else ""
    for i in range(adds):
        if not shared:
            addend = b.const(f"c{i + 1}")
        operands = [current, addend]
        if not shared:
            rng.shuffle(operands)
        b.op(f"add{i}", "Add", "start")
        b.data(operands[0], f"add{i}", 0)
        b.data(operands[1], f"add{i}", 1)
        b.values[f"add{i}"] = wrap(b.values[current] + b.values[addend])
        current = f"add{i}"
    plan = b.finish("start", current)
    plan.props = {
        "elements": plan.elements,
        "diamonds": 0,
        "dead_entries": 0,
        "dangling_entries": 0,
        "adds": adds,
    }
    return plan


_XML_HEAD = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    '<gxl xmlns:xlink="http://www.w3.org/1999/xlink">\n'
    '  <graph id="program" edgeids="false" edgemode="directed">\n'
)


def _node(nid: int, href: str, attrs: tuple[tuple[str, str, int | str], ...] = ()) -> str:
    body = "".join(
        f'<attr name="{name}"><{tag}>{value}</{tag}></attr>' for name, tag, value in attrs
    )
    return f'    <node id="n{nid}"><type xlink:href="#{href}"/>{body}</node>\n'


def to_native_gxl(plan: Plan, rng: random.Random) -> bytes:
    """Write `plan` as a native-dialect document with shuffled node ids."""
    names = [n for n, _ in plan.blocks] + [n for n, *_ in plan.ops]
    ids = list(range(len(names) + len(plan.edges)))
    rng.shuffle(ids)
    nid = dict(zip(names, ids))
    parts = [_XML_HEAD]
    for name, kind in plan.blocks:
        parts.append(_node(nid[name], kind))
    for name, kind, attr, _ in plan.ops:
        if kind == "Const":
            parts.append(_node(nid[name], kind, (("value", "int", attr),)))
        elif kind == "Cmp":
            parts.append(_node(nid[name], kind, (("relation", "string", attr),)))
        else:
            parts.append(_node(nid[name], kind))
    relations = []
    for eid, (src, tgt, kind, position, branch) in zip(ids[len(names):], plan.edges):
        attrs: tuple[tuple[str, str, int | str], ...] = (("position", "int", position),)
        if branch is not None:
            attrs += (("branch", "int", branch),)
        href = "DataflowEdge" if kind == "data" else "ControlflowEdge"
        parts.append(_node(eid, href, attrs))
        relations.append((nid[src], eid))
        relations.append((eid, nid[tgt]))
    for name, _, _, block in plan.ops:
        if block is not None:
            relations.append((nid[block], nid[name]))
    parts.extend(f'    <edge from="n{a}" to="n{b}"/>\n' for a, b in relations)
    parts.append("  </graph>\n</gxl>\n")
    return "".join(parts).encode("utf-8")

