"""Typed simple-graph model for FIRM-style program graphs.

Three node classes live in one graph: operation nodes (constants,
arithmetic, comparisons, control operations), block nodes (basic
blocks), and Edge nodes.  Dataflow and control flow are not plain
adjacencies: each such edge is nodified into an Edge node carrying its
kind, its consumer-side port position, and its two endpoints.  That
keeps the graph simple (no parallel edges, no edge attributes) while
edges still carry data.  Block membership of an operation is the one
plain adjacency (the containment map); it has no attributes.

The graph owns the port model: `input_positions` numbers an
operation's Dataflow inputs or a block's Controlflow entries,
`contiguous` tests that they run 0..n-1, and `stale_phi_inputs` lists
the Phi inputs at a position no entry of the Phi's block carries.
It also states the operations' meaning once: `op_value` gives the
value a Const, Add or Cmp computes, and `taken_branch` the branch a
Cond takes, for `evaluate` and the folding rules alike.

Node ids are ints, unique within a graph and never reused, not even
after deletion.  All queries return deterministically ordered results.
`block_nodes` holds its blocks in ascending id order: loaders insert
them sorted, fresh ids only grow, and copies keep the order.  So the
first block of a kind in that map is the one with the smallest id.
`start_block` names the first start block without scanning the map on
every call: it remembers the answer, which only adding the first start
block or deleting the remembered one can change, and copies carry it.

Queries read an adjacency index (in-edges by target, out-edges by
source, members by block) rather than scanning every Edge node, so a
query costs in proportion to the node's degree.  The index has one
invariant: it lists exactly what the node maps say.  Only the graph's
mutators write the maps, and each keeps the index in step; Edge nodes
are immutable, so a rewrite cannot move an edge behind the index's
back.  Copies share the Edge node objects, and a copy of an indexed
graph shares its index copy-on-write: each side copies an inner set of
the index before its first write to it, so a copy costs what it writes
rather than a rebuild.  A graph without an index is copied without one,
and its first query builds it.

The four edge-list queries share one body per direction and keep only
their node-class check: `data_inputs` and `control_preds` list the
in-edges as (edge id, source) pairs by (position, id), and
`data_users` and `control_succs` list the out-edges of one kind as
(edge id, target) pairs, by (target, id) and by id.

Two predicates answer the yes/no and count questions that the rules'
patterns ask most, without building, sorting or yielding a list:
`has_data_users` is `bool(data_users(n))` and reads out-edges only up
to the first Dataflow one, and `entry_count` is
`len(control_preds(b))`, the length of one inner set of the index.
Each validates its node as its list twin does.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .errors import (
    DuplicatePositionError,
    IncompatibleEndpointsError,
    UnknownBlockError,
    UnknownNodeError,
)

NodeId = int

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1

#: The signed comparison each Cmp relation names.
RELATION_TESTS: dict[str, Callable[[int, int], bool]] = {
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "eq": operator.eq,
    "ne": operator.ne,
}
RELATIONS = tuple(RELATION_TESTS)


def contiguous(positions: list[int]) -> bool:
    """Whether sorted input positions are exactly 0..n-1: no gap, no duplicate."""
    return positions == list(range(len(positions)))


def wrap32(value: int) -> int:
    """Reduce an integer to 32-bit two's-complement range."""
    return ((value - INT32_MIN) & 0xFFFFFFFF) + INT32_MIN


# Both kinds hash by identity, in C, rather than by `Enum.__hash__`, a
# Python-level hash of the member's name; their equality is identity
# already.  No output may depend on these hashes, which vary from run
# to run.


class BlockKind(Enum):
    START_BLOCK = "StartBlock"
    END_BLOCK = "EndBlock"
    BLOCK = "Block"

    __hash__ = object.__hash__


class EdgeKind(Enum):
    DATAFLOW = "Dataflow"
    CONTROLFLOW = "Controlflow"

    __hash__ = object.__hash__


#: The kind of a node: an operation name, a block kind or an edge kind.
NodeKind = str | BlockKind | EdgeKind


#: The name of every operation kind.
OP_NAMES = ("Const", "Cmp", "Cond", "Phi", "Add", "Jmp", "Return")

#: Dataflow input count per operation kind.  Phi is variable (>= 1) and
#: therefore absent.
ARITY = {"Const": 0, "Cmp": 2, "Cond": 1, "Add": 2, "Return": 1, "Jmp": 0}

#: Operation kinds that may source a Controlflow edge.
CONTROL_SOURCES = ("Jmp", "Cond", "Return")


@dataclass(frozen=True)
class OpKind:
    """Operation label.  `value` is set for Const only, `relation` for Cmp only."""

    name: str
    value: int | None = None
    relation: str | None = None

    def __post_init__(self) -> None:
        if self.name not in OP_NAMES:
            raise ValueError(f"unknown operation kind {self.name!r}")
        if (self.value is not None) != (self.name == "Const"):
            raise ValueError("value is carried by Const and only by Const")
        if self.value is not None and not INT32_MIN <= self.value <= INT32_MAX:
            raise ValueError(f"constant {self.value} outside 32-bit range")
        if (self.relation is not None) != (self.name == "Cmp"):
            raise ValueError("relation is carried by Cmp and only by Cmp")
        if self.relation is not None and self.relation not in RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")


def Const(value: int) -> OpKind:
    """Integer constant; the value is reduced to 32-bit two's-complement."""
    return OpKind("Const", value=wrap32(value))


def Cmp(relation: str) -> OpKind:
    """Signed comparison producing 1 (holds) or 0 (does not hold)."""
    return OpKind("Cmp", relation=relation)


COND = OpKind("Cond")
PHI = OpKind("Phi")
ADD = OpKind("Add")
JMP = OpKind("Jmp")
RETURN = OpKind("Return")


def op_value(kind: OpKind, operands: Sequence[int]) -> int:
    """The value a Const, Add or Cmp computes from its operands' values.

    An Add wraps its sum to 32 bits; a Cmp gives 1 where its signed
    relation holds and 0 where it does not.
    """
    if kind.name == "Const":
        return kind.value  # type: ignore[return-value]
    a, b = operands
    if kind.name == "Add":
        return wrap32(a + b)
    return int(RELATION_TESTS[kind.relation](a, b))  # type: ignore[index]


def taken_branch(selector: int) -> int:
    """The branch a Cond takes on a selector value: 1 on non-zero, 0 on zero."""
    return int(selector != 0)


@dataclass(frozen=True, slots=True)
class EdgeNode:
    """A nodified edge: kind, consumer-side port position, endpoints.

    `branch` is set exactly on Controlflow edges sourced by a Cond and
    distinguishes the successor taken when the selector is non-zero
    (branch 1) from the zero successor (branch 0).

    Edge nodes are immutable.  `ProgramGraph.redirect` and
    `set_position` replace them, so the graph's adjacency index always
    sees the change.
    """

    id: NodeId
    kind: EdgeKind
    position: int
    source: NodeId
    target: NodeId
    branch: int | None = None


_BY_POSITION = operator.attrgetter("position", "id")
_BY_TARGET = operator.attrgetter("target", "id")
_BY_ID = operator.attrgetter("id")


#: `_Adjacency._owned` of an index that shares all its inner sets.
_NONE_OWNED: frozenset[int] = frozenset()

#: `ProgramGraph._start` while the start block is not known.
_UNKNOWN = object()


class _Adjacency:
    """The index behind the queries: in-edges by target, out-edges by
    source, and member operations by block, each an insertion-ordered
    set of node ids (a dict of Nones), so a removal costs O(1).

    The in-edges of a node all have one kind, since Dataflow edges
    target operations and Controlflow edges target blocks.

    `share` gives a copy its own three maps over the same inner sets, so
    a copy costs one pass over the keys rather than over the edges.
    From then on both indexes treat every inner set as shared: the
    writers (`link`, `unlink`, `add_member`, `discard_member`) copy one
    before their first write to it.  `_owned` holds the ids of the inner
    sets an index has made since it was last shared, or is None while
    the index owns them all, as a fresh or built one does.  Ids tell the
    two apart: a shared set the index holds has been alive since the
    sharing, so no set made after it can have its id, and the index
    takes in no set that it did not make itself.
    """

    __slots__ = ("ins", "outs", "members", "_owned")

    def __init__(self, g: ProgramGraph | None = None) -> None:
        self.ins: dict[NodeId, dict[NodeId, None]] = {}
        self.outs: dict[NodeId, dict[NodeId, None]] = {}
        self.members: dict[NodeId, dict[NodeId, None]] = {}
        self._owned: set[int] | frozenset[int] | None = None
        if g is None:
            return
        ins, outs, members = self.ins, self.outs, self.members
        for e in g.edge_nodes.values():
            ins.setdefault(e.target, {})[e.id] = None
            outs.setdefault(e.source, {})[e.id] = None
        for op, block in g.containment.items():
            members.setdefault(block, {})[op] = None

    def share(self) -> _Adjacency:
        """A copy-on-write copy of this index; both now share every inner set."""
        copy = _Adjacency()
        copy.ins, copy.outs, copy.members = dict(self.ins), dict(self.outs), dict(self.members)
        # The ownership sets are made on the first write, if one comes.
        self._owned = copy._owned = _NONE_OWNED
        return copy

    def _own(self, table: dict[NodeId, dict[NodeId, None]], key: NodeId) -> dict[NodeId, None]:
        """`table`'s inner set at `key` for writing: made if absent, copied if shared."""
        owned = self._owned
        if owned is None:
            return table.setdefault(key, {})
        ids = table.get(key)
        if ids is not None and id(ids) in owned:
            return ids
        ids = table[key] = {} if ids is None else dict(ids)
        if owned is _NONE_OWNED:
            owned = self._owned = set()
        owned.add(id(ids))
        return ids

    def _discard(self, table: dict[NodeId, dict[NodeId, None]], key: NodeId, item: NodeId) -> None:
        ids = self._own(table, key)
        del ids[item]
        if not ids:
            del table[key]

    def link(self, e: EdgeNode) -> None:
        self._own(self.ins, e.target)[e.id] = None
        self._own(self.outs, e.source)[e.id] = None

    def unlink(self, e: EdgeNode) -> None:
        self._discard(self.ins, e.target, e.id)
        self._discard(self.outs, e.source, e.id)

    def add_member(self, block: NodeId, op: NodeId) -> None:
        self._own(self.members, block)[op] = None

    def discard_member(self, block: NodeId, op: NodeId) -> None:
        self._discard(self.members, block, op)


class ProgramGraph:
    """Mutable program graph over operation, block, and Edge nodes.

    Structural invariants maintained by every public operation: the
    three node maps have disjoint key sets, Edge node endpoints and
    containment targets always reference existing nodes, Dataflow edges
    connect operation nodes, and Controlflow edges run from a Jmp, Cond,
    or Return into a block.  Position uniqueness per input port set is
    enforced by `connect` but not re-checked after deletions or
    `set_position`; the verifier's pos-check owns that invariant.

    The adjacency index is built on the first query, and from then on
    the mutators (`add_op`, `connect`, `redirect`, `set_position`,
    `delete_node`) keep it in step with the four node maps, which
    callers must treat as read-only.  `copy` shares the index, if there
    is one, copy-on-write; `_from_parts` starts without one, and
    `shelve` drops it, so a graph that is only stored costs no index
    memory.

    The graph also notes which consumers' input positions may have
    changed, so that position normalization can revisit just those (see
    `take_touched`), and which nodes the mutators wrote, so that a
    driver can re-match just around those (see `take_written`).
    """

    __slots__ = (
        "op_nodes",
        "block_nodes",
        "edge_nodes",
        "containment",
        "_next_id",
        "_start",
        "_adj",
        "_touched",
        "_written",
    )

    def __init__(self) -> None:
        self.op_nodes: dict[NodeId, OpKind] = {}
        self.block_nodes: dict[NodeId, BlockKind] = {}
        self.edge_nodes: dict[NodeId, EdgeNode] = {}
        self.containment: dict[NodeId, NodeId] = {}
        self._next_id = 0
        self._start: NodeId | None | object = _UNKNOWN
        self._adj: _Adjacency | None = None
        self._touched: set[NodeId] | None = None
        self._written: set[NodeId] | None = None

    # -- adjacency index ----------------------------------------------

    def _index(self) -> _Adjacency:
        if self._adj is None:
            self._adj = _Adjacency(self)
        return self._adj

    def _touch(self, consumer: NodeId) -> None:
        if self._touched is not None:
            self._touched.add(consumer)

    def _write(self, *nodes: NodeId) -> None:
        if self._written is not None:
            self._written.update(nodes)

    def _remove_edge(self, e: EdgeNode) -> None:
        del self.edge_nodes[e.id]
        if self._adj is not None:
            self._adj.unlink(e)
        self._write(e.id, e.source, e.target)
        self._touch(e.target)
        # A block and its Phis share one position space.
        block = self.containment.get(e.target)
        if block is not None:
            self._touch(block)

    def shelve(self) -> None:
        """Free the adjacency index and forget both records.

        For graphs kept in bulk, such as the states `explore` has
        expanded: the next query rebuilds the index, and the next
        `take_touched` and `take_written` calls return None, unknown,
        and restart their records.
        """
        self._adj = None
        self._touched = None
        self._written = None

    def adjacency_index(self) -> _Adjacency:
        """The adjacency index, for reading in bulk; never to be mutated.

        A graph without an index gets a fresh one that it does not keep,
        so reading a stored graph leaves it without an index.
        """
        return self._adj if self._adj is not None else _Adjacency(self)

    def take_touched(self) -> set[NodeId] | None:
        """Consumers whose input positions may have changed since the last call.

        Those are the targets of edges connected, renumbered or removed,
        and the block of each operation that lost an input.  None means
        unknown: the graph is fresh, loaded or shelved, so any consumer
        may have gaps in its input positions.  The record restarts empty
        after each call, and `copy` carries it over.
        """
        touched, self._touched = self._touched, set()
        return touched

    def take_written(self) -> set[NodeId] | None:
        """Nodes the mutators wrote since the last call.

        Those are each node added or deleted, the members of each
        deleted block, and each Edge node connected, removed, redirected
        or renumbered together with its endpoints (on a redirect, both
        the old and the new source).  Deleted nodes stay in the record.
        None means unknown: the graph is fresh, loaded, shelved or a
        copy, whose record starts unknown.  The record restarts empty
        after each call.
        """
        written, self._written = self._written, set()
        return written

    # -- construction -------------------------------------------------

    def _fresh_id(self) -> NodeId:
        nid = self._next_id
        self._next_id += 1
        return nid

    def add_block(self, kind: BlockKind) -> NodeId:
        nid = self._fresh_id()
        self.block_nodes[nid] = kind
        if kind is BlockKind.START_BLOCK and self._start is None:
            self._start = nid
        self._write(nid)
        return nid

    def add_op(self, kind: OpKind, block: NodeId) -> NodeId:
        """Create an operation node contained in `block`."""
        if block not in self.block_nodes:
            raise UnknownBlockError(f"n{block} is not a block node")
        nid = self._fresh_id()
        self.op_nodes[nid] = kind
        self.containment[nid] = block
        if self._adj is not None:
            self._adj.add_member(block, nid)
        self._write(nid)
        return nid

    def _check_edge(
        self, kind: EdgeKind, source: NodeId, target: NodeId, branch: int | None
    ) -> None:
        """Raise unless an edge of `kind` may run from `source` to `target`."""
        for endpoint in (source, target):
            if endpoint not in self.op_nodes and endpoint not in self.block_nodes:
                raise UnknownNodeError(f"n{endpoint} does not exist")
        if kind is EdgeKind.DATAFLOW:
            if source not in self.op_nodes or target not in self.op_nodes:
                raise IncompatibleEndpointsError(
                    "Dataflow edges connect operation nodes"
                )
            cond_sourced = False
        else:
            if target not in self.block_nodes:
                raise IncompatibleEndpointsError("Controlflow edges target a block")
            source_kind = self.op_nodes.get(source)
            if source_kind is None or source_kind.name not in CONTROL_SOURCES:
                raise IncompatibleEndpointsError(
                    "Controlflow edges are sourced by Jmp, Cond, or Return"
                )
            cond_sourced = source_kind.name == "Cond"
        if cond_sourced:
            if branch not in (0, 1):
                raise IncompatibleEndpointsError(
                    "Controlflow edges sourced by a Cond carry branch 0 or 1"
                )
        elif branch is not None:
            raise IncompatibleEndpointsError(
                "branch is only carried by Cond-sourced Controlflow edges"
            )

    def connect(
        self,
        source: NodeId,
        target: NodeId,
        kind: EdgeKind,
        position: int,
        *,
        branch: int | None = None,
    ) -> NodeId:
        """Create an Edge node from `source` to `target` at `position`.

        Raises:
            UnknownNodeError: an endpoint does not exist.
            IncompatibleEndpointsError: endpoint classes or the branch
                attribute do not fit the edge kind.
            DuplicatePositionError: an Edge node with the same
                (kind, target, position) already exists.
        """
        if position < 0:
            raise ValueError("position must be non-negative")
        self._check_edge(kind, source, target, branch)
        if position in self.input_positions(target):
            raise DuplicatePositionError(
                f"{kind.value} input {position} of n{target} already occupied"
            )
        nid = self._fresh_id()
        edge = EdgeNode(nid, kind, position, source, target, branch)
        self.edge_nodes[nid] = edge
        self._index().link(edge)
        self._touch(target)
        self._write(nid, source, target)
        return nid

    def _edge(self, edge: NodeId) -> EdgeNode:
        if edge not in self.edge_nodes:
            raise UnknownNodeError(f"n{edge} is not an Edge node")
        return self.edge_nodes[edge]

    def redirect(self, edge: NodeId, source: NodeId) -> None:
        """Move the source end of `edge` to `source`, dropping its branch.

        Raises as `connect` does when the new source does not fit.
        """
        e = self._edge(edge)
        self._check_edge(e.kind, source, e.target, None)
        adj = self._index()
        adj.unlink(e)
        moved = EdgeNode(edge, e.kind, e.position, source, e.target)
        self.edge_nodes[edge] = moved
        adj.link(moved)
        self._write(edge, e.source, source, e.target)

    def set_position(self, edge: NodeId, position: int) -> None:
        """Renumber the consumer-side port of `edge`.

        Uniqueness among the consumer's inputs is not checked.
        """
        if position < 0:
            raise ValueError("position must be non-negative")
        e = self._edge(edge)
        self.edge_nodes[edge] = EdgeNode(edge, e.kind, position, e.source, e.target, e.branch)
        self._touch(e.target)
        self._write(edge, e.source, e.target)

    def delete_node(self, node: NodeId) -> int:
        """Delete a node and every Edge node incident to it.

        Deleting a block does not delete its member operations; they
        merely lose their containment entry.  Returns the number of
        deleted elements (the node itself plus incident Edge nodes).
        """
        if node in self.edge_nodes:
            self._remove_edge(self.edge_nodes[node])
            return 1
        if node not in self.op_nodes and node not in self.block_nodes:
            raise UnknownNodeError(f"n{node} does not exist")
        adj = self._index()
        incident = {*adj.ins.get(node, ()), *adj.outs.get(node, ())}
        for eid in incident:
            self._remove_edge(self.edge_nodes[eid])
        self._write(node)
        if node in self.op_nodes:
            del self.op_nodes[node]
            block = self.containment.pop(node, None)
            if block is not None:
                adj.discard_member(block, node)
        else:
            del self.block_nodes[node]
            if node == self._start:
                self._start = _UNKNOWN
            members = adj.members.pop(node, ())
            for op in members:
                del self.containment[op]
            self._write(*members)
        return 1 + len(incident)

    # -- queries ------------------------------------------------------

    def op_kind(self, n: NodeId) -> OpKind:
        if n not in self.op_nodes:
            raise UnknownNodeError(f"n{n} is not an operation node")
        return self.op_nodes[n]

    def block_kind(self, b: NodeId) -> BlockKind:
        if b not in self.block_nodes:
            raise UnknownBlockError(f"n{b} is not a block node")
        return self.block_nodes[b]

    def kind_of(self, n: NodeId) -> NodeKind | None:
        """The kind of node `n`, or None when it does not exist."""
        if n in self.op_nodes:
            return self.op_nodes[n].name
        if n in self.edge_nodes:
            return self.edge_nodes[n].kind
        return self.block_nodes.get(n)

    def blocks_of_kind(self, kind: BlockKind) -> list[NodeId]:
        return sorted(b for b, k in self.block_nodes.items() if k is kind)

    def start_block(self) -> NodeId | None:
        """The start block with the smallest id, or None when there is none.

        The answer is remembered.  Adding a block changes it only from
        None, since fresh ids only grow; deleting the remembered block
        forgets it, and the next call finds the first start block in
        `block_nodes`.
        """
        if self._start is _UNKNOWN:
            self._start = next(
                (b for b, kind in self.block_nodes.items() if kind is BlockKind.START_BLOCK), None
            )
        return self._start  # type: ignore[return-value]

    def input_positions(self, n: NodeId) -> list[int]:
        """Ascending positions of an operation's Dataflow inputs or a block's entries."""
        if n not in self.op_nodes and n not in self.block_nodes:
            raise UnknownNodeError(f"n{n} does not exist")
        edges = self.edge_nodes
        return sorted(edges[eid].position for eid in self._index().ins.get(n, ()))

    def stale_phi_inputs(self, phi: NodeId) -> list[NodeId]:
        """Input edges of Phi `phi`, by position, at a position no entry of its block carries.

        Such an input is never selected.  A blockless Phi has none.
        """
        block = self.containment.get(phi)
        if block is None:
            return []
        entries = set(self.input_positions(block))
        edges = self.edge_nodes
        return [eid for eid, _ in self.data_inputs(phi) if edges[eid].position not in entries]

    def _sources(self, n: NodeId) -> list[tuple[NodeId, NodeId]]:
        """(edge id, source) pairs of the edges into `n`, ascending by (position, id)."""
        edges = self.edge_nodes
        ins = [edges[eid] for eid in self._index().ins.get(n, ())]
        ins.sort(key=_BY_POSITION)
        return [(e.id, e.source) for e in ins]

    def _targets(self, n: NodeId, kind: EdgeKind, key: Callable) -> list[tuple[NodeId, NodeId]]:
        """(edge id, target) pairs of the `kind` edges out of `n`, ascending by `key`."""
        edges = self.edge_nodes
        outs = [edges[eid] for eid in self._index().outs.get(n, ()) if edges[eid].kind is kind]
        outs.sort(key=key)
        return [(e.id, e.target) for e in outs]

    def data_inputs(self, n: NodeId) -> list[tuple[NodeId, NodeId]]:
        """Dataflow (edge id, source) pairs into `n`, ascending by position."""
        if n not in self.op_nodes:
            raise UnknownNodeError(f"n{n} is not an operation node")
        return self._sources(n)

    def data_users(self, n: NodeId) -> list[tuple[NodeId, NodeId]]:
        """Dataflow (edge id, target) pairs out of `n`, ascending by target id."""
        if n not in self.op_nodes:
            raise UnknownNodeError(f"n{n} is not an operation node")
        return self._targets(n, EdgeKind.DATAFLOW, _BY_TARGET)

    def has_data_users(self, n: NodeId) -> bool:
        """Whether a Dataflow edge leaves `n`: `bool(data_users(n))`, with no list."""
        if n not in self.op_nodes:
            raise UnknownNodeError(f"n{n} is not an operation node")
        edges = self.edge_nodes
        # Any operation may source a Dataflow edge (`_check_edge`), and a
        # Jmp, Cond or Return sources Controlflow edges too: read each kind.
        for eid in self._index().outs.get(n, ()):
            if edges[eid].kind is EdgeKind.DATAFLOW:
                return True
        return False

    def control_preds(self, b: NodeId) -> list[tuple[NodeId, NodeId]]:
        """Controlflow (edge id, source) pairs into block `b`, ascending by position."""
        if b not in self.block_nodes:
            raise UnknownBlockError(f"n{b} is not a block node")
        return self._sources(b)

    def entry_count(self, b: NodeId) -> int:
        """The number of Controlflow entries of block `b`: `len(control_preds(b))`."""
        if b not in self.block_nodes:
            raise UnknownBlockError(f"n{b} is not a block node")
        return len(self._index().ins.get(b, ()))

    def control_succs(self, n: NodeId) -> list[tuple[NodeId, NodeId]]:
        """Controlflow (edge id, target block) pairs sourced by operation `n`."""
        if n not in self.op_nodes:
            raise UnknownNodeError(f"n{n} is not an operation node")
        return self._targets(n, EdgeKind.CONTROLFLOW, _BY_ID)

    def members(self, b: NodeId) -> list[NodeId]:
        """Operation nodes contained in block `b`, ascending by id."""
        if b not in self.block_nodes:
            raise UnknownBlockError(f"n{b} is not a block node")
        return sorted(self._index().members.get(b, ()))

    def element_count(self) -> int:
        return len(self.op_nodes) + len(self.block_nodes) + len(self.edge_nodes)

    # -- copying and low-level assembly -------------------------------

    def copy(self) -> ProgramGraph:
        """An independent graph with the same nodes; edges are shared, being immutable.

        The copy shares this graph's adjacency index, if it has one,
        copy-on-write (`_Adjacency.share`), so neither graph sees the
        other's writes.
        """
        h = ProgramGraph()
        h.op_nodes = dict(self.op_nodes)
        h.block_nodes = dict(self.block_nodes)
        h.edge_nodes = dict(self.edge_nodes)
        h.containment = dict(self.containment)
        h._next_id = self._next_id
        h._start = self._start
        h._touched = None if self._touched is None else set(self._touched)
        if self._adj is not None:
            h._adj = self._adj.share()
        return h

    @classmethod
    def _from_parts(
        cls,
        op_nodes: dict[NodeId, OpKind],
        block_nodes: dict[NodeId, BlockKind],
        edge_nodes: dict[NodeId, EdgeNode],
        containment: dict[NodeId, NodeId],
    ) -> ProgramGraph:
        """Assemble a graph from raw maps, validating structural invariants.

        Used by loaders.  Position uniqueness is deliberately not
        enforced here; pos-check reports it.  Blocks are inserted in
        ascending id order (see the module docstring).
        """
        ids = list(op_nodes) + list(block_nodes) + list(edge_nodes)
        if len(set(ids)) != len(ids):
            raise UnknownNodeError("node classes share an id")
        g = cls()
        g.op_nodes = dict(op_nodes)
        g.block_nodes = dict(sorted(block_nodes.items()))
        g.edge_nodes = dict(edge_nodes)
        g.containment = dict(containment)
        g._next_id = max(ids, default=-1) + 1
        for e in g.edge_nodes.values():
            if e.position < 0:
                raise IncompatibleEndpointsError(f"edge n{e.id} has negative position")
            try:
                g._check_edge(e.kind, e.source, e.target, e.branch)
            except (UnknownNodeError, IncompatibleEndpointsError) as exc:
                raise type(exc)(f"edge n{e.id}: {exc}") from None
        for op, blk in g.containment.items():
            if op not in g.op_nodes:
                raise UnknownNodeError(f"containment key n{op} is not an operation")
            if blk not in g.block_nodes:
                raise UnknownBlockError(f"containment target n{blk} is not a block")
        return g

    def __repr__(self) -> str:
        return (
            f"ProgramGraph(ops={len(self.op_nodes)}, blocks={len(self.block_nodes)}, "
            f"edges={len(self.edge_nodes)})"
        )
