"""Cell search space: a fixed DAG of 4 nodes and 6 edges, 5 operations per edge.

The genome of the search is one operation per edge. The space therefore has
5**6 = 15625 distinct cells, each addressable by a base-5 integer index and by
a canonical cell string.
"""

from __future__ import annotations

import enum
import operator
from array import array
from functools import cache
from typing import Iterator, Sequence

import numpy as np


class Operation(enum.IntEnum):
    """The five edge operations, in canonical index order."""

    NONE = 0
    SKIP_CONNECT = 1
    NOR_CONV_1X1 = 2
    NOR_CONV_3X3 = 3
    AVG_POOL_3X3 = 4


OP_TAGS = ("none", "skip_connect", "nor_conv_1x1", "nor_conv_3x3", "avg_pool_3x3")
_TAG_TO_OP = {tag: Operation(i) for i, tag in enumerate(OP_TAGS)}

NUM_OPS = len(OP_TAGS)  # 5
NUM_EDGES = 6
SPACE_SIZE = NUM_OPS**NUM_EDGES  # 15625

# Edge e connects node pair EDGES[e]; this order is part of the encoding
# contract (serialization, hashing, mutation statistics all rely on it).
EDGES = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))


class CellParseError(ValueError):
    """Raised when a cell string does not follow the canonical format."""


# Place value of edge e's op in the base-5 index (edge 5 is the least significant).
_POWERS = tuple(NUM_OPS ** (NUM_EDGES - 1 - e) for e in range(NUM_EDGES))
_OPERATIONS = tuple(Operation)


class ArchEncoding:
    """A cell genome: one operation per edge, in EDGES order.

    The one stored fact is the base-5 ``index``; ``ops`` is derived from it.
    ``ArchEncoding(ops)`` validates a sequence of six operations (plain ints
    are accepted); ``from_index`` is the cheap constructor. Immutable, and
    equal, hashing and pickling by index.
    """

    __slots__ = ("index",)
    index: int  # base-5 key in [0, 15624]; edge 5 is the least significant digit

    def __init__(self, ops: Sequence[Operation | int]) -> None:
        if len(ops) != NUM_EDGES:
            raise ValueError(f"expected {NUM_EDGES} edge operations, got {len(ops)}")
        index = 0
        for op in ops:
            index = index * NUM_OPS + int(Operation(op))
        object.__setattr__(self, "index", index)

    @classmethod
    def from_index(cls, index: int) -> "ArchEncoding":
        """The cell with base-5 key ``index`` in [0, 15624]."""
        index = operator.index(index)
        if not 0 <= index < SPACE_SIZE:
            raise ValueError(f"index {index} outside [0, {SPACE_SIZE - 1}]")
        return _from_valid_index(index)

    @property
    def ops(self) -> tuple[Operation, ...]:
        return tuple(_OPERATIONS[self.index // power % NUM_OPS] for power in _POWERS)

    def __setattr__(self, name, value):
        raise AttributeError(f"ArchEncoding is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ArchEncoding is immutable; cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not ArchEncoding:
            return NotImplemented
        return self.index == other.index

    def __hash__(self) -> int:
        # The hash IS the space index: a bijection onto [0, SPACE_SIZE).
        return self.index

    def __reduce__(self):
        return _from_valid_index, (self.index,)

    def __repr__(self) -> str:
        return f"ArchEncoding.from_index({self.index})"

    def __str__(self) -> str:
        return encode_str(self)


def _from_valid_index(index: int) -> ArchEncoding:
    """from_index without the checks, for producers that compute a valid index."""
    arch = object.__new__(ArchEncoding)
    object.__setattr__(arch, "index", index)
    return arch


def random_arch(rng) -> ArchEncoding:
    """Sample a cell with each edge operation drawn independently and uniformly
    (six ``rng.integers(5)`` draws, edge 0 first)."""
    index = 0
    for _ in range(NUM_EDGES):
        index = index * NUM_OPS + int(rng.integers(NUM_OPS))
    return _from_valid_index(index)


def mutate(parent: ArchEncoding, rng) -> ArchEncoding:
    """Replace the operation on one uniformly chosen edge.

    The replacement is drawn uniformly from the four operations other than the
    parent's, so the child always differs from the parent on exactly one edge:
    draw r in [0, 4) picks the r-th of the other operations in index order.
    """
    power = _POWERS[int(rng.integers(NUM_EDGES))]
    old = parent.index // power % NUM_OPS
    r = int(rng.integers(NUM_OPS - 1))
    return _from_valid_index(parent.index + (r + (r >= old) - old) * power)


# Node group g (target node g + 1) holds the tokens of its g + 1 incoming
# edges. Its strings are listed in base-5 order of those edges' ops, so a
# group string's position in its table is the group's block of index digits:
# index = 5**5 * node-1 digit + 5**3 * node-2 digits + node-3 digits.
def _group_strings(target: int) -> tuple[str, ...]:
    bodies = [""]
    for src in range(target):
        bodies = [f"{body}{tag}~{src}|" for body in bodies for tag in OP_TAGS]
    return tuple("|" + body for body in bodies)


_NODE1_STRS, _NODE2_STRS, _NODE3_STRS = (_group_strings(target) for target in range(1, 4))
_NODE1, _NODE2, _NODE3 = ({text: i for i, text in enumerate(strs)}
                          for strs in (_NODE1_STRS, _NODE2_STRS, _NODE3_STRS))


def encode_str(arch: ArchEncoding) -> str:
    """Canonical cell string, e.g. ``|none~0|+|none~0|none~1|+|none~0|none~1|none~2|``.

    Node groups are separated by ``+``; within a group, token ``op~i`` names the
    operation on the edge from source node i, in source order.
    """
    i = arch.index
    return (f"{_NODE1_STRS[i // NUM_OPS**5]}+{_NODE2_STRS[i // NUM_OPS**3 % NUM_OPS**2]}"
            f"+{_NODE3_STRS[i % NUM_OPS**3]}")


def parse_str(text: str) -> ArchEncoding:
    """Inverse of encode_str; raises CellParseError naming the offending token."""
    groups = text.split("+")
    if len(groups) == 3:
        g1, g2, g3 = groups
        if g1 in _NODE1 and g2 in _NODE2 and g3 in _NODE3:
            return _from_valid_index(_NODE1[g1] * NUM_OPS**5 + _NODE2[g2] * NUM_OPS**3 + _NODE3[g3])
    return ArchEncoding(_parse_tokens(groups))


def _parse_tokens(groups: list[str]) -> list[Operation]:
    """Token-by-token parse of a cell string's node groups; every canonical
    string is in the group tables, so parse_str calls this only to name the
    fault of a non-canonical one."""
    if len(groups) != 3:
        raise CellParseError(f"expected 3 node groups separated by '+', got {len(groups)}")
    ops = []
    for g, group in enumerate(groups):
        if len(group) < 2 or not group.startswith("|") or not group.endswith("|"):
            raise CellParseError(f"node group {g + 1} must be '|'-delimited, got {group!r}")
        tokens = group[1:-1].split("|")
        if len(tokens) != g + 1:
            raise CellParseError(f"node group {g + 1} expects {g + 1} tokens, got {len(tokens)}")
        for src, token in enumerate(tokens):
            tag, sep, src_text = token.partition("~")
            if not sep:
                raise CellParseError(f"malformed token {token!r}: missing '~'")
            if tag not in _TAG_TO_OP:
                raise CellParseError(f"unknown operation tag in token {token!r}")
            if src_text != str(src):
                raise CellParseError(f"token {token!r}: expected source node {src}")
            ops.append(_TAG_TO_OP[tag])
    return ops


def enumerate_all() -> Iterator[ArchEncoding]:
    """All 15625 cells exactly once, in base-5 lexicographic order of op indices."""
    for index in range(SPACE_SIZE):
        yield _from_valid_index(index)


def op_index_table() -> np.ndarray:
    """(SPACE_SIZE, NUM_EDGES) int array: row i holds the op indices of cell i."""
    return np.arange(SPACE_SIZE)[:, None] // np.array(_POWERS) % NUM_OPS


def live_index(arch: ArchEncoding) -> int:
    """Index of ``arch`` with every dead edge set to none, the cell that builds
    the same network: an edge is dead, adding exact zeros, when no path of
    non-none edges runs from node 0 to its source or from its end to node 3."""
    return _live_table()[arch.index]


@cache
def _live_table() -> array:  # 16-bit entries, 31 KiB; a tuple of ints would take ~0.5 MiB
    ops = op_index_table()
    on = ops > 0
    yes = np.ones(SPACE_SIZE, dtype=bool)
    from0 = (yes, on[:, 0], on[:, 1] | on[:, 0] & on[:, 2])  # node reached from node 0
    to3 = (None, on[:, 4] | on[:, 2] & on[:, 5], on[:, 5], yes)  # node reaches node 3
    live = np.column_stack([from0[src] & to3[dst] for src, dst in EDGES]) & on
    return array("H", ((ops * live) @ np.array(_POWERS)).astype(np.uint16).tobytes())
