import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from gea_nas.arch_space import (
    EDGES,
    NUM_EDGES,
    NUM_OPS,
    OP_TAGS,
    SPACE_SIZE,
    ArchEncoding,
    CellParseError,
    Operation,
    encode_str,
    enumerate_all,
    live_index,
    mutate,
    op_index_table,
    parse_str,
    random_arch,
)

ALL_NONE = ArchEncoding((Operation.NONE,) * 6)


class StubRng:
    """integers() replays a fixed queue of values (ignores the bound)."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, n):
        return self.values.pop(0)


def test_canonical_op_order():
    assert OP_TAGS == ("none", "skip_connect", "nor_conv_1x1", "nor_conv_3x3",
                       "avg_pool_3x3")
    assert [int(op) for op in Operation] == [0, 1, 2, 3, 4]


def test_space_constants():
    assert NUM_OPS == 5 and NUM_EDGES == 6
    assert SPACE_SIZE == 5**6 == 15625
    assert EDGES == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))


def test_encoding_validation():
    with pytest.raises(ValueError, match="expected 6 edge operations, got 5"):
        ArchEncoding((Operation.NONE,) * 5)
    with pytest.raises(ValueError, match="expected 6 edge operations, got 7"):
        ArchEncoding((Operation.NONE,) * 7)
    for bad in (5, -1):
        with pytest.raises(ValueError, match=f"{bad} is not a valid Operation"):
            ArchEncoding((0, 1, 2, 3, 4, bad))
    # plain ints are coerced to Operation
    a = ArchEncoding((0, 1, 2, 3, 4, 0))
    assert a.ops[4] is Operation.AVG_POOL_3X3
    assert a == ArchEncoding.from_index(a.index)


def test_encoding_is_immutable_and_keyed_by_index():
    a = ArchEncoding.from_index(8123)
    with pytest.raises(AttributeError):
        a.index = 1
    with pytest.raises(AttributeError):
        a.ops = ALL_NONE.ops
    with pytest.raises(AttributeError):
        del a.index
    assert all(type(op) is Operation for op in a.ops)
    assert pickle.loads(pickle.dumps(a)) == a
    assert a != 8123 and a != a.ops
    assert eval(repr(a), {"ArchEncoding": ArchEncoding}) == a


def test_index_boundaries():
    assert ALL_NONE.index == 0
    assert ArchEncoding((Operation.AVG_POOL_3X3,) * 6).index == SPACE_SIZE - 1
    # edge 5 is the least significant base-5 digit
    a = ArchEncoding.from_index(1)
    assert a.ops == (0, 0, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        ArchEncoding.from_index(SPACE_SIZE)
    with pytest.raises(ValueError):
        ArchEncoding.from_index(-1)


def test_hash_is_bijection_onto_index_range():
    hashes = {hash(a) for a in enumerate_all()}
    assert hashes == set(range(SPACE_SIZE))
    a = ArchEncoding.from_index(8123)
    assert hash(a) == a.index == 8123


def test_enumerate_all_order_and_uniqueness():
    seq = list(enumerate_all())
    assert len(seq) == SPACE_SIZE
    assert seq[0] == ALL_NONE
    assert seq[-1] == ArchEncoding((Operation.AVG_POOL_3X3,) * 6)
    assert [a.index for a in seq] == list(range(SPACE_SIZE))


def test_encode_all_none():
    assert encode_str(ALL_NONE) == "|none~0|+|none~0|none~1|+|none~0|none~1|none~2|"


def test_encode_mixed():
    a = ArchEncoding((Operation.NOR_CONV_3X3, Operation.NONE, Operation.SKIP_CONNECT,
                      Operation.NONE, Operation.NONE, Operation.AVG_POOL_3X3))
    assert encode_str(a) == ("|nor_conv_3x3~0|+|none~0|skip_connect~1|"
                             "+|none~0|none~1|avg_pool_3x3~2|")


def test_roundtrip_exhaustive():
    for a in enumerate_all():
        assert parse_str(encode_str(a)) == a


def test_parse_all_none():
    assert parse_str("|none~0|+|none~0|none~1|+|none~0|none~1|none~2|") == ALL_NONE


def test_parse_errors_name_offender():
    with pytest.raises(CellParseError, match="bad_op"):
        parse_str("|bad_op~0|+|none~0|none~1|+|none~0|none~1|none~2|")
    with pytest.raises(CellParseError, match="source node 0"):
        parse_str("|none~1|+|none~0|none~1|+|none~0|none~1|none~2|")
    with pytest.raises(CellParseError, match="3 node groups"):
        parse_str("|none~0|+|none~0|none~1|")
    with pytest.raises(CellParseError, match="missing '~'"):
        parse_str("|none0|+|none~0|none~1|+|none~0|none~1|none~2|")
    with pytest.raises(CellParseError, match="2 tokens"):
        parse_str("|none~0|+|none~0|+|none~0|none~1|none~2|")
    with pytest.raises(CellParseError, match="delimited"):
        parse_str("none~0|+|none~0|none~1|+|none~0|none~1|none~2|")


def test_random_arch_stub_all_zero():
    assert random_arch(StubRng([0] * 6)) == ALL_NONE


def reference_random_arch(rng) -> ArchEncoding:
    """The enum-based sampler the index arithmetic replaced."""
    return ArchEncoding(tuple(Operation(int(rng.integers(NUM_OPS))) for _ in range(NUM_EDGES)))


def reference_mutate(parent: ArchEncoding, rng) -> ArchEncoding:
    """The enum-based mutation the index arithmetic replaced."""
    edge = int(rng.integers(NUM_EDGES))
    pool = [op for op in Operation if op != parent.ops[edge]]
    new_op = pool[int(rng.integers(NUM_OPS - 1))]
    ops = list(parent.ops)
    ops[edge] = new_op
    return ArchEncoding(tuple(ops))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), parent=st.integers(0, SPACE_SIZE - 1),
       steps=st.integers(1, 20))
def test_sampling_matches_enum_reference(seed, parent, steps):
    # Same rng stream in, same cells and same remaining stream out.
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert random_arch(ours).index == reference_random_arch(ref).index
    a = b = ArchEncoding.from_index(parent)
    for _ in range(steps):
        a, b = mutate(a, ours), reference_mutate(b, ref)
        assert a.index == b.index
    assert ours.integers(2**62) == ref.integers(2**62)


def test_random_arch_uniform_marginals():
    rng = np.random.default_rng(101)
    counts = np.zeros((NUM_EDGES, NUM_OPS), dtype=int)
    n = 100_000
    for _ in range(n):
        for e, op in enumerate(random_arch(rng).ops):
            counts[e, int(op)] += 1
    freqs = counts / n
    assert np.all(np.abs(freqs - 0.2) <= 0.01)
    for e in range(NUM_EDGES):
        assert chisquare(counts[e]).pvalue > 0.01


def test_random_arch_coverage():
    rng = np.random.default_rng(5)
    distinct = {random_arch(rng).index for _ in range(200_000)}
    assert len(distinct) >= 15_000


def test_mutate_forced_edge_and_op():
    # edge 2, replacement index 0 -> first op != none, i.e. skip_connect
    child = mutate(ALL_NONE, StubRng([2, 0]))
    expected = list(ALL_NONE.ops)
    expected[2] = Operation.SKIP_CONNECT
    assert child.ops == tuple(expected)


def test_mutate_hamming_distance_one():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        parent = random_arch(rng)
        child = mutate(parent, rng)
        diffs = [e for e in range(NUM_EDGES) if child.ops[e] != parent.ops[e]]
        assert len(diffs) == 1
        assert child != parent


def test_mutate_edge_choice_uniform():
    parent = ArchEncoding.from_index(7777)
    rng = np.random.default_rng(21)
    counts = np.zeros(NUM_EDGES, dtype=int)
    n = 6000
    for _ in range(n):
        child = mutate(parent, rng)
        edge = next(e for e in range(NUM_EDGES) if child.ops[e] != parent.ops[e])
        counts[edge] += 1
    sigma = np.sqrt(n * (1 / 6) * (5 / 6))
    assert np.all(np.abs(counts - n / 6) <= 3 * sigma)
    assert chisquare(counts).pvalue > 0.01


def test_mutate_replacement_uniform_over_other_ops():
    parent = ALL_NONE
    rng = np.random.default_rng(8)
    seen = {op: 0 for op in Operation if op != Operation.NONE}
    for _ in range(4000):
        child = mutate(parent, rng)
        edge = next(e for e in range(NUM_EDGES) if child.ops[e] != parent.ops[e])
        assert child.ops[edge] != Operation.NONE
        seen[child.ops[edge]] += 1
    freqs = np.array(list(seen.values())) / 4000
    assert np.all(np.abs(freqs - 0.25) <= 0.03)


def test_op_index_table_matches_enumeration():
    table = op_index_table()
    assert table.shape == (SPACE_SIZE, NUM_EDGES)
    assert np.array_equal(table[0], np.zeros(6))
    assert np.array_equal(table[-1], np.full(6, 4))
    for idx in (1, 77, 8123, 15624):
        assert tuple(table[idx]) == tuple(int(op) for op in ArchEncoding.from_index(idx).ops)


def plain_dead_edges(arch: ArchEncoding) -> set[int]:
    """Non-none edges on no path of non-none edges from node 0 to node 3,
    found by a search from node 0 forward and from node 3 backward."""
    on = [(e, src, dst) for e, ((src, dst), op) in enumerate(zip(EDGES, arch.ops)) if op]

    def reached(start, arcs):
        seen, todo = {start}, [start]
        while todo:
            node = todo.pop()
            for a, b in arcs:
                if a == node and b not in seen:
                    seen.add(b)
                    todo.append(b)
        return seen

    from0 = reached(0, [(src, dst) for _, src, dst in on])
    to3 = reached(3, [(dst, src) for _, src, dst in on])
    return {e for e, src, dst in on if src not in from0 or dst not in to3}


def test_live_index_matches_a_plain_reachability_search():
    live = [live_index(arch) for arch in enumerate_all()]
    assert len(set(live)) == 9445
    for arch, index in zip(enumerate_all(), live):
        dead = plain_dead_edges(arch)
        ops = [Operation.NONE if e in dead else op for e, op in enumerate(arch.ops)]
        assert index == ArchEncoding(ops).index
        pruned = ArchEncoding.from_index(index).ops
        assert {e for e in range(NUM_EDGES) if pruned[e] != arch.ops[e]} <= dead
        assert live[index] == index  # idempotent: a live cell has no dead edge
