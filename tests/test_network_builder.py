from collections import Counter

import numpy as np
import pytest

from gea_nas.arch_space import SPACE_SIZE, ArchEncoding, Operation, live_index, random_arch
from gea_nas.network_builder import SkeletonConfig, build_network

from grad_helpers import forward_maps

ALL_NONE = ArchEncoding((Operation.NONE,) * 6)
ALL_SKIP = ArchEncoding((Operation.SKIP_CONNECT,) * 6)
ALL_3X3 = ArchEncoding((Operation.NOR_CONV_3X3,) * 6)


def expected_param_count(arch: ArchEncoding, sk: SkeletonConfig) -> int:
    """Independent bookkeeping: stem conv + one conv per conv edge per cell
    + classifier. Only convs and the bias-free linear head carry parameters."""
    cs = sk.stem_channels
    total = cs * sk.in_channels * 9  # stem 3x3, no bias
    per_cell = 0
    for op in arch.ops:
        if op is Operation.NOR_CONV_1X1:
            per_cell += cs * cs
        elif op is Operation.NOR_CONV_3X3:
            per_cell += cs * cs * 9
    total += per_cell * sk.num_stages * sk.cells_per_stage
    total += cs * sk.num_classes  # head linear, no bias
    return total


def param_count(graph) -> int:
    return sum(r.weight.size for r in graph.records if r.weight is not None)


def test_skeleton_validation():
    with pytest.raises(ValueError):
        SkeletonConfig(stem_channels=0)
    with pytest.raises(ValueError):
        SkeletonConfig(cells_per_stage=0)
    with pytest.raises(ValueError):
        SkeletonConfig(num_classes=1)
    with pytest.raises(ValueError):
        SkeletonConfig(image_hw=0)


def test_all_none_logits_constant_across_inputs():
    net = build_network(ALL_NONE)
    rng = np.random.default_rng(0)
    a = net.forward(rng.normal(size=(3, 3, 8, 8)))
    b = net.forward(rng.normal(size=(3, 3, 8, 8)))
    assert np.array_equal(a, b)
    assert np.array_equal(a, np.zeros_like(a))  # bias-free head on zeros


def test_all_skip_cell_output_is_4x():
    net = build_network(ALL_SKIP)
    x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
    _, maps = forward_maps(net, x)
    stem_out = maps[2]  # input, stem conv, stem bn
    cell_out = maps[net.records[-4].inputs[0]]  # head is bn, relu, gap, linear
    assert np.array_equal(cell_out, 4.0 * stem_out)


def test_param_count_all_3x3():
    net = build_network(ALL_3X3)
    assert param_count(net) == expected_param_count(ALL_3X3, SkeletonConfig()) == 3752


def test_param_count_random_archs():
    rng = np.random.default_rng(2)
    sk = SkeletonConfig()
    for _ in range(20):
        arch = random_arch(rng)
        assert param_count(build_network(arch, sk)) == expected_param_count(arch, sk)


def test_param_count_multi_cell():
    sk = SkeletonConfig(num_stages=2, cells_per_stage=2)
    net = build_network(ALL_3X3, sk)
    assert param_count(net) == expected_param_count(ALL_3X3, sk)
    convs = [r for r in net.records if r.kind == "conv"]
    assert len(convs) == 1 + 6 * 4  # stem plus six 3x3 edges in each of four cells
    out = net.forward(np.random.default_rng(3).normal(size=(2, 3, 8, 8)))
    assert out.shape == (2, 10)


def test_build_deterministic():
    a = build_network(ALL_3X3, rng=np.random.default_rng(9))
    b = build_network(ALL_3X3, rng=np.random.default_rng(9))
    assert [r.kind for r in a.records] == [r.kind for r in b.records]
    for ra, rb in zip(a.records, b.records):
        assert (ra.weight is None) == (rb.weight is None)
        assert ra.weight is None or np.array_equal(ra.weight, rb.weight)
    c = build_network(ALL_3X3, rng=np.random.default_rng(10))
    stem = 1  # record 0 is the input
    assert not np.array_equal(a.records[stem].weight, c.records[stem].weight)


def test_none_edge_differs_only_by_branch():
    # node 3 keeps two skip inputs either way; the avg_pool branch is the
    # only structural difference
    with_pool = ArchEncoding((Operation.SKIP_CONNECT, Operation.SKIP_CONNECT,
                              Operation.SKIP_CONNECT, Operation.AVG_POOL_3X3,
                              Operation.SKIP_CONNECT, Operation.SKIP_CONNECT))
    without = ArchEncoding((Operation.SKIP_CONNECT, Operation.SKIP_CONNECT,
                            Operation.SKIP_CONNECT, Operation.NONE,
                            Operation.SKIP_CONNECT, Operation.SKIP_CONNECT))
    kinds_a = Counter(r.kind for r in build_network(with_pool).records)
    kinds_b = Counter(r.kind for r in build_network(without).records)
    assert kinds_a - kinds_b == Counter({"avg_pool": 1})
    assert kinds_b - kinds_a == Counter()


def test_isolated_node_becomes_zeros():
    # node 1 unreachable (edge 0 none) while node 3 still reads it: the
    # builder must substitute an explicit zero tensor, not crash
    arch = ArchEncoding((Operation.NONE, Operation.NONE, Operation.NONE,
                         Operation.NONE, Operation.SKIP_CONNECT, Operation.NONE))
    net = build_network(arch)
    kinds = Counter(r.kind for r in net.records)
    assert kinds["zeros"] >= 1
    out = net.forward(np.random.default_rng(4).normal(size=(2, 3, 8, 8)))
    assert np.array_equal(out, np.zeros_like(out))


def test_a_live_cell_builds_only_records_that_reach_the_logits():
    # graph build only, on a 1x1 input so the weight draws cost little
    skeleton = SkeletonConfig(in_channels=1, image_hw=1, stem_channels=1)
    for index in set(map(live_index, map(ArchEncoding.from_index, range(SPACE_SIZE)))):
        records = build_network(ArchEncoding.from_index(index), skeleton).records
        reached, todo = {len(records) - 1}, [len(records) - 1]
        while todo:
            for i in records[todo.pop()].inputs:
                if i not in reached:
                    reached.add(i)
                    todo.append(i)
        assert reached == set(range(len(records))), index
        node3_live = any(ArchEncoding.from_index(index).ops[3:])
        assert any(r.kind == "zeros" for r in records) == (not node3_live), index


def test_forward_finite_logits_random_archs():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 3, 8, 8))
    for i in range(20):
        net = build_network(random_arch(rng), rng=np.random.default_rng(100 + i))
        logits = net.forward(x)
        assert logits.shape == (4, 10)
        assert np.isfinite(logits).all()


def test_he_init_scale():
    net = build_network(ALL_3X3, rng=np.random.default_rng(0))
    records = net.records
    cell_weights = np.concatenate([r.weight.ravel() for r in records[2:]  # past the stem
                                   if r.kind == "conv"])
    expected_std = np.sqrt(2.0 / (8 * 9))
    assert abs(cell_weights.std() - expected_std) / expected_std < 0.05
    assert abs(cell_weights.mean()) < 0.01
    assert records[-1].kind == "linear"
    assert records[-1].weight.shape == (8, 10)
