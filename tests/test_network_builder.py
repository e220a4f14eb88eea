from collections import Counter

import numpy as np
import pytest

from gea_nas.arch_space import ArchEncoding, Operation, random_arch
from gea_nas.network_builder import SkeletonConfig, build_network, jacobian_input_dim

ALL_NONE = ArchEncoding((Operation.NONE,) * 6)
ALL_SKIP = ArchEncoding((Operation.SKIP_CONNECT,) * 6)
ALL_3X3 = ArchEncoding((Operation.NOR_CONV_3X3,) * 6)


def expected_param_count(arch: ArchEncoding, sk: SkeletonConfig) -> int:
    """Independent bookkeeping: stem conv + one conv per conv edge per cell
    + classifier. Only convs and the linear head carry parameters."""
    cs = sk.stem_channels
    total = cs * sk.in_channels * 9  # stem 3x3, no bias
    per_cell = 0
    for op in arch.ops:
        if op is Operation.NOR_CONV_1X1:
            per_cell += cs * cs
        elif op is Operation.NOR_CONV_3X3:
            per_cell += cs * cs * 9
    total += per_cell * sk.num_stages * sk.cells_per_stage
    total += cs * sk.num_classes + sk.num_classes  # head linear + bias
    return total


def test_skeleton_validation():
    with pytest.raises(ValueError):
        SkeletonConfig(stem_channels=0)
    with pytest.raises(ValueError):
        SkeletonConfig(cells_per_stage=0)
    with pytest.raises(ValueError):
        SkeletonConfig(num_classes=1)
    with pytest.raises(ValueError):
        SkeletonConfig(image_hw=0)


def test_jacobian_input_dim():
    assert jacobian_input_dim(SkeletonConfig()) == 192
    assert jacobian_input_dim(SkeletonConfig(image_hw=32)) == 3072
    assert jacobian_input_dim(SkeletonConfig(image_hw=16)) == 768


def test_all_none_logits_constant_across_inputs():
    net = build_network(ALL_NONE)
    rng = np.random.default_rng(0)
    a = net.graph.forward(rng.normal(size=(3, 3, 8, 8)))
    b = net.graph.forward(rng.normal(size=(3, 3, 8, 8)))
    assert np.array_equal(a, b)
    assert np.array_equal(a, np.zeros_like(a))  # zero-bias head on zeros


def test_all_skip_cell_output_is_4x():
    net = build_network(ALL_SKIP)
    x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
    net.graph.forward(x)
    records = net.graph.records
    stem_out = records[2].out  # input, stem conv, stem bn
    cell_out = records[records[-4].inputs[0]].out  # head is bn, relu, gap, linear
    assert np.array_equal(cell_out, 4.0 * stem_out)


def test_param_count_all_3x3():
    net = build_network(ALL_3X3)
    assert net.param_count() == expected_param_count(ALL_3X3, net.skeleton) == 3762


def test_param_count_random_archs():
    rng = np.random.default_rng(2)
    sk = SkeletonConfig()
    for _ in range(20):
        arch = random_arch(rng)
        assert build_network(arch, sk).param_count() == expected_param_count(arch, sk)


def test_param_count_multi_cell():
    sk = SkeletonConfig(num_stages=2, cells_per_stage=2)
    net = build_network(ALL_3X3, sk)
    assert net.param_count() == expected_param_count(ALL_3X3, sk)
    convs = [r for r in net.graph.records if r.kind == "conv"]
    assert len(convs) == 1 + 6 * 4  # stem plus six 3x3 edges in each of four cells
    out = net.graph.forward(np.random.default_rng(3).normal(size=(2, 3, 8, 8)))
    assert out.shape == (2, 10)


def test_build_deterministic():
    a = build_network(ALL_3X3, rng=np.random.default_rng(9))
    b = build_network(ALL_3X3, rng=np.random.default_rng(9))
    assert [r.kind for r in a.graph.records] == [r.kind for r in b.graph.records]
    for ra, rb in zip(a.graph.records, b.graph.records):
        for pa, pb in ((ra.weight, rb.weight), (ra.bias, rb.bias)):
            assert (pa is None) == (pb is None)
            assert pa is None or np.array_equal(pa, pb)
    c = build_network(ALL_3X3, rng=np.random.default_rng(10))
    stem = 1  # record 0 is the input
    assert not np.array_equal(a.graph.records[stem].weight, c.graph.records[stem].weight)


def test_none_edge_differs_only_by_branch():
    # node 3 keeps two skip inputs either way; the avg_pool branch is the
    # only structural difference
    with_pool = ArchEncoding((Operation.SKIP_CONNECT, Operation.SKIP_CONNECT,
                              Operation.SKIP_CONNECT, Operation.AVG_POOL_3X3,
                              Operation.SKIP_CONNECT, Operation.SKIP_CONNECT))
    without = ArchEncoding((Operation.SKIP_CONNECT, Operation.SKIP_CONNECT,
                            Operation.SKIP_CONNECT, Operation.NONE,
                            Operation.SKIP_CONNECT, Operation.SKIP_CONNECT))
    kinds_a = Counter(r.kind for r in build_network(with_pool).graph.records)
    kinds_b = Counter(r.kind for r in build_network(without).graph.records)
    assert kinds_a - kinds_b == Counter({"avg_pool": 1})
    assert kinds_b - kinds_a == Counter()


def test_isolated_node_becomes_zeros():
    # node 1 unreachable (edge 0 none) while node 3 still reads it: the
    # builder must substitute an explicit zero tensor, not crash
    arch = ArchEncoding((Operation.NONE, Operation.NONE, Operation.NONE,
                         Operation.NONE, Operation.SKIP_CONNECT, Operation.NONE))
    net = build_network(arch)
    kinds = Counter(r.kind for r in net.graph.records)
    assert kinds["zeros"] >= 1
    out = net.graph.forward(np.random.default_rng(4).normal(size=(2, 3, 8, 8)))
    assert np.array_equal(out, np.zeros_like(out))


def test_forward_finite_logits_random_archs():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 3, 8, 8))
    for i in range(20):
        net = build_network(random_arch(rng), rng=np.random.default_rng(100 + i))
        logits = net.graph.forward(x)
        assert logits.shape == (4, 10)
        assert np.isfinite(logits).all()


def test_he_init_scale():
    net = build_network(ALL_3X3, rng=np.random.default_rng(0))
    records = net.graph.records
    cell_weights = np.concatenate([r.weight.ravel() for r in records[2:]  # past the stem
                                   if r.kind == "conv"])
    expected_std = np.sqrt(2.0 / (8 * 9))
    assert abs(cell_weights.std() - expected_std) / expected_std < 0.05
    assert abs(cell_weights.mean()) < 0.01
    assert records[-1].kind == "linear"
    assert np.array_equal(records[-1].bias, np.zeros(10))
