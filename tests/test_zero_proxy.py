import numpy as np
import pytest

from gea_nas.arch_space import ArchEncoding, Operation, random_arch
from gea_nas.autodiff_core import CompGraph
from gea_nas.network_builder import MicroNetwork, SkeletonConfig, build_network
from gea_nas.zero_proxy import (
    Batch,
    BatchFileError,
    ClassGroup,
    JacobianMatrix,
    JacobianProxySource,
    ProxyConfig,
    aggregate,
    class_score,
    compute_jacobian,
    correlation_matrix,
    make_batch,
    proxy_rank_key,
    read_batch_file,
    score_architecture,
    split_by_class,
    write_batch_file,
)

ALL_NONE = ArchEncoding((Operation.NONE,) * 6)


def small_batch(seed=0, n=16, k=4):
    return make_batch(ProxyConfig(batch_size=n, skeleton=SkeletonConfig(num_classes=k)),
                      np.random.default_rng(seed))


# --- Batch -----------------------------------------------------------------


def test_batch_validation():
    imgs = np.zeros((4, 3, 8, 8))
    with pytest.raises(ValueError, match="labels"):
        Batch(images=imgs, labels=np.zeros(3, dtype=int), num_classes=2)
    with pytest.raises(ValueError, match="lie in"):
        Batch(images=imgs, labels=np.array([0, 1, 2, 3]), num_classes=3)
    with pytest.raises(ValueError, match="two or more"):
        Batch(images=imgs, labels=np.array([0, 1, 2, 3]), num_classes=4)
    with pytest.raises(ValueError, match="batch size"):
        Batch(images=imgs[:1], labels=np.zeros(1, dtype=int), num_classes=2)
    with pytest.raises(ValueError, match="N,C,H,W"):
        Batch(images=imgs[0], labels=np.zeros(4, dtype=int), num_classes=2)


def test_make_batch_stratified_sizes():
    batch = make_batch(ProxyConfig(batch_size=32), np.random.default_rng(1))
    counts = np.bincount(batch.labels, minlength=10)
    assert sorted(counts) == [3] * 8 + [4] * 2


def test_make_batch_deterministic():
    a = make_batch(ProxyConfig(), np.random.default_rng(2))
    b = make_batch(ProxyConfig(), np.random.default_rng(2))
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)


def test_make_batch_needs_n_ge_k():
    with pytest.raises(ValueError, match="N >= K"):
        make_batch(ProxyConfig(batch_size=5), np.random.default_rng(0))


def test_proxy_config_validation():
    with pytest.raises(ValueError):
        ProxyConfig(t=0.0)
    with pytest.raises(ValueError):
        ProxyConfig(tau=0)


# --- batch files -----------------------------------------------------------


def test_batch_file_roundtrip(tmp_path):
    batch = small_batch(seed=3)
    path = tmp_path / "batch.bin"
    write_batch_file(path, batch)
    loaded = read_batch_file(path)
    assert np.array_equal(loaded.images, batch.images.astype(np.float32).astype(np.float64))
    assert np.array_equal(loaded.labels, batch.labels)
    assert loaded.num_classes == batch.num_classes
    # write -> read -> write is byte-stable
    path2 = tmp_path / "batch2.bin"
    write_batch_file(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_batch_file_errors(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x01\x02")
    with pytest.raises(BatchFileError, match="too short"):
        read_batch_file(path)

    good = tmp_path / "good.bin"
    write_batch_file(good, small_batch())
    data = good.read_bytes()
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(data[:-4])
    with pytest.raises(BatchFileError, match="expected"):
        read_batch_file(truncated)

    bad_header = tmp_path / "zero.bin"
    bad_header.write_bytes(b"\x00" * len(data))
    with pytest.raises(BatchFileError, match="non-positive"):
        read_batch_file(bad_header)

    # out-of-range label in the trailing int32 block
    corrupted = bytearray(data)
    corrupted[-4:] = (99).to_bytes(4, "little")
    bad_label = tmp_path / "label.bin"
    bad_label.write_bytes(bytes(corrupted))
    with pytest.raises(BatchFileError, match="labels"):
        read_batch_file(bad_label)


# --- Jacobian pipeline -----------------------------------------------------


def test_all_none_jacobian_degenerate():
    batch = small_batch()
    jac = compute_jacobian(build_network(ALL_NONE), batch)
    assert jac.degenerate
    assert np.array_equal(jac.rows, np.zeros_like(jac.rows))


def _linear_head_net(seed=7, with_relu=False):
    sk = SkeletonConfig()
    rng = np.random.default_rng(seed)
    g = CompGraph()
    rid = 0
    if with_relu:
        rid = g.add("relu", rid)
    w = rng.normal(size=(192, sk.num_classes))
    g.add("linear", rid, weight=w, bias=np.zeros(sk.num_classes))
    return MicroNetwork(graph=g, skeleton=sk, arch=ALL_NONE)


def test_linear_head_rows_identical():
    batch = small_batch()
    jac = compute_jacobian(_linear_head_net(), batch)
    assert not jac.degenerate
    assert all(np.array_equal(jac.rows[0], row) for row in jac.rows)


def test_jacobian_rows_match_finite_differences():
    batch = small_batch(seed=4, n=4, k=2)
    net = build_network(ArchEncoding.from_index(9731), rng=np.random.default_rng(5))
    jac = compute_jacobian(net, batch)
    graph = net.graph
    x = batch.images
    h = 1e-4
    rng = np.random.default_rng(6)
    for idx in rng.choice(x.size, size=24, replace=False):
        xp = x.copy()
        xp.flat[idx] += h
        fp = graph.forward(xp).sum()
        signs_p = [np.sign(p) for p in graph.relu_preacts()]
        xp.flat[idx] -= 2 * h
        fm = graph.forward(xp).sum()
        signs_m = [np.sign(p) for p in graph.relu_preacts()]
        if any((a != b).any() for a, b in zip(signs_p, signs_m)):
            continue  # secant straddles a ReLU kink
        numeric = (fp - fm) / (2 * h)
        sample, offset = divmod(idx, x[0].size)
        analytic = jac.rows[sample, offset]
        assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8) <= 1e-3


def test_jacobian_shape_mismatch():
    batch = small_batch()
    net = build_network(ArchEncoding.from_index(42), SkeletonConfig(image_hw=16))
    with pytest.raises(ValueError, match="match"):
        compute_jacobian(net, batch)


def test_split_by_class_sizes_and_order():
    rows = np.arange(12, dtype=float).reshape(3, 4)
    jac = JacobianMatrix(rows=rows, degenerate=False)
    groups = split_by_class(jac, np.array([1, 0, 0]))
    assert [g.class_id for g in groups] == [0, 1]
    assert [len(g.rows) for g in groups] == [2, 1]
    assert np.array_equal(groups[0].rows, rows[[1, 2]])


def test_split_single_class_and_reconstruction():
    rows = np.random.default_rng(8).normal(size=(10, 6))
    jac = JacobianMatrix(rows=rows, degenerate=False)
    labels = np.array([2, 0, 1, 0, 2, 2, 1, 0, 0, 1])
    groups = split_by_class(jac, labels)
    assert sum(len(g.rows) for g in groups) == 10
    stacked = np.concatenate([g.rows for g in groups])
    order = np.argsort(labels, kind="stable")
    assert np.array_equal(stacked, rows[order])
    only = split_by_class(jac, np.zeros(10, dtype=int))
    assert len(only) == 1 and len(only[0].rows) == 10


def test_split_label_out_of_range():
    jac = JacobianMatrix(rows=np.zeros((3, 4)), degenerate=False)
    with pytest.raises(ValueError, match="outside"):
        split_by_class(jac, np.array([0, 1, 5]), num_classes=3)


def test_correlation_identical_rows():
    group = ClassGroup(class_id=0, rows=np.array([[1.0, 2.0, 4.0], [1.0, 2.0, 4.0]]))
    sigma = correlation_matrix(group)
    assert np.allclose(sigma, np.ones((2, 2)), atol=1e-12)


def test_correlation_anticorrelated_rows():
    group = ClassGroup(class_id=0, rows=np.array([[1.0, -1.0], [-1.0, 1.0]]))
    sigma = correlation_matrix(group)
    assert abs(sigma[0, 1] + 1.0) <= 1e-12


def test_correlation_constant_row_degenerate():
    group = ClassGroup(class_id=0, rows=np.array([[1.0, 2.0], [3.0, 3.0]]))
    assert correlation_matrix(group) is None


def test_correlation_matches_corrcoef_oracle():
    rows = np.random.default_rng(9).normal(size=(4, 20))
    sigma = correlation_matrix(ClassGroup(class_id=0, rows=rows))
    assert np.max(np.abs(sigma - np.corrcoef(rows))) <= 1e-12


# --- scoring ---------------------------------------------------------------


def test_class_score_closed_forms():
    config = ProxyConfig()
    ones = np.ones((2, 2))
    assert abs(class_score(ones, 2, config) - 4 * np.log(1 + 1e-5)) <= 1e-12
    with_zero = np.array([[1.0, 0.0], [0.0, 1.0]])
    expected = 2 * np.log(1 + 1e-5) + 2 * np.log(1e-5)
    assert abs(class_score(with_zero, 2, config) - expected) <= 1e-12


def test_class_score_large_k_normalizes_by_entries():
    config = ProxyConfig(tau=2)
    sigma = np.random.default_rng(10).uniform(-1, 1, size=(3, 3))
    sigma = (sigma + sigma.T) / 2
    np.fill_diagonal(sigma, 1.0)
    unnormalized = np.log(np.abs(sigma) + config.t).sum()
    assert abs(class_score(sigma, 3, config) - unnormalized / 9) <= 1e-12


def test_aggregate_branches():
    config = ProxyConfig()
    assert aggregate([-3.0, 5.0], 2, config) == 8.0
    config2 = ProxyConfig(tau=2)
    assert abs(aggregate([1.0, 2.0, 4.0], 3, config2) - 2.0) <= 1e-12
    assert aggregate([5.0, 5.0, 5.0], 3, config2) == 0.0


def test_score_all_none_invalid_ranks_last():
    batch = small_batch()
    bad = score_architecture(ALL_NONE, batch, rng=np.random.default_rng(0))
    assert not bad.valid and bad.z == float("-inf") and bad.e == ()
    good = score_architecture(ArchEncoding.from_index(15624), batch,
                              rng=np.random.default_rng(0))
    assert good.valid
    assert proxy_rank_key(bad) < proxy_rank_key(good)


def test_score_deterministic():
    batch = small_batch(seed=11)
    arch = ArchEncoding.from_index(4242)
    a = score_architecture(arch, batch, rng=np.random.default_rng(3))
    b = score_architecture(arch, batch, rng=np.random.default_rng(3))
    assert a.z == b.z and a.e == b.e


def test_score_e_has_one_entry_per_class():
    batch = small_batch(seed=12, n=20, k=5)
    score = score_architecture(ArchEncoding.from_index(3333), batch,
                               rng=np.random.default_rng(4))
    assert score.valid and len(score.e) == 5


def test_ranking_invariant_to_batch_permutation():
    batch = small_batch(seed=13, n=24, k=6)
    perm = np.random.default_rng(14).permutation(batch.size)
    permuted = Batch(images=batch.images[perm], labels=batch.labels[perm],
                     num_classes=batch.num_classes)
    rng_pool = np.random.default_rng(15)
    archs = [random_arch(rng_pool) for _ in range(20)]
    z_a = [score_architecture(a, batch, rng=np.random.default_rng(500 + i)).z
           for i, a in enumerate(archs)]
    z_b = [score_architecture(a, permuted, rng=np.random.default_rng(500 + i)).z
           for i, a in enumerate(archs)]
    assert list(np.argsort(z_a)) == list(np.argsort(z_b))
    assert np.max(np.abs(np.array(z_a) - np.array(z_b))) <= 1e-9


def test_scale_invariance_without_bn():
    # ReLU masks do not move under positive scaling, so a BN-free graph
    # produces the same Jacobian and hence the same z
    batch = small_batch(seed=16)
    net = _linear_head_net(seed=17, with_relu=True)
    config = ProxyConfig()

    def z_of(images):
        scaled = Batch(images=images, labels=batch.labels, num_classes=batch.num_classes)
        jac = compute_jacobian(net, scaled)
        scores = [class_score(correlation_matrix(g), scaled.num_classes, config)
                  for g in split_by_class(jac, scaled.labels)]
        return aggregate(scores, scaled.num_classes, config)

    z1 = z_of(batch.images)
    for c in (0.5, 2.0):
        assert abs(z_of(c * batch.images) - z1) <= 1e-6


def test_sigma_properties_sample():
    rng = np.random.default_rng(18)
    batch = small_batch(seed=19, n=20, k=4)
    for i in range(10):
        net = build_network(random_arch(rng), rng=np.random.default_rng(600 + i))
        jac = compute_jacobian(net, batch)
        if jac.degenerate:
            continue
        for group in split_by_class(jac, batch.labels):
            sigma = correlation_matrix(group)
            if sigma is None:
                continue
            assert np.max(np.abs(sigma - sigma.T)) <= 1e-12
            assert np.max(np.abs(np.diag(sigma) - 1.0)) <= 1e-12
            assert sigma.max() <= 1 + 1e-12 and sigma.min() >= -1 - 1e-12


def test_jacobian_proxy_source_matches_direct_call():
    batch = small_batch(seed=20)
    source = JacobianProxySource(batch)
    arch = ArchEncoding.from_index(11111)
    via_source = source.score(arch, np.random.default_rng(21))
    direct = score_architecture(arch, batch, rng=np.random.default_rng(21))
    assert via_source == direct
