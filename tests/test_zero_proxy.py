import itertools
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gea_nas import zero_proxy
from gea_nas.arch_space import SPACE_SIZE, ArchEncoding, Operation, live_index, random_arch
from gea_nas.autodiff_core import CompGraph
from gea_nas.network_builder import SkeletonConfig, build_network
from gea_nas.zero_proxy import (
    Batch,
    BatchFileError,
    INVALID_SCORE,
    JacobianProxySource,
    SATURATION_T,
    ProxyConfig,
    aggregate,
    class_score,
    compute_jacobian,
    correlation_matrix,
    make_batch,
    read_batch_file,
    score_architecture,
    split_by_class,
)

from format_writers import write_batch_file
from grad_helpers import relu_preacts

ALL_NONE = ArchEncoding((Operation.NONE,) * 6)


def small_config(n=16, k=4):
    return ProxyConfig(batch_size=n, skeleton=SkeletonConfig(num_classes=k))


def small_batch(seed=0, n=16, k=4):
    return make_batch(small_config(n, k), np.random.default_rng(seed))


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
    with pytest.raises(ValueError, match=r"^num_classes must be >= 1, got 0$"):
        Batch(images=imgs, labels=np.zeros(4, dtype=int), num_classes=0)
    for bad in (np.nan, np.inf, -np.inf):
        corrupt = imgs.copy()
        corrupt[2, 1, 3, 4] = bad
        with pytest.raises(ValueError, match="must all be finite"):
            Batch(images=corrupt, labels=np.array([0, 0, 1, 1]), num_classes=2)


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
    # batch_size=1 is refused here too: the skeleton holds K >= 2.
    for n in (5, 1):
        with pytest.raises(ValueError, match=f"N >= K, got N={n} K=10"):
            make_batch(ProxyConfig(batch_size=n), np.random.default_rng(0))


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

    # out-of-range label in the trailing int32 block: Batch's own check
    corrupted = bytearray(data)
    corrupted[-4:] = (99).to_bytes(4, "little")
    bad_label = tmp_path / "label.bin"
    bad_label.write_bytes(bytes(corrupted))
    k = small_batch().num_classes
    with pytest.raises(ValueError, match=rf"^labels must lie in \[0, {k}\)$"):
        read_batch_file(bad_label)


# --- Jacobian pipeline -----------------------------------------------------


def test_all_none_jacobian_degenerate():
    batch = small_batch()
    assert compute_jacobian(build_network(ALL_NONE), batch) is None


def _linear_head_net(seed=7, with_relu=False):
    rng = np.random.default_rng(seed)
    g = CompGraph()
    rid = 0
    if with_relu:
        rid = g.add("relu", rid)
    g.add("linear", rid, weight=rng.normal(size=(192, 10)))
    return g


def test_linear_head_rows_identical():
    batch = small_batch()
    rows = compute_jacobian(_linear_head_net(), batch)
    assert rows is not None
    assert all(np.array_equal(rows[0], row) for row in rows)


def test_jacobian_rows_match_finite_differences():
    batch = small_batch(seed=4, n=4, k=2)
    graph = build_network(ArchEncoding.from_index(9731), rng=np.random.default_rng(5))
    rows = compute_jacobian(graph, batch)
    x = batch.images
    h = 1e-4
    rng = np.random.default_rng(6)
    for idx in rng.choice(x.size, size=24, replace=False):
        xp = x.copy()
        xp.flat[idx] += h
        fp = graph.forward(xp).sum()
        signs_p = [np.sign(p) for p in relu_preacts(graph)]
        xp.flat[idx] -= 2 * h
        fm = graph.forward(xp).sum()
        signs_m = [np.sign(p) for p in relu_preacts(graph)]
        if any((a != b).any() for a, b in zip(signs_p, signs_m)):
            continue  # secant straddles a ReLU kink
        numeric = (fp - fm) / (2 * h)
        sample, offset = divmod(idx, x[0].size)
        analytic = rows[sample, offset]
        assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8) <= 1e-3


# A 16-sample 4-class 8x8 batch against a skeleton that differs in one fact:
# (that skeleton, what the message must name of the batch and of the network).
MISFITS = {
    "image-shape": (SkeletonConfig(image_hw=16, num_classes=4), ("(3, 8, 8)", "(3, 16, 16)")),
    "class-count": (SkeletonConfig(num_classes=10), ("4 classes", "10 classes")),
}


@pytest.mark.parametrize("misfit", sorted(MISFITS))
def test_score_architecture_refuses_a_batch_that_misfits_the_skeleton(misfit):
    skeleton, named = MISFITS[misfit]
    config = ProxyConfig(batch_size=16, skeleton=skeleton)
    with pytest.raises(ValueError, match="classes") as info:
        score_architecture(ArchEncoding.from_index(42), small_batch(), config)
    assert all(side in str(info.value) for side in named)


def test_jacobian_proxy_source_refuses_a_misfit_batch():
    source = JacobianProxySource(small_batch(), ProxyConfig(), seed=0)
    with pytest.raises(ValueError, match="4 classes"):
        source.score(ArchEncoding.from_index(42))
    assert source.scores == {}


def test_split_by_class_sizes_and_order():
    rows = np.arange(12, dtype=float).reshape(3, 4)
    blocks = split_by_class(rows, np.array([1, 0, 0]))
    assert [len(b) for b in blocks] == [2, 1]
    assert np.array_equal(blocks[0], rows[[1, 2]])
    assert np.array_equal(blocks[1], rows[[0]])


def test_split_single_class_and_reconstruction():
    rows = np.random.default_rng(8).normal(size=(10, 6))
    labels = np.array([2, 0, 1, 0, 2, 2, 1, 0, 0, 1])
    blocks = split_by_class(rows, labels)
    assert sum(len(b) for b in blocks) == 10
    stacked = np.concatenate(blocks)
    order = np.argsort(labels, kind="stable")
    assert np.array_equal(stacked, rows[order])
    only = split_by_class(rows, np.zeros(10, dtype=int))
    assert len(only) == 1 and len(only[0]) == 10
    with pytest.raises(ValueError, match=r"^need 4 labels, got shape \(3,\)$"):
        split_by_class(rows[:4], labels[:3])


def test_correlation_identical_rows():
    sigma = correlation_matrix(np.array([[1.0, 2.0, 4.0], [1.0, 2.0, 4.0]]))
    assert np.allclose(sigma, np.ones((2, 2)), atol=1e-12)


def test_correlation_anticorrelated_rows():
    sigma = correlation_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert abs(sigma[0, 1] + 1.0) <= 1e-12


def test_correlation_constant_row_degenerate():
    assert correlation_matrix(np.array([[1.0, 2.0], [3.0, 3.0]])) is None


def test_correlation_matches_corrcoef_oracle():
    rows = np.random.default_rng(9).normal(size=(4, 20))
    sigma = correlation_matrix(rows)
    assert np.max(np.abs(sigma - np.corrcoef(rows))) <= 1e-12


# --- scoring ---------------------------------------------------------------


def small_tau(tau=2):
    """EPE-NAS's tau lowered, so a few classes reach the large-K branch."""
    return mock.patch.object(zero_proxy, "CLASS_THRESHOLD_TAU", tau)


def test_class_score_closed_forms():
    ones = np.ones((2, 2))
    assert abs(class_score(ones, 2) - 4 * np.log(1 + 1e-5)) <= 1e-12
    with_zero = np.array([[1.0, 0.0], [0.0, 1.0]])
    expected = 2 * np.log(1 + 1e-5) + 2 * np.log(1e-5)
    assert abs(class_score(with_zero, 2) - expected) <= 1e-12


def test_class_score_large_k_normalizes_by_entries():
    sigma = np.random.default_rng(10).uniform(-1, 1, size=(3, 3))
    sigma = (sigma + sigma.T) / 2
    np.fill_diagonal(sigma, 1.0)
    unnormalized = np.log(np.abs(sigma) + SATURATION_T).sum()
    with small_tau():
        assert abs(class_score(sigma, 3) - unnormalized / 9) <= 1e-12


def test_aggregate_branches():
    assert aggregate([-3.0, 5.0], 2) == 8.0
    with small_tau():
        assert abs(aggregate([1.0, 2.0, 4.0], 3) - 2.0) <= 1e-12
        assert aggregate([5.0, 5.0, 5.0], 3) == 0.0


def _per_block_scores(rows, labels, num_classes):
    """Reference: one correlation matrix and one class_score per class block."""
    return [class_score(correlation_matrix(block), num_classes)
            for block in split_by_class(rows, labels)]


def _tolerance(ref, labels, num_classes):
    """1e-12 relative per class, plus 1e-15 per summed entry: a correlation is
    exact to a few ulps at best, and log(|sigma| + t) keeps that absolute
    error, which dominates when every |sigma| is ~1 and every log ~t (D=2, for
    one). z moves by at most the sum over classes."""
    entries = np.unique(labels, return_counts=True)[1] ** 2.0
    large_k = num_classes > zero_proxy.CLASS_THRESHOLD_TAU
    per_class = 1e-12 * np.abs(ref) + 1e-15 * (1.0 if large_k else entries)
    return per_class.sum()


def _score_of_rows(rows, labels, num_classes):
    """score_architecture's z for a network whose Jacobian rows are ``rows``."""
    skeleton = SkeletonConfig(in_channels=1, image_hw=1, stem_channels=1,
                              num_classes=num_classes)
    batch = Batch(images=np.zeros((len(labels), 1, 1, 1)), labels=labels,
                  num_classes=num_classes)
    with mock.patch.object(zero_proxy, "compute_jacobian", lambda graph, b: rows):
        return score_architecture(ALL_NONE, batch, ProxyConfig(skeleton=skeleton)).z


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 24), st.integers(2, 12),
       st.integers(2, 8), st.integers(1, 8))
def test_one_correlation_matrix_scores_like_the_per_block_reference(seed, n, d, num_classes,
                                                                    tau):
    # random labels are unsorted and leave some ids absent, others alone
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    labels = rng.integers(0, num_classes, size=n)
    labels[1] = labels[0]  # a batch needs one class with two samples
    with small_tau(tau):
        ref = _per_block_scores(rows, labels, num_classes)
        z = _score_of_rows(rows, labels, num_classes)
        assert abs(z - aggregate(ref, num_classes)) <= _tolerance(ref, labels, num_classes)


@pytest.mark.parametrize("tau", [1, 100])
@pytest.mark.parametrize("case", ["random", "constant row", "all zero"])
def test_score_of_absent_single_and_unsorted_classes(case, tau):
    rows = np.random.default_rng(22).normal(size=(7, 5))
    labels = np.array([4, 0, 4, 1, 0, 4, 0])  # 2 and 3 absent, 1 alone
    if case == "constant row":
        rows[3] = 2.0  # the lone class-1 sample
    elif case == "all zero":
        rows[:] = 0.0
    with small_tau(tau):
        z = _score_of_rows(rows, labels, 5)
        if case != "random":
            assert z == float("-inf")
            return
        ref = _per_block_scores(rows, labels, 5)
        assert abs(z - aggregate(ref, 5)) <= _tolerance(ref, labels, 5)


@pytest.mark.parametrize("num_classes", [100, 120], ids=["CIFAR-100", "ImageNet16-120"])
def test_class_threshold_at_real_class_counts(num_classes):
    # Nothing patched: on a real Jacobian, CIFAR-100's 100 classes take the
    # sum branch and ImageNet16-120's 120 the spread branch.
    config = ProxyConfig(batch_size=2 * num_classes,
                         skeleton=SkeletonConfig(num_classes=num_classes))
    batch = make_batch(config, np.random.default_rng(23))
    arch = ArchEncoding.from_index(15624)
    z = score_architecture(arch, batch, config, np.random.default_rng(24)).z
    rows = compute_jacobian(build_network(arch, config.skeleton, np.random.default_rng(24)),
                            batch)
    ref = _per_block_scores(rows, batch.labels, num_classes)
    tolerance = _tolerance(ref, batch.labels, num_classes)
    assert np.isfinite(z) and abs(z - aggregate(ref, num_classes)) <= tolerance
    logs = [np.log(np.abs(correlation_matrix(block)) + SATURATION_T)
            for block in split_by_class(rows, batch.labels)]
    if num_classes == 100:
        branch = sum(abs(block.sum()) for block in logs)
    else:
        means = [block.mean() for block in logs]
        branch = sum(abs(a - b) for a, b in itertools.combinations(means, 2)) / num_classes
    assert abs(z - branch) <= tolerance


def test_score_all_none_invalid_ranks_last():
    batch = small_batch()
    bad = score_architecture(ALL_NONE, batch, small_config(), np.random.default_rng(0))
    assert bad == INVALID_SCORE and not bad.valid and bad.z == float("-inf")
    good = score_architecture(ArchEncoding.from_index(15624), batch, small_config(),
                              np.random.default_rng(0))
    assert good.valid and np.isfinite(good.z)
    assert bad.z < good.z


def test_score_deterministic():
    batch = small_batch(seed=11)
    arch = ArchEncoding.from_index(4242)
    a = score_architecture(arch, batch, small_config(), np.random.default_rng(3))
    b = score_architecture(arch, batch, small_config(), np.random.default_rng(3))
    assert a == b


def test_ranking_invariant_to_batch_permutation():
    batch = small_batch(seed=13, n=24, k=6)
    perm = np.random.default_rng(14).permutation(batch.size)
    permuted = Batch(images=batch.images[perm], labels=batch.labels[perm],
                     num_classes=batch.num_classes)
    rng_pool = np.random.default_rng(15)
    archs = [random_arch(rng_pool) for _ in range(20)]
    config = small_config(n=24, k=6)
    z_a = [score_architecture(a, batch, config, np.random.default_rng(500 + i)).z
           for i, a in enumerate(archs)]
    z_b = [score_architecture(a, permuted, config, np.random.default_rng(500 + i)).z
           for i, a in enumerate(archs)]
    assert list(np.argsort(z_a)) == list(np.argsort(z_b))
    assert np.max(np.abs(np.array(z_a) - np.array(z_b))) <= 1e-9


def test_scale_invariance_without_bn():
    # ReLU masks do not move under positive scaling, so a BN-free graph
    # produces the same Jacobian and hence the same z
    batch = small_batch(seed=16)
    net = _linear_head_net(seed=17, with_relu=True)

    def z_of(images):
        scaled = Batch(images=images, labels=batch.labels, num_classes=batch.num_classes)
        rows = compute_jacobian(net, scaled)
        scores = [class_score(correlation_matrix(b), scaled.num_classes)
                  for b in split_by_class(rows, scaled.labels)]
        return aggregate(scores, scaled.num_classes)

    z1 = z_of(batch.images)
    for c in (0.5, 2.0):
        assert abs(z_of(c * batch.images) - z1) <= 1e-6


def test_sigma_properties_sample():
    rng = np.random.default_rng(18)
    batch = small_batch(seed=19, n=20, k=4)
    for i in range(10):
        net = build_network(random_arch(rng), rng=np.random.default_rng(600 + i))
        rows = compute_jacobian(net, batch)
        if rows is None:
            continue
        for block in split_by_class(rows, batch.labels):
            sigma = correlation_matrix(block)
            if sigma is None:
                continue
            assert np.max(np.abs(sigma - sigma.T)) <= 1e-12
            assert np.max(np.abs(np.diag(sigma) - 1.0)) <= 1e-12
            assert sigma.max() <= 1 + 1e-12 and sigma.min() >= -1 - 1e-12


def test_jacobian_proxy_source_matches_direct_call():
    batch = small_batch(seed=20)
    arch = ArchEncoding.from_index(11111)
    for seed in (0, 21):
        source = JacobianProxySource(batch, small_config(), seed)
        assert source.batch is batch  # a batch passed in is kept as it is
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 2, arch.index)))
        assert source.score(arch) == score_architecture(arch, batch, small_config(), rng).z
        # without one, the source draws the seed's synthetic batch from key (seed, 0, 1)
        drawn = JacobianProxySource(None, small_config(), seed).batch
        expected = make_batch(small_config(),
                              np.random.default_rng(np.random.SeedSequence((seed, 0, 1))))
        assert drawn.images.tobytes() == expected.images.tobytes()
        assert drawn.labels.tobytes() == expected.labels.tobytes()
        assert drawn.num_classes == expected.num_classes


NO, SK, C1, C3, AP = tuple(Operation)
# Each pair builds one network: the first cell adds one or two dead edges.
SAME_LIVE_NETWORK = {
    "conv-into-a-dead-end": ((C3, NO, NO, C1, NO, NO), (NO, NO, NO, C1, NO, NO)),
    "pool-into-a-dead-end": ((NO, AP, NO, C3, NO, NO), (NO, NO, NO, C3, NO, NO)),
    "out-of-an-unreachable-node": ((NO, SK, SK, NO, C3, C1), (NO, SK, NO, NO, NO, C1)),
}


@pytest.mark.parametrize("pair", sorted(SAME_LIVE_NETWORK))
def test_cells_of_one_live_network_share_one_score(pair, monkeypatch):
    a, b = (ArchEncoding(ops) for ops in SAME_LIVE_NETWORK[pair])
    assert a != b and live_index(a) == live_index(b)
    computed, score = [], zero_proxy.score_architecture
    monkeypatch.setattr(zero_proxy, "score_architecture",
                        lambda arch, *args: computed.append(arch.index) or score(arch, *args))
    zs = []
    for first, second in ((a, b), (b, a)):  # the z must not depend on which comes first
        source = JacobianProxySource(small_batch(seed=22), small_config(), seed=5)
        zs += [np.float64(source.score(first)).tobytes(), np.float64(source.score(second)).tobytes()]
        assert list(source.scores) == [live_index(a)]
    assert np.isfinite(np.frombuffer(zs[0])).all() and len(set(zs)) == 1
    assert computed == [live_index(a)] * 2  # once per source


@settings(max_examples=20, deadline=None)
@given(st.integers(0, SPACE_SIZE - 1), st.integers(0, SPACE_SIZE - 1),
       st.integers(0, 2**32 - 1))
def test_jacobian_proxy_source_scores_do_not_depend_on_order(a, b, seed):
    config = ProxyConfig(batch_size=6, skeleton=SkeletonConfig(
        in_channels=1, image_hw=3, stem_channels=2, num_classes=2))
    batch = make_batch(config, np.random.default_rng(seed))
    first, second = ArchEncoding.from_index(a), ArchEncoding.from_index(b)
    forward = JacobianProxySource(batch, config, seed)
    backward = JacobianProxySource(batch, config, seed)
    a_then_b = [forward.score(first), forward.score(second)]
    b_then_a = [backward.score(second), backward.score(first)]
    assert a_then_b == b_then_a[::-1]


# --- allocator policy ------------------------------------------------------

SCORE_CELLS_CODE = """
import numpy as np
from gea_nas import zero_proxy
from gea_nas.arch_space import random_arch
batch = zero_proxy.make_batch(zero_proxy.ProxyConfig())
rng = np.random.default_rng(24)
cells = [random_arch(rng) for _ in range(8)]
def score_all():
    return [zero_proxy.score_architecture(arch, batch, rng=np.random.default_rng(i)).z
            for i, arch in enumerate(cells)]
"""

# The library path alone, never the command: prints the minor page faults per
# score of a second pass over the same cells, or "null" where mallopt is missing.
LIBRARY_FAULTS_CODE = SCORE_CELLS_CODE + """
import resource
assert zero_proxy._keep_freed_heap.cache_info().currsize == 0, "the import set a policy"
score_all()
if not zero_proxy._keep_freed_heap():
    print("null")
    raise SystemExit
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
score_all()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(cells))
"""

# Scores under glibc's default policy, with mallopt out of reach; prints the z
# values in hex.
STUBBED_Z_CODE = """
import ctypes, sys
def no_handle(name):
    raise OSError("no C library")
ctypes.CDLL = {"no-handle": no_handle, "no-symbol": lambda name: object()}[sys.argv[1]]
""" + SCORE_CELLS_CODE + """
zs = score_all()
assert zero_proxy._keep_freed_heap() is False
print(" ".join(z.hex() for z in zs))
"""


def _run_python(code, *args):
    src = str(Path(zero_proxy.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip().splitlines()[-1]


def test_library_scores_reuse_freed_heap():
    # with glibc's defaults each score faults its freed feature maps back in
    line = _run_python(LIBRARY_FAULTS_CODE)
    if line == "null":
        pytest.skip("no glibc mallopt in this C library")
    assert float(line) < 20


@pytest.mark.parametrize("stub", ["no-handle", "no-symbol"])
def test_scores_do_not_depend_on_the_allocator_policy(stub):
    namespace = {}
    exec(SCORE_CELLS_CODE, namespace)
    expected = " ".join(z.hex() for z in namespace["score_all"]())
    assert _run_python(STUBBED_Z_CODE, stub) == expected
