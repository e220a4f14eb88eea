import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gea_nas import autodiff_core
from gea_nas.arch_space import ArchEncoding, Operation
from gea_nas.autodiff_core import (
    CompGraph,
    GraphStateError,
    ShapeError,
    avg_pool_3x3,
    avg_pool_3x3_grad,
    batch_norm_input_grad,
    batch_norm_with_cache,
    conv2d,
    conv2d_input_grad,
    relu_input_grad,
)
from gea_nas.network_builder import SkeletonConfig, build_network
from gea_nas.zero_proxy import ProxyConfig, make_batch, score_architecture

from grad_helpers import forward_maps, grad_check


# Naive reference kernels, written independently of the row-shift conv path.
# They take and return (N, C, H, W); the kernels under test take (C, H, W, N),
# so each call site moves its operands with channel_major.

def channel_major(x):
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0))


def conv2d_naive(x, w):
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, cout, h, wd))
    for o in range(cout):
        for i in range(h):
            for j in range(wd):
                out[:, o, i, j] = np.sum(xp[:, :, i:i + k, j:j + k] * w[o], axis=(1, 2, 3))
    return out


def conv2d_input_grad_naive(dout, w):
    """Scatter each output gradient back over the input window it read."""
    n, cout, h, wd = dout.shape
    k = w.shape[2]
    pad = (k - 1) // 2
    dxp = np.zeros((n, w.shape[1], h + 2 * pad, wd + 2 * pad))
    for o in range(cout):
        for i in range(h):
            for j in range(wd):
                dxp[:, :, i:i + k, j:j + k] += dout[:, o, i, j, None, None, None] * w[o]
    return dxp[:, :, pad:pad + h, pad:pad + wd]


def avg_pool_naive(x):
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros_like(x)
    for b in range(n):
        for ch in range(c):
            for i in range(h):
                for j in range(w):
                    out[b, ch, i, j] = xp[b, ch, i:i + 3, j:j + 3].sum() / 9.0
    return out


def test_conv_1x1_identity_kernel():
    x = np.random.default_rng(0).normal(size=(2, 3, 4, 4))
    w = np.eye(2).reshape(2, 2, 1, 1)
    assert np.array_equal(conv2d(x, w), x)


def test_conv_constant_input_interior():
    c = 3.7
    x = np.full((2, 6, 6, 1), c)
    w = np.random.default_rng(1).normal(size=(4, 2, 3, 3))
    out = conv2d(x, w)
    interior = out[:, 1:-1, 1:-1, 0]
    expected = c * w.sum(axis=(1, 2, 3))
    assert np.allclose(interior, expected[:, None, None], atol=1e-12)


@pytest.mark.parametrize("shape,kernel", [((1, 2, 4, 4), 3), ((2, 3, 5, 5), 3),
                                          ((1, 2, 4, 4), 1), ((2, 3, 5, 5), 1)])
def test_conv_matches_naive_oracle(shape, kernel):
    rng = np.random.default_rng(sum(shape) + kernel)
    x = rng.normal(size=shape)
    w = rng.normal(size=(3, shape[1], kernel, kernel))
    out = conv2d(channel_major(x), w)
    assert np.max(np.abs(out - channel_major(conv2d_naive(x, w)))) <= 1e-12


def test_conv_shape_errors():
    x = np.zeros((2, 1, 4, 4))
    with pytest.raises(ShapeError):
        conv2d(x, np.zeros((3, 5, 3, 3)))  # channel mismatch
    with pytest.raises(ShapeError):
        conv2d(x, np.zeros((3, 2, 2, 2)))  # unsupported kernel size
    with pytest.raises(ShapeError):
        conv2d(x[0], np.zeros((3, 2, 3, 3)))  # not 4-d


def test_conv_input_grad_is_adjoint():
    # <conv(x), y> must equal <x, conv_grad(y)> for a linear operator pair.
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 2, 5, 5))
    w = rng.normal(size=(4, 3, 3, 3))
    y = rng.normal(size=(4, 2, 5, 5))
    lhs = np.sum(conv2d(x, w) * y)
    rhs = np.sum(x * conv2d_input_grad(y, w))
    assert abs(lhs - rhs) <= 1e-10


class _NanEmptyNumpy:
    """numpy, except that empty returns an array filled with NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, *args, **kwargs):
        return np.full(shape, np.nan, *args, **kwargs)


# The proxy_cifar map (C=8, 32x32, N=32) and maps one row or one column wide.
@pytest.mark.parametrize("shape", [(32, 8, 32, 32), (4, 3, 1, 7), (4, 3, 7, 1)])
def test_conv_and_input_grad_match_naive_oracles_on_nan_filled_buffers(shape, monkeypatch):
    # The row-shift buffer comes from np.empty. Here np.empty fills it with NaN,
    # so a border cell the kernel fails to zero shows up as NaN whatever memory
    # the allocator hands back.
    monkeypatch.setattr(autodiff_core, "np", _NanEmptyNumpy())
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=shape)
    w = rng.normal(size=(8, shape[1], 3, 3))
    dout = rng.normal(size=(shape[0], 8) + shape[2:])
    out = conv2d(channel_major(x), w)
    assert np.max(np.abs(out - channel_major(conv2d_naive(x, w)))) <= 1e-12
    dx = conv2d_input_grad(channel_major(dout), w)
    assert np.max(np.abs(dx - channel_major(conv2d_input_grad_naive(dout, w)))) <= 1e-12


def test_avg_pool_constant_input_corners():
    c = 2.5
    out = avg_pool_3x3(np.full((1, 5, 5, 1), c))
    assert np.allclose(out[0, 2, 2, 0], c, atol=1e-12)
    assert np.allclose(out[0, 0, 0, 0], 4 * c / 9, atol=1e-12)


def test_avg_pool_single_one():
    x = np.zeros((1, 5, 5, 1))
    x[0, 2, 2, 0] = 1.0
    out = avg_pool_3x3(x)
    expected = np.zeros((5, 5))
    expected[1:4, 1:4] = 1 / 9
    assert np.allclose(out[0, :, :, 0], expected, atol=1e-12)


def test_avg_pool_matches_naive_oracle():
    x = np.random.default_rng(3).normal(size=(1, 1, 5, 5))
    out = avg_pool_3x3(channel_major(x))
    assert np.max(np.abs(out - channel_major(avg_pool_naive(x)))) <= 1e-12


@pytest.mark.parametrize("shape", [(2, 3, 32, 32), (3, 2, 9, 5), (2, 2, 5, 9)])
def test_avg_pool_matches_naive_oracle_on_large_and_oblong_maps(shape):
    # Past the 6x6 of the property tests: 32x32 CIFAR-sized maps and H != W both ways.
    x = np.random.default_rng(sum(shape)).normal(size=shape)
    out = avg_pool_3x3(channel_major(x))
    assert np.max(np.abs(out - channel_major(avg_pool_naive(x)))) <= 1e-12


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_avg_pool_non_finite_stays_in_its_image(bad):
    # The band products turn 0 * inf into NaN, but only within the one
    # (channel, sample) image that holds the bad element.
    x = channel_major(np.random.default_rng(21).normal(size=(4, 3, 6, 5)))
    x[1, 2, 3, 2] = bad  # channel 1, row 2, column 3, sample 2
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(avg_pool_3x3(x)).all(axis=(1, 2))  # (C, N)
    expected = np.ones((3, 4), dtype=bool)
    expected[1, 2] = False
    assert np.array_equal(finite, expected)


def test_avg_pool_is_self_adjoint():
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=(2, 2, 2, 6, 6))
    assert abs(np.sum(avg_pool_3x3(x) * y) - np.sum(x * avg_pool_3x3_grad(y))) <= 1e-10


def test_batch_norm_moments():
    # epsilon (1e-5) shifts the output variance by eps/var(x); an input std
    # of 5 keeps that deviation under the 1e-6 bound being asserted.
    x = 5.0 * np.random.default_rng(5).normal(size=(3, 8, 6, 6))
    out = batch_norm_with_cache(x)[0]
    mean = out.mean(axis=(1, 2, 3))
    var = out.var(axis=(1, 2, 3))
    assert np.all(np.abs(mean) <= 1e-10)
    assert np.all(np.abs(var - 1.0) <= 1e-6)


def test_batch_norm_constant_channel_is_zero():
    x = np.full((2, 4, 3, 3), 7.0)
    assert np.array_equal(batch_norm_with_cache(x)[0], np.zeros_like(x))


def test_batch_norm_matches_two_pass_oracle():
    x = np.random.default_rng(6).normal(size=(3, 4, 5, 5))
    out = batch_norm_with_cache(x)[0]
    for c in range(3):
        vals = x[c]
        oracle = (vals - vals.mean()) / np.sqrt(vals.var() + 1e-5)
        assert np.max(np.abs(out[c] - oracle)) <= 1e-10


def test_relu_grad_zero_at_kink():
    x = np.array([[-1.0, 0.0, 2.0]])
    dout = np.ones_like(x)
    assert np.array_equal(relu_input_grad(dout, x), [[0.0, 0.0, 1.0]])


# --- property tests on random shapes --------------------------------------
#
# Shapes include H or W = 1 and H != W. draw_map gives an (N, C, H, W) map
# for the oracles.

feature_maps = st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 6),
                         st.integers(1, 6), st.integers(0, 2**32 - 1))


def draw_map(n, c, h, w, seed):
    return np.random.default_rng(seed).normal(size=(n, c, h, w))


def bn_reference(x, eps=1e-5):
    """Batch norm as the kernel computes it, (xhat, inv_std): channel sums as
    a product with ones divided by the count, the variance as a row dot."""
    rows = x.reshape(x.shape[0], -1)
    m = rows.shape[1]
    mean = (rows @ np.ones(m)) / m
    centred = rows - mean[:, None]
    inv_std = 1.0 / np.sqrt(np.vecdot(centred, centred) / m + eps)
    return (centred * inv_std[:, None]).reshape(x.shape), inv_std[:, None, None, None]


def bn_grad_reference(dout, xhat, inv_std):
    rows, xrows = dout.reshape(dout.shape[0], -1), xhat.reshape(xhat.shape[0], -1)
    m = rows.shape[1]
    dmean = (rows @ np.ones(m)) / m
    dproj = np.vecdot(rows, xrows) / m
    dx = ((rows - xrows * dproj[:, None]) - dmean[:, None]) * inv_std[:, 0, 0]
    return dx.reshape(dout.shape)


@settings(max_examples=60, deadline=None)
@given(feature_maps, st.integers(1, 4), st.sampled_from([1, 3]))
def test_conv_matches_naive_oracle_on_random_shapes(shape, cout, k):
    x = draw_map(*shape)
    w = np.random.default_rng(shape[-1] + 1).normal(size=(cout, x.shape[1], k, k))
    out = conv2d(channel_major(x), w)
    assert out.shape == (cout,) + x.shape[2:] + (x.shape[0],)
    assert np.max(np.abs(out - channel_major(conv2d_naive(x, w)))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(feature_maps, st.integers(1, 4), st.sampled_from([1, 3]))
def test_conv_adjoint_identity_on_random_shapes(shape, cout, k):
    x = channel_major(draw_map(*shape))
    rng = np.random.default_rng(shape[-1] + 1)
    w = rng.normal(size=(cout, x.shape[0], k, k))
    y = rng.normal(size=(cout,) + x.shape[1:])
    fwd = conv2d(x, w) * y
    adj = x * conv2d_input_grad(y, w)
    assert adj.shape == x.shape
    assert abs(fwd.sum() - adj.sum()) <= 1e-12 * max(1.0, np.abs(fwd).sum())


@settings(max_examples=60, deadline=None)
@given(feature_maps)
def test_avg_pool_matches_naive_oracle_on_random_shapes(shape):
    x = draw_map(*shape)
    out = avg_pool_3x3(channel_major(x))
    assert np.max(np.abs(out - channel_major(avg_pool_naive(x)))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(feature_maps)
def test_avg_pool_adjoint_identity_on_random_shapes(shape):
    x = channel_major(draw_map(*shape))
    y = np.random.default_rng(shape[-1] + 1).normal(size=x.shape)
    fwd = avg_pool_3x3(x) * y
    adj = x * avg_pool_3x3_grad(y)
    assert abs(fwd.sum() - adj.sum()) <= 1e-12 * max(1.0, np.abs(fwd).sum())


@settings(max_examples=60, deadline=None)
@given(feature_maps)
def test_batch_norm_matches_two_pass_reference(shape):
    x = channel_major(draw_map(*shape))
    dout = np.random.default_rng(shape[-1] + 1).normal(size=x.shape)
    xhat, (cached, inv_std) = batch_norm_with_cache(x)
    ref_xhat, ref_inv_std = bn_reference(x)
    # Same operations in the same order: equal bit for bit, not merely close.
    assert np.array_equal(xhat, ref_xhat) and cached is xhat
    assert np.array_equal(inv_std, ref_inv_std)
    assert np.array_equal(batch_norm_input_grad(dout, (xhat, inv_std)),
                          bn_grad_reference(dout, ref_xhat, ref_inv_std))


# --- graph-level behavior -------------------------------------------------


def _linear_graph(rng, d=12, k=3, n=2):
    g = CompGraph()
    w = rng.normal(size=(d, k))
    g.add("linear", 0, weight=w)
    return g, w, rng.normal(size=(n, 1, 1, d))


def test_forward_linear_head():
    g, w, x = _linear_graph(np.random.default_rng(7))
    logits = g.forward(x)
    assert np.allclose(logits, x.reshape(2, -1) @ w, atol=1e-12)


def test_backward_linear_rows_identical():
    g, w, x = _linear_graph(np.random.default_rng(8))
    g.forward(x)
    grad = g.backward_to_input().reshape(2, -1)
    expected = w.sum(axis=1)
    assert np.allclose(grad[0], expected, atol=1e-12)
    assert np.array_equal(grad[0], grad[1])


def test_forward_relu_kills_negative():
    g = CompGraph()
    g.add("relu", 0)
    out = g.forward(np.full((1, 1, 2, 2), -3.0))
    assert np.array_equal(out, np.zeros((1, 2, 2, 1)))
    assert np.array_equal(g.backward_to_input(), np.zeros((1, 1, 2, 2)))


def test_forward_composition_matches_kernels():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 3, 4, 4))
    w_conv = rng.normal(size=(4, 3, 3, 3))
    w_lin = rng.normal(size=(4, 5))
    g = CompGraph()
    rid = g.add("conv", 0, weight=w_conv)
    rid = g.add("relu", rid)
    rid = g.add("gap", rid)
    g.add("linear", rid, weight=w_lin)
    got = g.forward(x)
    manual = np.maximum(conv2d(channel_major(x), w_conv), 0.0).mean(axis=(1, 2)).T @ w_lin
    assert np.allclose(got, manual, atol=1e-12)


def test_graph_construction_errors():
    g = CompGraph()
    with pytest.raises(ValueError, match="unknown record kind"):
        g.add("softmax", 0)
    with pytest.raises(ValueError, match="out of range"):
        g.add("relu", 5)


def test_sum_shape_mismatch():
    g = CompGraph()
    a = g.add("gap", 0)
    g.add("sum", 0, a)
    with pytest.raises(ShapeError):
        g.forward(np.zeros((1, 2, 3, 3)))


def test_backward_before_forward_raises():
    g = CompGraph()
    g.add("relu", 0)
    with pytest.raises(GraphStateError):
        g.backward_to_input()


def test_failed_forward_leaves_nothing_to_differentiate():
    g = CompGraph()
    rid = g.add("gap", 0)
    g.add("linear", rid, weight=np.ones((2, 3)))
    g.forward(np.ones((2, 2, 3, 3)))
    with pytest.raises(ShapeError):
        g.forward(np.ones((2, 4, 3, 3)))
    with pytest.raises(GraphStateError):
        g.backward_to_input()


def test_zeros_record_blocks_gradient():
    g = CompGraph()
    z = g.add("zeros", 0)
    rid = g.add("gap", z)
    g.add("linear", rid, weight=np.ones((2, 3)))
    x = np.random.default_rng(10).normal(size=(2, 2, 3, 3))
    assert np.array_equal(g.forward(x), np.zeros((2, 3)))
    assert np.array_equal(g.backward_to_input(), np.zeros_like(x))


def test_fanout_duplicate_operand_gradient():
    # sum(x, x) doubles the gradient; the accumulator must not alias the
    # upstream array when the same record id appears twice.
    g = CompGraph()
    s = g.add("sum", 0, 0)
    rid = g.add("gap", s)
    g.add("linear", rid, weight=np.ones((1, 1)))
    x = np.random.default_rng(11).normal(size=(1, 1, 2, 2))
    g.forward(x)
    grad = g.backward_to_input()
    assert np.allclose(grad, np.full_like(x, 2.0 / 4.0), atol=1e-12)


def _micro_graph(seed):
    rng = np.random.default_rng(seed)
    g = CompGraph()
    rid = g.add("conv", 0, weight=rng.normal(size=(4, 2, 3, 3)) * 0.5)
    rid = g.add("bn", rid)
    rid = g.add("relu", rid)
    rid = g.add("avg_pool", rid)
    rid = g.add("gap", rid)
    g.add("linear", rid, weight=rng.normal(size=(4, 3)))
    return g, rng.normal(size=(3, 2, 5, 5))


def test_grad_check_linear_graph_tiny_error():
    g, _, x = _linear_graph(np.random.default_rng(12))
    assert grad_check(g, x) <= 1e-9


def test_grad_check_micro_net():
    g, x = _micro_graph(13)
    assert grad_check(g, x, step=1e-4) <= 1e-3


def test_batch_norm_input_grad_matches_fd():
    # checked against the seed <BN(x), R> with a random R; an all-ones seed
    # would be degenerate here (BN gradients of a per-channel constant vanish)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(2, 4, 3, 3))
    r = rng.normal(size=x.shape)
    _, cache = batch_norm_with_cache(x)
    analytic = batch_norm_input_grad(r, cache)
    h = 1e-5
    for idx in range(0, x.size, 7):
        xp = x.copy()
        xp.flat[idx] += h
        fp = np.sum(batch_norm_with_cache(xp)[0] * r)
        xp.flat[idx] -= 2 * h
        fm = np.sum(batch_norm_with_cache(xp)[0] * r)
        numeric = (fp - fm) / (2 * h)
        a = analytic.flat[idx]
        assert abs(a - numeric) / max(abs(a), abs(numeric), 1e-8) <= 1e-6


def test_grad_check_tiny_step_cancellation():
    # shrinking the step into the round-off regime must hurt, not help
    g, x = _micro_graph(16)
    err_good = grad_check(g, x, step=1e-4, num_samples=10,
                          rng=np.random.default_rng(0))
    err_tiny = grad_check(g, x, step=1e-12, num_samples=10,
                          rng=np.random.default_rng(0))
    assert err_tiny > err_good


def test_forward_deterministic():
    g1, x = _micro_graph(17)
    g2, _ = _micro_graph(17)
    assert np.array_equal(g1.forward(x), g2.forward(x))


# Every op, each on a live edge: node 1 is a skip of node 0, node 2 sums a 3x3
# conv and a pool, node 3 sums a 1x1 and a 3x3 conv.
EVERY_OP = ArchEncoding((Operation.SKIP_CONNECT, Operation.NOR_CONV_3X3, Operation.AVG_POOL_3X3,
                         Operation.NOR_CONV_1X1, Operation.NONE, Operation.NOR_CONV_3X3))
# No path from node 0 to node 3: every edge is dead and the cell output is a
# zeros record.
NO_PATH = ArchEncoding((Operation.NOR_CONV_3X3, Operation.AVG_POOL_3X3, Operation.SKIP_CONNECT,
                        Operation.NONE, Operation.NONE, Operation.NONE))


@pytest.mark.parametrize("skeleton", [SkeletonConfig(), SkeletonConfig(num_stages=2,
                                                                       cells_per_stage=2)],
                         ids=["default", "2-stage-2-cell"])
def test_every_feature_map_is_contiguous_channel_major(skeleton):
    n = 5
    x = np.random.default_rng(19).normal(size=(n,) + skeleton.input_shape)
    kinds = set()
    for arch in (EVERY_OP, NO_PATH):
        graph = build_network(arch, skeleton, np.random.default_rng(18))
        logits, outs = forward_maps(graph, x)
        assert logits.shape == (n, skeleton.num_classes)
        maps = [out for out in outs if out.ndim == 4]
        kinds |= {rec.kind for rec, out in zip(graph.records, outs) if out.ndim == 4}
        for out in maps:
            assert out.flags.c_contiguous and out.shape[-1] == n
        assert graph.backward_to_input().shape == x.shape
    assert kinds == {"input", "conv", "bn", "relu", "avg_pool", "sum", "zeros"}


# Nodes 1 and 2 feed nothing, so their edges are dead and get no record; the
# cell is the stem's map through one skip.
DEAD_NODES = ArchEncoding((Operation.NOR_CONV_3X3, Operation.AVG_POOL_3X3, Operation.NONE,
                           Operation.SKIP_CONNECT, Operation.NONE, Operation.NONE))


@pytest.mark.parametrize("arch", [EVERY_OP, DEAD_NODES], ids=["every-op", "dead-nodes"])
def test_forward_keeps_only_the_logits_map(arch):
    graph = build_network(arch, SkeletonConfig(), np.random.default_rng(20))
    logits = graph.forward(np.random.default_rng(21).normal(size=(4, 3, 8, 8)))
    assert [rid for rid, rec in enumerate(graph.records) if rec.out is not None] == [
        len(graph.records) - 1]
    assert graph.records[-1].out is logits


def test_backward_drops_every_cache_past_the_input():
    graph = build_network(EVERY_OP, SkeletonConfig(), np.random.default_rng(22))
    x = np.random.default_rng(23).normal(size=(4, 3, 8, 8))
    graph.forward(x)
    assert graph.backward_to_input().shape == x.shape
    assert all(rec.cache is None for rec in graph.records[1:])


def test_graph_is_spent_after_backward():
    graph = build_network(EVERY_OP, SkeletonConfig(), np.random.default_rng(24))
    x = np.random.default_rng(25).normal(size=(4, 3, 8, 8))
    graph.forward(x)
    first = graph.backward_to_input()
    with pytest.raises(GraphStateError):
        graph.backward_to_input()
    graph.forward(x)  # a new forward makes the graph usable again
    assert np.array_equal(graph.backward_to_input(), first)


def test_32x32_score_peak_heap_is_bounded():
    # Holding every map and gradient to the end peaked at ~47 MiB for this
    # cell; freeing each after its last use peaks at ~14 MiB.
    config = ProxyConfig(skeleton=SkeletonConfig(image_hw=32))
    batch = make_batch(config)
    arch = ArchEncoding((Operation.AVG_POOL_3X3,) * 6)
    tracemalloc.start()
    try:
        assert score_architecture(arch, batch, config).valid
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
