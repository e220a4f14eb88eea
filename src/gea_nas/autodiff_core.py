"""Dense float64 kernels and a record-based graph with reverse-mode
differentiation back to the network input.

Tensors are plain numpy float64 arrays. Every feature map inside a CompGraph,
and every kernel operand, is channel-major with the sample axis last:
(C, H, W, N), and (C, N) after global average pooling. CompGraph.forward
copies its (N, C, H, W) batch into that layout once and backward_to_input
hands the input gradient back as (N, C, H, W); linear is the one kernel that
puts samples first, flattening to (N, F) for (N, K) logits. Only input
gradients are needed (networks are scored untrained), so weights are
constants of the graph and no parameter gradients are kept. A graph frees
each map after its last reader and each gradient once it is used.

Conventions:
  - convolutions are cross-correlations, stride 1, zero padding (k-1)/2,
    no bias;
  - 3x3 average pooling uses zero padding with the divisor fixed at 9
    (padded zeros count);
  - batch norm uses batch statistics (scale 1, shift 0, eps 1e-5) and
    gradients flow through the statistics;
  - the ReLU gradient at exactly 0 is 0.

Kernel forms:
  - a 1x1 conv is one GEMM of the (Cout, Cin) weights with the input as a
    (Cin, H*W*N) matrix; a 3x3 conv copies its input once into row shifts,
    (Cin, 3, H+2, W, N) with row j shifted by j-1 along W and one zero row
    above and below, and sums three GEMMs of the (Cout, Cin*3) weights of
    kernel row i with the (Cin*3, H*W*N) view of those shifts that starts
    at row i (a column slice that BLAS reads in place, no copy);
  - the conv input gradient is the forward conv with each kernel flipped
    spatially and Cin/Cout swapped, its adjoint;
  - pooling is two products with tridiagonal bands of ones, (W, W) along W
    and then (H, H)/9 along H; it is symmetric, so it is its own gradient,
    and one non-finite element makes its (channel, sample) image NaN (0*inf);
  - batch norm centres its input once; its statistics are BLAS reductions
    of one contiguous row per channel: sums as a product with ones divided
    by the count, the variance and the projection as row dot products, at
    one OpenBLAS thread: OpenBLAS splits a dot product longer than 10000
    among its threads, which moves its last bits.

Every kernel runs a fixed sequence of numpy operations, so results are
reproducible bit for bit on a given machine, numpy build and BLAS, at any
BLAS thread count; another BLAS may differ in the last bits of a conv or a
pooling.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from pathlib import Path

import numpy as np

BN_EPS = 1e-5


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the operation's contract."""


class GraphStateError(RuntimeError):
    """Graph used out of order, e.g. backward before forward."""


# ---------------------------------------------------------------------------
# Kernels (forward + input-gradient pairs)
# ---------------------------------------------------------------------------


def _correlate(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """conv2d without the operand checks. The input gradient calls this
    directly, so conv2d itself runs only for forward convolutions."""
    cin, h, wd, n = x.shape
    cout = w.shape[0]
    if w.shape[2] == 1:
        return (w.reshape(cout, cin) @ x.reshape(cin, -1)).reshape(cout, h, wd, n)
    buf = np.empty((cin, 3, h + 2, wd, n))
    buf[:, :, [0, -1]] = 0.0
    buf[:, 0, 1:-1, 0] = 0.0
    buf[:, 0, 1:-1, 1:] = x[:, :, :-1]
    buf[:, 1, 1:-1] = x
    buf[:, 2, 1:-1, :-1] = x[:, :, 1:]
    buf[:, 2, 1:-1, -1] = 0.0
    rows, wn, hwn = buf.reshape(cin * 3, -1), wd * n, h * wd * n
    out = w[:, :, 0].reshape(cout, -1) @ rows[:, :hwn]
    for i in (1, 2):
        out += w[:, :, i].reshape(cout, -1) @ rows[:, i * wn : i * wn + hwn]
    return out.reshape(cout, h, wd, n)


def conv2d(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Cross-correlation of (Cin, H, W, N) with weights (Cout, Cin, k, k), k in {1, 3},
    giving (Cout, H, W, N)."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d operands, got {x.shape} and {w.shape}")
    _, cin_w, k, k2 = w.shape
    if x.shape[0] != cin_w:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape[0]}, weights {cin_w}")
    if k != k2 or k not in (1, 3):
        raise ShapeError(f"conv2d kernel must be 1x1 or 3x3, got {k}x{k2}")
    return _correlate(x, w)


def conv2d_input_grad(dout: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient of conv2d w.r.t. its input, for upstream gradient dout.

    The adjoint of a zero-padded cross-correlation is the same correlation
    with each kernel flipped in both spatial axes and Cin/Cout swapped.
    """
    return _correlate(dout, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))


@lru_cache(maxsize=32)
def _band(n: int) -> np.ndarray:
    """The (n, n) tridiagonal matrix of ones; read-only, as the cache shares it."""
    band = np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    band.flags.writeable = False
    return band


@lru_cache(maxsize=32)
def _ones(m: int) -> np.ndarray:
    """A read-only vector of m ones, the operand of the BN sums."""
    ones = np.ones(m)
    ones.flags.writeable = False
    return ones


def avg_pool_3x3(x: np.ndarray) -> np.ndarray:
    """3x3 window mean of (C, H, W, N), stride 1, zero pad 1, divisor 9: one band
    product sums along W, another along H; a band omits the padded zeros."""
    c, h, w, n = x.shape
    rows = np.matmul(_band(w), x.reshape(c * h, w, n))
    return np.matmul(_band(h) / 9.0, rows.reshape(c, h, w * n)).reshape(x.shape)


# Pooling is self-adjoint (symmetric bands), so its input gradient is itself.
avg_pool_3x3_grad = avg_pool_3x3


@lru_cache(maxsize=None)
def _blas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy has
    loaded, found by their symbols in each mapped library named *blas*, or
    None where there is no such library or no /proc/self/maps."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted({line.split()[-1] for line in maps.splitlines()
                        if "blas" in line.lower() and line.split()[-1].startswith("/")}):
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            try:
                lib = ctypes.CDLL(path)
                get, put = (getattr(lib, name.format(verb)) for verb in ("get", "set"))
            except (OSError, AttributeError):
                continue
            get.restype, get.argtypes, put.argtypes = ctypes.c_int, [], [ctypes.c_int]
            return get, put
    return None


def _at_one_blas_thread(kernel):
    """kernel run at one OpenBLAS thread, the count put back after; it sets
    nothing where the count is already 1 or cannot be set. The batch-norm
    kernels use it, and so does the proxy source for a whole batch."""
    @wraps(kernel)
    def pinned(*args):
        blas = _blas_threads()
        if blas is None or (before := blas[0]()) == 1:
            return kernel(*args)
        blas[1](1)
        try:
            return kernel(*args)
        finally:
            blas[1](before)
    return pinned


@_at_one_blas_thread
def batch_norm_with_cache(x: np.ndarray):
    """Per-channel normalization by batch statistics over (N, H, W); scale 1,
    shift 0. Returns the output and the (xhat, inv_std) backward cache."""
    c, m = x.shape[0], x[0].size
    mean = (x.reshape(c, m) @ _ones(m)) / m
    xhat = x - mean.reshape(c, 1, 1, 1)
    centred = xhat.reshape(c, m)
    inv_std = 1.0 / np.sqrt(np.vecdot(centred, centred) / m + BN_EPS).reshape(c, 1, 1, 1)
    xhat *= inv_std
    return xhat, (xhat, inv_std)


@_at_one_blas_thread
def batch_norm_input_grad(dout: np.ndarray, cache) -> np.ndarray:
    xhat, inv_std = cache
    c, m = dout.shape[0], dout[0].size
    rows = dout.reshape(c, m)
    dmean = (rows @ _ones(m)) / m
    dx = xhat * (np.vecdot(rows, xhat.reshape(c, m)) / m).reshape(c, 1, 1, 1)
    np.subtract(dout, dx, out=dx)
    dx -= dmean.reshape(c, 1, 1, 1)
    dx *= inv_std
    return dx


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_input_grad(dout: np.ndarray, x: np.ndarray) -> np.ndarray:
    return dout * (x > 0.0)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """(C, H, W, N) -> (C, N) spatial mean."""
    return x.mean(axis=(1, 2))


def linear(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Flatten x, sample axis last, to (N, F) and apply xW; W is (F, K), no bias."""
    flat = np.moveaxis(x, -1, 0).reshape(x.shape[-1], -1)
    if flat.shape[1] != w.shape[0]:
        raise ShapeError(f"linear expects {w.shape[0]} features, got {flat.shape[1]}")
    return flat @ w


# ---------------------------------------------------------------------------
# Computation graph
# ---------------------------------------------------------------------------

_KINDS = ("input", "conv", "bn", "relu", "avg_pool", "sum", "zeros", "gap", "linear")


@dataclass
class Record:
    """One op in a CompGraph: kind, operand record ids, constant parameters,
    plus the record's map while a reader needs it and what backward reads."""

    kind: str
    inputs: tuple[int, ...]
    weight: np.ndarray | None = None
    out: np.ndarray | None = field(default=None, repr=False)
    cache: object = field(default=None, repr=False)


class CompGraph:
    """Topologically ordered op records; record 0 is the network input and the
    last record holds the logits.

    Single-use: forward leaves only the logits map and each record's cache,
    all that backward reads (BN's xhat and inv_std, ReLU's input, the input
    shape of gap, linear and record 0). Backward drops each gradient once it
    is used and each cache after its step, so a second backward without a
    new forward raises GraphStateError. Distinct graphs are independent.
    """

    def __init__(self) -> None:
        self.records: list[Record] = [Record("input", ())]
        self._forward_done = False

    def add(self, kind: str, *inputs: int, weight: np.ndarray | None = None) -> int:
        """Append a record; operands must already exist (keeps the graph acyclic)."""
        if kind not in _KINDS:
            raise ValueError(f"unknown record kind {kind!r}")
        for i in inputs:
            if not 0 <= i < len(self.records):
                raise ValueError(f"operand id {i} out of range")
        self.records.append(Record(kind, inputs, weight))
        return len(self.records) - 1

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Execute all records on the (N, C, H, W) batch x in order and return the
        logits, the one map kept: the others go after their last reader."""
        recs = self.records
        self._forward_done = False
        last = {i: rid for rid, rec in enumerate(recs) for i in (rid, *rec.inputs)}  # or itself
        last[len(recs) - 1] = len(recs)  # no record reads the logits; keep them
        recs[0].out = np.ascontiguousarray(np.transpose(x, (1, 2, 3, 0)), dtype=np.float64)
        recs[0].cache = recs[0].out.shape
        for rid, rec in enumerate(recs[1:], 1):
            srcs = [recs[i].out for i in rec.inputs]
            if rec.kind == "conv":
                rec.out = conv2d(srcs[0], rec.weight)
            elif rec.kind == "bn":
                rec.out, rec.cache = batch_norm_with_cache(srcs[0])
            elif rec.kind == "relu":
                rec.cache = srcs[0]
                rec.out = relu(srcs[0])
            elif rec.kind == "avg_pool":
                rec.out = avg_pool_3x3(srcs[0])
            elif rec.kind == "sum":
                shapes = {a.shape for a in srcs}
                if len(shapes) != 1:
                    raise ShapeError(f"sum operands disagree on shape: {sorted(shapes)}")
                rec.out = srcs[0].copy()
                for a in srcs[1:]:
                    rec.out += a
            elif rec.kind == "zeros":
                rec.out = np.zeros_like(srcs[0])
            elif rec.kind == "gap":
                rec.cache = srcs[0].shape
                rec.out = global_avg_pool(srcs[0])
            elif rec.kind == "linear":
                rec.cache = srcs[0].shape
                rec.out = linear(srcs[0], rec.weight)
            for i in (rid, *rec.inputs):
                if last[i] == rid:
                    recs[i].out = None
        self._forward_done = True
        return recs[-1].out

    def backward_to_input(self) -> np.ndarray:
        """Gradient of the summed logits w.r.t. the input (an all-ones seed),
        which packs one Jacobian row per sample into (N, C, H, W).
        """
        if not self._forward_done:
            raise GraphStateError("backward requested without a forward since the last one")
        self._forward_done = False
        recs = self.records
        grads: list[np.ndarray | None] = [None] * len(recs)
        grads[-1] = np.ones_like(recs[-1].out)

        def accumulate(rid: int, g: np.ndarray) -> None:
            # New-array addition instead of += keeps aliased grads safe.
            grads[rid] = g if grads[rid] is None else grads[rid] + g

        for rid in range(len(recs) - 1, 0, -1):
            rec, g, cache = recs[rid], grads[rid], recs[rid].cache
            grads[rid] = rec.cache = None
            if g is None:
                continue
            if rec.kind == "conv":
                accumulate(rec.inputs[0], conv2d_input_grad(g, rec.weight))
            elif rec.kind == "bn":
                accumulate(rec.inputs[0], batch_norm_input_grad(g, cache))
            elif rec.kind == "relu":
                accumulate(rec.inputs[0], relu_input_grad(g, cache))
            elif rec.kind == "avg_pool":
                accumulate(rec.inputs[0], avg_pool_3x3_grad(g))
            elif rec.kind == "sum":
                for i in rec.inputs:
                    accumulate(i, g)
            elif rec.kind == "gap":
                accumulate(rec.inputs[0], np.broadcast_to(
                    g[:, None, None, :] / (cache[1] * cache[2]), cache).copy())
            elif rec.kind == "linear":
                flat = (g @ rec.weight.T).reshape(cache[-1], *cache[:-1])  # samples first
                accumulate(rec.inputs[0], np.moveaxis(flat, 0, -1))
        return (np.zeros(recs[0].cache) if grads[0] is None else grads[0]).transpose(3, 0, 1, 2)
