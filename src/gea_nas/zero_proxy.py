"""Training-free architecture scoring from input Jacobians.

Pipeline for one architecture: build the network, take the gradient of the
summed logits w.r.t. every input of a labeled batch (one forward, one
backward), correlate all N Jacobian rows in one Pearson matrix, score each
class's block of it through a saturating log, and aggregate the per-class
scores into a single scalar z. Higher z is better. Anything degenerate
(non-finite gradients, an exactly zero Jacobian, a constant row) marks the
architecture invalid, z = -inf, instead of raising: a search cycle must be
able to score any child it generates, and invalid scores rank last.
"""

from __future__ import annotations

import ctypes
import struct
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from .arch_space import ArchEncoding, live_index
from .autodiff_core import CompGraph
from .network_builder import SkeletonConfig, build_network

_HEADER = struct.Struct("<5i")  # N, C, H, W, K
SATURATION_T = 1e-5  # EPE-NAS's fixed t in log(|sigma| + t)
CLASS_THRESHOLD_TAU = 100  # EPE-NAS's tau: a batch of more classes takes the large-K branch


class BatchFileError(ValueError):
    """Raw batch file violates the documented layout."""


@dataclass(frozen=True)
class Batch:
    """A labeled scoring batch: images (N,C,H,W) float64, labels in [0, K)."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        if self.images.ndim != 4:
            raise ValueError(f"images must be (N,C,H,W), got shape {self.images.shape}")
        n = self.images.shape[0]
        if self.labels.shape != (n,):
            raise ValueError(f"need {n} labels, got shape {self.labels.shape}")
        if n < 2:
            raise ValueError(f"batch size must be >= 2, got {n}")
        if not np.isfinite(self.images).all():
            raise ValueError("images must all be finite")
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        counts = np.bincount(self.labels, minlength=self.num_classes)
        if counts.max() < 2:
            raise ValueError("at least one class needs two or more samples")

    @property
    def size(self) -> int:
        return self.images.shape[0]


@dataclass(frozen=True)
class ProxyConfig:
    """What shapes the scored network and the synthetic batch: ``skeleton``
    (network, input shape and class count) and ``batch_size``. EPE-NAS's t
    and tau are the constants SATURATION_T and CLASS_THRESHOLD_TAU."""

    batch_size: int = 32
    skeleton: SkeletonConfig = field(default_factory=SkeletonConfig)


@dataclass(frozen=True)
class ProxyScore:
    """Aggregate score z; invalid scores carry z = -inf and rank below all
    valid ones, so z alone orders any two scores."""

    z: float

    @property
    def valid(self) -> bool:
        return self.z > float("-inf")


INVALID_SCORE = ProxyScore(z=float("-inf"))


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


def compute_jacobian(graph: CompGraph, batch: Batch) -> np.ndarray | None:
    """One forward and one backward with an all-ones logit seed.

    Seeding every logit with 1 makes the input gradient of sample i exactly
    the gradient of that sample's summed logits, so the whole N x D Jacobian
    falls out of a single backward pass. Row i is the flattened (C,H,W)
    gradient of sample i; None when the rows are degenerate (non-finite or
    all zero).
    """
    graph.forward(batch.images)
    rows = graph.backward_to_input().reshape(batch.size, -1)
    if not np.isfinite(rows).all() or not rows.any():
        return None
    return rows


def split_by_class(rows: np.ndarray, labels: np.ndarray) -> list[np.ndarray]:
    """Partition rows by label; blocks come back ordered by class id and keep
    the original row order inside each block. Empty classes yield no block."""
    if labels.shape != (rows.shape[0],):
        raise ValueError(f"need {rows.shape[0]} labels, got shape {labels.shape}")
    return [rows[labels == k] for k in np.unique(labels)]


def correlation_matrix(rows: np.ndarray) -> np.ndarray | None:
    """Pearson correlation between the rows of one class block, or None when
    some row is constant (zero variance makes the correlation undefined)."""
    centered = rows - rows.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    if not norms.all() or not np.isfinite(norms).all():
        return None
    scaled = centered / norms[:, None]
    return scaled @ scaled.T


def class_score(sigma: np.ndarray, num_classes: int) -> float:
    """Sum of log(|entry| + t) over the matrix; averaged over entries when the
    class count exceeds tau so huge-K scores stay comparable across sizes."""
    total = float(np.log(np.abs(sigma) + SATURATION_T).sum())
    if num_classes <= CLASS_THRESHOLD_TAU:
        return total
    return total / sigma.size


def aggregate(e, num_classes: int) -> float:
    """Collapse per-class scores: sum of |e_w| up to tau classes, otherwise
    the mean spread Sum_{i<j} |e_i - e_j| / K. Higher is better either way."""
    arr = np.asarray(e, dtype=np.float64)
    if num_classes <= CLASS_THRESHOLD_TAU:
        return float(np.abs(arr).sum())
    diffs = np.abs(arr[:, None] - arr[None, :])
    return float(np.triu(diffs, k=1).sum() / num_classes)


@cache
def _keep_freed_heap() -> bool:
    """Once per process, set glibc's M_TRIM_THRESHOLD (-1) to 256 MiB and
    M_MMAP_THRESHOLD (-3) to 32 MiB, the 64-bit ceiling of its dynamic one,
    so a proxy score reuses freed pages instead of faulting them in (~750
    minor faults per 8x8 score, ~4k per 32x32); either alone is slower.
    Returns False, changing nothing, where mallopt is missing or refuses."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    return bool(mallopt(-1, 256 << 20)) and bool(mallopt(-3, 32 << 20))


def score_architecture(arch: ArchEncoding, batch: Batch,
                       config: ProxyConfig | None = None,
                       rng: np.random.Generator | None = None) -> ProxyScore:
    """Full scoring pipeline; never raises on degenerate architectures, but
    raises ValueError on a batch whose image shape or class count is not
    ``config.skeleton``'s (the one check that a batch fits a network).

    One correlation_matrix of all N rows holds every split_by_class block,
    and one product with the one-hot labels sums each block's logs. That is
    N^2 * D multiply-adds against sum n_k^2 * D for the blocks alone, in a
    matrix no larger than the N x D Jacobian while N <= D."""
    config = config if config is not None else ProxyConfig()
    sk = config.skeleton
    if batch.images.shape[1:] != sk.input_shape or batch.num_classes != sk.num_classes:
        raise ValueError(f"batch of {batch.images.shape[1:]} images in {batch.num_classes} "
                         f"classes does not fit the network's {sk.input_shape} input "
                         f"and {sk.num_classes} classes")
    _keep_freed_heap()
    rows = compute_jacobian(build_network(arch, sk, rng), batch)
    sigma = None if rows is None else correlation_matrix(rows)
    if sigma is None:
        return INVALID_SCORE
    onehot = (batch.labels[:, None] == np.unique(batch.labels)).astype(np.float64)
    e = ((np.log(np.abs(sigma) + SATURATION_T) @ onehot) * onehot).sum(axis=0)
    if batch.num_classes > CLASS_THRESHOLD_TAU:
        e /= onehot.sum(axis=0) ** 2  # class_score's mean over the block
    z = aggregate(e, batch.num_classes)
    return ProxyScore(z=z) if np.isfinite(z) else INVALID_SCORE


class JacobianProxySource:
    """score_architecture bound to a fixed batch and run seed, shaped for the
    search loop.

    A batch of None is the seed's synthetic batch, make_batch drawn from
    SeedSequence((seed, 0, 1)); a batch passed in is kept as it is. A cell is
    scored as its live network (its dead edges pruned, arch_space.live_index)
    at one weight init, drawn from SeedSequence((seed, 0, 2, live index)), so
    a score is a function of (batch, config, seed, live network) alone:
    ``scores`` keeps each z by live index, and every later request of a cell
    with that network, from any run handed this source, is a lookup. The seed
    is in the init because runs of different seeds can share one file batch.
    """

    def __init__(self, batch: Batch | None, config: ProxyConfig | None = None, seed: int = 0):
        self.config = config if config is not None else ProxyConfig()
        self.batch = batch if batch is not None else make_batch(
            self.config, np.random.default_rng(np.random.SeedSequence((seed, 0, 1))))
        self.seed = seed
        self.scores: dict[int, float] = {}

    def score(self, arch: ArchEncoding) -> float:
        live = ArchEncoding.from_index(live_index(arch))
        z = self.scores.get(live.index)
        if z is None:
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0, 2, live.index)))
            z = self.scores[live.index] = score_architecture(live, self.batch, self.config, rng).z
        return z


# ---------------------------------------------------------------------------
# Batch construction
# ---------------------------------------------------------------------------


def make_batch(config: ProxyConfig, rng: np.random.Generator | None = None) -> Batch:
    """Synthetic batch shaped by config.skeleton: K Gaussian class means in
    input space, samples = mean + 0.5 * noise, labels round-robin so class
    sizes differ by at most one."""
    rng = rng if rng is not None else np.random.default_rng(0)
    n, k = config.batch_size, config.skeleton.num_classes
    if n < k:
        raise ValueError(f"stratified batch needs N >= K, got N={n} K={k}")
    c, h, w = config.skeleton.input_shape
    d = c * h * w
    means = rng.normal(0.0, 1.0, size=(k, d))
    noise = rng.normal(0.0, 1.0, size=(n, d))
    labels = np.arange(n) % k
    images = (means[labels] + 0.5 * noise).reshape(n, c, h, w)
    return Batch(images=images, labels=labels, num_classes=k)


def read_batch_file(path: str | Path) -> Batch:
    """Read the raw batch layout: <5i header (N,C,H,W,K), then N*C*H*W
    little-endian float32 images, then N little-endian int32 labels."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise BatchFileError(f"file too short for header: {len(data)} bytes")
    n, c, h, w, k = _HEADER.unpack_from(data)
    if min(n, c, h, w, k) <= 0:
        raise BatchFileError(f"non-positive header field in (N,C,H,W,K)=({n},{c},{h},{w},{k})")
    expected = _HEADER.size + n * c * h * w * 4 + n * 4
    if len(data) != expected:
        raise BatchFileError(f"expected {expected} bytes for header (N,C,H,W,K)="
                             f"({n},{c},{h},{w},{k}), found {len(data)}")
    offset = _HEADER.size
    images = np.frombuffer(data, dtype="<f4", count=n * c * h * w, offset=offset)
    offset += n * c * h * w * 4
    labels = np.frombuffer(data, dtype="<i4", count=n, offset=offset)
    return Batch(images=images.astype(np.float64).reshape(n, c, h, w),
                 labels=labels.astype(np.int64), num_classes=k)

