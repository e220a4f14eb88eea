"""Training-free architecture scoring from input Jacobians.

Pipeline for one architecture: build the network, take the gradient of the
summed logits w.r.t. every input of a labeled batch (one forward, one
backward), split the N x D Jacobian rows by class label, form a Pearson
correlation matrix per class, score each matrix through a saturating log,
and aggregate the per-class scores into a single scalar z. Higher z is
better. Anything degenerate along the way (non-finite gradients, an exactly
zero Jacobian, a constant row) marks the architecture invalid instead of
raising: a search cycle must be able to score any child it generates, and
invalid scores rank strictly below all valid ones.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .arch_space import ArchEncoding
from .network_builder import MicroNetwork, SkeletonConfig, build_network, jacobian_input_dim

T_DEFAULT = 1e-5
TAU_DEFAULT = 100

_HEADER = struct.Struct("<5i")  # N, C, H, W, K


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
    """Scoring knobs; t and tau gate the log saturation and the large-K branch.

    ``skeleton`` shapes both the scored network and the synthetic batch
    (input shape and class count)."""

    t: float = T_DEFAULT
    tau: int = TAU_DEFAULT
    batch_size: int = 32
    skeleton: SkeletonConfig = field(default_factory=SkeletonConfig)

    def __post_init__(self) -> None:
        if self.t <= 0:
            raise ValueError(f"t must be positive, got {self.t}")
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")


@dataclass(frozen=True)
class JacobianMatrix:
    """Row i is the flattened (C,H,W) gradient of sample i's summed logits."""

    rows: np.ndarray
    degenerate: bool


@dataclass(frozen=True)
class ClassGroup:
    class_id: int
    rows: np.ndarray  # (N_k, D)


@dataclass(frozen=True)
class ProxyScore:
    """Aggregate score z plus validity; invalid scores carry z = -inf, e = ()."""

    z: float
    valid: bool
    e: tuple[float, ...]


INVALID_SCORE = ProxyScore(z=float("-inf"), valid=False, e=())


def proxy_rank_key(score: ProxyScore) -> tuple[bool, float]:
    """Sort key: any valid score outranks every invalid one, then by z."""
    return (score.valid, score.z)


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


def compute_jacobian(net: MicroNetwork, batch: Batch) -> JacobianMatrix:
    """One forward and one backward with an all-ones logit seed.

    Seeding every logit with 1 makes the input gradient of sample i exactly
    the gradient of that sample's summed logits, so the whole N x D Jacobian
    falls out of a single backward pass.
    """
    expected = batch.images.shape[1:]
    got = net.skeleton.input_shape
    if expected != got:
        raise ValueError(f"batch images {expected} do not match network input {got}")
    net.graph.forward(batch.images)
    grad = net.graph.backward_to_input()
    rows = grad.reshape(batch.size, -1)
    degenerate = not np.isfinite(rows).all() or not rows.any()
    return JacobianMatrix(rows=rows, degenerate=degenerate)


def split_by_class(jac: JacobianMatrix, labels: np.ndarray,
                   num_classes: int | None = None) -> list[ClassGroup]:
    """Partition rows by label; groups come back ordered by class id and keep
    the original row order inside each group. Empty classes yield no group."""
    rows = jac.rows
    if labels.shape != (rows.shape[0],):
        raise ValueError(f"need {rows.shape[0]} labels, got shape {labels.shape}")
    if num_classes is not None and labels.size and labels.max() >= num_classes:
        raise ValueError(f"label {int(labels.max())} outside [0, {num_classes})")
    groups = []
    for k in np.unique(labels):
        groups.append(ClassGroup(class_id=int(k), rows=rows[labels == k]))
    return groups


def correlation_matrix(group: ClassGroup) -> np.ndarray | None:
    """Pearson correlation between the group's rows, or None when some row is
    constant (zero variance makes the correlation undefined)."""
    centered = group.rows - group.rows.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    if not norms.all() or not np.isfinite(norms).all():
        return None
    scaled = centered / norms[:, None]
    return scaled @ scaled.T


def class_score(sigma: np.ndarray, num_classes: int, config: ProxyConfig) -> float:
    """Sum of log(|entry| + t) over the matrix; averaged over entries when the
    class count exceeds tau so huge-K scores stay comparable across sizes."""
    total = float(np.log(np.abs(sigma) + config.t).sum())
    if num_classes <= config.tau:
        return total
    return total / sigma.size


def aggregate(e, num_classes: int, config: ProxyConfig) -> float:
    """Collapse per-class scores: sum of |e_w| up to tau classes, otherwise
    the mean spread Sum_{i<j} |e_i - e_j| / K. Higher is better either way."""
    arr = np.asarray(e, dtype=np.float64)
    if num_classes <= config.tau:
        return float(np.abs(arr).sum())
    diffs = np.abs(arr[:, None] - arr[None, :])
    return float(np.triu(diffs, k=1).sum() / num_classes)


def score_architecture(arch: ArchEncoding, batch: Batch,
                       config: ProxyConfig | None = None,
                       rng: np.random.Generator | None = None) -> ProxyScore:
    """Full scoring pipeline; never raises on degenerate architectures."""
    config = config if config is not None else ProxyConfig()
    net = build_network(arch, config.skeleton, rng)
    jac = compute_jacobian(net, batch)
    if jac.degenerate:
        return INVALID_SCORE
    scores = []
    for group in split_by_class(jac, batch.labels, batch.num_classes):
        sigma = correlation_matrix(group)
        if sigma is None:
            return INVALID_SCORE
        scores.append(class_score(sigma, batch.num_classes, config))
    z = aggregate(scores, batch.num_classes, config)
    if not np.isfinite(z):
        return INVALID_SCORE
    return ProxyScore(z=z, valid=True, e=tuple(scores))


class JacobianProxySource:
    """score_architecture bound to a fixed batch, shaped for the search loop.

    The per-child rng passed by the loop seeds the weight initialization, so
    scoring stays deterministic and order-independent across children.
    """

    def __init__(self, batch: Batch, config: ProxyConfig | None = None):
        self.batch = batch
        self.config = config if config is not None else ProxyConfig()

    def score(self, arch: ArchEncoding, rng: np.random.Generator) -> ProxyScore:
        return score_architecture(arch, self.batch, self.config, rng)


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
    d = jacobian_input_dim(config.skeleton)
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
    if labels.min() < 0 or labels.max() >= k:
        raise BatchFileError(f"labels must lie in [0, {k})")
    return Batch(images=images.astype(np.float64).reshape(n, c, h, w),
                 labels=labels.astype(np.int64), num_classes=k)


def write_batch_file(path: str | Path, batch: Batch) -> None:
    """Inverse of read_batch_file; images are stored as float32."""
    n, c, h, w = batch.images.shape
    payload = [_HEADER.pack(n, c, h, w, batch.num_classes),
               np.ascontiguousarray(batch.images, dtype="<f4").tobytes(),
               np.ascontiguousarray(batch.labels, dtype="<i4").tobytes()]
    Path(path).write_bytes(b"".join(payload))
