"""Fitness sources for the search loop.

Three interchangeable providers of ``evaluate(arch, dataset) -> (val_acc,
test_acc, train_seconds)``:

  - TabularStore: accuracies ingested from a JSONL export, one record per
    (arch, dataset), validated line by line;
  - SyntheticLandscape: a seeded fitness function over the whole cell space
    with per-edge utilities plus pairwise edge interactions, rescaled to
    [0, 100], with the global optimum known by enumeration;
  - NoisyProxySource: a proxy whose rank agreement with a landscape is
    calibrated to a target Spearman correlation, for guidance-quality
    experiments; its ranks and normal quantiles come from numpy and the
    standard library's NormalDist.

Validation accuracy is the search fitness; test accuracy rides along for
reporting only and must never influence selection.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .arch_space import NUM_EDGES, NUM_OPS, SPACE_SIZE, ArchEncoding, op_index_table, parse_str

NOMINAL_TRAIN_SECONDS = 100.0
_INTERACTION_SCALE = 0.4  # std of a landscape's pairwise terms; its edge utilities have std 1

_RECORD_FIELDS = ("arch", "dataset", "val_acc", "test_acc", "train_seconds")
_NUMBER_FIELDS = ("val_acc", "test_acc", "train_seconds")


class JsonlFormatError(ValueError):
    """A JSONL export line violates the record schema."""


class StoreLookupError(KeyError):
    """Requested (arch, dataset) has no record; lookups never fall back."""


class CalibrationError(RuntimeError):
    """Noisy-proxy Spearman calibration did not converge."""


@dataclass(frozen=True)
class BenchRecord:
    arch: str
    dataset: str
    val_acc: float
    test_acc: float
    train_seconds: float
    index: int = field(init=False, repr=False)  # space index of arch, parsed once

    def __post_init__(self) -> None:
        if not isinstance(self.arch, str):
            raise ValueError(f"arch must be a cell string, got {type(self.arch).__name__}")
        if not isinstance(self.dataset, str):
            raise ValueError(f"dataset must be a string, got {json.dumps(self.dataset, default=repr)}")
        object.__setattr__(self, "index", parse_str(self.arch).index)
        if not 0.0 <= self.val_acc <= 100.0:
            raise ValueError(f"val_acc out of [0, 100]: {self.val_acc}")
        if not 0.0 <= self.test_acc <= 100.0:
            raise ValueError(f"test_acc out of [0, 100]: {self.test_acc}")
        if self.train_seconds < 0:
            raise ValueError(f"train_seconds must be non-negative: {self.train_seconds}")


class TabularStore:
    """Immutable map (arch, dataset) -> BenchRecord built by load_jsonl."""

    def __init__(self, records: list[BenchRecord]):
        self._records: dict[tuple[int, str], BenchRecord] = {}
        counts: dict[str, int] = {}
        for rec in records:
            key = (rec.index, rec.dataset)
            if key in self._records:
                raise ValueError(f"duplicate record for {rec.arch!r} on {rec.dataset!r}")
            self._records[key] = rec
            counts[rec.dataset] = counts.get(rec.dataset, 0) + 1
        self.datasets = frozenset(counts)
        self.complete = {ds: n == SPACE_SIZE for ds, n in counts.items()}

    def __len__(self) -> int:
        return len(self._records)

    def lookup(self, arch: ArchEncoding, dataset: str) -> BenchRecord:
        try:
            return self._records[arch.index, dataset]
        except KeyError:
            raise StoreLookupError(f"no record for arch {str(arch)!r} on dataset {dataset!r}") from None

    def evaluate(self, arch: ArchEncoding, dataset: str) -> tuple[float, float, float]:
        rec = self.lookup(arch, dataset)
        return rec.val_acc, rec.test_acc, rec.train_seconds


def finite_number(name: str, value) -> float:
    """A JSON number field as a float. json.loads also yields NaN and
    Infinity, and float() would take a bool or a numeric string, so only a
    finite int or float passes."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {json.dumps(value)}")
    return float(value)


def load_jsonl(path: str | Path) -> TabularStore:
    """Parse a JSONL export: one object per line with exactly the fields
    arch, dataset, val_acc, test_acc, train_seconds. Any violation raises
    JsonlFormatError naming the 1-based line number."""
    records: list[BenchRecord] = []
    seen: set[tuple[int, str]] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise JsonlFormatError(f"line {lineno}: malformed JSON ({exc.msg})") from None
            if not isinstance(obj, dict) or set(obj) != set(_RECORD_FIELDS):
                raise JsonlFormatError(
                    f"line {lineno}: expected exactly fields {list(_RECORD_FIELDS)}")
            try:
                rec = BenchRecord(obj["arch"], obj["dataset"],
                                  *(finite_number(name, obj[name]) for name in _NUMBER_FIELDS))
            except (ValueError, TypeError, OverflowError) as exc:
                raise JsonlFormatError(f"line {lineno}: {exc}") from None
            key = (rec.index, rec.dataset)
            if key in seen:
                raise JsonlFormatError(
                    f"line {lineno}: duplicate record for {rec.arch!r} on {rec.dataset!r}")
            seen.add(key)
            records.append(rec)
    return TabularStore(records)


# ---------------------------------------------------------------------------
# Synthetic landscapes
# ---------------------------------------------------------------------------


class SyntheticLandscape:
    """Seeded fitness over all 15625 cells.

    fitness(arch) = sum of per-edge op utilities + sum of pairwise edge-interaction
    terms, affinely rescaled to [0, 100]. The interaction terms keep the landscape
    from being solvable edge by edge, so search strategies actually differ on it.
    val_acc = test_acc = fitness, each arch costs a flat NOMINAL_TRAIN_SECONDS, and
    a seed outside [0, 2**32) is a ValueError.
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"landscape_seed must be a non-negative integer, got {seed}")
        if seed >= 2**32:
            raise ValueError(f"landscape_seed must be below 2**32, got {seed}")
        rng = np.random.default_rng(np.random.SeedSequence((seed, 830201)))
        utilities = rng.normal(0.0, 1.0, size=(NUM_EDGES, NUM_OPS))
        pairs = [(i, j) for i in range(NUM_EDGES) for j in range(i + 1, NUM_EDGES)]
        interactions = rng.normal(0.0, _INTERACTION_SCALE, size=(len(pairs), NUM_OPS, NUM_OPS))

        table = op_index_table()  # (SPACE_SIZE, NUM_EDGES)
        raw = utilities[np.arange(NUM_EDGES), table].sum(axis=1)
        for p, (i, j) in enumerate(pairs):
            raw = raw + interactions[p, table[:, i], table[:, j]]
        lo, hi = raw.min(), raw.max()
        self.fitness = (raw - lo) / (hi - lo) * 100.0

    def fitness_of(self, arch: ArchEncoding) -> float:
        return float(self.fitness[arch.index])

    def evaluate(self, arch: ArchEncoding, dataset: str = "synthetic") -> tuple[float, float, float]:
        f = self.fitness_of(arch)
        return f, f, NOMINAL_TRAIN_SECONDS


# ---------------------------------------------------------------------------
# Correlation-controlled proxies
# ---------------------------------------------------------------------------


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n of values in ascending order; tied values share the mean
    of their ranks."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]  # starts a run of ties
    bounds = np.r_[np.flatnonzero(first), values.size]
    run = np.cumsum(first) - 1
    ranks = np.empty(values.size)
    ranks[order] = 0.5 * (bounds[run] + bounds[run + 1] + 1)
    return ranks


class OracleProxySource:
    """Proxy that returns the true validation fitness (perfect guidance)."""

    def __init__(self, fitness_source, dataset: str = "synthetic"):
        self._source = fitness_source
        self._dataset = dataset

    def score(self, arch: ArchEncoding) -> float:
        val, _, _ = self._source.evaluate(arch, self._dataset)
        return float(val)


class NoisyProxySource:
    """Proxy with a calibrated Spearman correlation against a landscape.

    Scores are a * normal-score(fitness rank) + sqrt(1 - a^2) * seeded
    Gaussian noise, with the mixing weight a bisected until the empirical
    Spearman over the full space lands within 0.005 of the target (well
    inside the guaranteed 0.05 band). A normal score is the standard normal
    quantile of rank / (SPACE_SIZE + 1). rho = 1 and rho = 0 shortcut to the
    pure-signal and pure-noise mixtures.
    """

    _TOL = 0.005
    _MAX_ITERS = 60

    def __init__(self, landscape: SyntheticLandscape, rho: float, seed: int):
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {rho}")
        ranks = _average_ranks(landscape.fitness)
        quantile = NormalDist().inv_cdf
        signal = np.array([quantile(q) for q in (ranks / (SPACE_SIZE + 1)).tolist()])
        rng = np.random.default_rng(np.random.SeedSequence((seed, 830202)))
        noise = rng.normal(0.0, 1.0, size=SPACE_SIZE)

        def mix(a: float) -> np.ndarray:
            return a * signal + np.sqrt(max(1.0 - a * a, 0.0)) * noise

        def spearman(a: float) -> float:
            # Pearson of the two rankings, which is Spearman's rho
            return float(np.corrcoef(_average_ranks(mix(a)), ranks)[0, 1])

        if rho >= 1.0:
            a = 1.0
        elif rho <= 0.0:
            a = 0.0
        else:
            lo, hi = 0.0, 1.0
            a = None
            for _ in range(self._MAX_ITERS):
                mid = 0.5 * (lo + hi)
                emp = spearman(mid)
                if abs(emp - rho) <= self._TOL:
                    a = mid
                    break
                if emp < rho:
                    lo = mid
                else:
                    hi = mid
            if a is None:
                raise CalibrationError(
                    f"could not reach Spearman {rho} within {self._MAX_ITERS} bisection steps")
        self.values = mix(a)
        self.empirical_spearman = spearman(a)
        if abs(self.empirical_spearman - rho) > 0.05:
            raise CalibrationError(
                f"calibrated Spearman {self.empirical_spearman:.4f} misses target {rho}")

    def score(self, arch: ArchEncoding) -> float:
        return float(self.values[arch.index])
