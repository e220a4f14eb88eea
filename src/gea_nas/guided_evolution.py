"""Aging evolution with proxy-guided child admission, plus baselines.

One loop serves all three methods. It samples a pool of random
architectures and admits some of them to the population; each cycle then
tournament-selects a parent, generates mutated children and fitness-evaluates
only the top-scoring child, which replaces the oldest population member. The
population is therefore always the latest admissions of the history, which
is the search's one record. The run stops once C models have been
fitness-evaluated, so every method trains exactly C models. The three
methods are three shapes of that loop:

  - gea: pool of C proxy-scored candidates, the P best admitted, P
    proxy-scored children per cycle;
  - rea: pool of P, all admitted, one child per cycle, no proxy;
  - rs: pool of C, all admitted, so no cycle ever runs.

Determinism: every draw comes from a generator seeded by SeedSequence(key).
The keys, for run seed s and landscape seed l: (s, 0) tournaments, (s, 1, i)
candidate i, (s, 2 + c, j) child j of cycle c, (s, 0, 1) the synthetic batch
and (s, 0, 2, i) the weights that score live network i (zero_proxy),
(l, 830201) the landscape and (s, 830202) the noisy proxy (benchmark_store).
SeedSequence pads a key to four words with zeros, so (s, 3) and (s, 3, 0)
would be one stream, and splits a seed of 2**32 or more into two words, so
run and landscape seeds must lie in [0, 2**32). No two keys here meet unless
a run reaches cycle 830199, whose child 0 has the key of landscape s. The
proxy takes no generator: a score is a float (-inf for an invalid cell) and a
function of the cell. The loop hands the proxy whole batches, the C
candidates in one score_all call and each cycle's P children in one more, so
a source may score a batch's cells in parallel (zero_proxy's Jacobian source
does); since every candidate and child has its own stream, building a batch
before scoring it draws exactly what scoring cell by cell would. Whether a
source caches scores is its affair: the loop counts every cell requested
(num_proxy_evals) and times every batch (proxy_wall_seconds, wall time).
Validation accuracy is the only fitness the loop ever reads; test accuracy
is carried through untouched for reporting.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

import numpy as np

from .arch_space import ArchEncoding, mutate, random_arch


class ProxySource(Protocol):
    """Scores a batch of cells, in order (-inf: invalid); a cell always gets
    the same score."""

    def score_all(self, archs: Sequence[ArchEncoding]) -> list[float]: ...


class FitnessSource(Protocol):
    def evaluate(self, arch: ArchEncoding, dataset: str) -> tuple[float, float, float]: ...


@dataclass(frozen=True)
class EvolutionConfig:
    """Search budget and shape: C trained models, population P, tournament S."""

    C: int = field(default=150, metadata={"help": "trained-model budget"})
    P: int = field(default=5, metadata={"help": "population size / children per cycle"})
    S: int = field(default=2, metadata={"help": "tournament sample size"})
    seed: int = 0
    dataset: str = "synthetic"

    def __post_init__(self) -> None:
        if not 1 <= self.P <= self.C:
            raise ValueError(f"need 1 <= P <= C, got P={self.P} C={self.C}")
        if self.S < 1:
            raise ValueError(f"tournament size must be >= 1, got {self.S}")
        if not 0 <= self.seed < 2**32:
            raise ValueError(f"seed must lie in [0, 2**32), got {self.seed}")


@dataclass(frozen=True)
class EvaluatedModel:
    arch: ArchEncoding
    fitness: float  # validation accuracy, the only number selection sees
    test_acc: float
    birth: int
    train_seconds: float
    proxy: Optional[float] = None  # -inf for an invalid cell

    def __post_init__(self) -> None:
        if not 0.0 <= self.fitness <= 100.0:
            raise ValueError(f"fitness out of [0, 100]: {self.fitness}")


@dataclass(frozen=True)
class ChildLog:
    arch: ArchEncoding
    proxy: Optional[float]


@dataclass(frozen=True)
class CycleLog:
    cycle: int
    parent_birth: int
    children: tuple[ChildLog, ...]
    admitted_index: int
    population_births: tuple[int, ...]  # population content after the cycle


@dataclass
class SearchResult:
    method: str
    config: EvolutionConfig
    history: list[EvaluatedModel]
    cycle_log: list[CycleLog]
    num_proxy_evals: int  # scores requested of the proxy source
    proxy_wall_seconds: float

    @property
    def best(self) -> EvaluatedModel:
        return best_of(self.history)

    @property
    def num_fitness_evals(self) -> int:
        return len(self.history)

    @property
    def train_seconds_total(self) -> float:
        """Recorded (simulated) training time of every admitted model."""
        return sum(m.train_seconds for m in self.history)

    @property
    def sim_time_seconds(self) -> float:
        """Simulated search cost: recorded training time plus proxy wall time."""
        return self.train_seconds_total + self.proxy_wall_seconds

    def to_json_dict(self) -> dict:
        """JSON form. Everything outside "timing" is deterministic per
        (config, proxy, fitness); "timing" holds wall-clock-derived values."""
        def valid(p: Optional[float]) -> Optional[bool]:
            return None if p is None else p > -math.inf

        def z_of(p: Optional[float]) -> Optional[float]:
            return p if valid(p) else None

        def model_dict(m: EvaluatedModel) -> dict:
            return {"arch": str(m.arch), "val_acc": m.fitness, "test_acc": m.test_acc,
                    "birth": m.birth, "train_seconds": m.train_seconds,
                    "proxy_z": z_of(m.proxy), "proxy_valid": valid(m.proxy)}

        return {
            "method": self.method,
            "config": {"C": self.config.C, "P": self.config.P, "S": self.config.S,
                       "seed": self.config.seed, "dataset": self.config.dataset},
            "history": [model_dict(m) for m in self.history],
            "cycles": [{
                "cycle": c.cycle,
                "parent_birth": c.parent_birth,
                "parent_arch": str(self.history[c.parent_birth].arch),
                "children": [{"arch": str(ch.arch), "z": z_of(ch.proxy),
                              "valid": valid(ch.proxy)} for ch in c.children],
                "admitted_index": c.admitted_index,
                "population_births": list(c.population_births),
            } for c in self.cycle_log],
            "best": model_dict(self.best),
            "num_proxy_evals": self.num_proxy_evals,
            "num_fitness_evals": self.num_fitness_evals,
            "train_seconds_total": self.train_seconds_total,
            "timing": {"proxy_wall_seconds": self.proxy_wall_seconds,
                       "sim_time_seconds": self.sim_time_seconds},
        }


def _rng(*key: int) -> np.random.Generator:
    """The generator of one stream key (module docstring)."""
    return np.random.default_rng(np.random.SeedSequence(key))


def tournament_select(members: Sequence[EvaluatedModel], s: int,
                      rng: np.random.Generator) -> EvaluatedModel:
    """S draws with replacement; returns the max-fitness draw, earliest birth
    winning ties."""
    picks = [members[int(rng.integers(len(members)))] for _ in range(s)]
    return max(picks, key=lambda m: (m.fitness, -m.birth))


def _evolve(method: str, config: EvolutionConfig, fitness: FitnessSource,
            proxy: Optional[ProxySource], pool: int, keep: int,
            children: int) -> SearchResult:
    """The one aging-evolution loop behind gea, rea and rs.

    Samples ``pool`` random candidates and admits ``keep`` of them (the best
    by proxy score, or all of them when there is no proxy), then runs cycles
    of ``children`` mutated children each, admitting the best-scoring child
    (the only one without a proxy), until C models have been trained. The
    population is ``history[-keep:]``: admissions go in birth order and each
    cycle's admission ages out the oldest member.
    """
    proxy_wall = 0.0
    num_proxy = 0

    def scored(archs: list[ArchEncoding]) -> list:
        """The cells paired with their scores (None without a proxy), the
        batch's requests counted and its call timed."""
        nonlocal proxy_wall, num_proxy
        if proxy is None:
            return [(arch, None) for arch in archs]
        num_proxy += len(archs)
        tic = time.perf_counter()
        scores = proxy.score_all(archs)
        proxy_wall += time.perf_counter() - tic
        return list(zip(archs, scores))

    history: list[EvaluatedModel] = []

    def admit(arch: ArchEncoding, score: Optional[float]) -> None:
        val, test, secs = fitness.evaluate(arch, config.dataset)
        model = EvaluatedModel(arch=arch, fitness=val, test_acc=test,
                               birth=len(history), train_seconds=secs, proxy=score)
        history.append(model)

    candidates = scored([random_arch(_rng(config.seed, 1, i)) for i in range(pool)])
    kept = range(keep)
    if proxy is not None:
        order = sorted(range(pool), key=lambda i: candidates[i][1], reverse=True)
        kept = sorted(order[:keep])  # generation order = birth order
    for i in kept:
        admit(*candidates[i])

    main_rng = _rng(config.seed, 0)
    cycle_log: list[CycleLog] = []
    while len(history) < config.C:
        cycle = len(cycle_log)
        parent = tournament_select(history[-keep:], config.S, main_rng)
        logs = [ChildLog(*pair) for pair in scored(
            [mutate(parent.arch, _rng(config.seed, 2 + cycle, j)) for j in range(children)])]
        # Best proxy score (an invalid child's -inf loses to any valid one),
        # earlier child winning ties.
        best = 0 if proxy is None else max(range(children), key=lambda j: logs[j].proxy)
        admit(logs[best].arch, logs[best].proxy)
        cycle_log.append(CycleLog(
            cycle=cycle, parent_birth=parent.birth, children=tuple(logs),
            admitted_index=best,
            population_births=tuple(m.birth for m in history[-keep:])))

    return SearchResult(method=method, config=config, history=history,
                        cycle_log=cycle_log, num_proxy_evals=num_proxy,
                        proxy_wall_seconds=proxy_wall)


def run_search(config: EvolutionConfig, proxy: ProxySource,
               fitness: FitnessSource) -> SearchResult:
    """Proxy-guided aging evolution: keep the P best of C proxy-scored
    candidates, then P proxy-scored children per cycle."""
    return _evolve("gea", config, fitness, proxy, config.C, config.P, config.P)


def run_rea_baseline(config: EvolutionConfig, fitness: FitnessSource) -> SearchResult:
    """Plain aging evolution: P random initial models, one mutated child per
    cycle, no proxy anywhere."""
    return _evolve("rea", config, fitness, None, config.P, config.P, 1)


def run_random_baseline(config: EvolutionConfig, fitness: FitnessSource) -> SearchResult:
    """C architectures sampled uniformly at random, all fitness-evaluated."""
    return _evolve("rs", config, fitness, None, config.C, config.C, 0)


def best_of(history: list[EvaluatedModel]) -> EvaluatedModel:
    """Highest validation fitness; earliest birth wins ties."""
    return max(history, key=lambda m: m.fitness)
