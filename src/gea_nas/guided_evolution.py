"""Aging evolution with proxy-guided child admission, plus baselines.

One loop serves all three methods. It samples a pool of random
architectures and admits some of them to a FIFO population; each cycle then
tournament-selects a parent, generates mutated children and fitness-evaluates
only the top-scoring child, which replaces the oldest population member. The
run stops once C models have been fitness-evaluated, so every method trains
exactly C models. The three methods are three shapes of that loop:

  - gea: pool of C proxy-scored candidates, the P best admitted, P
    proxy-scored children per cycle;
  - rea: pool of P, all admitted, one child per cycle, no proxy;
  - rs: pool of C, all admitted, so no cycle ever runs.

Determinism: every stochastic draw comes from a generator derived from the
config seed; given the same config, proxy, and fitness source, two runs
produce identical histories and logs. Per-child generators are derived from
(seed, cycle, child index) so children could be scored in any order.
Validation accuracy is the only fitness the loop ever reads; test accuracy
is carried through untouched for reporting.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from .arch_space import ArchEncoding, mutate, random_arch
from .zero_proxy import ProxyScore, proxy_rank_key


class ProxySource(Protocol):
    def score(self, arch: ArchEncoding, rng: np.random.Generator) -> ProxyScore: ...


class FitnessSource(Protocol):
    def evaluate(self, arch: ArchEncoding, dataset: str) -> tuple[float, float, float]: ...


@dataclass(frozen=True)
class EvolutionConfig:
    """Search budget and shape: C trained models, population P, tournament S."""

    C: int = 150
    P: int = 5
    S: int = 2
    seed: int = 0
    dataset: str = "synthetic"

    def __post_init__(self) -> None:
        if not 1 <= self.P <= self.C:
            raise ValueError(f"need 1 <= P <= C, got P={self.P} C={self.C}")
        if self.S < 1:
            raise ValueError(f"tournament size must be >= 1, got {self.S}")


@dataclass(frozen=True)
class EvaluatedModel:
    arch: ArchEncoding
    fitness: float  # validation accuracy, the only number selection sees
    test_acc: float
    birth: int
    train_seconds: float
    proxy: Optional[ProxyScore] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.fitness <= 100.0:
            raise ValueError(f"fitness out of [0, 100]: {self.fitness}")


class Population:
    """FIFO queue of at most ``capacity`` models; removal order = insertion order."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._queue: deque[EvaluatedModel] = deque()

    def push(self, model: EvaluatedModel) -> None:
        if len(self._queue) >= self.capacity:
            raise RuntimeError(f"population already at capacity {self.capacity}")
        self._queue.append(model)

    def pop_oldest(self) -> EvaluatedModel:
        return self._queue.popleft()

    def members(self) -> tuple[EvaluatedModel, ...]:
        return tuple(self._queue)

    def __len__(self) -> int:
        return len(self._queue)


@dataclass(frozen=True)
class ChildLog:
    arch: ArchEncoding
    proxy: Optional[ProxyScore]


@dataclass(frozen=True)
class CycleLog:
    cycle: int
    parent_birth: int
    parent_arch: ArchEncoding
    children: tuple[ChildLog, ...]
    admitted_index: int
    population_births: tuple[int, ...]  # population content after the cycle


@dataclass
class SearchResult:
    method: str
    config: EvolutionConfig
    history: list[EvaluatedModel]
    cycle_log: list[CycleLog]
    best: EvaluatedModel
    num_proxy_evals: int
    num_fitness_evals: int
    train_seconds_total: float
    proxy_wall_seconds: float

    @property
    def sim_time_seconds(self) -> float:
        """Simulated search cost: recorded training time plus proxy wall time."""
        return self.train_seconds_total + self.proxy_wall_seconds

    def to_json_dict(self) -> dict:
        """JSON form. Everything outside "timing" is deterministic per
        (config, proxy, fitness); "timing" holds wall-clock-derived values."""
        def z_of(p: Optional[ProxyScore]):
            if p is None or not p.valid:
                return None
            return p.z

        def model_dict(m: EvaluatedModel) -> dict:
            return {"arch": str(m.arch), "val_acc": m.fitness, "test_acc": m.test_acc,
                    "birth": m.birth, "train_seconds": m.train_seconds,
                    "proxy_z": z_of(m.proxy),
                    "proxy_valid": None if m.proxy is None else m.proxy.valid}

        return {
            "method": self.method,
            "config": {"C": self.config.C, "P": self.config.P, "S": self.config.S,
                       "seed": self.config.seed, "dataset": self.config.dataset},
            "history": [model_dict(m) for m in self.history],
            "cycles": [{
                "cycle": c.cycle,
                "parent_birth": c.parent_birth,
                "parent_arch": str(c.parent_arch),
                "children": [{"arch": str(ch.arch), "z": z_of(ch.proxy),
                              "valid": None if ch.proxy is None else ch.proxy.valid}
                             for ch in c.children],
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


def _candidate_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, 1, index)))


def _child_rng(seed: int, cycle: int, child: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, 2 + cycle, child)))


def tournament_select(population: Population, s: int, rng: np.random.Generator) -> EvaluatedModel:
    """S draws with replacement; returns the max-fitness draw, earliest birth
    winning ties."""
    members = population.members()
    best = None
    for _ in range(s):
        pick = members[int(rng.integers(len(members)))]
        if best is None or pick.fitness > best.fitness or \
                (pick.fitness == best.fitness and pick.birth < best.birth):
            best = pick
    return best


def _evolve(method: str, config: EvolutionConfig, fitness: FitnessSource,
            proxy: Optional[ProxySource], pool: int, keep: int,
            children: int) -> SearchResult:
    """The one aging-evolution loop behind gea, rea and rs.

    Samples ``pool`` random candidates and admits ``keep`` of them (the best
    by proxy score, or all of them when there is no proxy), then runs cycles
    of ``children`` mutated children each, admitting the best-scoring child
    (the only one without a proxy), until C models have been trained.
    """
    proxy_wall = 0.0
    num_proxy = 0

    def scored(arch: ArchEncoding, rng: np.random.Generator) -> Optional[ProxyScore]:
        nonlocal proxy_wall, num_proxy
        if proxy is None:
            return None
        tic = time.perf_counter()
        s = proxy.score(arch, rng)
        proxy_wall += time.perf_counter() - tic
        num_proxy += 1
        return s

    population = Population(keep)
    history: list[EvaluatedModel] = []

    def admit(arch: ArchEncoding, score: Optional[ProxyScore]) -> None:
        val, test, secs = fitness.evaluate(arch, config.dataset)
        model = EvaluatedModel(arch=arch, fitness=val, test_acc=test,
                               birth=len(history), train_seconds=secs, proxy=score)
        population.push(model)
        history.append(model)

    candidates = []
    for i in range(pool):
        rng = _candidate_rng(config.seed, i)
        arch = random_arch(rng)
        candidates.append((arch, scored(arch, rng)))
    kept = range(keep)
    if proxy is not None:
        order = sorted(range(pool), key=lambda i: proxy_rank_key(candidates[i][1]),
                       reverse=True)
        kept = sorted(order[:keep])  # generation order = birth order
    for i in kept:
        admit(*candidates[i])

    main_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    cycle_log: list[CycleLog] = []
    while len(history) < config.C:
        cycle = len(cycle_log)
        parent = tournament_select(population, config.S, main_rng)
        logs = []
        for j in range(children):
            rng = _child_rng(config.seed, cycle, j)
            child = mutate(parent.arch, rng)
            logs.append(ChildLog(child, scored(child, rng)))
        # Best proxy score, earlier child winning ties.
        best = 0 if proxy is None else max(range(children),
                                            key=lambda j: proxy_rank_key(logs[j].proxy))
        population.pop_oldest()
        admit(logs[best].arch, logs[best].proxy)
        cycle_log.append(CycleLog(
            cycle=cycle, parent_birth=parent.birth, parent_arch=parent.arch,
            children=tuple(logs), admitted_index=best,
            population_births=tuple(m.birth for m in population.members())))

    return SearchResult(
        method=method, config=config, history=history, cycle_log=cycle_log,
        best=best_of(history), num_proxy_evals=num_proxy,
        num_fitness_evals=len(history),
        train_seconds_total=sum(m.train_seconds for m in history),
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
    best = history[0]
    for m in history[1:]:
        if m.fitness > best.fitness:
            best = m
    return best
