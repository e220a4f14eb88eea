import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gea_nas import zero_proxy
from gea_nas.arch_space import SPACE_SIZE, ArchEncoding, live_index, random_arch
from gea_nas.benchmark_store import OracleProxySource, SyntheticLandscape
from gea_nas.guided_evolution import (
    EvaluatedModel,
    EvolutionConfig,
    _rng,
    best_of,
    run_random_baseline,
    run_rea_baseline,
    run_search,
    tournament_select,
)
from gea_nas.network_builder import SkeletonConfig
from gea_nas.zero_proxy import JacobianProxySource, ProxyConfig, make_batch, score_architecture

from process_helpers import CallLog


class StubRng:
    """Replays a fixed queue of integers through the Generator.integers slot."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, *args, **kwargs):
        return self.values.pop(0)


class CellProxy:
    """A ProxySource made of a score(arch) method: each batch scored cell by cell."""

    def score_all(self, archs):
        return [self.score(arch) for arch in archs]


class IndexProxy(CellProxy):
    """z equals the architecture's space index: a fixed, known total order."""

    def score(self, arch):
        return float(arch.index)


class ConstantProxy(CellProxy):
    def score(self, arch):
        return 1.0


class FlatLandscape:
    """All architectures share one fitness value."""

    def evaluate(self, arch, dataset):
        return 50.0, 50.0, 1.0


class CountingSource:
    """Wraps a fitness source and counts evaluate() calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def evaluate(self, arch, dataset):
        self.calls += 1
        return self.inner.evaluate(arch, dataset)


class ZeroTestAccSource:
    """Same val fitness as the wrapped source but test_acc forced to zero."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, arch, dataset):
        val, _, secs = self.inner.evaluate(arch, dataset)
        return val, 0.0, secs


def model(fitness, birth, arch=None):
    return EvaluatedModel(arch=arch or ArchEncoding.from_index(birth),
                          fitness=fitness, test_acc=fitness, birth=birth,
                          train_seconds=1.0)


def test_config_validation():
    with pytest.raises(ValueError, match="P <= C"):
        EvolutionConfig(C=4, P=5)
    with pytest.raises(ValueError, match="P"):
        EvolutionConfig(C=4, P=0)
    with pytest.raises(ValueError, match="tournament"):
        EvolutionConfig(S=0)
    with pytest.raises(ValueError, match="seed"):
        EvolutionConfig(seed=2**32)
    EvolutionConfig(C=1, P=1, S=1)  # boundary is legal


def test_evaluated_model_fitness_range():
    with pytest.raises(ValueError, match="fitness"):
        model(100.5, 0)
    with pytest.raises(ValueError, match="fitness"):
        model(-0.1, 0)


def test_tournament_single_draw_is_uniform():
    pop = [model(float(i), i) for i in range(5)]
    rng = np.random.default_rng(7)
    counts = np.zeros(5)
    n = 20000
    for _ in range(n):
        counts[tournament_select(pop, 1, rng).birth] += 1
    assert np.all(np.abs(counts / n - 0.2) < 0.02)


@pytest.mark.parametrize("s,seed,expect", [(2, 42, 1 - (4 / 5) ** 2),
                                           (5, 43, 1 - (4 / 5) ** 5)])
def test_tournament_best_win_frequency(s, seed, expect):
    # P(best of 5 enters at least one of s draws) = 1 - (4/5)^s
    pop = [model(float(i), i) for i in range(5)]
    rng = np.random.default_rng(seed)
    n = 100000
    wins = sum(tournament_select(pop, s, rng).birth == 4 for _ in range(n))
    assert abs(wins / n - expect) < 0.005


def test_tournament_tie_goes_to_earlier_birth():
    pop = [model(5.0, i) for i in range(3)]
    # draws 2 then 0: equal fitness, the earlier birth must win
    assert tournament_select(pop, 2, StubRng([2, 0])).birth == 0
    # and draw order must not matter
    assert tournament_select(pop, 2, StubRng([0, 2])).birth == 0


def reference_tournament(members, s, rng):
    """The explicit loop tournament_select replaced: S draws, strictly
    higher fitness or equal fitness with an earlier birth takes the lead."""
    best = None
    for _ in range(s):
        pick = members[int(rng.integers(len(members)))]
        if best is None or pick.fitness > best.fitness or \
                (pick.fitness == best.fitness and pick.birth < best.birth):
            best = pick
    return best


def reference_best_of(history):
    """The explicit loop best_of replaced: the first strictly higher fitness leads."""
    best = history[0]
    for m in history[1:]:
        if m.fitness > best.fitness:
            best = m
    return best


tied_fitness = st.lists(st.sampled_from([10.0, 50.0, 90.0]), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(tied_fitness, st.randoms(use_true_random=False), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_tournament_matches_reference_loop(fitnesses, shuffler, s, seed):
    births = list(range(len(fitnesses)))
    shuffler.shuffle(births)  # member order need not be birth order
    pop = [model(f, b) for f, b in zip(fitnesses, births)]
    got = tournament_select(pop, s, np.random.default_rng(seed))
    assert got is reference_tournament(pop, s, np.random.default_rng(seed))


@settings(max_examples=200, deadline=None)
@given(tied_fitness)
def test_best_of_matches_reference_loop(fitnesses):
    history = [model(f, b) for b, f in enumerate(fitnesses)]
    assert best_of(history) is reference_best_of(history)


def test_init_keeps_top_p_by_proxy():
    config = EvolutionConfig(C=10, P=3, seed=11)
    land = SyntheticLandscape(11)
    result = run_search(config, IndexProxy(), land)
    # rebuild the candidate stream the search must have drawn
    candidates = [random_arch(_rng(config.seed, 1, i)) for i in range(10)]
    top3 = sorted(candidates, key=lambda a: a.index, reverse=True)[:3]
    init = result.history[:3]
    assert {m.arch.index for m in init} == {a.index for a in top3}
    # kept in candidate order, so births follow draw order
    drawn_order = [a.index for a in candidates if a.index in {x.index for x in top3}]
    assert [m.arch.index for m in init] == drawn_order


def test_c_equals_p_runs_zero_cycles():
    config = EvolutionConfig(C=4, P=4, seed=0)
    result = run_search(config, IndexProxy(), SyntheticLandscape(0))
    assert result.cycle_log == []
    assert result.num_fitness_evals == 4
    assert result.num_proxy_evals == 4  # init scoring only


def test_population_is_aged_fifo():
    config = EvolutionConfig(C=20, P=5, seed=3)
    result = run_search(config, IndexProxy(), SyntheticLandscape(3))
    for log in result.cycle_log:
        assert log.population_births == tuple(range(log.cycle + 1, log.cycle + 6))
        assert log.parent_birth in range(log.cycle, log.cycle + 5)


def test_evaluation_counts():
    config = EvolutionConfig(C=30, P=5, seed=1)
    land = CountingSource(SyntheticLandscape(1))
    result = run_search(config, IndexProxy(), land)
    assert len(result.cycle_log) == 25
    assert result.num_fitness_evals == 30 == land.calls
    assert result.num_proxy_evals == 30 + 25 * 5  # C + (C - P) * P
    assert len(result.history) == 30
    assert [m.birth for m in result.history] == list(range(30))


def test_admitted_child_maximizes_proxy():
    land = SyntheticLandscape(17)
    config = EvolutionConfig(C=25, P=5, seed=17)
    result = run_search(config, OracleProxySource(land), land)
    for log in result.cycle_log:
        zs = [c.proxy for c in log.children]
        assert len(zs) == 5
        assert zs[log.admitted_index] == max(zs)
        # earlier index must win ties
        assert log.admitted_index == zs.index(max(zs))
        # the admitted child is the one in the history
        admitted = result.history[config.P + log.cycle]
        assert admitted.arch == log.children[log.admitted_index].arch
        assert admitted.fitness == land.fitness_of(admitted.arch)


def test_constant_proxy_admits_first_child():
    config = EvolutionConfig(C=12, P=3, seed=5)
    result = run_search(config, ConstantProxy(), SyntheticLandscape(5))
    assert all(log.admitted_index == 0 for log in result.cycle_log)


def test_invalid_scores_rank_below_valid():
    class MostlyInvalidProxy(CellProxy):
        def score(self, arch):
            if arch.index % 3 == 0:
                return float(arch.index)
            return -math.inf

    config = EvolutionConfig(C=18, P=3, seed=9)
    result = run_search(config, MostlyInvalidProxy(), SyntheticLandscape(9))
    for log in result.cycle_log:
        if any(c.proxy > -math.inf for c in log.children):
            assert log.children[log.admitted_index].proxy > -math.inf


class MaskedProxy(CellProxy):
    """A seeded random subset of the space scores invalid; the rest score a
    few tied z values, so ties and invalid scores meet in one ranking."""

    def __init__(self, mask_seed, invalid_share):
        self.invalid = np.random.default_rng(mask_seed).random(SPACE_SIZE) < invalid_share

    def score(self, arch):
        if self.invalid[arch.index]:
            return -math.inf
        return float(arch.index % 3)


class IndexLandscape:
    def evaluate(self, arch, dataset):
        f = 100.0 * arch.index / (SPACE_SIZE - 1)
        return f, f, 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]), st.integers(1, 6), st.integers(0, 12))
def test_invalid_scores_rank_last_property(seed, mask_seed, invalid_share, p, extra):
    proxy = MaskedProxy(mask_seed, invalid_share)
    config = EvolutionConfig(C=p + extra, P=p, seed=seed)
    result = run_search(config, proxy, IndexLandscape())

    def rank_key(score):  # valid first, then z
        return (score > -math.inf, score)

    # initial admission: the P best of C candidates, so an invalid member
    # means no valid candidate was left out
    candidates = [proxy.score(random_arch(_rng(seed, 1, i))) for i in range(config.C)]
    init = [m.proxy for m in result.history[:p]]
    left_out = sum(s > -math.inf for s in candidates) - sum(s > -math.inf for s in init)
    assert left_out == 0 or all(s > -math.inf for s in init)
    assert sorted(map(rank_key, init)) == sorted(map(rank_key, candidates))[-p:]
    # every cycle admits the first of the best children
    for log in result.cycle_log:
        scores = [c.proxy for c in log.children]
        if any(s > -math.inf for s in scores):
            assert scores[log.admitted_index] > -math.inf
        assert log.admitted_index == max(range(p), key=lambda j: rank_key(scores[j]))
        assert result.history[p + log.cycle].proxy is scores[log.admitted_index]


# A 3x3 single-channel skeleton keeps a real Jacobian score under ~1 ms.
TINY_PROXY = ProxyConfig(batch_size=6, skeleton=SkeletonConfig(
    in_channels=1, image_hw=3, stem_channels=2, num_classes=2))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(0, 15))
def test_cached_scores_equal_fresh_scores(seed, p, extra):
    batch = make_batch(TINY_PROXY, np.random.default_rng(seed))
    proxy = JacobianProxySource(batch, TINY_PROXY, seed)
    config = EvolutionConfig(C=p + extra, P=p, seed=seed)
    computed = CallLog()  # in this process and in the helper

    def counting_score(arch, *args):
        computed.add(arch.index)
        return score_architecture(arch, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zero_proxy, "score_architecture", counting_score)
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # a helper on any machine
        try:
            result = run_search(config, proxy, IndexLandscape())
        finally:
            proxy.close()

    fresh = JacobianProxySource(batch, TINY_PROXY, seed)
    children = [c for log in result.cycle_log for c in log.children]
    for item in [*result.history, *children]:
        assert item.proxy == fresh.score_all([item.arch])[0]
    requested = [random_arch(_rng(seed, 1, i)) for i in range(config.C)]
    requested += [c.arch for c in children]
    assert result.num_proxy_evals == len(requested)
    live = {live_index(a) for a in requested}
    assert sorted(computed.entries()) == sorted(live)  # each live network computed once
    assert len(proxy.scores) == len(live)


def test_rea_baseline_shape():
    config = EvolutionConfig(C=30, P=5, S=2, seed=7)
    result = run_rea_baseline(config, SyntheticLandscape(7))
    assert result.method == "rea"
    assert result.num_proxy_evals == 0
    assert result.num_fitness_evals == 30
    assert all(len(log.children) == 1 and log.children[0].proxy is None
               for log in result.cycle_log)
    for log in result.cycle_log:
        assert log.population_births == tuple(range(log.cycle + 1, log.cycle + 6))


class DominantOpLandscape:
    """Fitness counts 3x3 convolutions: strictly monotone, no interactions."""

    def evaluate(self, arch, dataset):
        f = 10.0 + 15.0 * sum(op == 3 for op in arch.ops)
        return f, f, 1.0


def test_rea_improves_over_initial_population():
    # On a monotone landscape the end population should never be worse than
    # the starting one (on a rugged one aging can lose the best member).
    land = DominantOpLandscape()
    for seed in range(10):
        config = EvolutionConfig(C=60, P=5, S=5, seed=seed)
        result = run_rea_baseline(config, land)
        init_best = max(m.fitness for m in result.history[:5])
        end_best = max(m.fitness for m in result.history[-5:])
        assert end_best >= init_best


def test_random_baseline_prefix_property():
    # Candidate streams are keyed by (seed, index), so best-of-20 sees a
    # superset of best-of-10's draws and can never do worse on any seed.
    for seed in range(20):
        land = SyntheticLandscape(40)
        small = run_random_baseline(EvolutionConfig(C=10, P=1, seed=seed), land)
        large = run_random_baseline(EvolutionConfig(C=20, P=1, seed=seed), land)
        assert large.best.fitness >= small.best.fitness
        assert [m.arch for m in large.history[:10]] == [m.arch for m in small.history]


def test_random_baseline_c1_boundary():
    land = SyntheticLandscape(2)
    result = run_random_baseline(EvolutionConfig(C=1, P=1, S=1, seed=0), land)
    assert len(result.history) == 1
    assert result.best == result.history[0]


class PermLandscape:
    """Fitness is a seeded permutation of ranks: every value distinct."""

    def __init__(self, seed):
        perm = np.random.default_rng(seed).permutation(SPACE_SIZE)
        self.fitness = perm.astype(float) / (SPACE_SIZE - 1) * 100.0

    def evaluate(self, arch, dataset):
        f = float(self.fitness[arch.index])
        return f, f, 1.0


def test_random_baseline_expected_best_rank():
    # Expected best rank of C uniform draws with distinct values is
    # (N + 1) / (C + 1); for N = 15625, C = 50 that is about 306.4.
    land = PermLandscape(123)
    order = np.argsort(-land.fitness)
    rank_of = np.empty(SPACE_SIZE, dtype=int)
    rank_of[order] = np.arange(1, SPACE_SIZE + 1)
    ranks = []
    for seed in range(300):
        result = run_random_baseline(EvolutionConfig(C=50, P=1, seed=seed), land)
        ranks.append(rank_of[result.best.arch.index])
    assert abs(np.mean(ranks) - (SPACE_SIZE + 1) / 51) < 35


def test_search_deterministic():
    def run():
        config = EvolutionConfig(C=20, P=5, seed=13)
        land = SyntheticLandscape(13)
        return run_search(config, OracleProxySource(land), land).to_json_dict()

    a, b = run(), run()
    a.pop("timing"), b.pop("timing")
    assert a == b


def test_selection_never_reads_test_acc():
    config = EvolutionConfig(C=25, P=5, seed=19)
    land = SyntheticLandscape(19)
    plain = run_search(config, OracleProxySource(land), land)
    masked = run_search(config, OracleProxySource(land), ZeroTestAccSource(land))
    assert [m.arch for m in plain.history] == [m.arch for m in masked.history]
    assert plain.cycle_log == masked.cycle_log
    assert all(m.test_acc == 0.0 for m in masked.history)
    assert masked.best.arch == plain.best.arch


def test_best_of_tie_goes_to_earlier_birth():
    config = EvolutionConfig(C=8, P=2, seed=4)
    result = run_search(config, IndexProxy(), FlatLandscape())
    assert result.best.birth == 0
    history = [model(3.0, 0), model(7.0, 1), model(7.0, 2)]
    assert best_of(history).birth == 1


def test_json_dict_shape():
    config = EvolutionConfig(C=10, P=3, seed=6)
    land = SyntheticLandscape(6)
    doc = run_search(config, OracleProxySource(land), land).to_json_dict()
    assert doc["method"] == "gea"
    assert doc["config"]["C"] == 10 and doc["config"]["P"] == 3
    assert len(doc["history"]) == 10
    assert len(doc["cycles"]) == 7
    assert set(doc["timing"]) == {"proxy_wall_seconds", "sim_time_seconds"}
    first = doc["cycles"][0]
    assert set(first) >= {"cycle", "parent_birth", "parent_arch", "children",
                          "admitted_index", "population_births"}
    assert doc["best"]["arch"] == max(doc["history"], key=lambda m: m["val_acc"])["arch"]


def test_json_null_for_invalid_proxy():
    class AlwaysInvalid(CellProxy):
        def score(self, arch):
            return -math.inf

    config = EvolutionConfig(C=6, P=2, seed=8)
    doc = run_search(config, AlwaysInvalid(), SyntheticLandscape(8)).to_json_dict()
    zs = [c["z"] for cycle in doc["cycles"] for c in cycle["children"]]
    assert zs and all(z is None for z in zs)
    assert all(m["proxy_z"] is None for m in doc["history"])
