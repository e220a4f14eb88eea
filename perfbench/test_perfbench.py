"""Self-tests of the benchmark: metric names, output checks and the tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import importlib
import inspect
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from gea_nas import arch_space, zero_proxy  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _mock_search(out: Path, c: int, seeds: str = "0") -> dict[str, dict]:
    argv = ["search", *wl.surrogate_variants("")["gea_mock"], "--C", str(c), "--P", "5",
            "--S", "2", "--seeds", seeds, "--out", str(out / "gea_mock")]
    assert wl._call_main(argv) == 0
    docs, _ = wl._collect(out)
    return {name: doc for name, doc in docs.items() if "history" in doc}


def test_metric_names_and_units_match_the_spec():
    declared_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in [*declared_e2e, *declared_layer, *(w["name"] for w in SPEC["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64, name

    e2e = run.end_to_end([(0.5, 1), (0.7, 1)], [1.0, 1.2, 1.1], 100.0)
    assert {k: unit for k, (_, unit, _) in e2e.items()} == declared_e2e
    layer = Tracer().metrics(0)
    layer["tracing_overhead"] = (0.0, "ratio")
    assert {k: unit for k, (_, unit) in layer.items()} == declared_layer
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(wl.WORKLOADS)


def test_cifar_order_is_a_seeded_permutation_with_the_same_mix_in_every_prefix():
    cells = wl.load_refs("proxy_cifar")["cells"]
    first = wl.stratified_order(cells, np.random.default_rng(1))
    assert sorted(first) == sorted(cells)
    assert first == wl.stratified_order(cells, np.random.default_rng(1))
    assert first != wl.stratified_order(cells, np.random.default_rng(2))
    ranked = sorted(wl.cifar_cost(index) for index, _ in cells)
    size = len(ranked) // wl.CIFAR_STRATA
    for deal in range(3):  # each deal holds one cell of each cost stratum, cheapest first
        costs = [wl.cifar_cost(index) for index, _ in
                 first[deal * wl.CIFAR_STRATA:(deal + 1) * wl.CIFAR_STRATA]]
        for stratum, cost in enumerate(costs):
            assert ranked[stratum * size] <= cost <= ranked[(stratum + 1) * size - 1]


def test_z_check_fails_on_perturbed_reference():
    refs = wl.load_refs("fingerprint")
    index, ref = next(row for row in refs["cells"] if row[1] is not None)
    score = zero_proxy.score_architecture(arch_space.ArchEncoding.from_index(index),
                                          zero_proxy.make_batch(zero_proxy.ProxyConfig()))
    assert wl.check_z(score.valid, score.z, ref) is None
    assert wl.check_z(score.valid, score.z, ref * (1 + 10 * wl.Z_REL_TOL)) is not None
    assert wl.check_z(score.valid, score.z, None) is not None
    assert wl.check_z(False, float("-inf"), ref) is not None


def test_fingerprint_fails_on_perturbed_reference(monkeypatch):
    assert wl.fingerprint()["error"] is None
    refs = wl.load_refs("fingerprint")
    perturbed = copy.deepcopy(refs)
    row = next(r for r in perturbed["cells"] if r[1] is not None)
    row[1] += abs(row[1]) * 1e-4
    monkeypatch.setattr(wl, "load_refs", lambda name: perturbed)
    assert wl.fingerprint()["error"] is not None


def test_gea_invariants_fail_on_perturbed_result(tmp_path):
    (doc,) = _mock_search(tmp_path, 20).values()
    assert wl.check_gea_invariants(doc, 20, 5) is None

    def broken(edit):
        bad = copy.deepcopy(doc)
        edit(bad)
        return wl.check_gea_invariants(bad, 20, 5)

    assert broken(lambda d: d.update(num_proxy_evals=d["num_proxy_evals"] - 1))
    assert broken(lambda d: d.update(num_fitness_evals=19))
    assert broken(lambda d: d["cycles"][3]["population_births"].reverse())
    assert broken(lambda d: d["cycles"][0].update(
        admitted_index=(d["cycles"][0]["admitted_index"] + 1) % 5))
    assert broken(lambda d: d["history"][7].update(arch=d["history"][0]["arch"]))


def test_surrogate_check_fails_on_perturbed_reference(tmp_path):
    docs = _mock_search(tmp_path, wl.SURROGATE_C, seeds="0,1")
    refs = wl.load_refs("surrogate_search")["digests"]
    codes = {"gea_mock": 0}
    assert wl.check_surrogate(docs, codes, (0, 1), refs) is None

    extended = {name: {**doc, "added_field": [1, 2, 3]} for name, doc in docs.items()}
    assert wl.check_surrogate(extended, codes, (0, 1), refs) is None

    perturbed = copy.deepcopy(refs)
    digest = perturbed["gea_mock"]["1"]
    perturbed["gea_mock"]["1"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    assert wl.check_surrogate(docs, codes, (0, 1), perturbed) is not None
    assert wl.check_surrogate(docs, {"gea_mock": 2}, (0, 1), refs) is not None


def _bindings() -> dict:
    """Every attribute of the gea_nas modules and of the classes they define."""
    out = {}
    for name in ("", *MODULES):
        module = importlib.import_module(f"gea_nas.{name}" if name else "gea_nas")
        for attr, value in list(vars(module).items()):
            out[(name, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("gea_nas"):
                for cattr, cvalue in list(vars(value).items()):
                    out[(name, attr, cattr)] = cvalue
    return out


def test_tracer_leaves_no_patched_name_behind(tmp_path):
    before = _bindings()
    batch = zero_proxy.make_batch(zero_proxy.ProxyConfig())
    arch = arch_space.ArchEncoding.from_index(12345)
    plain = zero_proxy.score_architecture(arch, batch)

    tracer = Tracer()
    with tracer:
        assert tracer.missing == []
        assert zero_proxy.build_network is not before[("zero_proxy", "build_network")]
        traced = zero_proxy.score_architecture(arch, batch)
        _mock_search(tmp_path, 20)
    assert traced == plain
    metrics = tracer.metrics(0)
    assert metrics["zero_proxy.score_architecture.calls"][0] == 1
    # one function object under two names, counted apart
    assert metrics["autodiff_core.avg_pool.fwd.calls"][0] >= metrics[
        "autodiff_core.avg_pool.bwd.calls"][0] > 0
    assert metrics["guided_evolution.fitness_calls"][0] == 20

    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_uninstalls_when_install_fails(monkeypatch):
    before = _bindings()
    tracer = Tracer()
    original = tracer._patch
    calls = []

    def failing(owner, attr, wrapper):
        calls.append(attr)
        if len(calls) == 5:
            raise RuntimeError("injected")
        original(owner, attr, wrapper)

    monkeypatch.setattr(tracer, "_patch", failing)
    with pytest.raises(RuntimeError):
        tracer.install()
    after = _bindings()
    assert [k for k in before if after[k] is not before[k]] == []
