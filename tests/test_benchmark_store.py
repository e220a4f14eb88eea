import json

import numpy as np
import pytest
from scipy.stats import spearmanr

from gea_nas.arch_space import SPACE_SIZE, ArchEncoding, encode_str, enumerate_all
from gea_nas.benchmark_store import (
    NOMINAL_TRAIN_SECONDS,
    BenchRecord,
    CalibrationError,
    JsonlFormatError,
    NoisyProxySource,
    StoreLookupError,
    SyntheticLandscape,
    TabularStore,
    dump_jsonl,
    load_jsonl,
)

ALL_NONE_STR = "|none~0|+|none~0|none~1|+|none~0|none~1|none~2|"
EXAMPLE_LINE = json.dumps({"arch": ALL_NONE_STR, "dataset": "cifar10",
                           "val_acc": 10.0, "test_acc": 10.0, "train_seconds": 100.0})


def write_lines(tmp_path, lines, name="bench.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_single_line_parse(tmp_path):
    store = load_jsonl(write_lines(tmp_path, [EXAMPLE_LINE]))
    assert len(store) == 1
    assert store.datasets == {"cifar10"}
    assert store.complete["cifar10"] is False
    rec = store.lookup(ALL_NONE_STR, "cifar10")
    assert rec.val_acc == 10.0 and rec.train_seconds == 100.0


def test_duplicate_line_reports_line_number(tmp_path):
    path = write_lines(tmp_path, [EXAMPLE_LINE, EXAMPLE_LINE])
    with pytest.raises(JsonlFormatError, match="line 2: duplicate"):
        load_jsonl(path)


def test_malformed_json_reports_line_number(tmp_path):
    path = write_lines(tmp_path, [EXAMPLE_LINE, "{not json"])
    with pytest.raises(JsonlFormatError, match="line 2: malformed JSON"):
        load_jsonl(path)


def test_wrong_field_set_rejected(tmp_path):
    extra = json.loads(EXAMPLE_LINE)
    extra["flops"] = 1.0
    with pytest.raises(JsonlFormatError, match="line 1: expected exactly"):
        load_jsonl(write_lines(tmp_path, [json.dumps(extra)]))
    missing = json.loads(EXAMPLE_LINE)
    del missing["test_acc"]
    with pytest.raises(JsonlFormatError, match="line 1"):
        load_jsonl(write_lines(tmp_path, [json.dumps(missing)]))


def test_unknown_op_rejected(tmp_path):
    bad = json.loads(EXAMPLE_LINE)
    bad["arch"] = ALL_NONE_STR.replace("none~0|+", "conv_7x7~0|+", 1)
    with pytest.raises(JsonlFormatError, match="line 1.*conv_7x7"):
        load_jsonl(write_lines(tmp_path, [json.dumps(bad)]))


def test_accuracy_out_of_range_rejected(tmp_path):
    bad = json.loads(EXAMPLE_LINE)
    bad["val_acc"] = 101.5
    with pytest.raises(JsonlFormatError, match="line 1.*val_acc"):
        load_jsonl(write_lines(tmp_path, [json.dumps(bad)]))


def test_lookup_not_found_never_defaults(tmp_path):
    store = load_jsonl(write_lines(tmp_path, [EXAMPLE_LINE]))
    with pytest.raises(StoreLookupError):
        store.lookup(ArchEncoding.from_index(1), "cifar10")
    with pytest.raises(StoreLookupError):
        store.lookup(ALL_NONE_STR, "cifar100")
    # repeated lookups are pure
    assert store.lookup(ALL_NONE_STR, "cifar10") == store.lookup(ALL_NONE_STR, "cifar10")


def test_evaluate_returns_triple(tmp_path):
    store = load_jsonl(write_lines(tmp_path, [EXAMPLE_LINE]))
    assert store.evaluate(ALL_NONE_STR, "cifar10") == (10.0, 10.0, 100.0)


def test_duplicate_records_rejected_in_constructor():
    rec = BenchRecord(arch=ALL_NONE_STR, dataset="cifar10", val_acc=1.0,
                      test_acc=1.0, train_seconds=5.0)
    with pytest.raises(ValueError, match="duplicate"):
        TabularStore([rec, rec])


def test_dump_load_roundtrip(tmp_path):
    records = [BenchRecord(arch=encode_str(ArchEncoding.from_index(i)),
                           dataset="cifar10", val_acc=float(i % 100),
                           test_acc=float((i * 7) % 100), train_seconds=float(i))
               for i in (0, 5, 4242, 15624)]
    store = TabularStore(records)
    path = tmp_path / "roundtrip.jsonl"
    dump_jsonl(store, path)
    reloaded = load_jsonl(path)
    assert sorted(map(str, reloaded.records())) == sorted(map(str, store.records()))


def test_completeness_flag(tmp_path):
    lines = [json.dumps({"arch": encode_str(a), "dataset": "cifar10",
                         "val_acc": float(a.index % 100), "test_acc": 1.0,
                         "train_seconds": 2.0}) for a in enumerate_all()]
    store = load_jsonl(write_lines(tmp_path, lines, name="full.jsonl"))
    assert len(store) == SPACE_SIZE
    assert store.complete["cifar10"] is True


def test_landscape_deterministic_and_bounded():
    a = SyntheticLandscape(3)
    b = SyntheticLandscape(3)
    assert np.array_equal(a.fitness, b.fitness)
    assert a.fitness.min() == 0.0 and a.fitness.max() == 100.0
    assert len(np.unique(a.fitness)) >= 100
    c = SyntheticLandscape(4)
    assert not np.array_equal(a.fitness, c.fitness)


def test_landscape_optimum_by_enumeration():
    land = SyntheticLandscape(5)
    best_by_scan = max(enumerate_all(), key=land.fitness_of)
    assert best_by_scan.index == land.optimum_index
    assert land.fitness_of(best_by_scan) == land.optimum_fitness == 100.0


def test_landscape_evaluate_interface():
    land = SyntheticLandscape(6)
    arch = ArchEncoding.from_index(777)
    val, test, secs = land.evaluate(arch)
    assert val == test == land.fitness_of(arch)
    assert secs == NOMINAL_TRAIN_SECONDS


def test_noisy_proxy_rho_one_matches_fitness_ranking():
    land = SyntheticLandscape(7)
    proxy = NoisyProxySource(land, 1.0, seed=0)
    assert spearmanr(proxy.values, land.fitness).statistic == pytest.approx(1.0)


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_noisy_proxy_hits_target_band(rho):
    land = SyntheticLandscape(8)
    proxy = NoisyProxySource(land, rho, seed=1)
    emp = spearmanr(proxy.values, land.fitness).statistic
    assert abs(emp - rho) <= 0.05
    assert emp == pytest.approx(proxy.empirical_spearman)


def test_noisy_proxy_deterministic_per_seed():
    land = SyntheticLandscape(9)
    a = NoisyProxySource(land, 0.7, seed=2)
    b = NoisyProxySource(land, 0.7, seed=2)
    assert np.array_equal(a.values, b.values)


def test_noisy_proxy_rejects_bad_rho():
    land = SyntheticLandscape(10)
    with pytest.raises(ValueError):
        NoisyProxySource(land, -0.1, seed=0)
    with pytest.raises(ValueError):
        NoisyProxySource(land, 1.5, seed=0)


def test_proxy_score_interface():
    land = SyntheticLandscape(11)
    proxy = NoisyProxySource(land, 0.9, seed=3)
    arch = ArchEncoding.from_index(123)
    score = proxy.score(arch)
    assert score.valid and score.z == float(proxy.values[123])
