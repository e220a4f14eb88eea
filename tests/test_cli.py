import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import gea_nas
from gea_nas import experiment_cli, zero_proxy
from gea_nas.arch_space import ArchEncoding, encode_str, enumerate_all, live_index, parse_str
from gea_nas.benchmark_store import BenchRecord, SyntheticLandscape
from gea_nas.experiment_cli import _OPTIONS, build_parser, build_run_config, main, mean_std
from gea_nas.zero_proxy import (
    Batch,
    JacobianProxySource,
    ProxyConfig,
    read_batch_file,
)

from format_writers import dump_jsonl, write_batch_file
from process_helpers import CallLog


@pytest.fixture(scope="module")
def bench_path(tmp_path_factory):
    """A complete cifar10 export: one record per architecture."""
    land = SyntheticLandscape(0)
    records = [BenchRecord(arch=encode_str(a), dataset="cifar10",
                           val_acc=float(land.fitness[a.index]),
                           test_acc=float(land.fitness[a.index]),
                           train_seconds=100.0)
               for a in enumerate_all()]
    path = tmp_path_factory.mktemp("bench") / "cifar10.jsonl"
    dump_jsonl(records, path)
    return str(path)


def strip_timing(doc):
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items() if k != "timing"}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


def result_doc(method, dataset, val, test, train_seconds, seed=0, C=20):
    """Every field of a per-seed result that report reads, as to_json_dict writes it."""
    arch = "|nor_conv_3x3~0|+|none~0|skip_connect~1|+|none~0|none~1|avg_pool_3x3~2|"
    return {"method": method, "config": {"C": C, "P": 5, "S": 2, "seed": seed, "dataset": dataset},
            "history": [], "cycles": [],
            "best": {"arch": arch, "val_acc": val, "test_acc": test, "birth": 0,
                     "train_seconds": train_seconds / C, "proxy_z": None, "proxy_valid": None},
            "num_proxy_evals": 0, "num_fitness_evals": C, "train_seconds_total": train_seconds,
            "timing": {"proxy_wall_seconds": 0.0, "sim_time_seconds": train_seconds}}


def test_mean_std():
    mean, std = mean_std([93.9, 94.1])
    assert mean == pytest.approx(94.0)
    assert std == pytest.approx(np.std([93.9, 94.1], ddof=1))
    assert mean_std([5.0]) == (5.0, 0.0)


def test_search_writes_results_and_report(tmp_path):
    out = tmp_path / "run"
    code = main(["search", "--method", "gea", "--mode", "oracle", "--C", "20",
                 "--seeds", "0,1,2", "--out", str(out)])
    assert code == 0
    docs = [json.loads((out / f"gea_seed{s}.json").read_text()) for s in (0, 1, 2)]
    report = json.loads((out / "gea_report.json").read_text())
    assert report["num_seeds"] == 3
    bests = [d["best"]["val_acc"] for d in docs]
    assert report["val_acc"]["mean"] == pytest.approx(np.mean(bests))
    assert report["val_acc"]["std"] == pytest.approx(np.std(bests, ddof=1))
    for doc in docs:
        assert doc["method"] == "gea"
        assert doc["num_fitness_evals"] == 20
        assert doc["num_proxy_evals"] == 20 + 15 * 5


def test_search_rerun_identical_outside_timing(tmp_path):
    args = ["search", "--method", "gea", "--mode", "oracle", "--C", "15",
            "--seeds", "4", "--P", "3"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("gea_seed4.json", "gea_report.json"):
        a = strip_timing(json.loads((tmp_path / "a" / name).read_text()))
        b = strip_timing(json.loads((tmp_path / "b" / name).read_text()))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_sweep_csv_layout(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--c-values", "10,20", "--seeds", "0,1",
                 "--mode", "oracle", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "C", "seed", "val_acc", "test_acc",
                       "train_seconds", "proxy_wall_seconds"]
    data = out.read_bytes()  # csv.reader hides the line endings
    assert data.count(b"\r\n") == data.count(b"\n") == 9 and data.endswith(b"\r\n")
    body = rows[1:]
    assert len(body) == 8  # 2 C values x 2 seeds x 2 methods
    assert sorted({r[0] for r in body}) == ["gea", "rea"]
    assert sorted({r[1] for r in body}) == ["10", "20"]
    for r in body:
        assert 0.0 <= float(r[3]) <= 100.0


def test_sweep_rerun_identical_outside_proxy_wall(tmp_path):
    args = ["sweep", "--c-values", "4,6", "--seeds", "0,1", "--mode", "proxy",
            "--P", "2", "--batch-size", "12"]
    tables = []
    for name in ("a.csv", "b.csv"):
        assert main(args + ["--out", str(tmp_path / name)]) == 0
        with open(tmp_path / name, newline="") as fh:
            tables.append(list(csv.DictReader(fh)))
    a, b = tables
    assert len(a) == len(b) == 8
    for row_a, row_b in zip(a, b):
        wall_a, wall_b = row_a.pop("proxy_wall_seconds"), row_b.pop("proxy_wall_seconds")
        assert row_a == row_b
        assert (float(wall_a) > 0.0) == (row_a["method"] == "gea")
        assert (float(wall_b) > 0.0) == (row_b["method"] == "gea")


# A 3x3 single-channel network, so a sweep computes real Jacobian scores fast.
TINY_PROXY = ["--in-channels", "1", "--image-hw", "3", "--stem-channels", "2",
              "--num-classes", "2", "--batch-size", "6"]
SWEEP = ["sweep", "--c-values", "8,12,16", "--P", "3", "--seeds", "0,1"]
TINY_SWEEP = SWEEP + TINY_PROXY


def test_sweep_computes_each_seed_cell_once(tmp_path, monkeypatch):
    requests, computed, sources, seed_of = [], CallLog(2), {}, {}
    score_all = zero_proxy.JacobianProxySource.score_all
    score_architecture = zero_proxy.score_architecture

    def recording_score_all(self, archs):
        requests.extend((self.seed, arch.index) for arch in archs)
        sources[self.seed] = self
        seed_of[id(self.batch)] = self.seed  # a helper forked later inherits it
        return score_all(self, archs)

    def counting_score_architecture(arch, batch, *args):
        computed.add(seed_of[id(batch)], arch.index)  # in whichever process computes it
        return score_architecture(arch, batch, *args)

    monkeypatch.setattr(zero_proxy.JacobianProxySource, "score_all", recording_score_all)
    monkeypatch.setattr(zero_proxy, "score_architecture", counting_score_architecture)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # a helper on any machine
    assert main(TINY_SWEEP + ["--mode", "proxy", "--out", str(tmp_path / "s.csv")]) == 0
    assert len(requests) > len(set(requests))  # the budgets share cells
    live = {(seed, live_index(ArchEncoding.from_index(i))) for seed, i in requests}
    assert sorted(computed.entries()) == sorted(live)  # each seed's live network computed once
    assert sum(len(source.scores) for source in sources.values()) == len(live)


@pytest.mark.parametrize("mode,source", [("proxy", "JacobianProxySource"),
                                         ("mock", "NoisyProxySource")])
def test_sweep_builds_each_seed_source_once(tmp_path, monkeypatch, mode, source):
    built = []

    class CountingSource(getattr(experiment_cli, source)):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(args[-1])  # the run seed

    monkeypatch.setattr(experiment_cli, source, CountingSource)
    knobs = TINY_PROXY if mode == "proxy" else ["--rho", "0.9"]
    assert main(SWEEP + knobs + ["--mode", mode, "--out", str(tmp_path / "s.csv")]) == 0
    assert built == [0, 1]


def test_sweep_rejects_single_c(tmp_path, capsys):
    for c_values in ("10", "20,20"):
        code = main(["sweep", "--c-values", c_values, "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "two C values" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


def test_sweep_budgets_stand_in_for_c(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--c-values", "3,10", "--P", "5", "--out", str(out)]) == 2
    assert "P <= C" in capsys.readouterr().err
    assert not out.exists()
    assert main(["sweep", "--c-values", "8,9", "--C", "2", "--P", "6", "--out", str(out)]) == 2


def test_report_formats_mean_and_std(tmp_path, capsys):
    paths = []
    for i, val in enumerate([93.9, 94.1]):
        p = tmp_path / f"r{i}.json"
        p.write_text(json.dumps(result_doc("rea", "cifar10", val, val, 100.0, seed=i)))
        paths.append(str(p))
    assert main(["report", *paths]) == 0
    out = capsys.readouterr().out
    assert "cifar10 val" in out and "cifar10 test" in out
    assert "94.00±0.14" in out
    assert "100.00" in out


def test_report_groups_mixed_datasets(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(result_doc("gea", "synthetic", 90.0, 90.0, 10.0)))
    b = tmp_path / "b.json"
    b.write_text(json.dumps(result_doc("rea", "cifar10", 80.0, 80.0, 20.0)))
    assert main(["report", str(a), str(b), "--out", str(tmp_path / "t.csv")]) == 0
    out = capsys.readouterr().out
    assert "cifar10 val" in out and "synthetic val" in out
    assert "-" in out  # gea has no cifar10 rows and rea no synthetic rows
    with open(tmp_path / "t.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["method", "cifar10 time", "cifar10 val", "cifar10 test"]
    assert len(rows) == 3
    data = (tmp_path / "t.csv").read_bytes()  # csv.reader hides the line endings
    assert data.count(b"\r\n") == data.count(b"\n") == 3 and data.endswith(b"\r\n")


def test_report_identical_for_identical_runs(tmp_path, capsys):
    # The time column is the simulated train time, so the measured proxy
    # wall of a proxy-mode search must not leak into it.
    args = ["search", "--method", "gea", "--mode", "proxy", "--C", "6", "--P", "2",
            "--seeds", "0"]
    reports = []
    for name in ("a", "b"):
        assert main(args + ["--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / name / "gea_seed0.json")]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert "600.00" in reports[0]  # 6 trained models x 100 s each


def test_report_over_a_search_directory_skips_the_aggregate(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["search", "--method", "rea", "--C", "10", "--seeds", "0,1",
                 "--out", str(out)]) == 0
    paths = sorted(out.glob("*.json"))
    assert [p.name for p in paths] == ["rea_report.json", "rea_seed0.json", "rea_seed1.json"]
    files = list(map(str, paths))
    capsys.readouterr()
    assert main(["report", *files]) == 0
    globbed = capsys.readouterr().out
    assert main(["report", *files[1:]]) == 0
    assert globbed == capsys.readouterr().out
    assert main(["report", files[0]]) == 2
    assert capsys.readouterr().err.startswith("error: no per-seed")


def test_report_rejects_non_result_file(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text(json.dumps({"foo": 1}))
    assert main(["report", str(p)]) == 2
    assert "junk.json" in capsys.readouterr().err


BAD_NUMBERS = {"nan": float("nan"), "inf": float("inf"), "string": "12", "bool": True}
BAD_INTEGERS = {"float": 1.0, "string": "1", "bool": True, "null": None}
# The object of a result document that holds each field report reads.
FIELD_HOLDER = {"val_acc": "best", "test_acc": "best", "arch": "best", "dataset": "config",
                "seed": "config", "C": "config", "P": "config", "S": "config",
                "sim_time_seconds": "timing"}


# A number field must be a finite JSON number, and a count, seed or budget an
# integer; method, dataset and arch label the table or the summary, so they
# must be strings (a null beside a string broke the sort).
@pytest.mark.parametrize("field,value,rule", [
    *(pytest.param(field, value, "a finite number", id=f"{field}-{name}")
      for field in ("val_acc", "test_acc", "train_seconds_total", "sim_time_seconds")
      for name, value in BAD_NUMBERS.items()),
    *(pytest.param(field, value, "an integer", id=f"{field}-{name}")
      for field in ("seed", "C", "P", "S", "num_fitness_evals", "num_proxy_evals")
      for name, value in BAD_INTEGERS.items()),
    pytest.param("method", None, "a string", id="method-null"),
    pytest.param("dataset", None, "a string", id="dataset-null"),
    pytest.param("arch", 7, "a string", id="arch-number"),
])
def test_report_rejects_a_non_finite_or_non_numeric_field(tmp_path, capsys, field, value, rule):
    doc = result_doc("rea", "cifar10", 90.0, 90.0, 100.0)
    (doc[FIELD_HOLDER[field]] if field in FIELD_HOLDER else doc)[field] = value
    good = tmp_path / "good.json"
    good.write_text(json.dumps(result_doc("gea", "c", 90.0, 90.0, 100.0)))
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))  # NaN and Infinity as json writes them
    assert main(["report", str(good), str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ") and f"{field} must be {rule}" in err


@pytest.mark.parametrize("field", ["seed", "C", "P", "S", "num_fitness_evals", "arch",
                                   "sim_time_seconds", "timing", "best", "config"])
def test_report_names_the_file_missing_a_field(tmp_path, capsys, field):
    doc = result_doc("rea", "cifar10", 90.0, 90.0, 100.0)
    del (doc[FIELD_HOLDER[field]] if field in FIELD_HOLDER else doc)[field]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["report", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {p}: not a SearchResult JSON file ('{field}')\n"
    assert captured.out == ""


# Files that do not make one experiment per (method, dataset) cell: each case
# lists (name, seed, C, P) per file, then the two files the error names and why.
NOT_ONE_EXPERIMENT = {
    "file-given-twice": ([("a", 0, 20, 5), ("a", 0, 20, 5), ("b", 1, 20, 5)], "a", "a",
                         "same seed"),
    "seed-repeated": ([("a", 0, 20, 5), ("b", 1, 20, 5), ("c", 1, 20, 5)], "b", "c",
                      "same seed"),
    "budgets-differ": ([("a", 0, 20, 5), ("b", 0, 10, 5)], "a", "b", "different C"),
    "populations-differ": ([("a", 0, 20, 5), ("b", 1, 20, 4)], "a", "b", "different P"),
}


@pytest.mark.parametrize("files,first,second,what", NOT_ONE_EXPERIMENT.values(),
                         ids=NOT_ONE_EXPERIMENT)
def test_report_refuses_a_cell_that_is_not_one_experiment(tmp_path, capsys, files, first,
                                                          second, what):
    paths = []
    for name, seed, C, P in files:
        doc = result_doc("gea", "synthetic", 90.0 + seed, 80.0, 100.0, seed=seed, C=C)
        doc["config"]["P"] = P
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        paths.append(str(tmp_path / f"{name}.json"))
    other = tmp_path / "other.json"  # a second method is a cell of its own
    other.write_text(json.dumps(result_doc("rea", "synthetic", 90.0, 80.0, 100.0, C=10)))
    out = tmp_path / "t.csv"
    assert main(["report", str(other), *paths, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    first, second = (tmp_path / f"{name}.json" for name in (first, second))
    assert captured.err == (f"error: {first} and {second}: {what}; a report cell takes "
                            "distinct seeds of one C, P and S\n")
    assert captured.out == "" and not out.exists()


def test_report_of_a_search_matches_its_summary(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["search", "--method", "gea", "--mode", "mock", "--rho", "0.5", "--C", "20",
                 "--seeds", "0,1,2", "--out", str(out)]) == 0
    summary = json.loads((out / "gea_report.json").read_text())
    capsys.readouterr()
    assert main(["report", *map(str, sorted(out.glob("*.json")))]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["method", "synthetic", "time", "synthetic", "val", "synthetic",
                              "test"]
    val, test = (f"{summary[k]['mean']:.2f}±{summary[k]['std']:.2f}"
                 for k in ("val_acc", "test_acc"))
    assert row.split() == ["gea", f"{summary['train_seconds_total']['mean']:.2f}", val, test]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# experiment\nmethod = rea\nC = 12\nseeds = 0,1\n")
    out = tmp_path / "out"
    code = main(["search", "--config", str(cfg), "--C", "8", "--out", str(out)])
    assert code == 0
    for seed in (0, 1):  # seeds came from the file, C from the flag
        doc = json.loads((out / f"rea_seed{seed}.json").read_text())
        assert doc["config"]["C"] == 8
        assert doc["method"] == "rea"


def test_config_file_seed_range(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = rs\nC = 5\nseeds = 7-9\n")
    ranged, listed = tmp_path / "ranged", tmp_path / "listed"
    assert main(["search", "--config", str(cfg), "--out", str(ranged)]) == 0
    assert main(["search", "--method", "rs", "--C", "5", "--seeds", "7,8,9",
                 "--out", str(listed)]) == 0
    names = sorted(p.name for p in ranged.glob("rs_seed*.json"))
    assert names == ["rs_seed7.json", "rs_seed8.json", "rs_seed9.json"]
    for name in [*names, "rs_report.json"]:
        assert strip_timing(json.loads((ranged / name).read_text())) == \
            strip_timing(json.loads((listed / name).read_text()))


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("budget = 5\n")
    code = main(["search", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown config key 'budget'" in capsys.readouterr().err


# Consistent settings, one value per key each, whose union sets every flag
# field of RunConfig and of the configs it holds.
EVERY_FIELD = [
    {"method": "rea", "fitness": "bench", "bench_path": "b.jsonl", "dataset": "cifar10",
     "C": 12, "P": 3, "S": 4, "seeds": (4, 5), "out": "o"},
    {"mode": "mock", "landscape_seed": 3, "rho": 0.5},
    {"mode": "proxy", "batch_size": 16, "in_channels": 1,
     "image_hw": 4, "stem_channels": 2, "num_stages": 2, "cells_per_stage": 3,
     "num_classes": 5},
    {"mode": "proxy", "batch_file": "x.bin"},
]


def as_text(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def parsed(argv):
    return build_run_config(build_parser().parse_args(argv))


def flag_values(config, keys):
    """The given keys read from a RunConfig and the configs it holds;
    RunConfig's own dataset wins over EvolutionConfig's."""
    values = {}
    for obj in (config.proxy.skeleton, config.proxy, config.evolution, config):
        values.update((f.name, getattr(obj, f.name)) for f in fields(obj))
    return {key: values[key] for key in keys}


def test_every_flag_sets_its_field():
    for setting in EVERY_FIELD:
        argv = ["search"]
        for key, value in setting.items():
            flag = "--bench" if key == "bench_path" else "--" + key.replace("_", "-")
            argv += [flag, as_text(value)]
        assert flag_values(parsed(argv), setting) == setting
    # No library field that is not a flag (seed, dataset, skeleton) leaks in.
    assert set(_OPTIONS) == set().union(*EVERY_FIELD)


def test_every_config_key_sets_its_field(tmp_path):
    cfg = tmp_path / "run.cfg"
    for setting in EVERY_FIELD:
        cfg.write_text("".join(f"{key} = {as_text(value)}\n" for key, value in setting.items()))
        assert flag_values(parsed(["search", "--config", str(cfg)]), setting) == setting


def test_seed_range_flags(tmp_path, capsys):
    assert parsed(["search", "--seeds", "0-2,7"]).seeds == (0, 1, 2, 7)
    assert parsed(["search", "--seeds", "4-4"]).seeds == (4,)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seeds = 3-4\n")
    assert parsed(["search", "--config", str(cfg)]).seeds == (3, 4)
    # the seeds parser refuses a reversed range (5-3, 0--3); -3-0 parses, and
    # its seed -3 fails EvolutionConfig's bound
    for text in ("5-3", "0--3", "-3-0"):
        assert main(["search", f"--seeds={text}", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:")
    assert main(["search", "--seeds", ",", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: need at least one seed\n"
    assert not (tmp_path / "o").exists()


# mock mode on bench fitness: each is valid alone, and the pair is refused before any file opens.
MOCK_ON_BENCH = ('mode = "mock"\nrho = 0.5\nfitness = "bench"\nbench_path = "b.jsonl"\n'
                 'dataset = "cifar10"\n')

# How an error line ends: with the reason of the flag's parser or of the check that refuses it.
REASONS = {
    'C = "abc"\n': "invalid value 'abc' for 'C': invalid literal for int() with base 10: 'abc'",
    "seeds = 5-3\n": "invalid value '5-3' for 'seeds': range '5-3' ends below its start",
    "method = foo\n": "method must be one of ('gea', 'rea', 'rs'), got 'foo'",
    'mode = "mock"\nrho = "hi"\n': "invalid value 'hi' for 'rho': "
                                    "could not convert string to float: 'hi'",
    "C 20\n": ":1: expected 'key = value', got 'C 20'",
    MOCK_ON_BENCH: "mode=mock calibrates against a synthetic landscape; use fitness=synthetic",
}


@pytest.mark.parametrize("text", ['C = "abc"\n', "C = 20\nP = 5.5\n",
                                  'mode = "mock"\nrho = "hi"\n', "C = 3\nP = 5\n",
                                  "S = 0\n", "num_classes = 1\n",
                                  "stem_channels = 0\n", "rho = 5\n", "batch_size = 1\n",
                                  'mode = "proxy"\nbatch_size = 5\n', "seeds = 0,0\n",
                                  "seeds = 0,-1\n", "seeds = -3-0\n", "seeds = 5-3\n",
                                  "seeds = 0--3\n", 'dataset = "cifar10"\n',
                                  'bench_path = "/nonexistent.jsonl"\n',
                                  "seeds = 4294967297\n", "landscape_seed = 4294967296\n",
                                  "method = foo\n", "C 20\n", MOCK_ON_BENCH],
                         ids=["C-not-int", "P-not-int", "rho-not-float", "P-above-C",
                              "S-zero", "one-class", "no-stem-channels",
                              "rho-above-one", "batch-of-one", "batch-below-K",
                              "seed-repeated", "seed-negative", "seed-range-negative",
                              "seed-range-reversed", "seed-range-double-dash",
                              "dataset-without-bench-fitness", "bench-without-bench-fitness",
                              "seed-from-2**32", "landscape-seed-from-2**32",
                              "unknown-method", "line-without-equals", "mock-on-bench"])
def test_bad_config_value_is_an_error(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = main(["search", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors
    if text in REASONS:
        assert errors[0].endswith(REASONS[text])
    assert not (tmp_path / "o").exists()


# One bad value as flags and as the config lines of REASONS.
FLAG_FORMS = {'C = "abc"\n': ["--C", "abc"], "seeds = 5-3\n": ["--seeds", "5-3"],
              "method = foo\n": ["--method", "foo"],
              'mode = "mock"\nrho = "hi"\n': ["--mode", "mock", "--rho", "hi"]}


@pytest.mark.parametrize("text", FLAG_FORMS, ids=["C", "seeds", "method", "rho"])
def test_bad_flag_and_config_line_give_one_error_line(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = ["--out", str(tmp_path / "o")]
    for argv in (["search", *FLAG_FORMS[text], *out], ["search", "--config", str(cfg), *out]):
        assert main(argv) == 2  # argparse would raise SystemExit instead
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and err[0].endswith(REASONS[text])
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["t", "tau", "interaction_scale"])
def test_constant_is_not_a_knob(tmp_path, capsys, key):
    # EPE-NAS fixes t = 1e-5 and tau = 100; the landscape's interaction scale is 0.4.
    flag = "--" + key.replace("_", "-")
    assert main(["search", flag, "1", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} 1\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 1\n")
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: unknown config key '{key}' in {cfg}\n"
    assert not (tmp_path / "o").exists()


def test_config_file_with_bom_runs_like_one_without(tmp_path):
    text = "method = rs\nC = 4\nP = 2\nseeds = 0-1\n"
    (tmp_path / "plain.cfg").write_text(text, encoding="utf-8")
    (tmp_path / "bom.cfg").write_text(text, encoding="utf-8-sig")
    assert (tmp_path / "bom.cfg").read_bytes().startswith(b"\xef\xbb\xbf")
    for name in ("plain", "bom"):
        assert main(["search", "--config", str(tmp_path / f"{name}.cfg"),
                     "--out", str(tmp_path / name)]) == 0
    for result in ("rs_seed0.json", "rs_seed1.json", "rs_report.json"):
        assert strip_timing(json.loads((tmp_path / "bom" / result).read_text())) == \
            strip_timing(json.loads((tmp_path / "plain" / result).read_text()))


def test_mock_mode_requires_rho(tmp_path, capsys):
    code = main(["search", "--mode", "mock", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "rho" in capsys.readouterr().err


def write_tiny_batch(path, channels=3, hw=8, num_classes=10):
    rng = np.random.default_rng(0)
    write_batch_file(path, Batch(images=rng.normal(size=(12, channels, hw, hw)),
                                 labels=np.arange(12) % num_classes, num_classes=num_classes))


# A knob that its run would not read, and the start of the error line naming it.
UNREAD_KNOBS = {
    "rea-proxy-batch-file": (["search", "--method", "rea", "--mode", "proxy",
                              "--batch-file", "/nonexistent.bin"],
                             "mode applies only with method=gea"),
    "rea-rho": (["search", "--method", "rea", "--rho", "0.5"], "rho applies only with mode=mock"),
    "oracle-batch-size": (["search", "--mode", "oracle", "--batch-size", "8"],
                          "batch_size applies only with mode=proxy"),
    "rs-skeleton": (["search", "--method", "rs", "--image-hw", "32", "--batch-size", "3"],
                    "batch_size applies only with mode=proxy"),
    "rs-skeleton-only": (["search", "--method", "rs", "--image-hw", "32"],
                         "image_hw applies only with mode=proxy"),
    "oracle-batch-file": (["search", "--batch-file", "/nonexistent.bin"],
                          "batch_file applies only with mode=proxy"),
    "config-key-twice": (["search", "--config", "{dir}/run.cfg"],
                         "{dir}/run.cfg:2: key 'C' set twice"),
    "batch-size-with-batch-file": (["search", "--mode", "proxy", "--batch-file", "{dir}/b.bin",
                                    "--batch-size", "500", "--C", "4", "--P", "2"],
                                   "batch_size applies only without batch_file"),
    "sweep-method": (["sweep", "--method", "rs", "--c-values", "6,8"],
                     "method applies only with search"),
    "sweep-C": (["sweep", "--C", "2", "--c-values", "8,9", "--P", "2"],
                "C applies only with search; a sweep takes its budgets from --c-values"),
    "sweep-C-config": (["sweep", "--config", "{dir}/sweep.cfg", "--c-values", "8,9"],
                       "C applies only with search"),
}


@pytest.mark.parametrize("case", UNREAD_KNOBS)
def test_unread_knob_is_one_error_line(tmp_path, capsys, case):
    (tmp_path / "run.cfg").write_text("C = 5\nC = 8\nP = 2\nmethod = rs\n")
    (tmp_path / "sweep.cfg").write_text("C = 2\nP = 2\n")
    write_tiny_batch(tmp_path / "b.bin")
    argv, message = UNREAD_KNOBS[case]
    out = tmp_path / "o"
    assert main([arg.replace("{dir}", str(tmp_path)) for arg in argv] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: " + message.replace("{dir}", str(tmp_path)))
    assert captured.out == "" and not out.exists()


def test_knobs_read_or_at_default_are_accepted(tmp_path, bench_path):
    out = tmp_path / "o"
    assert main(["search", "--method", "rea", "--mode", "oracle", "--C", "6",
                 "--out", str(out / "rea")]) == 0
    assert main(["search", "--method", "rs", "--fitness", "bench", "--bench", bench_path,
                 "--dataset", "cifar10", "--landscape-seed", "0", "--C", "6",
                 "--out", str(out / "bench")]) == 0
    (tmp_path / "run.cfg").write_text("method = rs\nbench_path = null\nC = 6\n")  # null is unset
    assert main(["search", "--config", str(tmp_path / "run.cfg"), "--out", str(out / "null")]) == 0
    write_tiny_batch(tmp_path / "b.bin", channels=1, hw=4, num_classes=3)
    assert main(["search", "--mode", "proxy", "--batch-file", str(tmp_path / "b.bin"),
                 "--in-channels", "1", "--image-hw", "4", "--stem-channels", "2",
                 "--num-classes", "3", "--C", "4", "--P", "2",
                 "--out", str(out / "proxy")]) == 0
    assert (out / "proxy" / "gea_seed0.json").exists()


def test_mock_mode_runs(tmp_path):
    out = tmp_path / "out"
    code = main(["search", "--mode", "mock", "--rho", "0.9", "--C", "10",
                 "--seeds", "0", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "gea_seed0.json").read_text())
    assert doc["num_fitness_evals"] == 10


def test_proxy_mode_runs(tmp_path):
    out = tmp_path / "out"
    code = main(["search", "--mode", "proxy", "--C", "6", "--P", "2",
                 "--batch-size", "12", "--seeds", "0", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "gea_seed0.json").read_text())
    assert doc["num_proxy_evals"] == 6 + 4 * 2
    zs = [c["z"] for cycle in doc["cycles"] for c in cycle["children"]]
    assert any(z is not None for z in zs)
    # the computed-score count is reported in the aggregate only
    assert "num_proxy_computed" not in doc
    row = json.loads((out / "gea_report.json").read_text())["per_seed"][0]
    assert row["proxy_evals"] == doc["num_proxy_evals"]
    assert 1 <= row["proxy_computed"] <= row["proxy_evals"]


@pytest.mark.parametrize("message", ["", "Unable to allocate 74.5 GiB for an array"])
def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, message):
    # An oversized skeleton (--image-hw 100000) first fails in make_batch, which
    # the proxy source calls; the stand-in raises at once, so the test allocates
    # nothing large.
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(zero_proxy, "make_batch", no_memory)
    out = tmp_path / "out"
    code = main(["search", "--mode", "proxy", "--C", "6", "--P", "2", "--image-hw", "100000",
                 "--seeds", "0", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: out of memory: {message or 'allocation failed'}"]
    assert not out.exists()


def test_every_random_stream_of_a_proxy_search_is_distinct(tmp_path, monkeypatch):
    # SeedSequence pads a short key with zeros, so keys such as (s, 3) and
    # (s, 3, 0) seed one stream; compare the states, not the keys.
    log = CallLog(8)  # the streams drawn in this process and in the proxy's helper
    default_rng = np.random.default_rng

    def recording_default_rng(seed=None):
        if isinstance(seed, np.random.SeedSequence):
            log.add(*seed.generate_state(8).tolist())
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording_default_rng)
    assert main(["search", "--mode", "proxy", "--C", "8", "--P", "2", "--seeds", "0",
                 "--out", str(tmp_path / "out")]) == 0
    states = log.entries()
    assert len(states) == 41  # landscape, batch, tournaments, 8 + 12 cells, 18 inits
    assert len(set(states)) == len(states)


# Two identical proxy searches in one process; prints the second one's minor
# page faults per computed proxy score, or "null" where mallopt is missing.
FAULTS_CODE = """
import json, resource, sys
from gea_nas import experiment_cli, zero_proxy
args = ["search", "--mode", "proxy", "--C", "30", "--seeds", "0"]
assert experiment_cli.main(args + ["--out", sys.argv[1] + "/a"]) == 0
if not zero_proxy._keep_freed_heap():
    print("null")
    sys.exit(0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert experiment_cli.main(args + ["--out", sys.argv[1] + "/b"]) == 0
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
report = json.load(open(sys.argv[1] + "/b/gea_report.json"))
print(faults / report["per_seed"][0]["proxy_computed"])
"""


def test_proxy_scores_reuse_freed_heap(tmp_path):
    # glibc would otherwise hand each score's feature maps back to the kernel
    # and fault them in again for the next score (~750 faults per score)
    src = str(Path(gea_nas.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", FAULTS_CODE, str(tmp_path)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    line = out.stdout.strip().splitlines()[-1]
    if line == "null":
        pytest.skip("no glibc mallopt in this C library")
    assert float(line) < 20


def _no_c_library(name):
    raise OSError("no C library")


@pytest.fixture
def uncached_heap_policy():
    """The allocator policy is set once per process: forget that it was, and
    forget again afterwards, so that the next call sets it for real."""
    zero_proxy._keep_freed_heap.cache_clear()
    yield
    zero_proxy._keep_freed_heap.cache_clear()


def test_main_sets_the_allocator_policy_without_scoring(tmp_path, uncached_heap_policy):
    # an oracle search never scores; the command sets the policy at start anyway.
    # It pays in a proxy search, whose batch draw and first network build then
    # run under it: without the call, a C=150 proxy search's set-up went 0.388
    # -> 0.451 s (8 of 8 alternating pairs). A search that never scores gains
    # no measurable time from it (10 pairs of C=1000 searches).
    assert main(["search", "--mode", "oracle", "--C", "6", "--P", "2", "--seeds", "0",
                 "--out", str(tmp_path / "out")]) == 0
    assert zero_proxy._keep_freed_heap.cache_info().currsize == 1


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_c_library],
                         ids=["no-mallopt", "no-handle"])
def test_main_runs_without_mallopt(tmp_path, monkeypatch, uncached_heap_policy, cdll):
    monkeypatch.setattr(zero_proxy.ctypes, "CDLL", cdll)
    assert zero_proxy._keep_freed_heap() is False
    out = tmp_path / "out"
    assert main(["search", "--mode", "proxy", "--C", "6", "--P", "2",
                 "--batch-size", "12", "--seeds", "0", "--out", str(out)]) == 0
    assert (out / "gea_seed0.json").is_file() and (out / "gea_report.json").is_file()


def test_result_files_are_compact_finite_json(tmp_path):
    out = tmp_path / "out"
    assert main(["search", "--mode", "proxy", "--C", "6", "--P", "2",
                 "--batch-size", "12", "--seeds", "0", "--out", str(out)]) == 0
    for path in out.iterdir():
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


def test_non_finite_result_is_an_error_not_a_file(tmp_path):
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError):
        experiment_cli._write_json(path, {"z": float("nan")})
    assert not path.exists()


@pytest.mark.parametrize("file_k,num_classes,expected", [(10, 10, 0), (3, 10, 2),
                                                         (3, 2, 2), (3, 3, 0)])
def test_proxy_mode_with_batch_file(tmp_path, capsys, file_k, num_classes, expected):
    rng = np.random.default_rng(0)
    batch = Batch(images=rng.normal(size=(12, 3, 8, 8)),
                  labels=np.arange(12) % file_k, num_classes=file_k)
    batch_file = tmp_path / "batch.bin"
    write_batch_file(batch_file, batch)
    out = tmp_path / "out"
    code = main(["search", "--mode", "proxy", "--C", "4", "--P", "2",
                 "--batch-file", str(batch_file), "--num-classes", str(num_classes),
                 "--seeds", "0", "--out", str(out)])
    assert code == expected
    assert (out / "gea_seed0.json").exists() == (expected == 0)
    if expected:
        assert "classes" in capsys.readouterr().err


def test_batch_file_of_another_image_shape_is_an_error(tmp_path, capsys):
    rng = np.random.default_rng(0)
    batch_file = tmp_path / "batch.bin"
    write_batch_file(batch_file, Batch(images=rng.normal(size=(12, 3, 16, 16)),
                                       labels=np.arange(12) % 10, num_classes=10))
    out = tmp_path / "out"
    code = main(["search", "--mode", "proxy", "--C", "4", "--P", "2",
                 "--batch-file", str(batch_file), "--seeds", "0", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(3, 16, 16)" in err and "(3, 8, 8)" in err
    assert not out.exists()


def test_batch_file_with_a_nan_pixel_is_an_error(tmp_path, capsys):
    rng = np.random.default_rng(0)
    batch_file = tmp_path / "batch.bin"
    write_batch_file(batch_file, Batch(images=rng.normal(size=(12, 3, 8, 8)),
                                       labels=np.arange(12) % 10, num_classes=10))
    data = bytearray(batch_file.read_bytes())
    data[20 + 4 * 77:20 + 4 * 78] = np.float32(np.nan).tobytes()  # after the 5-int32 header
    batch_file.write_bytes(bytes(data))
    out = tmp_path / "out"
    code = main(["search", "--mode", "proxy", "--C", "4", "--P", "2",
                 "--batch-file", str(batch_file), "--seeds", "0", "--out", str(out)])
    assert code == 2
    assert any(line.startswith(f"error: {batch_file}: ") and "finite" in line
               for line in capsys.readouterr().err.splitlines())
    assert not out.exists()


def test_seeds_sharing_a_file_batch_score_a_cell_differently(tmp_path):
    rng = np.random.default_rng(0)
    batch_file = tmp_path / "batch.bin"
    write_batch_file(batch_file, Batch(images=rng.normal(size=(12, 3, 8, 8)),
                                       labels=np.arange(12) % 10, num_classes=10))
    out = tmp_path / "out"
    assert main(["search", "--mode", "proxy", "--C", "4", "--P", "2",
                 "--batch-file", str(batch_file), "--seeds", "0,1", "--out", str(out)]) == 0
    batch = read_batch_file(batch_file)
    for seed in (0, 1):
        doc = json.loads((out / f"gea_seed{seed}.json").read_text())
        model = next(m for m in doc["history"] if m["proxy_valid"])
        arch = parse_str(model["arch"])
        z = {s: JacobianProxySource(batch, ProxyConfig(), s).score_all([arch])[0] for s in (0, 1)}
        assert model["proxy_z"] == z[seed]
        assert z[0] != z[1]


@pytest.mark.parametrize("command", [["search", "--C", "4", "--seeds", "0,1,2"],
                                     ["sweep", "--c-values", "4,5", "--seeds", "0,1,2"]])
def test_batch_file_is_read_once_per_command(tmp_path, monkeypatch, command):
    rng = np.random.default_rng(0)
    batch_file = tmp_path / "batch.bin"
    write_batch_file(batch_file, Batch(images=rng.normal(size=(12, 3, 8, 8)),
                                       labels=np.arange(12) % 10, num_classes=10))
    calls = []

    def counting_read(path):
        calls.append(path)
        return read_batch_file(path)

    monkeypatch.setattr(experiment_cli, "read_batch_file", counting_read)
    out = tmp_path / ("out" if command[0] == "search" else "sweep.csv")
    assert main(command + ["--mode", "proxy", "--P", "2",
                           "--batch-file", str(batch_file), "--out", str(out)]) == 0
    assert calls == [str(batch_file)]


def test_bench_fitness_end_to_end(bench_path, tmp_path):
    out = tmp_path / "out"
    code = main(["search", "--method", "rea", "--fitness", "bench",
                 "--bench", bench_path, "--dataset", "cifar10",
                 "--C", "10", "--seeds", "0", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "rea_seed0.json").read_text())
    assert doc["config"]["dataset"] == "cifar10"
    assert doc["train_seconds_total"] == pytest.approx(1000.0)
    # values must come from the store, which mirrors landscape seed 0
    land = SyntheticLandscape(0)
    for m in doc["history"]:
        assert m["val_acc"] == pytest.approx(land.fitness_of(parse_str(m["arch"])))


@pytest.mark.parametrize("knob", [["--landscape-seed", "-5"]], ids=["seed-negative"])
def test_landscape_knobs_checked_with_bench_fitness(bench_path, tmp_path, capsys, knob):
    out = tmp_path / "o"
    code = main(["search", "--method", "rea", "--fitness", "bench", "--bench", bench_path,
                 "--dataset", "cifar10", "--C", "5", *knob, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert any(line.startswith("error:") and knob[0][2:].replace("-", "_") in line
               for line in err)
    assert not out.exists()


def test_negative_landscape_seed_is_named(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["search", "--method", "rea", "--C", "5", "--landscape-seed", "-5",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: landscape_seed must be a non-negative integer, got -5")
    assert not out.exists()


def test_bench_requires_dataset_present(bench_path, tmp_path, capsys):
    code = main(["search", "--fitness", "bench", "--bench", bench_path,
                 "--dataset", "cifar100", "--C", "5", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "cifar100" in capsys.readouterr().err


def test_incomplete_store_rejected(tmp_path, capsys):
    line = json.dumps({"arch": encode_str(next(iter(enumerate_all()))),
                       "dataset": "cifar10", "val_acc": 1.0, "test_acc": 1.0,
                       "train_seconds": 1.0})
    partial = tmp_path / "partial.jsonl"
    partial.write_text(line + "\n")
    code = main(["search", "--fitness", "bench", "--bench", str(partial),
                 "--dataset", "cifar10", "--C", "5", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "incomplete" in capsys.readouterr().err


def test_missing_bench_file(tmp_path, capsys):
    code = main(["search", "--fitness", "bench", "--bench",
                 str(tmp_path / "nope.jsonl"), "--dataset", "cifar10",
                 "--C", "5", "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.strip()
    assert not (tmp_path / "o").exists()


# An --out where no output can be made, and the end of the error line; each
# case runs in a directory that holds one file, afile.
UNUSABLE_OUT = {
    "search-into-a-file": (["search", "--mode", "proxy", "--C", "150", "--P", "5",
                            "--out", "afile"], "afile: afile is not a directory"),
    "search-below-a-file": (["search", "--out", "afile/sub"],
                            "afile/sub: afile is not a directory"),
    "sweep-into-a-directory": (["sweep", "--c-values", "10,20", "--out", "."],
                               ". is a directory, not a CSV file"),
    "sweep-below-a-file": (["sweep", "--c-values", "10,20", "--out", "afile/s.csv"],
                           "afile/s.csv: afile is not a directory"),
    # report checks --out before it reads a file, so r.json need not exist
    "report-into-a-directory": (["report", "r.json", "--out", "."],
                                ". is a directory, not a CSV file"),
    "report-below-a-file": (["report", "r.json", "--out", "afile/x.csv"],
                            "afile/x.csv: afile is not a directory"),
}


@pytest.mark.parametrize("argv,ending", UNUSABLE_OUT.values(), ids=UNUSABLE_OUT)
def test_unusable_out_is_refused_before_any_search(tmp_path, capsys, monkeypatch, argv, ending):
    def no_search(*args):
        raise AssertionError("a search ran before --out was checked")

    monkeypatch.setattr(experiment_cli, "run_search", no_search)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("kept\n")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --out {ending}\n" and captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").read_text() == "kept\n"


@pytest.mark.parametrize("out", ["victim.json", "./sub/../victim.json", "link.json", "hard.json"])
def test_report_refuses_to_overwrite_a_result_it_reads(tmp_path, capsys, monkeypatch, out):
    def no_read(path):
        raise AssertionError("a result file was read before --out was checked")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    victim = tmp_path / "victim.json"
    victim.write_text(json.dumps(result_doc("gea", "cifar10", 90.0, 89.0, 100.0)))
    (tmp_path / "link.json").symlink_to(victim)
    (tmp_path / "hard.json").hardlink_to(victim)
    kept = victim.read_bytes()
    monkeypatch.setattr(experiment_cli, "_load_result_file", no_read)
    assert main(["report", "other.json", "victim.json", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --out {out} is one of the result files to report\n"
    assert captured.out == "" and victim.read_bytes() == kept


def test_search_requires_out(capsys):
    assert main(["search", "--C", "5"]) == 2
    assert "--out" in capsys.readouterr().err
    assert main(["sweep", "--c-values", "10,20"]) == 2
    assert capsys.readouterr().err == "error: sweep requires --out FILE.csv\n"


@pytest.mark.parametrize("content,message", [(b'{"arch": 1}\n', "line 1: expected exactly fields ["),
                                             (b"\xff\n", "'utf-8' codec can't decode byte 0xff")],
                         ids=["schema", "not-utf-8"])
def test_bench_format_error_names_the_file(tmp_path, capsys, content, message):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(content)
    assert main(["search", "--method", "rs", "--fitness", "bench", "--bench", str(bad),
                 "--dataset", "cifar10", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")
    assert not (tmp_path / "o").exists()


# Command lines refused while argparse splits them, or with their --c-values
# list; the full line is pinned only where this package writes the message.
BAD_COMMAND_LINES = {
    "no-command": ([], None),
    "unknown-command": (["bogus"], None),
    "unknown-flag": (["search", "--bogus", "1"], None),
    "flag-without-value": (["search", "--C"], None),
    "flag-prefix": (["search", "--seed", "0"], "error: unrecognized arguments: --seed 0"),
    "report-without-files": (["report"], None),
    "sweep-without-c-values": (["sweep", "--out", "x.csv"], None),
    "c-values-reversed-range": (["sweep", "--c-values", "5-3", "--out", "x.csv"],
                                "error: --c-values: invalid value '5-3' for 'c_values': "
                                "range '5-3' ends below its start"),
}


@pytest.mark.parametrize("argv,line", BAD_COMMAND_LINES.values(), ids=BAD_COMMAND_LINES)
def test_bad_command_line_is_one_error_line(tmp_path, capsys, monkeypatch, argv, line):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2  # no usage text and no SystemExit
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert line is None or err[0] == line
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--help"])
    assert excinfo.value.code == 0
    assert "--c-values" in capsys.readouterr().out


# A flag given twice, like a config key set twice, is refused rather than
# letting the last one win; each case writes a.cfg (P = 2) and b.cfg (P = 5).
REPEATED_FLAGS = {
    "C": (["search", "--method", "rs", "--C", "4", "--C", "6", "--P", "2", "--out", "o"], "--C"),
    "seeds-with-equals": (["search", "--seeds=0", "--seeds", "1", "--out", "o"], "--seeds"),
    "config": (["search", "--method", "rs", "--C", "6", "--config", "a.cfg",
                "--config", "b.cfg", "--out", "o"], "--config"),
    "c-values": (["sweep", "--c-values", "4,6", "--P", "2", "--c-values", "8,9",
                  "--out", "s.csv"], "--c-values"),
    "report-out": (["report", "r.json", "--out", "a.csv", "--out", "b.csv"], "--out"),
}


@pytest.mark.parametrize("argv,flag", REPEATED_FLAGS.values(), ids=REPEATED_FLAGS)
def test_flag_given_twice_is_refused(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.cfg").write_text("P = 2\n")
    (tmp_path / "b.cfg").write_text("P = 5\n")
    (tmp_path / "r.json").write_text(json.dumps(result_doc("rs", "synthetic", 90.0, 90.0, 1.0)))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag}: flag given twice\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.cfg", "b.cfg", "r.json"]


def test_config_file_not_utf8_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"P = 2\n\xff\n")
    assert main(["search", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cfg}: 'utf-8' codec can't decode byte 0xff")
    assert not (tmp_path / "o").exists()


def counting(calls, run):
    def wrapper(config, *sources):
        calls.append((run.__name__, config.C, config.seed))
        return run(config, *sources)
    return wrapper


def test_commands_call_the_runners_by_name(tmp_path, monkeypatch):
    # A tracer replaces the names in experiment_cli's namespace, not the
    # function objects, so each search must look its runner up when it runs.
    calls = []
    for name in ("run_search", "run_rea_baseline", "run_random_baseline"):
        monkeypatch.setattr(experiment_cli, name, counting(calls, getattr(experiment_cli, name)))
    assert main(["sweep", "--c-values", "4,6", "--P", "2", "--seeds", "0,1",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert calls == [(run, C, seed) for C in (4, 6) for seed in (0, 1)
                     for run in ("run_search", "run_rea_baseline")]
    calls.clear()
    assert main(["search", "--method", "rs", "--C", "3", "--P", "2", "--seeds", "0-1",
                 "--out", str(tmp_path / "rs")]) == 0
    assert calls == [("run_random_baseline", 3, 0), ("run_random_baseline", 3, 1)]


def test_failing_last_seed_keeps_earlier_result_files(tmp_path, capsys, monkeypatch):
    run = experiment_cli.run_rea_baseline

    def fails_on_seed_2(config, fitness):
        if config.seed == 2:
            raise MemoryError()
        return run(config, fitness)

    monkeypatch.setattr(experiment_cli, "run_rea_baseline", fails_on_seed_2)
    out = tmp_path / "out"
    assert main(["search", "--method", "rea", "--C", "6", "--P", "2", "--seeds", "0-2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory")
    assert sorted(p.name for p in out.iterdir()) == ["rea_seed0.json", "rea_seed1.json"]


def test_failing_late_sweep_run_keeps_finished_rows(tmp_path, capsys, monkeypatch):
    run = experiment_cli.run_rea_baseline

    def fails_at_c6_seed1(config, fitness):
        if (config.C, config.seed) == (6, 1):
            raise MemoryError()
        return run(config, fitness)

    monkeypatch.setattr(experiment_cli, "run_rea_baseline", fails_at_c6_seed1)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--c-values", "4,6", "--P", "2", "--seeds", "0,1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: out of memory: allocation failed"]
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["method", "C", "seed"]
    assert [tuple(r[:3]) for r in rows[1:]] == [
        (method, C, seed) for C in ("4", "6") for seed in ("0", "1")
        for method in ("gea", "rea")][:7]
