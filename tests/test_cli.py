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
from gea_nas import experiment_cli
from gea_nas.arch_space import encode_str, enumerate_all, parse_str
from gea_nas.benchmark_store import (
    BenchRecord,
    SyntheticLandscape,
    TabularStore,
    dump_jsonl,
)
from gea_nas.experiment_cli import _OPTIONS, build_parser, build_run_config, main, mean_std
from gea_nas.zero_proxy import (
    Batch,
    JacobianProxySource,
    ProxyConfig,
    read_batch_file,
    write_batch_file,
)


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
    dump_jsonl(TabularStore(records), path)
    return str(path)


def strip_timing(doc):
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items() if k != "timing"}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


def result_doc(method, dataset, val, test, train_seconds):
    return {"method": method, "config": {"dataset": dataset},
            "best": {"val_acc": val, "test_acc": test},
            "train_seconds_total": train_seconds}


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


def test_sweep_rejects_single_c(tmp_path, capsys):
    code = main(["sweep", "--c-values", "10", "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "two C values" in capsys.readouterr().err


def test_sweep_budgets_stand_in_for_c(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--c-values", "3,10", "--P", "5", "--out", str(out)]) == 2
    assert "P <= C" in capsys.readouterr().err
    assert not out.exists()
    assert main(["sweep", "--c-values", "8,9", "--C", "2", "--P", "6", "--out", str(out)]) == 0


def test_report_formats_mean_and_std(tmp_path, capsys):
    paths = []
    for i, val in enumerate([93.9, 94.1]):
        p = tmp_path / f"r{i}.json"
        p.write_text(json.dumps(result_doc("rea", "cifar10", val, val, 100.0)))
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


def test_config_file_num_seeds(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = rs\nC = 5\nnum_seeds = 3\nseed_base = 7\n")
    out = tmp_path / "out"
    assert main(["search", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("rs_seed*.json")) == \
        ["rs_seed7.json", "rs_seed8.json", "rs_seed9.json"]


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("budget = 5\n")
    code = main(["search", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown config key 'budget'" in capsys.readouterr().err


# One value per flag field of RunConfig and of the configs it holds.
EVERY_FIELD = {"method": "rea", "mode": "proxy", "fitness": "bench", "landscape_seed": 3,
               "interaction_scale": 0.25, "bench_path": "b.jsonl", "dataset": "cifar10",
               "C": 12, "P": 3, "S": 4, "seeds": (4, 5), "rho": 0.5, "t": 0.0001,
               "tau": 7, "batch_size": 16, "batch_file": "x.bin", "in_channels": 1,
               "image_hw": 4, "stem_channels": 2, "num_stages": 2, "cells_per_stage": 3,
               "num_classes": 5, "out": "o"}


def as_text(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def parsed(argv):
    return build_run_config(build_parser().parse_args(argv))


def flag_values(config):
    """The EVERY_FIELD keys read from a RunConfig and the configs it holds;
    RunConfig's own dataset wins over EvolutionConfig's."""
    values = {}
    for obj in (config.proxy.skeleton, config.proxy, config.evolution, config):
        values.update((f.name, getattr(obj, f.name)) for f in fields(obj))
    return {key: values[key] for key in EVERY_FIELD}


def test_every_flag_sets_its_field():
    argv = ["search"]
    for key, value in EVERY_FIELD.items():
        flag = "--bench" if key == "bench_path" else "--" + key.replace("_", "-")
        argv += [flag, as_text(value)]
    assert flag_values(parsed(argv)) == EVERY_FIELD
    # No library field that is not a flag (seed, dataset, skeleton) leaks in.
    assert set(_OPTIONS) == set(EVERY_FIELD) | {"num_seeds", "seed_base"}


def test_every_config_key_sets_its_field(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {as_text(value)}\n" for key, value in EVERY_FIELD.items()))
    assert flag_values(parsed(["search", "--config", str(cfg)])) == EVERY_FIELD


def test_seed_range_flags():
    assert parsed(["search", "--num-seeds", "2", "--seed-base", "3"]).seeds == (3, 4)
    assert parsed(["search", "--num-seeds", "2"]).seeds == (0, 1)
    assert parsed(["search", "--seeds", "8", "--num-seeds", "2"]).seeds == (8,)


@pytest.mark.parametrize("text", ['C = "abc"\n', "C = 20\nP = 5.5\n",
                                  'mode = "mock"\nrho = "hi"\n', "C = 3\nP = 5\n",
                                  "S = 0\n", "t = 0\n", "tau = 0\n", "num_classes = 1\n",
                                  "stem_channels = 0\n", "rho = 5\n", "batch_size = 1\n",
                                  'mode = "proxy"\nbatch_size = 5\n'],
                         ids=["C-not-int", "P-not-int", "rho-not-float", "P-above-C",
                              "S-zero", "t-zero", "tau-zero", "one-class", "no-stem-channels",
                              "rho-above-one", "batch-of-one", "batch-below-K"])
def test_bad_config_value_is_an_error(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = main(["search", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert any(line.startswith("error:") for line in capsys.readouterr().err.splitlines())
    assert not (tmp_path / "o").exists()


def test_mock_mode_requires_rho(tmp_path, capsys):
    code = main(["search", "--mode", "mock", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "rho" in capsys.readouterr().err


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


# Two identical proxy searches in one process; prints the second one's minor
# page faults per computed proxy score, or "null" where mallopt is missing.
FAULTS_CODE = """
import json, sys
from gea_nas import experiment_cli
if not experiment_cli._keep_freed_heap():
    print("null")
    sys.exit(0)
import resource
args = ["search", "--mode", "proxy", "--C", "30", "--seeds", "0"]
assert experiment_cli.main(args + ["--out", sys.argv[1] + "/a"]) == 0
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


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_c_library],
                         ids=["no-mallopt", "no-handle"])
def test_main_runs_without_mallopt(tmp_path, monkeypatch, cdll):
    monkeypatch.setattr(experiment_cli.ctypes, "CDLL", cdll)
    assert experiment_cli._keep_freed_heap() is False
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
        z = {s: JacobianProxySource(batch, ProxyConfig(), s).score(arch).z for s in (0, 1)}
        assert model["proxy_z"] == z[seed]
        assert z[0] != z[1]


@pytest.mark.parametrize("command", [["search", "--seeds", "0,1,2"],
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
    assert main(command + ["--mode", "proxy", "--C", "4", "--P", "2",
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


def test_search_requires_out(capsys):
    assert main(["search", "--C", "5"]) == 2
    assert "--out" in capsys.readouterr().err
