import csv
import json
from pathlib import Path

import numpy as np
import pytest

from gea_nas.arch_space import encode_str, enumerate_all, parse_str
from gea_nas.benchmark_store import (
    BenchRecord,
    SyntheticLandscape,
    TabularStore,
    dump_jsonl,
)
from gea_nas.experiment_cli import build_parser, build_run_config, main, mean_std
from gea_nas.zero_proxy import Batch, write_batch_file


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


def result_doc(method, dataset, val, test, sim):
    return {"method": method, "config": {"dataset": dataset},
            "best": {"val_acc": val, "test_acc": test},
            "timing": {"sim_time_seconds": sim}}


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
    assert rows[0] == ["method", "C", "seed", "val_acc", "test_acc", "sim_time"]
    body = rows[1:]
    assert len(body) == 8  # 2 C values x 2 seeds x 2 methods
    assert sorted({r[0] for r in body}) == ["gea", "rea"]
    assert sorted({r[1] for r in body}) == ["10", "20"]
    for r in body:
        assert 0.0 <= float(r[3]) <= 100.0


def test_sweep_rejects_single_c(tmp_path, capsys):
    code = main(["sweep", "--c-values", "10", "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "two C values" in capsys.readouterr().err


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


# One value per RunConfig field, written with the flag spellings of the CLI.
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


def test_every_flag_sets_its_field():
    argv = ["search"]
    for key, value in EVERY_FIELD.items():
        flag = "--bench" if key == "bench_path" else "--" + key.replace("_", "-")
        argv += [flag, as_text(value)]
    config = parsed(argv)
    assert {key: getattr(config, key) for key in EVERY_FIELD} == EVERY_FIELD


def test_every_config_key_sets_its_field(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {as_text(value)}\n" for key, value in EVERY_FIELD.items()))
    config = parsed(["search", "--config", str(cfg)])
    assert {key: getattr(config, key) for key in EVERY_FIELD} == EVERY_FIELD


def test_seed_range_flags():
    assert parsed(["search", "--num-seeds", "2", "--seed-base", "3"]).seeds == (3, 4)
    assert parsed(["search", "--num-seeds", "2"]).seeds == (0, 1)
    assert parsed(["search", "--seeds", "8", "--num-seeds", "2"]).seeds == (8,)


@pytest.mark.parametrize("text", ['C = "abc"\n', "C = 20\nP = 5.5\n",
                                  'mode = "mock"\nrho = "hi"\n'],
                         ids=["C-not-int", "P-not-int", "rho-not-float"])
def test_bad_config_value_is_an_error(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = main(["search", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert any(line.startswith("error:") for line in capsys.readouterr().err.splitlines())


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


def test_proxy_mode_with_batch_file(tmp_path):
    rng = np.random.default_rng(0)
    batch = Batch(images=rng.normal(size=(12, 3, 8, 8)),
                  labels=np.arange(12) % 10, num_classes=10)
    batch_file = tmp_path / "batch.bin"
    write_batch_file(batch_file, batch)
    out = tmp_path / "out"
    code = main(["search", "--mode", "proxy", "--C", "4", "--P", "2",
                 "--batch-file", str(batch_file), "--seeds", "0", "--out", str(out)])
    assert code == 0
    assert (out / "gea_seed0.json").exists()


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


def test_search_requires_out(capsys):
    assert main(["search", "--C", "5"]) == 2
    assert "--out" in capsys.readouterr().err
