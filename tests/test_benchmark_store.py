import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm, rankdata, spearmanr

import gea_nas
from gea_nas.arch_space import SPACE_SIZE, ArchEncoding, encode_str, enumerate_all, parse_str
from gea_nas.benchmark_store import (
    NOMINAL_TRAIN_SECONDS,
    BenchRecord,
    JsonlFormatError,
    NoisyProxySource,
    OracleProxySource,
    StoreLookupError,
    SyntheticLandscape,
    TabularStore,
    _average_ranks,
    load_jsonl,
)

from format_writers import dump_jsonl

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
    rec = store.lookup(parse_str(ALL_NONE_STR), "cifar10")
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


GOOD_GROUPS = ["|none~0|", "|none~0|none~1|", "|none~0|none~1|none~2|"]


def cell(group_index: int, group: str) -> str:
    groups = list(GOOD_GROUPS)
    groups[group_index] = group
    return "+".join(groups)


@pytest.mark.parametrize("arch,message", [
    (cell(0, "|bad_op~0|"), "unknown operation tag in token 'bad_op~0'"),
    (cell(0, "|none~1|"), "token 'none~1': expected source node 0"),
    (cell(2, "|none~0|none~2|none~2|"), "token 'none~2': expected source node 1"),
    ("+".join(GOOD_GROUPS[:2]), "expected 3 node groups separated by '+', got 2"),
    ("+".join(GOOD_GROUPS + ["|none~0|"]), "expected 3 node groups separated by '+', got 4"),
    (cell(0, "|none0|"), "malformed token 'none0': missing '~'"),
    (cell(1, "|none~0|"), "node group 2 expects 2 tokens, got 1"),
    (cell(2, "|none~0|none~1|none~2|none~3|"), "node group 3 expects 3 tokens, got 4"),
    (cell(0, "none~0|"), "node group 1 must be '|'-delimited, got 'none~0|'"),
    (cell(1, "|none~0|none~1| "), "node group 2 must be '|'-delimited, got '|none~0|none~1| '"),
    (cell(2, "|none~0| none~1|none~2|"), "unknown operation tag in token ' none~1'"),
])
def test_cell_parse_errors_name_line_and_fault(tmp_path, arch, message):
    bad = json.loads(EXAMPLE_LINE)
    bad["arch"] = arch
    with pytest.raises(JsonlFormatError) as excinfo:
        load_jsonl(write_lines(tmp_path, [EXAMPLE_LINE, json.dumps(bad)]))
    assert str(excinfo.value) == f"line 2: {message}"


def test_non_string_arch_rejected(tmp_path):
    bad = json.loads(EXAMPLE_LINE)
    bad["arch"] = 5
    with pytest.raises(JsonlFormatError) as excinfo:
        load_jsonl(write_lines(tmp_path, [json.dumps(bad)]))
    assert str(excinfo.value) == "line 1: arch must be a cell string, got int"


def test_accuracy_out_of_range_rejected(tmp_path):
    for field, value, message in [("val_acc", 101.5, "val_acc out of [0, 100]: 101.5"),
                                  ("test_acc", 101, "test_acc out of [0, 100]: 101.0"),
                                  ("train_seconds", -1,
                                   "train_seconds must be non-negative: -1.0")]:
        bad = json.loads(EXAMPLE_LINE)
        bad[field] = value
        with pytest.raises(JsonlFormatError) as excinfo:
            load_jsonl(write_lines(tmp_path, [json.dumps(bad)]))
        assert str(excinfo.value) == "line 1: " + message


def test_blank_lines_are_skipped_but_counted(tmp_path):
    other = json.loads(EXAMPLE_LINE)
    other["dataset"] = "cifar100"
    path = write_lines(tmp_path, [EXAMPLE_LINE, "", "  ", json.dumps(other)])
    store = load_jsonl(path)
    assert len(store) == 2 and store.datasets == {"cifar10", "cifar100"}
    path = write_lines(tmp_path, [EXAMPLE_LINE, "", "{"])
    with pytest.raises(JsonlFormatError, match=r"^line 3: malformed JSON"):
        load_jsonl(path)


# (field, JSON token, what the field must be); the number fields also refuse
# the non-finite floats json.loads accepts.
BAD_FIELD_VALUES = [(field, token, "a finite number")
                    for token in ["NaN", "Infinity", "-Infinity", "true", '"12"']
                    for field in ["test_acc", "train_seconds", "val_acc"]] + [
                    ("dataset", token, "a string") for token in ["null", "5", '["x"]']]


@pytest.mark.parametrize("field,token,kind", BAD_FIELD_VALUES,
                         ids=[f"{token}-{field}" for field, token, _ in BAD_FIELD_VALUES])
def test_number_fields_must_be_finite_json_numbers(tmp_path, field, token, kind):
    good = json.dumps(json.loads(EXAMPLE_LINE)[field])
    line = EXAMPLE_LINE.replace(f'"{field}": {good}', f'"{field}": {token}')
    assert token in line
    with pytest.raises(JsonlFormatError) as excinfo:
        load_jsonl(write_lines(tmp_path, [line]))
    assert str(excinfo.value) == f"line 1: {field} must be {kind}, got {token}"


def test_integer_beyond_float_range_rejected(tmp_path):
    line = EXAMPLE_LINE.replace('"train_seconds": 100.0', '"train_seconds": 1' + "0" * 400)
    with pytest.raises(JsonlFormatError, match="line 1: int too large"):
        load_jsonl(write_lines(tmp_path, [line]))


def test_integer_numbers_accepted(tmp_path):
    line = json.dumps({**json.loads(EXAMPLE_LINE), "val_acc": 10, "train_seconds": 0})
    rec = load_jsonl(write_lines(tmp_path, [line])).lookup(parse_str(ALL_NONE_STR), "cifar10")
    assert (rec.val_acc, rec.train_seconds) == (10.0, 0.0)
    assert type(rec.val_acc) is float


def test_lookup_not_found_never_defaults(tmp_path):
    store = load_jsonl(write_lines(tmp_path, [EXAMPLE_LINE]))
    with pytest.raises(StoreLookupError):
        store.lookup(ArchEncoding.from_index(1), "cifar10")
    with pytest.raises(StoreLookupError):
        store.lookup(parse_str(ALL_NONE_STR), "cifar100")
    # repeated lookups are pure
    assert (store.lookup(parse_str(ALL_NONE_STR), "cifar10")
            == store.lookup(parse_str(ALL_NONE_STR), "cifar10"))


def test_evaluate_returns_triple(tmp_path):
    store = load_jsonl(write_lines(tmp_path, [EXAMPLE_LINE]))
    assert store.evaluate(parse_str(ALL_NONE_STR), "cifar10") == (10.0, 10.0, 100.0)


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
    assert [r.index for r in records] == [0, 5, 4242, 15624]
    path = tmp_path / "roundtrip.jsonl"
    dump_jsonl(records, path)
    reloaded = load_jsonl(path)
    assert len(reloaded) == len(records)
    for rec in records:
        assert reloaded.lookup(ArchEncoding.from_index(rec.index), rec.dataset) == rec


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
    assert best_by_scan.index == land.fitness.argmax()
    assert land.fitness_of(best_by_scan) == land.fitness.max() == 100.0


def test_landscape_rejects_negative_seed():
    with pytest.raises(ValueError, match="landscape_seed must be a non-negative integer"):
        SyntheticLandscape(-1)


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


def test_noisy_proxy_spearman_equals_scipy_spearmanr():
    # The calibration takes each step's Spearman against the landscape's
    # cached ranks; it must be the very float spearmanr gives.
    land = SyntheticLandscape(12)
    for rho, seed in ((0.3, 0), (0.5, 1), (0.9, 2)):
        proxy = NoisyProxySource(land, rho, seed=seed)
        assert proxy.empirical_spearman == float(spearmanr(proxy.values, land.fitness).statistic)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([-2.5, -0.0, 0.0, 1.0, 3.0]) | st.floats(allow_nan=False),
                min_size=1, max_size=40))
def test_average_ranks_equal_rankdata(values):
    x = np.array(values)
    assert np.array_equal(_average_ranks(x), rankdata(x))


def test_noisy_proxy_normal_scores_are_inv_cdf():
    # at rho = 1 a noisy proxy's values are its normal scores unmixed
    land = SyntheticLandscape(13)
    scores = NoisyProxySource(land, 1.0, seed=0).values
    quantiles = rankdata(land.fitness) / (SPACE_SIZE + 1)
    assert np.array_equal(scores, [NormalDist().inv_cdf(q) for q in quantiles])
    # scipy's ppf differs in the last bits: by at most 1.8e-15 on landscapes 0-5
    assert np.abs(scores - norm.ppf(quantiles)).max() <= 1e-14


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
    assert type(score) is float and score == float(proxy.values[123])
    score = OracleProxySource(land).score(arch)
    assert type(score) is float and score == land.fitness_of(arch)


PROXY_SEARCH_CODE = """
import sys
from gea_nas.benchmark_store import SyntheticLandscape
from gea_nas.experiment_cli import main
SyntheticLandscape(0)
code = main(["search", "--mode", "proxy", "--C", "6", "--P", "2", "--batch-size", "12",
             "--seeds", "0", "--out", sys.argv[1]])
assert code == 0, code
"""


MOCK_SEARCH_CODE = """
import sys
from gea_nas.experiment_cli import main
code = main(["search", "--mode", "mock", "--rho", "0.7", "--C", "20",
             "--seeds", "0", "--out", sys.argv[1]])
assert code == 0, code
"""


# The package binds no names of its own and so loads none of its modules.
PACKAGE_CODE = """
import sys
import gea_nas
print(sorted(m for m in sys.modules if m.startswith("gea_nas.")),
      sorted(n for n in vars(gea_nas) if not (n.startswith("__") and n.endswith("__"))))
"""


def test_package_import_leaves_scipy_stats_unloaded(tmp_path):
    # the library needs numpy alone; scipy is a test dependency only
    src = str(Path(gea_nas.__file__).resolve().parents[1])
    outputs = []
    for code in (PACKAGE_CODE, PROXY_SEARCH_CODE, MOCK_SEARCH_CODE):
        code += ("\nimport sys; print(sorted(m for m in sys.modules"
                 " if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        outputs.append(out.stdout.strip().splitlines())
        assert outputs[-1][-1] == "[]"
    assert outputs[0][-2] == "[] []"


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    imported = set()
    for path in (root / "src" / "gea_nas").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"gea_nas"}
    assert third_party <= declared, f"undeclared imports: {sorted(third_party - declared)}"


def test_loop_and_table_sources_import_only_arch_space():
    """The search loop and the table sources deal in cells and float scores,
    so neither reaches into the proxy or the network modules."""
    package = Path(__file__).resolve().parents[1] / "src" / "gea_nas"
    for name in ("guided_evolution.py", "benchmark_store.py"):
        modules = set()
        for node in ast.walk(ast.parse((package / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.split(".")[0] == "gea_nas"):
                module = (node.module or "").removeprefix("gea_nas").lstrip(".")
                modules.update([module] if module else [a.name for a in node.names])
            elif isinstance(node, ast.Import):
                modules.update(a.name for a in node.names if a.name.split(".")[0] == "gea_nas")
        assert modules == {"arch_space"}, f"{name} imports {sorted(modules)} from the package"


def test_every_imported_name_is_used():
    """Each name a module of the package or of the tests imports is read in
    that module."""
    root = Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted([*(root / "src" / "gea_nas").glob("*.py"), *(root / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, f"unused imports: {unused}"
