"""Command-line experiment runner.

Subcommands:
  search  run one method (gea | rea | rs) for several seeds; write one
          SearchResult JSON per seed plus an aggregate report.
  sweep   run gea and rea across a list of C budgets and all seeds; write
          a CSV of per-run bests for plotting budget curves.
  report  aggregate per-seed SearchResult JSONs into a mean +/- std table,
          one row per method, one column group per dataset.

RunConfig holds the run's own knobs, an EvolutionConfig (C, P, S) and a
ProxyConfig (t, tau, batch_size and the network's SkeletonConfig). Each of
their fields, bar the nested configs and the seed and dataset every run sets,
is a command-line flag (its name with dashes, or the "flag" in its metadata)
and a key of a flat key=value config file; flags override file values and
num_seeds/seed_base build a seed range. Each config is built once and checks
its own values before any output is written. All randomness flows from the
declared seeds, so reruns of the same config reproduce every result byte for
byte except the "timing" sections and the sweep's proxy_wall_seconds column,
which hold wall-clock measurements.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import io
import json
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .benchmark_store import (
    INTERACTION_SCALE_DEFAULT,
    JsonlFormatError,
    NoisyProxySource,
    OracleProxySource,
    SyntheticLandscape,
    load_jsonl,
)
from .guided_evolution import (
    EvolutionConfig,
    SearchResult,
    run_random_baseline,
    run_rea_baseline,
    run_search,
)
from .network_builder import SkeletonConfig
from .zero_proxy import (
    Batch,
    BatchFileError,
    JacobianProxySource,
    ProxyConfig,
    make_batch,
    read_batch_file,
)

METHODS = ("gea", "rea", "rs")
MODES = ("proxy", "mock", "oracle")
FITNESS = ("synthetic", "bench")


class CliError(Exception):
    """Configuration or input problem surfaced to the user with exit code 2."""


def _meta(default, help=None, **extra):
    """A RunConfig field with argparse help and extras (choices, flag)."""
    return field(default=default, metadata={"help": help, **extra})


@dataclass(frozen=True)
class RunConfig:
    """Experiment description; holds the configs of the search and the proxy."""

    method: str = _meta("gea", choices=METHODS)
    mode: str = _meta("oracle", "proxy source for gea", choices=MODES)
    fitness: str = _meta("synthetic", choices=FITNESS)
    landscape_seed: int = 0
    interaction_scale: float = INTERACTION_SCALE_DEFAULT
    bench_path: str | None = _meta(None, "benchmark JSONL export", flag="--bench")
    dataset: str | None = None
    seeds: tuple[int, ...] = _meta((0,), "comma-separated seed list")
    rho: float | None = _meta(None, "target Spearman for mode=mock")
    batch_file: str | None = _meta(None, "raw batch tensor file")
    out: str | None = _meta(None, "output directory (search) or file (sweep)")
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    proxy: ProxyConfig = field(default_factory=ProxyConfig)

    def validate(self) -> None:
        for f in fields(self):
            choices = f.metadata.get("choices")
            if choices and getattr(self, f.name) not in choices:
                raise CliError(f"{f.name} must be one of {choices}, "
                               f"got {getattr(self, f.name)!r}")
        if self.fitness == "bench" and not self.bench_path:
            raise CliError("fitness=bench requires --bench with a JSONL path")
        if self.fitness == "bench" and not self.dataset:
            raise CliError("fitness=bench requires --dataset")
        if self.mode == "mock" and self.rho is None:
            raise CliError("mode=mock requires --rho")
        if self.rho is not None and not 0.0 <= self.rho <= 1.0:
            raise CliError(f"rho must lie in [0, 1], got {self.rho}")
        if self.mode == "mock" and self.fitness != "synthetic":
            raise CliError("mode=mock calibrates against a synthetic landscape; "
                           "use fitness=synthetic")
        if not self.seeds:
            raise CliError("need at least one seed")


def _parse_config_file(path: str) -> dict:
    """key = value lines; values go through JSON, falling back to strings."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = key.strip(), value.strip()
        try:
            values[key] = json.loads(value)
        except json.JSONDecodeError:
            values[key] = value
    return values


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers, e.g. "0,1,2"."""
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"could not parse integer list from {text!r}") from None


# Each config whose fields are flags, with the fields that are not: the
# nested configs, and the seed and dataset that every run sets itself.
_CONFIGS = ((RunConfig, ("evolution", "proxy")), (EvolutionConfig, ("seed", "dataset")),
            (ProxyConfig, ("skeleton",)), (SkeletonConfig, ()))


def _option_table() -> dict[str, tuple[type | None, str, object, bool, dict]]:
    """Config key -> (owning config, flag, text parser, accepts None, extra
    argparse kwargs), one entry per flag field plus the seed-range keys."""
    table = {}
    for owner, skipped in _CONFIGS:
        hints = get_type_hints(owner)
        for f in fields(owner):
            if f.name in skipped:
                continue
            hint = hints[f.name]
            args = [a for a in get_args(hint) if a is not type(None)]
            parse = _int_list if hint == tuple[int, ...] else (args[0] if args else hint)
            extra = {k: v for k, v in f.metadata.items() if k != "flag"}
            table[f.name] = (owner, f.metadata.get("flag", "--" + f.name.replace("_", "-")),
                             parse, type(None) in get_args(hint), extra)
    table["num_seeds"] = (None, "--num-seeds", int, False, {})
    table["seed_base"] = (None, "--seed-base", int, False, {})
    return table


_OPTIONS = _option_table()


def _coerce(key: str, value, path: str):
    """Send a config-file value through the parser of its flag."""
    _, _, parse, nullable, _ = _OPTIONS[key]
    if value is None and nullable:
        return None
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    try:
        return parse(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise CliError(f"{path}: invalid value {value!r} for {key!r}") from None


def _with_seed_range(values: dict) -> dict:
    """Replace num_seeds/seed_base by the seed list they describe, unless an
    explicit seed list is present."""
    base, count = values.pop("seed_base", None), values.pop("num_seeds", None)
    if "seeds" not in values and (base is not None or count is not None):
        base = base or 0
        count = 1 if count is None else count
        values["seeds"] = tuple(range(base, base + count))
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults <- config file <- command-line flags, then build each
    config from its own values, so its validator runs before any output."""
    merged: dict = {}
    if args.config:
        for key, value in _parse_config_file(args.config).items():
            if key not in _OPTIONS:
                raise CliError(f"unknown config key {key!r} in {args.config}")
            merged[key] = _coerce(key, value, args.config)
    cli_values = {key: getattr(args, key) for key in _OPTIONS
                  if getattr(args, key, None) is not None}
    values = {**_with_seed_range(merged), **_with_seed_range(cli_values)}
    if getattr(args, "c_values", None):  # a sweep's budgets stand in for C
        values["C"] = min(args.c_values)

    def own(owner) -> dict:
        return {k: v for k, v in values.items() if _OPTIONS[k][0] is owner}

    proxy = ProxyConfig(**own(ProxyConfig), skeleton=SkeletonConfig(**own(SkeletonConfig)))
    config = RunConfig(**own(RunConfig), evolution=EvolutionConfig(**own(EvolutionConfig)),
                       proxy=proxy)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Source wiring
# ---------------------------------------------------------------------------


def _fitness_source(config: RunConfig):
    """Returns (source, dataset name) for the requested fitness backend."""
    if config.fitness == "synthetic":
        return SyntheticLandscape(config.landscape_seed, config.interaction_scale), "synthetic"
    store = load_jsonl(config.bench_path)
    if config.dataset not in store.datasets:
        raise CliError(f"dataset {config.dataset!r} not present in {config.bench_path}")
    if not store.complete.get(config.dataset, False):
        raise CliError(f"store at {config.bench_path} is incomplete for "
                       f"{config.dataset!r}; the search may request any architecture")
    return store, config.dataset


def _file_batch(config: RunConfig) -> Batch | None:
    """The --batch-file batch of a proxy-mode run, read and checked once per
    command; None when the proxy draws a synthetic batch per seed instead."""
    if config.mode != "proxy" or not config.batch_file:
        return None
    batch = read_batch_file(config.batch_file)
    if batch.num_classes != config.proxy.skeleton.num_classes:
        raise CliError(f"{config.batch_file} has {batch.num_classes} classes but "
                       f"num_classes is {config.proxy.skeleton.num_classes}")
    return batch


def _proxy_source(config: RunConfig, fitness, dataset: str, seed: int,
                  batch: Batch | None):
    if config.mode == "oracle":
        return OracleProxySource(fitness, dataset)
    if config.mode == "mock":
        return NoisyProxySource(fitness, config.rho, seed)
    if batch is None:
        batch_rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
        batch = make_batch(config.proxy, batch_rng)
    return JacobianProxySource(batch, config.proxy, seed)


def _run_one(config: RunConfig, fitness, dataset: str, seed: int,
             method: str, C: int, batch: Batch | None) -> SearchResult:
    evo = replace(config.evolution, C=C, seed=seed, dataset=dataset)
    if method == "gea":
        proxy = _proxy_source(config, fitness, dataset, seed, batch)
        return run_search(evo, proxy, fitness)
    if method == "rea":
        return run_rea_baseline(evo, fitness)
    return run_random_baseline(evo, fitness)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def mean_std(values) -> tuple[float, float]:
    """Arithmetic mean and sample (N-1) standard deviation; std 0 for N=1."""
    arr = np.asarray(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


def aggregate_report(method: str, dataset: str, results: list[SearchResult]) -> dict:
    val_mean, val_std = mean_std([r.best.fitness for r in results])
    test_mean, test_std = mean_std([r.best.test_acc for r in results])
    train_mean, _ = mean_std([r.train_seconds_total for r in results])
    sim_mean, _ = mean_std([r.sim_time_seconds for r in results])
    return {
        "method": method,
        "dataset": dataset,
        "num_seeds": len(results),
        "per_seed": [{"seed": r.config.seed, "val_acc": r.best.fitness,
                      "test_acc": r.best.test_acc, "arch": str(r.best.arch),
                      "fitness_evals": r.num_fitness_evals,
                      "proxy_evals": r.num_proxy_evals,
                      "proxy_computed": r.num_proxy_computed} for r in results],
        "val_acc": {"mean": val_mean, "std": val_std},
        "test_acc": {"mean": test_mean, "std": test_std},
        "train_seconds_total": {"mean": train_mean},
        "timing": {"sim_time_seconds": {"mean": sim_mean},
                   "per_seed": [r.sim_time_seconds for r in results]},
    }


def _write_json(path: Path, payload: dict) -> None:
    """Compact JSON through json's C encoder (indent forces the pure-Python
    one); a non-finite float raises ValueError instead of writing NaN."""
    text = json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_search(config: RunConfig) -> int:
    if not config.out:
        raise CliError("search requires --out DIR for result files")
    out_dir = Path(config.out)
    fitness, dataset = _fitness_source(config)
    batch = _file_batch(config) if config.method == "gea" else None
    results = []
    for seed in config.seeds:
        result = _run_one(config, fitness, dataset, seed, config.method,
                          config.evolution.C, batch)
        results.append(result)
        _write_json(out_dir / f"{config.method}_seed{seed}.json", result.to_json_dict())
    _write_json(out_dir / f"{config.method}_report.json",
                aggregate_report(config.method, dataset, results))
    print(f"wrote {len(results)} result files and {config.method}_report.json to {out_dir}")
    return 0


def cmd_sweep(config: RunConfig, c_values: tuple[int, ...]) -> int:
    if len(c_values) < 2:
        raise CliError("sweep needs at least two C values")
    if not config.out:
        raise CliError("sweep requires --out FILE.csv")
    fitness, dataset = _fitness_source(config)
    batch = _file_batch(config)
    rows = []
    for c in c_values:
        for seed in config.seeds:
            for method in ("gea", "rea"):
                r = _run_one(config, fitness, dataset, seed, method, c, batch)
                rows.append([method, c, seed, r.best.fitness, r.best.test_acc,
                             r.train_seconds_total, r.proxy_wall_seconds])
    out_path = Path(config.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "C", "seed", "val_acc", "test_acc",
                         "train_seconds", "proxy_wall_seconds"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} sweep rows to {out_path}")
    return 0


def _load_result_file(path: str) -> dict | None:
    """One per-seed SearchResult as a report row; None for an aggregate
    report (the <method>_report.json that search writes beside the per-seed
    files, so a DIR/*.json glob can be reported as is)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if isinstance(doc, dict) and "per_seed" in doc:
            return None
        return {"method": doc["method"], "dataset": doc["config"]["dataset"],
                "val_acc": float(doc["best"]["val_acc"]),
                "test_acc": float(doc["best"]["test_acc"]),
                "train_seconds": float(doc["train_seconds_total"])}
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path}: not a SearchResult JSON file ({exc})") from None


def cmd_report(result_files: list[str], out: str | None) -> int:
    rows = [row for row in map(_load_result_file, result_files) if row is not None]
    if not rows:
        raise CliError("no per-seed SearchResult files to report; "
                       "aggregate report files are skipped")
    methods = sorted({r["method"] for r in rows})
    datasets = sorted({r["dataset"] for r in rows})

    table: list[list[str]] = []
    header = ["method"]
    for ds in datasets:
        header += [f"{ds} time", f"{ds} val", f"{ds} test"]
    table.append(header)
    for method in methods:
        line = [method]
        for ds in datasets:
            group = [r for r in rows if r["method"] == method and r["dataset"] == ds]
            if not group:
                line += ["-", "-", "-"]
                continue
            time_mean, _ = mean_std([r["train_seconds"] for r in group])
            val_mean, val_std = mean_std([r["val_acc"] for r in group])
            test_mean, test_std = mean_std([r["test_acc"] for r in group])
            line += [f"{time_mean:.2f}",
                     f"{val_mean:.2f}±{val_std:.2f}",
                     f"{test_mean:.2f}±{test_std:.2f}"]
        table.append(line)

    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    rendered = "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                         for row in table)
    print(rendered)
    if out:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in table:
            writer.writerow(row)
        Path(out).write_text(buf.getvalue(), encoding="utf-8")
        print(f"wrote report CSV to {out}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    for key, (_, flag, parse, _, extra) in _OPTIONS.items():
        p.add_argument(flag, dest=key, type=parse, **extra)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gea-nas",
                                     description="Guided evolutionary architecture search")
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="run one method over several seeds")
    _add_run_flags(p_search)

    p_sweep = sub.add_parser("sweep", help="budget sweep of gea vs rea")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--c-values", dest="c_values", type=_int_list, required=True,
                         help="comma-separated C budgets, at least two")

    p_report = sub.add_parser("report", help="aggregate result JSONs into a table")
    p_report.add_argument("files", nargs="+", help="SearchResult JSON files")
    p_report.add_argument("--out", help="also write the table as CSV")
    return parser


# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> bool:
    """Ask glibc to keep freed memory mapped in this process.

    By default glibc gives a proxy score's freed feature maps back to the
    kernel (heap trim, and one mmap per array above its threshold), and the
    next score page-faults them back in: ~750 minor faults per 8x8 score,
    about a fifth of a proxy search's wall. A 256 MiB trim threshold and a
    fixed 32 MiB mmap threshold (glibc's own ceiling for its dynamic one on
    64-bit) let the next score reuse those pages; either one alone makes a
    score slower. No arithmetic changes. Only the command calls this, so a
    library caller keeps its own allocator policy. Returns False, changing
    nothing, where there is no C library handle or no mallopt (macOS,
    Windows) or mallopt refuses (musl)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    return (bool(mallopt(_M_TRIM_THRESHOLD, 256 << 20))
            and bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20)))


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.files, args.out)
        config = build_run_config(args)
        if args.command == "search":
            return cmd_search(config)
        return cmd_sweep(config, args.c_values)
    except (CliError, JsonlFormatError, BatchFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
