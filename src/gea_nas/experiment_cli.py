"""Command-line experiment runner.

Subcommands:
  search  run one method (gea | rea | rs) for several seeds; write each
          seed's SearchResult JSON as its search ends, then an aggregate report.
  sweep   run gea and rea across the --c-values budgets and all seeds; write
          a CSV row of each run's bests as the run ends, for budget curves.
  report  aggregate per-seed SearchResult JSONs into a mean +/- std table,
          one row per method, one column group per dataset.

RunConfig holds the run's own knobs, an EvolutionConfig (C, P, S) and a
ProxyConfig (batch_size and the network's SkeletonConfig). Each of
their fields, bar the nested configs and the seed and dataset every run sets,
is a flag (its name with dashes, or its metadata's "flag") and a key that a
key=value config file sets once, as a command line gives each flag once; flags
win over the file, and seeds may hold ranges (0-9, 0-4,10). A flag's text and a config value take one path: the
key's parser, the owning config's checks and RunConfig.validate's (choices; no
knob set off its default where its "read_with" setting is not met), all before
any output is written. All randomness flows from the declared seeds, so
reruns reproduce every result byte for byte except the "timing" sections and
the sweep's proxy_wall_seconds column (wall clock).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from itertools import chain
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .benchmark_store import (
    NoisyProxySource,
    OracleProxySource,
    SyntheticLandscape,
    finite_number,
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
from .zero_proxy import JacobianProxySource, ProxyConfig, _keep_freed_heap, read_batch_file

METHODS = ("gea", "rea", "rs")
MODES = ("proxy", "mock", "oracle")
FITNESS = ("synthetic", "bench")


class CliError(Exception):
    """Configuration or input problem surfaced to the user with exit code 2."""


class _Once(argparse.Action):
    """Stores a flag's text, refusing a second one as a config file refuses a key set twice."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise CliError(f"{option_string}: flag given twice")
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """argparse that only splits the command line and prints --help: a bad one
    raises CliError, and each flag's text is stored once (_Once)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _Once)

    def error(self, message):
        raise CliError(message)


def _meta(default, help=None, **extra):
    """A RunConfig field with argparse help and extras: choices, flag, read_with, required."""
    return field(default=default, metadata={"help": help, **extra})


@dataclass(frozen=True)
class RunConfig:
    """Experiment description: the search and proxy configs, and what setting reads a knob."""

    method: str = _meta("gea", choices=METHODS)
    mode: str = _meta("oracle", "proxy source for gea", choices=MODES, read_with="method=gea")
    fitness: str = _meta("synthetic", choices=FITNESS)
    landscape_seed: int = _meta(0, read_with="fitness=synthetic")
    bench_path: str | None = _meta(None, "benchmark JSONL export", flag="--bench",
                                   read_with="fitness=bench", required=True)
    dataset: str | None = _meta(None, read_with="fitness=bench", required=True)
    seeds: tuple[int, ...] = _meta((0,), "comma-separated seeds and ranges, e.g. 0-4,10")
    rho: float | None = _meta(None, "target Spearman", read_with="mode=mock", required=True)
    batch_file: str | None = _meta(None, "raw batch tensor file", read_with="mode=proxy")
    out: str | None = _meta(None, "output directory (search) or file (sweep)")
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    proxy: ProxyConfig = field(default_factory=ProxyConfig, metadata={"read_with": "mode=proxy"})

    def validate(self) -> None:
        for f in fields(self):  # a setting precedes the fields that it gates
            value, rule = getattr(self, f.name), f.metadata.get("read_with", "")
            if value not in f.metadata.get("choices", [value]):
                raise CliError(f"{f.name} must be one of {f.metadata['choices']}, got {value!r}")
            setting, _, wanted = rule.partition("=")
            if rule and getattr(self, setting) != wanted:
                if unread := _set_keys(f.name, value, getattr(RunConfig(), f.name)):
                    raise CliError(f"{unread[0]} applies only with {rule}")
            elif value is None and f.metadata.get("required"):
                raise CliError(f"{rule} requires {f.name}")
        if self.mode == "mock" and self.fitness != "synthetic":
            raise CliError("mode=mock calibrates against a synthetic landscape; "
                           "use fitness=synthetic")
        if not self.seeds:
            raise CliError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise CliError(f"seeds must be distinct, got {self.seeds}")
        for seed in self.seeds:
            replace(self.evolution, seed=seed)  # EvolutionConfig bounds each seed


def _set_keys(name: str, value, default) -> list[str]:
    """The keys under name whose values differ from default, through nested configs."""
    if not is_dataclass(value):
        return [name] if value != default else []
    return [k for key, v in vars(value).items() for k in _set_keys(key, v, vars(default)[key])]


def _parse_config_file(path: str) -> dict:
    """key = value lines; values go through JSON, falling back to strings."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is no key
    except UnicodeDecodeError as exc:  # which names no file
        raise CliError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = key.strip(), value.strip()
        if key in values:
            raise CliError(f"{path}:{lineno}: key {key!r} set twice")
        try:
            values[key] = json.loads(value)
        except json.JSONDecodeError:
            values[key] = value
    return values


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers and inclusive ranges, e.g. "0,1,2" or "0-4,10"."""
    values: list[int] = []
    for part in filter(str.strip, text.split(",")):
        start, _, end = part.rpartition("-")  # start is empty for "7" and "-7"
        try:
            first, last = (int(start), int(end)) if start.strip() else (int(part),) * 2
        except ValueError:
            raise ValueError(f"could not parse integer list from {text!r}") from None
        if last < first:
            raise ValueError(f"range {part.strip()!r} ends below its start")
        values.extend(range(first, last + 1))
    return tuple(values)


# Each config whose fields are flags, with the fields that are not: the
# nested configs, and the seed and dataset that every run sets itself.
_CONFIGS = ((RunConfig, ("evolution", "proxy")), (EvolutionConfig, ("seed", "dataset")),
            (ProxyConfig, ("skeleton",)), (SkeletonConfig, ()))


def _option_table() -> dict[str, tuple[type, str, object, bool, dict]]:
    """Config key -> (owning config, flag, text parser, accepts None, its
    flag's help and metavar), one entry per flag field."""
    table = {}
    for owner, skipped in _CONFIGS:
        hints = get_type_hints(owner)
        for f in fields(owner):
            if f.name in skipped:
                continue
            hint = hints[f.name]
            args = [a for a in get_args(hint) if a is not type(None)]
            parse = _int_list if hint == tuple[int, ...] else (args[0] if args else hint)
            choices = ",".join(f.metadata.get("choices", ()))  # validate checks them
            extra = {"help": f.metadata.get("help"),
                     "metavar": f"{{{choices}}}" if choices else None}
            table[f.name] = (owner, f.metadata.get("flag", "--" + f.name.replace("_", "-")),
                             parse, type(None) in get_args(hint), extra)
    return table


_OPTIONS = _option_table()


def _coerce(key: str, value, source: str, parse=None):
    """Send a flag's text or a config-file value (from source) through parse, by
    default the key's own; --c-values, the one flag with no config key, passes it."""
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    try:
        return (parse or _OPTIONS[key][2])(text)
    except ValueError as exc:
        raise CliError(f"{source}: invalid value {value!r} for {key!r}: {exc}") from None


def build_run_config(args: argparse.Namespace, c_values: tuple[int, ...] = ()) -> RunConfig:
    """Merge defaults <- config file <- command-line flags, then build each
    config from its own values, so its validator runs before any output."""
    values: dict = {}
    if args.config:
        for key, value in _parse_config_file(args.config).items():
            if key not in _OPTIONS:
                raise CliError(f"unknown config key {key!r} in {args.config}")
            null = value is None and _OPTIONS[key][3]  # JSON null for a key that takes None
            values[key] = None if null else _coerce(key, value, args.config)
    values.update((key, _coerce(key, getattr(args, key), flag)) for key, (_, flag, *_)
                  in _OPTIONS.items() if getattr(args, key, None) is not None)
    if c_values:  # a sweep's budgets stand in for C
        if "C" in values:
            raise CliError("C applies only with search; a sweep takes its budgets from --c-values")
        values["C"] = min(c_values)

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
        return SyntheticLandscape(config.landscape_seed), "synthetic"
    try:
        store = load_jsonl(config.bench_path)
    except ValueError as exc:  # JsonlFormatError or bad UTF-8; neither names the file
        raise CliError(f"{config.bench_path}: {exc}") from None
    if config.dataset not in store.datasets:
        raise CliError(f"dataset {config.dataset!r} not present in {config.bench_path}")
    if not store.complete.get(config.dataset, False):
        raise CliError(f"store at {config.bench_path} is incomplete for "
                       f"{config.dataset!r}; the search may request any architecture")
    return store, config.dataset


def _proxy_sources(config: RunConfig, fitness, dataset: str) -> dict:
    """Each seed's proxy source, built once per command and handed to every
    gea run of that seed, so a Jacobian source's memo spans all of them. A
    --batch-file is read once; without one, each seed's source draws its own."""
    file_batch = None
    if config.batch_file:
        if config.proxy.batch_size != ProxyConfig.batch_size:
            raise CliError("batch_size applies only without batch_file, which fixes N")
        try:
            file_batch = read_batch_file(config.batch_file)
        except ValueError as exc:  # the layout's checks and Batch's own
            raise CliError(f"{config.batch_file}: {exc}") from None
    return {seed: OracleProxySource(fitness, dataset) if config.mode == "oracle" else
            NoisyProxySource(fitness, config.rho, seed) if config.mode == "mock" else
            JacobianProxySource(file_batch, config.proxy, seed) for seed in config.seeds}


def _searches(config: RunConfig, c_values: tuple[int, ...], methods: tuple[str, ...]):
    """Each (C, seed, method) search of a command, in that order, with its
    seed's proxy source (None without gea). Every source is built before the
    first search, so bad inputs fail before any output."""
    fitness, dataset = _fitness_source(config)
    proxies = _proxy_sources(config, fitness, dataset) if "gea" in methods else {}
    for C in c_values:
        for seed in config.seeds:
            evo = replace(config.evolution, C=C, seed=seed, dataset=dataset)
            for method in methods:  # runner names resolve per call, so wrappers see them
                yield (run_search(evo, proxies[seed], fitness) if method == "gea" else
                       run_rea_baseline(evo, fitness) if method == "rea" else
                       run_random_baseline(evo, fitness)), proxies.get(seed)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def mean_std(values) -> tuple[float, float]:
    """Arithmetic mean and sample (N-1) standard deviation; std 0 for N=1."""
    arr = np.asarray(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


def aggregate_report(runs: list[tuple[SearchResult, object]]) -> dict:
    """Mean and std over one method's (result, proxy source) runs; a seed's
    proxy_computed counts the Jacobian scores that its source computed."""
    results = [r for r, _ in runs]
    val_mean, val_std = mean_std([r.best.fitness for r in results])
    test_mean, test_std = mean_std([r.best.test_acc for r in results])
    train_mean, _ = mean_std([r.train_seconds_total for r in results])
    sim_mean, _ = mean_std([r.sim_time_seconds for r in results])
    return {
        "method": results[0].method,
        "dataset": results[0].config.dataset,
        "num_seeds": len(results),
        "per_seed": [{"seed": r.config.seed, "val_acc": r.best.fitness,
                      "test_acc": r.best.test_acc, "arch": str(r.best.arch),
                      "fitness_evals": r.num_fitness_evals,
                      "proxy_evals": r.num_proxy_evals,
                      "proxy_computed": len(p.scores) if isinstance(p, JacobianProxySource)
                      else 0} for r, p in runs],
        "val_acc": {"mean": val_mean, "std": val_std},
        "test_acc": {"mean": test_mean, "std": test_std},
        "train_seconds_total": {"mean": train_mean},
        "timing": {"sim_time_seconds": {"mean": sim_mean},
                   "per_seed": [r.sim_time_seconds for r in results]},
    }


def _out_path(out: str, is_file: bool) -> Path:
    """--out as a Path, refused before any search runs where nothing could be
    written: a sweep's CSV must not be a directory, and the nearest existing
    path at or above the output's directory must be one."""
    path = Path(out)
    if is_file and path.is_dir():
        raise CliError(f"--out {out} is a directory; a sweep writes one CSV file")
    folder = path.parent if is_file else path
    nearest = next(p for p in (folder, *folder.parents) if p.exists())
    if not nearest.is_dir():
        raise CliError(f"--out {out}: {nearest} is not a directory")
    return path


def _write_csv(path: Path, rows) -> None:
    """Rows through csv.writer's default dialect (CRLF), each written out as it comes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", buffering=1, newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


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
    out_dir, runs = _out_path(config.out, is_file=False), []
    for result, proxy in _searches(config, (config.evolution.C,), (config.method,)):
        runs.append((result, proxy))  # each seed's file is written as its search ends
        _write_json(out_dir / f"{config.method}_seed{result.config.seed}.json",
                    result.to_json_dict())
    _write_json(out_dir / f"{config.method}_report.json", aggregate_report(runs))
    print(f"wrote {len(runs)} result files and {config.method}_report.json to {out_dir}")
    return 0


def cmd_sweep(config: RunConfig, c_values: tuple[int, ...]) -> int:
    if config.method != RunConfig.method:
        raise CliError("method applies only with search; a sweep runs gea and rea")
    if len(c_values) < 2 or len(set(c_values)) != len(c_values):
        raise CliError(f"sweep needs at least two C values, all distinct, got {c_values}")
    if not config.out:
        raise CliError("sweep requires --out FILE.csv")
    out_path = _out_path(config.out, is_file=True)
    rows = ([r.method, r.config.C, r.config.seed, r.best.fitness, r.best.test_acc,
             r.train_seconds_total, r.proxy_wall_seconds]
            for r, _ in _searches(config, c_values, ("gea", "rea")))
    first = next(rows)  # the file opens once the sources are built and one search ended
    _write_csv(out_path, chain([["method", "C", "seed", "val_acc", "test_acc", "train_seconds",
                                 "proxy_wall_seconds"], first], rows))
    print(f"wrote {2 * len(c_values) * len(config.seeds)} sweep rows to {out_path}")
    return 0


def _load_result_file(path: str) -> dict | None:
    """One per-seed SearchResult as a report row; None for an aggregate
    report (the <method>_report.json that search writes beside the per-seed
    files, so a DIR/*.json glob can be reported as is)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if isinstance(doc, dict) and "per_seed" in doc:
            return None
        method, dataset = doc["method"], doc["config"]["dataset"]
        for name, value in (("method", method), ("dataset", dataset)):
            if not isinstance(value, str):  # both are sorted as table labels
                raise ValueError(f"{name} must be a string, got {json.dumps(value)}")
        return {"method": method, "dataset": dataset,
                "val_acc": finite_number("val_acc", doc["best"]["val_acc"]),
                "test_acc": finite_number("test_acc", doc["best"]["test_acc"]),
                "train_seconds": finite_number("train_seconds_total",
                                               doc["train_seconds_total"])}
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise CliError(f"{path}: not a SearchResult JSON file ({exc})") from None


def cmd_report(result_files: list[str], out: str | None) -> int:
    rows = [row for row in map(_load_result_file, result_files) if row is not None]
    if not rows:
        raise CliError("no per-seed SearchResult files to report; "
                       "aggregate report files are skipped")
    methods = sorted({r["method"] for r in rows})
    datasets = sorted({r["dataset"] for r in rows})

    header = ["method", *(f"{ds} {col}" for ds in datasets for col in ("time", "val", "test"))]
    table = [header]
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
        _write_csv(Path(out), table)
        print(f"wrote report CSV to {out}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    for key, (_, flag, _, _, extra) in _OPTIONS.items():
        p.add_argument(flag, dest=key, **extra)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gea-nas", description="Guided evolutionary architecture search")
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="run one method over several seeds",
                              allow_abbrev=False)  # so --seed is refused, not read as --seeds
    _add_run_flags(p_search)

    p_sweep = sub.add_parser("sweep", help="budget sweep of gea vs rea", allow_abbrev=False)
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--c-values", dest="c_values", required=True,
                         help="comma-separated C budgets, at least two, all distinct")

    p_report = sub.add_parser("report", help="aggregate result JSONs into a table")
    p_report.add_argument("files", nargs="+", help="SearchResult JSON files")
    p_report.add_argument("--out", help="also write the table as CSV")
    return parser


def main(argv=None) -> int:
    _keep_freed_heap()
    try:  # argparse raises CliError here; only --help exits (SystemExit(0))
        args = build_parser().parse_args(argv)
        if args.command == "report":
            return cmd_report(args.files, args.out)
        if args.command == "search":
            return cmd_search(build_run_config(args))
        c_values = _coerce("c_values", args.c_values, "--c-values", _int_list)
        return cmd_sweep(build_run_config(args, c_values), c_values)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a skeleton or batch too large to allocate
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
