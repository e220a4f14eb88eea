"""The three benchmark workloads, their output checks, and the worker process.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned. ``setup`` builds every input from the
workload seed; ``run`` is the timed operation; ``inspect`` reads and checks
what the operation produced, untimed.

Run as a script, this file is the worker process that ``run.py`` starts once
per workload (and again for each extra set-up sample). It prints one JSON
line with raw samples; ``run.py`` turns them into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFS = Path(__file__).resolve().parent / "refs"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gea_nas  # noqa: E402
from gea_nas import arch_space, benchmark_store, experiment_cli, zero_proxy  # noqa: E402
from gea_nas.network_builder import SkeletonConfig  # noqa: E402

import envinfo  # noqa: E402
from tracer import Tracer  # noqa: E402

if not Path(gea_nas.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"gea_nas imported from {gea_nas.__file__}, not from {ROOT / 'src'}")

# z values are float64 sums of logs; reassociating the kernels moves them by
# ~1e-12 relative. 1e-6 admits any such change and rejects a different score.
Z_REL_TOL = 1e-6

GEA_C, GEA_P = 150, 5
GEA_PROXY_ARGS = ("--method", "gea", "--mode", "proxy", "--C", str(GEA_C), "--P", str(GEA_P),
                  "--S", "2", "--landscape-seed", "0")

# Rough cost of one edge operation of a 32x32 proxy_cifar cell, in ms on a
# 2-vCPU Intel Xeon, fitted by least squares to 90 timed cells (R^2 0.85);
# only the order it gives the cells matters.
CIFAR_EDGE_COST = {arch_space.Operation.SKIP_CONNECT: 11, arch_space.Operation.NOR_CONV_1X1: 27,
                   arch_space.Operation.NOR_CONV_3X3: 48, arch_space.Operation.AVG_POOL_3X3: 57}
CIFAR_STRATA = 10

SURROGATE_C = 1000
SURROGATE_SEEDS_PER_ROUND = 1
SURROGATE_DATASET = "cifar10"


def surrogate_argv(variant_args, seeds, out: Path) -> list[str]:
    return ["search", *variant_args, "--C", str(SURROGATE_C), "--P", "5", "--S", "2",
            "--seeds", ",".join(map(str, seeds)), "--out", str(out)]


def surrogate_variants(table: str) -> dict[str, tuple[str, ...]]:
    bench = ("--fitness", "bench", "--bench", table, "--dataset", SURROGATE_DATASET)
    return {
        "gea_mock": ("--method", "gea", "--mode", "mock", "--rho", "0.9",
                     "--fitness", "synthetic", "--landscape-seed", "0"),
        "gea_oracle": ("--method", "gea", "--mode", "oracle", *bench),
        "rea": ("--method", "rea", *bench),
        "rs": ("--method", "rs", *bench),
    }


# ---------------------------------------------------------------------------
# Output checks (pure functions, also exercised by the self-tests)
# ---------------------------------------------------------------------------


def check_z(valid: bool, z: float, ref: float | None) -> str | None:
    """Compare one proxy score with its reference; ``ref`` None means invalid."""
    if ref is None:
        return None if not valid else f"expected an invalid score, got z={z!r}"
    if not valid:
        return f"expected z={ref!r}, got an invalid score"
    if not math.isclose(z, ref, rel_tol=Z_REL_TOL, abs_tol=0.0):
        return f"z={z!r} differs from reference {ref!r} by more than rel {Z_REL_TOL}"
    return None


def _rank(child: dict) -> tuple[bool, float]:
    valid = child.get("valid") is True and child.get("z") is not None
    return (valid, child["z"] if valid else -math.inf)


def check_gea_invariants(doc: dict, c: int, p: int) -> str | None:
    """Invariants of one guided-search result that survive trajectory changes."""
    if doc.get("num_fitness_evals") != c:
        return f"num_fitness_evals {doc.get('num_fitness_evals')} != C={c}"
    if doc.get("num_proxy_evals") != c + (c - p) * p:
        return f"num_proxy_evals {doc.get('num_proxy_evals')} != C+(C-P)*P={c + (c - p) * p}"
    history = doc["history"]
    if [m["birth"] for m in history] != list(range(c)):
        return "history births are not 0..C-1 in order"
    cycles = doc["cycles"]
    if len(cycles) != c - p:
        return f"{len(cycles)} cycles, expected C-P={c - p}"
    for i, cyc in enumerate(cycles):
        if cyc["population_births"] != list(range(i + 1, i + 1 + p)):
            return f"cycle {i}: population {cyc['population_births']} is not FIFO"
        children = cyc["children"]
        if len(children) != p:
            return f"cycle {i}: {len(children)} children, expected P={p}"
        best = max(range(p), key=lambda j: (_rank(children[j]), -j))
        if cyc["admitted_index"] != best:
            return f"cycle {i}: admitted child {cyc['admitted_index']} is not the proxy argmax {best}"
        if history[p + i]["arch"] != children[best]["arch"]:
            return f"cycle {i}: admitted architecture is not the model born at {p + i}"
    return None


def surrogate_digest(doc: dict) -> str:
    """Digest of a result's history and best as (arch, val_acc, test_acc, birth).

    Only these fields enter, so fields added to the result JSON leave it unchanged.
    """
    def row(m: dict) -> list:
        return [m["arch"], m["val_acc"], m["test_acc"], m["birth"]]

    payload = {"history": [row(m) for m in doc["history"]], "best": row(doc["best"])}
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


def trajectory_digest(docs: dict[str, dict]) -> str:
    """Digest of result files outside their wall-clock "timing" sections."""
    stripped = {name: {k: v for k, v in doc.items() if k != "timing"}
                for name, doc in sorted(docs.items())}
    return hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()


def load_refs(name: str) -> dict:
    return json.loads((REFS / f"{name}.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one operation produced, as far as the metrics and checks need."""

    proxy_requests: int
    output_bytes: int
    trajectory: str
    error: str | None


class Workload:
    name = ""

    def trace_setup(self) -> None:
        """Rebuild, under the tracer, inputs whose construction is a traced layer."""


def _call_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return experiment_cli.main(argv)


def _collect(out_dir: Path) -> tuple[dict[str, dict], int]:
    """Every JSON file an invocation wrote, and their total size in bytes."""
    docs, size = {}, 0
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            size += path.stat().st_size
            if path.suffix == ".json":
                docs[str(path.relative_to(out_dir))] = json.loads(path.read_text("utf-8"))
    return docs, size


class ProxyCifar(Workload):
    """One operation scores one CIFAR-sized architecture with the Jacobian proxy."""

    name = "proxy_cifar"

    def setup(self, seed: int, workdir: Path) -> None:
        refs = load_refs("proxy_cifar")
        self.skeleton = SkeletonConfig(**refs["skeleton"])
        self.config = zero_proxy.ProxyConfig(skeleton=self.skeleton)
        self.batch = zero_proxy.make_batch(self.config)
        self.cells = stratified_order(refs["cells"], np.random.default_rng(seed))
        self.next = 0
        error = self.inspect(refs["warmup"], self.run(refs["warmup"])).error
        if error:
            raise AssertionError(f"warm-up {error}")

    def next_op(self):
        if self.next == len(self.cells):
            return None
        self.next += 1
        return self.cells[self.next - 1]

    def run(self, op):
        arch = arch_space.ArchEncoding.from_index(op[0])
        return zero_proxy.score_architecture(arch, self.batch, config=self.config)

    def inspect(self, op, score) -> Outcome:
        index, ref = op
        error = check_z(score.valid, score.z, ref)
        return Outcome(1, 0, repr((score.valid, score.z)),
                       f"cell {index}: {error}" if error else None)

    def trace_setup(self) -> None:
        """Rebuild the batch (under the tracer) and confirm it is the same batch."""
        batch = zero_proxy.make_batch(self.config)
        if not (np.array_equal(batch.images, self.batch.images)
                and np.array_equal(batch.labels, self.batch.labels)):
            raise AssertionError("make_batch is not deterministic")
        self.batch = batch


def cifar_cost(index: int) -> int:
    """Estimated relative cost of scoring a cell on the proxy_cifar skeleton."""
    return sum(CIFAR_EDGE_COST.get(op, 0) for op in arch_space.ArchEncoding.from_index(index).ops)


def stratified_order(cells: list, rng: np.random.Generator) -> list:
    """The cells in a random order in which every prefix has the same cost mix.

    The cells are split by estimated cost into CIFAR_STRATA equal strata, each
    shuffled, and dealt one from each stratum in turn: a run that scores any
    number of cells sees nearly the same mix of cheap and dear ones whatever
    the seed, so its median measures the program rather than the draw.
    """
    ranked = sorted(cells, key=lambda row: (cifar_cost(row[0]), row[0]))
    size = len(ranked) // CIFAR_STRATA
    strata = [ranked[i * size:(i + 1) * size] for i in range(CIFAR_STRATA)]
    strata[-1] += ranked[CIFAR_STRATA * size:]
    shuffled = [[stratum[i] for i in rng.permutation(len(stratum))] for stratum in strata]
    return [s[i] for i in range(max(map(len, shuffled))) for s in shuffled if i < len(s)]


class GeaProxySearch(Workload):
    """One operation is one seed of the guided search with the Jacobian proxy."""

    name = "gea_proxy_search"

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.choice(1_000_000, size=257, replace=False)]
        self.next = 0
        warm = workdir / "warmup"
        argv = ["search", "--method", "gea", "--mode", "proxy", "--C", "10", "--P", "5",
                "--seeds", str(self.seeds.pop()), "--out", str(warm)]
        if _call_main(argv) != 0:
            raise AssertionError("warm-up search failed")
        shutil.rmtree(warm)

    def next_op(self):
        if self.next == len(self.seeds):
            return None
        self.next += 1
        return self.seeds[self.next - 1]

    def run(self, seed: int) -> int:
        out = self.workdir / f"gea_{seed}"
        return _call_main(["search", *GEA_PROXY_ARGS, "--seeds", str(seed), "--out", str(out)])

    def inspect(self, seed: int, rc: int) -> Outcome:
        out = self.workdir / f"gea_{seed}"
        docs, size = _collect(out) if out.is_dir() else ({}, 0)
        shutil.rmtree(out, ignore_errors=True)
        results = [d for d in docs.values() if "history" in d]
        requests = sum(d.get("num_proxy_evals", 0) for d in results)
        error = None
        if rc != 0:
            error = f"seed {seed}: main returned {rc}"
        elif len(results) != 1 or results[0]["config"]["seed"] != seed:
            error = f"seed {seed}: expected one result file for this seed"
        else:
            error = check_gea_invariants(results[0], GEA_C, GEA_P)
            error = f"seed {seed}: {error}" if error else None
        return Outcome(requests, size, trajectory_digest(docs), error)


class SurrogateSearch(Workload):
    """One operation is a round of four CLI searches against table-lookup fitness."""

    name = "surrogate_search"

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.refs = load_refs("surrogate_search")["digests"]
        pool = sorted(int(s) for s in self.refs["gea_mock"])
        self.pool = [pool[i] for i in np.random.default_rng(seed).permutation(len(pool))]
        self.table = workdir / "table.jsonl"
        write_table(self.table)
        self.variants = surrogate_variants(str(self.table))
        self.rounds = 0
        warm = workdir / "warmup"
        argv = ["search", *self.variants["gea_mock"], "--C", "20", "--seeds",
                str(max(self.pool) + 1), "--out", str(warm)]
        if _call_main(argv) != 0:
            raise AssertionError("warm-up search failed")
        shutil.rmtree(warm)

    def next_op(self):
        """The next SURROGATE_SEEDS_PER_ROUND seeds of the shuffled pool, cyclically."""
        start = self.rounds * SURROGATE_SEEDS_PER_ROUND
        self.rounds += 1
        seeds = [self.pool[(start + i) % len(self.pool)] for i in range(SURROGATE_SEEDS_PER_ROUND)]
        return (self.rounds, tuple(sorted(seeds)))

    def run(self, op) -> dict[str, int]:
        number, seeds = op
        codes = {}
        for variant, args in self.variants.items():
            out = self.workdir / f"round{number}" / variant
            codes[variant] = _call_main(surrogate_argv(args, seeds, out))
        return codes

    def inspect(self, op, codes: dict[str, int]) -> Outcome:
        number, seeds = op
        out = self.workdir / f"round{number}"
        docs, size = _collect(out) if out.is_dir() else ({}, 0)
        shutil.rmtree(out, ignore_errors=True)
        requests = sum(d.get("num_proxy_evals", 0) for d in docs.values() if "history" in d)
        return Outcome(requests, size, trajectory_digest(docs),
                       check_surrogate(docs, codes, seeds, self.refs))


def check_surrogate(docs: dict[str, dict], codes: dict[str, int], seeds, refs: dict) -> str | None:
    """Each (variant, seed) result must match its reference history digest."""
    for variant, rc in codes.items():
        if rc != 0:
            return f"{variant}: main returned {rc}"
        found = {d["config"]["seed"]: d for name, d in docs.items()
                 if name.startswith(variant + "/") and "history" in d}
        for seed in seeds:
            if seed not in found:
                return f"{variant} seed {seed}: no result file"
            if surrogate_digest(found[seed]) != refs[variant][str(seed)]:
                return f"{variant} seed {seed}: history or best differs from reference"
    return None


def write_table(path: Path) -> None:
    """A complete 15625-record JSONL table whose accuracies come from landscape 0."""
    landscape = benchmark_store.SyntheticLandscape(0)
    with open(path, "w", encoding="utf-8") as fh:
        for arch in arch_space.enumerate_all():
            val, test, secs = landscape.evaluate(arch, SURROGATE_DATASET)
            fh.write(json.dumps({"arch": str(arch), "dataset": SURROGATE_DATASET,
                                 "val_acc": val, "test_acc": test,
                                 "train_seconds": secs}) + "\n")


WORKLOADS = {cls.name: cls for cls in (ProxyCifar, GeaProxySearch, SurrogateSearch)}


# ---------------------------------------------------------------------------
# Score fingerprint of the default skeleton
# ---------------------------------------------------------------------------


def fingerprint() -> dict:
    """Score the 200-cell default-skeleton sample (default init rng) and check it.

    ``hash`` covers the z values to 9 significant digits; ``error`` is the
    first cell whose score is outside the tolerance, or None.
    """
    refs = load_refs("fingerprint")
    batch = zero_proxy.make_batch(zero_proxy.ProxyConfig())
    lines, error = [], None
    for index, ref in refs["cells"]:
        score = zero_proxy.score_architecture(arch_space.ArchEncoding.from_index(index), batch)
        lines.append(f"{score.z:.9e}" if score.valid else "invalid")
        cell_error = check_z(score.valid, score.z, ref)
        if cell_error and error is None:
            error = f"cell {index}: {cell_error}"
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return {"cells": len(refs["cells"]), "hash": digest,
            "reference_hash": refs.get("hash"), "error": error}


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------


def _attempt(workload, op) -> tuple[float, Outcome | None, str | None]:
    """Run and inspect one operation; returns (wall, outcome, error).

    A full collection first, untimed, so that every operation starts from a
    heap without the previous operation's garbage.
    """
    gc.collect()
    try:
        tic = time.perf_counter()
        output = workload.run(op)
        wall = time.perf_counter() - tic
        outcome = workload.inspect(op, output)
    except Exception as exc:  # an operation that raises is a failed operation
        return 0.0, None, f"{type(exc).__name__}: {exc}"
    return wall, outcome, outcome.error


def _may_start(start: float, seconds: float, walls: list[float]) -> bool:
    """Whether another operation may start: the run overshoots ``seconds`` by
    at most about half an operation."""
    typical = sorted(walls)[len(walls) // 2] if walls else 0.0
    return time.perf_counter() - start + 0.5 * typical < seconds


def _timed_phase(workload, seconds: float) -> dict:
    """Start operations for ``seconds``; returns (wall, proxy scores) per success."""
    samples, errors, attempted, output_bytes = [], [], 0, 0
    start = time.perf_counter()
    while _may_start(start, seconds, [w for w, _ in samples]):
        op = workload.next_op()
        if op is None:
            break
        attempted += 1
        wall, outcome, error = _attempt(workload, op)
        output_bytes += outcome.output_bytes if outcome else 0
        if error:
            errors.append(error)
        else:
            samples.append((wall, outcome.proxy_requests))
    return {"samples": samples, "attempted": attempted, "errors": errors,
            "output_bytes": output_bytes, "elapsed": time.perf_counter() - start}


def _trace(workload, seconds: float) -> dict:
    """Run each operation untraced and traced, back to back, for ``seconds``.

    The machine's speed drifts over tens of seconds; pairing the two runs of
    an operation in time (and alternating which goes first) keeps that drift
    out of the tracing overhead.
    """
    tracer = Tracer()
    with tracer:
        workload.trace_setup()
    walls = {False: 0.0, True: 0.0}
    errors, attempted, traced_ops, mismatched, output_bytes = [], 0, 0, 0, 0
    pair_walls = []
    start = time.perf_counter()
    while _may_start(start, seconds, pair_walls):
        op = workload.next_op()
        if op is None:
            break
        tic = time.perf_counter()
        runs = {}
        for under_tracer in ((False, True) if traced_ops % 2 == 0 else (True, False)):
            with tracer if under_tracer else contextlib.nullcontext():
                runs[under_tracer] = _attempt(workload, op)
        pair_walls.append(time.perf_counter() - tic)
        attempted += 2
        traced_ops += 1
        errors += [error for _, _, error in runs.values() if error]
        (plain_wall, plain, _), (traced_wall, traced, _) = runs[False], runs[True]
        output_bytes += traced.output_bytes if traced else 0
        if plain and traced and plain.trajectory != traced.trajectory:
            mismatched += 1
        elif not any(error for _, _, error in runs.values()):
            walls[False] += plain_wall
            walls[True] += traced_wall
    metrics = tracer.metrics(output_bytes)
    metrics["tracing_overhead"] = (walls[True] / walls[False] - 1.0 if walls[False] else 0.0,
                                   "ratio")
    return {"metrics": metrics, "attempted": attempted, "errors": errors,
            "missing": tracer.missing, "traced_ops": traced_ops,
            "mismatched_outputs": mismatched}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, workdir)
    result: dict = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        if args.trace:
            result.update(_trace(workload, args.seconds))
        else:
            result.update(_timed_phase(workload, args.seconds))
        result["fingerprint"] = fingerprint()
        result["software"] = envinfo.software()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
