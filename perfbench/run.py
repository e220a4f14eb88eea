"""Benchmark of gea-nas: the Jacobian proxy, the guided search loop and the CLI.

    python3 perfbench/run.py --workload proxy_cifar --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a checkout; it measures the gea_nas package under
``src/`` of that checkout. Each workload runs in its own worker process
(``workloads.py``). With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` the per-layer metrics of a traced run are. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import envinfo

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("proxy_cifar", "gea_proxy_search", "surrogate_search")
SETUP_SAMPLES = 3  # set-ups per run: the measuring worker plus two set-up-only workers
TIME_LIMIT_S = 175.0  # per workload, everything included

UNITS = {"setup_s": "s", "proxy_archs_per_s": "architectures/s", "proxy_ms.p50": "ms",
         "proxy_ms.p90": "ms", "search_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def end_to_end(samples: list[tuple[float, int]], setups: list[float],
               peak_rss_mb: float) -> dict[str, tuple[float, str, int]]:
    """End-to-end metrics as name -> (value, unit, sample count).

    ``samples`` holds (wall seconds, proxy scores requested) per successful
    operation. proxy_ms is the operation wall per proxy score requested in it;
    proxy_archs_per_s is the median over operations of scores per second.
    """
    walls = [w for w, _ in samples]
    per_score_ms = [1000.0 * w / n for w, n in samples]
    p90 = statistics.quantiles(per_score_ms, n=10, method="inclusive")[8] \
        if len(per_score_ms) > 1 else per_score_ms[0]
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "proxy_archs_per_s": (statistics.median(n / w for w, n in samples), len(samples)),
        "proxy_ms.p50": (statistics.median(per_score_ms), len(samples)),
        "proxy_ms.p90": (p90, len(samples)),
        "search_s": (statistics.median(walls), len(samples)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    return {name: (value, UNITS[name], n) for name, (value, n) in values.items()}


def _worker(workload: str, seed: int, seconds: float, trace: int, workdir: Path,
            setup_only: bool, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the worker started")
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir), "--t0", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in fresh processes; returns its result and details."""
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".perfbench_work" / f"{os.getpid()}-{workload}"
    try:
        setups = []
        if not trace:
            for i in range(SETUP_SAMPLES - 1):
                extra = _worker(workload, seed, 0, 0, workdir / f"setup{i}", True, deadline)
                setups.append(extra["setup_s"])
        out = _worker(workload, seed, seconds, trace, workdir / "run", False, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()
    setups.append(out["setup_s"])

    fp = out["fingerprint"]
    failed = len(out["errors"])
    correct = failed == 0 and fp["error"] is None and not out.get("mismatched_outputs")
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "errors": out["errors"][:10], "fingerprint": fp,
              "environment": {"software": out["software"], "machine": envinfo.machine(),
                              "git_commit": envinfo.git_commit(ROOT)}}
    if trace:
        metrics = {name: (value, unit, out["traced_ops"])
                   for name, (value, unit) in out["metrics"].items()}
        detail.update(missing_trace_targets=out["missing"],
                      mismatched_outputs=out["mismatched_outputs"])
    else:
        if not out["samples"]:
            raise BenchError(f"{workload}: no operation succeeded: {out['errors'][:3]}")
        metrics = end_to_end(out["samples"], setups, out["peak_rss_mb"])
        detail.update(setup_samples_s=setups, measured_s=out["elapsed"],
                      output_bytes=out["output_bytes"],
                      operation_walls_s=[w for w, _ in out["samples"]])
    return {"correct": correct, "attempted": out["attempted"], "failed": failed,
            "metrics": metrics, "detail": detail}


def _print_block(result: dict) -> None:
    d = result["detail"]
    print(f"== {d['workload']}  seed={d['seed']}  seconds={d['seconds']}  trace={d['trace']}")
    for name, (value, unit, n) in result["metrics"].items():
        print(f"  {name:<48} {value:>14.6g} {unit:<16} n={n}")
    fp = d["fingerprint"]
    print(f"  operations: {result['attempted']} attempted, {result['failed']} failed; "
          f"fingerprint of {fp['cells']} cells: {'ok' if fp['error'] is None else fp['error']}"
          f" (hash {fp['hash'][:16]}, reference {str(fp['reference_hash'])[:16]})")
    for error in d["errors"]:
        print(f"  failed: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gea_nas" / "__init__.py").is_file():
        print(f"error: no gea_nas package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace)
                   for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for result in results.values():
        _print_block(result)
        print(json.dumps(result["detail"], sort_keys=True))
    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}" if prefix else metric: {"value": value, "unit": unit}
                    for name, r in results.items()
                    for metric, (value, unit, _) in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
