"""Regenerate the reference outputs in perfbench/refs from the current program.

    python3 perfbench/make_refs.py [--only proxy_cifar|fingerprint|surrogate_search]

The references pin the program's outputs at the commit that defined the
benchmark. Regenerating them is a deliberate change of the benchmark, not
something a performance change does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

import workloads as wl
from gea_nas import arch_space, zero_proxy

CIFAR_SKELETON = {"in_channels": 3, "image_hw": 32, "stem_channels": 8, "num_stages": 1,
                  "cells_per_stage": 1, "num_classes": 10}
CIFAR_CELLS = 1500
FINGERPRINT_CELLS = 200
SURROGATE_SEEDS = 30


def _scores(indices, config: zero_proxy.ProxyConfig) -> list[list]:
    batch = zero_proxy.make_batch(config)
    rows = []
    for index in indices:
        score = zero_proxy.score_architecture(arch_space.ArchEncoding.from_index(int(index)),
                                              batch, config=config)
        rows.append([int(index), score.z if score.valid else None])
    return rows


def make_proxy_cifar() -> dict:
    # The warm-up cell has nor_conv_3x3 on every edge, the cell with the most
    # live buffers, so the worker's peak RSS is set in set-up, not by the sample.
    warmup = arch_space.ArchEncoding((arch_space.Operation.NOR_CONV_3X3,) * 6).index
    perm = np.random.default_rng(2110_15232).permutation(arch_space.SPACE_SIZE)
    cells = [int(i) for i in perm[1:] if i != warmup][:CIFAR_CELLS]
    config = zero_proxy.ProxyConfig(skeleton=wl.SkeletonConfig(**CIFAR_SKELETON))
    rows = _scores([warmup, *cells], config)
    return {"skeleton": CIFAR_SKELETON, "rel_tol": wl.Z_REL_TOL, "warmup": rows[0],
            "cells": rows[1:]}


def make_fingerprint() -> dict:
    perm = np.random.default_rng(200).permutation(arch_space.SPACE_SIZE)
    rows = _scores(perm[:FINGERPRINT_CELLS], zero_proxy.ProxyConfig())
    lines = [f"{z:.9e}" if z is not None else "invalid" for _, z in rows]
    return {"rel_tol": wl.Z_REL_TOL, "cells": rows,
            "hash": hashlib.sha256("\n".join(lines).encode()).hexdigest()}


def make_surrogate() -> dict:
    workdir = Path(tempfile.mkdtemp(dir=wl.ROOT, prefix=".perfbench_refs_"))
    try:
        table = workdir / "table.jsonl"
        wl.write_table(table)
        digests = {}
        for variant, args in wl.surrogate_variants(str(table)).items():
            out = workdir / variant
            if wl._call_main(wl.surrogate_argv(args, range(SURROGATE_SEEDS), out)) != 0:
                raise RuntimeError(f"{variant}: search failed")
            docs, _ = wl._collect(out)
            digests[variant] = {str(d["config"]["seed"]): wl.surrogate_digest(d)
                                for d in docs.values() if "history" in d}
        return {"C": wl.SURROGATE_C, "digests": digests}
    finally:
        shutil.rmtree(workdir)


MAKERS = {"proxy_cifar": make_proxy_cifar, "fingerprint": make_fingerprint,
          "surrogate_search": make_surrogate}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only", choices=sorted(MAKERS))
    args = parser.parse_args()
    for name, make in MAKERS.items():
        if args.only in (None, name):
            path = wl.REFS / f"{name}.json"
            path.write_text(json.dumps(make(), indent=1) + "\n", encoding="utf-8")
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
