"""Writers for the two input formats that the library only reads: the raw
batch file of zero_proxy.read_batch_file and the JSONL store of
benchmark_store.load_jsonl (both laid out in the README's "Data formats")."""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from gea_nas.benchmark_store import BenchRecord
from gea_nas.zero_proxy import Batch


def write_batch_file(path: str | Path, batch: Batch) -> None:
    """Inverse of read_batch_file; images are stored as float32."""
    n, c, h, w = batch.images.shape
    payload = [struct.pack("<5i", n, c, h, w, batch.num_classes),
               np.ascontiguousarray(batch.images, dtype="<f4").tobytes(),
               np.ascontiguousarray(batch.labels, dtype="<i4").tobytes()]
    Path(path).write_bytes(b"".join(payload))


def dump_jsonl(records: list[BenchRecord], path: str | Path) -> None:
    """Write records in the load_jsonl schema, one line each, in order."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({"arch": rec.arch, "dataset": rec.dataset,
                                 "val_acc": rec.val_acc, "test_acc": rec.test_acc,
                                 "train_seconds": rec.train_seconds}) + "\n")
