"""Record of the machine and software a benchmark result was measured on."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path


def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def machine() -> dict:
    """nproc, CPU model and cache sizes, read from /proc and /sys."""
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind != "Instruction":
            caches[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor() or None,
        "caches": caches,
        "platform": platform.platform(),
    }


def _blas() -> dict:
    """Name, version and thread count of the BLAS library numpy has loaded."""
    import numpy as np

    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    maps = _read("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "blas" in line.lower()
                   and line.split()[-1].startswith("/")})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                info["library"] = os.path.basename(path)
                return info
    return info


def software() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def git_commit(root: Path) -> str | None:
    """HEAD commit of ``root`` read from .git without running git; None if absent."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return None
    if not head.startswith("ref:"):
        return head
    ref = head.split(None, 1)[1]
    direct = _read(git / ref)
    if direct:
        return direct
    for line in (_read(git / "packed-refs") or "").splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[1] == ref:
            return parts[0]
    return None
