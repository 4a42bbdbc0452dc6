"""The host record written next to every benchmark result.

It names what the numbers were measured on: CPU model, usable CPUs,
cache sizes, Python and NumPy (with NumPy's SIMD targets), a memcpy
bandwidth probe, the native tier's status and module digest with its
cold compile time, and the program's source identity.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

MEMCPY_BYTES = 64 << 20


def ensure_native(cache: Path) -> dict:
    """Build (once per cache) and load the native tier; describe it.

    The cold compile time is recorded in the cache the first time the
    module is built there, and reported from it on later runs.
    """
    from repro.native import build

    digest = build.source_digest()
    record = cache / f"compile-{digest}.json"
    cold = not any(cache.glob(f"*{digest}*"))
    t0 = time.perf_counter()
    status = build.native_status(warn=False)
    seconds = time.perf_counter() - t0
    if cold and status.available:
        record.write_text(json.dumps({"cold_compile_s": seconds}))
    compile_s = (
        json.loads(record.read_text())["cold_compile_s"] if record.exists() else None
    )
    return {
        "available": status.available,
        "reason": status.reason,
        "source_digest": digest,
        "cold_compile_s": compile_s,
    }


def memcpy_gbps() -> float:
    """Bytes read plus bytes written per second by a 64 MiB copy (best of 5)."""
    src = np.ones(MEMCPY_BYTES, dtype=np.uint8)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return 2 * MEMCPY_BYTES / best / 1e9


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def _simd() -> dict:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        return {}
    features = getattr(umath, "__cpu_features__", {})
    return {
        "baseline": list(getattr(umath, "__cpu_baseline__", [])),
        "dispatch_found": [
            name for name in getattr(umath, "__cpu_dispatch__", []) if features.get(name)
        ],
    }


def _source_identity(root: Path) -> dict:
    """The git commit when the checkout has one, and a digest of ``src``."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    commit = None
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            commit = (root / ".git" / ref[5:]).read_text().strip()
        else:
            commit = ref
    except OSError:
        pass
    return {"git_commit": commit, "src_sha256": h.hexdigest()[:16]}


def describe(root: Path, native: dict) -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "cpu_model": _cpu_model(),
        "nproc": cpus,
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_simd": _simd(),
        "memcpy_gbps": memcpy_gbps(),
        "native": native,
        **_source_identity(root),
    }
