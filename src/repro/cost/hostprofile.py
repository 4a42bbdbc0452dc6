"""Host profiles: measured micro-probe constants for *this* machine.

The analytical model in :mod:`repro.cost.calibration` prices plans
with the paper's §6 Titan X constants (369 GB/s effective bandwidth).
That reproduces the paper's *reasoning*, but on a NumPy host it
over-predicts throughput by ~400×: ``BENCH_wallclock.json`` used to
record ``predicted_seconds: 0.0007`` against a measured 0.37 s.
Stehle & Jacobsen's own methodology points the way out — the model's
*shape* (pass counts, traffic multipliers) comes from the algorithm,
only the *constants* are per-device — so ``repro calibrate`` measures
the constants on the host that will actually execute the plans:

* one counting-scatter sort per key/value layout, expressed as the
  planner's own ``(3·passes + 2)·n·record_bytes`` traffic formula, so
  ``bytes_moved / bandwidth`` is exact at the probe size;
* the native compiled tier (when the extension loads) through its
  ``3·passes·n·record_bytes`` formula;
* the stable-argsort rate that prices local sorts and the LSD
  fallback, and the pack/unpack bandwidth of the pair-packing layer;
* the external sorter's run-spill and streaming k-way-merge rates;
* thread (``workers=``) and shard-process (``shards=``) speedup
  factors at ×2, extrapolated linearly per extra worker up to the CPU
  count.

The result is an atomic, schema-versioned JSON file (default
``~/.cache/repro-host-profile.json``, overridable with the
``REPRO_HOST_PROFILE`` environment variable) with full provenance:
probe sizes, repeats, the timestamp the CLI passed in, and a content
fingerprint.  :func:`load_host_profile` is deliberately forgiving —
a missing file means "not calibrated" (no warning), a corrupt or
partial file warns once per path and falls back to paper constants;
it never crashes a sort.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

__all__ = [
    "HostProfile",
    "ProfileError",
    "PROFILE_SCHEMA",
    "PROFILE_ENV_VAR",
    "default_profile_path",
    "load_host_profile",
    "save_profile",
    "profile_fingerprint",
    "run_probes",
    "probe_counting_scatter",
    "probe_native",
    "probe_local_sort",
    "probe_pack",
    "probe_external",
    "probe_thread_scaling",
    "probe_shard_scaling",
]

#: Version of the on-disk profile layout.  Readers reject any other
#: value (a schema bump means the probes changed meaning).
PROFILE_SCHEMA = 1

#: Environment variable overriding the default profile location.
PROFILE_ENV_VAR = "REPRO_HOST_PROFILE"

#: The key/value layouts probed, as ``(key_bits, value_bits)``.
PROBE_LAYOUTS: tuple[tuple[int, int], ...] = (
    (32, 0), (64, 0), (32, 32), (64, 64),
)

_DEFAULT_N = 1 << 21
_QUICK_N = 1 << 17
_DEFAULT_REPEATS = 3
_QUICK_REPEATS = 1
_DEFAULT_SEED = 20170514

#: Fields every valid profile must carry (beyond schema/fingerprint).
_REQUIRED_FIELDS = (
    "created",
    "host",
    "probes",
    "counting_bandwidth",
    "native_bandwidth",
    "local_sort_keys_per_s",
    "pack_bandwidth",
    "spill_bandwidth",
    "merge_bandwidth",
    "thread_speedup",
    "shard_speedup",
)


class ProfileError(ValueError):
    """A host-profile file failed validation (corrupt or partial)."""


def layout_key(key_bits: int, value_bits: int) -> str:
    """The JSON key a layout's measured constants live under."""
    return f"{key_bits}/{value_bits}"


# ----------------------------------------------------------------------
# The profile object
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HostProfile:
    """Validated, in-memory form of one calibrated profile file.

    All bandwidths are bytes/second *through the planner's traffic
    formulas* (not raw memcpy rates): dividing a step's ``bytes_moved``
    by the matching bandwidth reproduces the probe's measured seconds
    exactly at the probe size.
    """

    created: float
    host: Mapping[str, Any]
    probes: Mapping[str, Any]
    counting_bandwidth: Mapping[str, float]
    native_bandwidth: Mapping[str, float]
    local_sort_keys_per_s: float
    pack_bandwidth: float
    spill_bandwidth: float
    merge_bandwidth: float
    thread_speedup: Mapping[str, float]
    shard_speedup: Mapping[str, float]
    fingerprint: str = ""
    schema: int = PROFILE_SCHEMA
    extras: Mapping[str, Any] = field(default_factory=dict)

    @property
    def cpu_count(self) -> int:
        return int(self.host.get("cpu_count", 1) or 1)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HostProfile":
        """Validate a parsed JSON document into a profile.

        Raises :class:`ProfileError` on anything short of a complete,
        well-typed schema-``PROFILE_SCHEMA`` document.
        """
        if not isinstance(data, Mapping):
            raise ProfileError("profile document is not a JSON object")
        if data.get("schema") != PROFILE_SCHEMA:
            raise ProfileError(
                f"profile schema {data.get('schema')!r} is not "
                f"{PROFILE_SCHEMA}"
            )
        missing = [k for k in _REQUIRED_FIELDS if k not in data]
        if missing:
            raise ProfileError(f"profile missing fields: {missing}")
        counting = data["counting_bandwidth"]
        if not isinstance(counting, Mapping) or not counting:
            raise ProfileError("counting_bandwidth must be a non-empty map")
        for name in ("counting_bandwidth", "native_bandwidth",
                     "thread_speedup", "shard_speedup"):
            table = data[name]
            if not isinstance(table, Mapping):
                raise ProfileError(f"{name} must be a map")
            for key, value in table.items():
                if not isinstance(value, (int, float)) or value <= 0:
                    raise ProfileError(
                        f"{name}[{key!r}] must be a positive number"
                    )
        for name in ("local_sort_keys_per_s", "pack_bandwidth",
                     "spill_bandwidth", "merge_bandwidth"):
            value = data[name]
            if not isinstance(value, (int, float)) or value <= 0:
                raise ProfileError(f"{name} must be a positive number")
        known = set(_REQUIRED_FIELDS) | {"schema", "fingerprint"}
        extras = {k: v for k, v in data.items() if k not in known}
        return cls(
            created=float(data["created"]),
            host=dict(data["host"]),
            probes=dict(data["probes"]),
            counting_bandwidth=dict(counting),
            native_bandwidth=dict(data["native_bandwidth"]),
            local_sort_keys_per_s=float(data["local_sort_keys_per_s"]),
            pack_bandwidth=float(data["pack_bandwidth"]),
            spill_bandwidth=float(data["spill_bandwidth"]),
            merge_bandwidth=float(data["merge_bandwidth"]),
            thread_speedup=dict(data["thread_speedup"]),
            shard_speedup=dict(data["shard_speedup"]),
            fingerprint=str(data.get("fingerprint", "")),
            extras=extras,
        )

    def to_dict(self) -> dict:
        out = {
            "schema": self.schema,
            "created": self.created,
            "host": dict(self.host),
            "probes": dict(self.probes),
            "counting_bandwidth": dict(self.counting_bandwidth),
            "native_bandwidth": dict(self.native_bandwidth),
            "local_sort_keys_per_s": self.local_sort_keys_per_s,
            "pack_bandwidth": self.pack_bandwidth,
            "spill_bandwidth": self.spill_bandwidth,
            "merge_bandwidth": self.merge_bandwidth,
            "thread_speedup": dict(self.thread_speedup),
            "shard_speedup": dict(self.shard_speedup),
        }
        out.update(dict(self.extras))
        if self.fingerprint:
            out["fingerprint"] = self.fingerprint
        return out


# ----------------------------------------------------------------------
# Location, persistence, and the cached loader
# ----------------------------------------------------------------------


def default_profile_path() -> str:
    """Where profiles live: env override, else ``~/.cache``."""
    override = os.environ.get(PROFILE_ENV_VAR)
    if override:
        return override
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro-host-profile.json"
    )


def profile_fingerprint(data: Mapping[str, Any]) -> str:
    """Short content hash of a profile document (sans fingerprint)."""
    canon = {k: v for k, v in data.items() if k != "fingerprint"}
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return "hp-" + hashlib.sha256(blob.encode()).hexdigest()[:12]


def save_profile(data: Mapping[str, Any], path: str | os.PathLike) -> str:
    """Atomically write a profile document; returns its fingerprint.

    The fingerprint is computed over the canonical JSON (sort order
    independent) and embedded in the file, so any later mutation is
    detectable and plans can cite exactly which calibration priced
    them.  Write is temp-file + ``os.replace`` — a crashed calibrate
    never leaves a truncated profile behind.
    """
    path = os.fspath(path)
    doc = dict(data)
    doc["schema"] = doc.get("schema", PROFILE_SCHEMA)
    doc["fingerprint"] = profile_fingerprint(doc)
    HostProfile.from_dict(doc)  # refuse to persist an invalid profile
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=".repro-profile-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _LOAD_CACHE.pop(path, None)
    return doc["fingerprint"]


# path -> ((mtime_ns, size), HostProfile | None)
_LOAD_CACHE: dict[str, tuple[tuple[int, int], HostProfile | None]] = {}
_WARNED_PATHS: set[str] = set()


def load_host_profile(path: str | os.PathLike | None = None):
    """Load the host profile, or ``None`` when there isn't a usable one.

    * No file at the resolved path: ``None``, silently — an
      uncalibrated host is the normal starting state.
    * A corrupt, partial, or wrong-schema file: ``None`` with one
      :class:`UserWarning` per path per process — the planner falls
      back to the paper-anchored constants rather than crash a sort
      over a bad cache file.

    Loads are cached on ``(mtime_ns, size)`` so the planner can call
    this on every construction without re-reading the file.
    """
    resolved = os.fspath(path) if path is not None else default_profile_path()
    try:
        stat = os.stat(resolved)
    except OSError:
        return None
    sig = (stat.st_mtime_ns, stat.st_size)
    cached = _LOAD_CACHE.get(resolved)
    if cached is not None and cached[0] == sig:
        return cached[1]
    profile: HostProfile | None
    try:
        with open(resolved) as handle:
            profile = HostProfile.from_dict(json.load(handle))
    except (OSError, ValueError) as exc:
        profile = None
        if resolved not in _WARNED_PATHS:
            _WARNED_PATHS.add(resolved)
            warnings.warn(
                f"ignoring unusable host profile {resolved!r} "
                f"({exc}); falling back to paper-anchored constants",
                UserWarning,
                stacklevel=2,
            )
    _LOAD_CACHE[resolved] = (sig, profile)
    return profile


# ----------------------------------------------------------------------
# Micro-probes
#
# Every probe returns a plain dict of the profile fields it measures,
# so each output schema is unit-testable in isolation and
# ``run_probes`` is just their union.  Engine imports live inside the
# probes: this module sits below the planner, which the engines import.
# ----------------------------------------------------------------------


def _best_seconds(fn: Callable[[], Any], repeats: int) -> float:
    """Best-of-``repeats`` wall-clock for ``fn`` after one warmup."""
    fn()  # warm caches, JIT-build configs, touch pages
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return max(best, 1e-9)


def _probe_arrays(
    rng: np.random.Generator, n: int, key_bits: int, value_bits: int
) -> tuple[np.ndarray, np.ndarray | None]:
    key_dtype = np.uint32 if key_bits <= 32 else np.uint64
    keys = rng.integers(0, 1 << key_bits, size=n, dtype=np.uint64)
    keys = keys.astype(key_dtype)
    if value_bits == 0:
        return keys, None
    value_dtype = np.uint32 if value_bits <= 32 else np.uint64
    values = np.arange(n, dtype=value_dtype)
    return keys, values


def _counting_bytes(n: int, key_bits: int, value_bits: int) -> int:
    """The planner's hybrid-MSD traffic formula for ``n`` records."""
    from repro.core.analytical import AnalyticalModel
    from repro.plan.planner import layout_preset

    config = layout_preset(key_bits, value_bits)
    model = AnalyticalModel(config)
    passes = max(1, model.expected_counting_passes_uniform(max(1, n)))
    record_bytes = key_bits // 8 + value_bits // 8
    return (3 * passes + 2) * n * record_bytes


def probe_counting_scatter(
    n: int, repeats: int, rng: np.random.Generator
) -> dict:
    """Effective counting-scatter bandwidth per key/value layout.

    Runs the NumPy hybrid engine end to end and divides the planner's
    own ``(3·passes + 2)·n·record_bytes`` traffic estimate by the
    measured seconds — so a plan priced with this constant predicts
    the probe's wall-clock exactly at the probe size.
    """
    from repro.core.hybrid_sort import HybridRadixSorter

    table: dict[str, float] = {}
    for key_bits, value_bits in PROBE_LAYOUTS:
        keys, values = _probe_arrays(rng, n, key_bits, value_bits)
        sorter = HybridRadixSorter()
        seconds = _best_seconds(lambda: sorter.sort(keys, values), repeats)
        table[layout_key(key_bits, value_bits)] = (
            _counting_bytes(n, key_bits, value_bits) / seconds
        )
    return {"counting_bandwidth": table}


def probe_native(n: int, repeats: int, rng: np.random.Generator) -> dict:
    """Compiled-tier bandwidth per layout; empty when unavailable.

    Uses the planner's native traffic formula
    (:func:`repro.core.digits.native_traffic`).  An absent or broken
    extension yields an empty table — the cost model then prices native
    steps with the counting-scatter constant instead.
    """
    from repro.native.build import native_status

    status = native_status(warn=False)
    if not status.available:
        return {"native_bandwidth": {}}
    from repro.core.digits import native_traffic
    from repro.native.engine import NativeRadixEngine

    table: dict[str, float] = {}
    for key_bits, value_bits in PROBE_LAYOUTS:
        keys, values = _probe_arrays(rng, n, key_bits, value_bits)
        engine = NativeRadixEngine()
        seconds = _best_seconds(lambda: engine.sort(keys, values), repeats)
        record_bytes = key_bits // 8 + value_bits // 8
        _, bytes_moved = native_traffic(key_bits, n, record_bytes)
        table[layout_key(key_bits, value_bits)] = bytes_moved / seconds
    return {"native_bandwidth": table}


def probe_local_sort(n: int, repeats: int, rng: np.random.Generator) -> dict:
    """Stable-argsort rate (keys/s) — prices local sorts and the LSD
    fallback, the two strategies that are one NumPy sort call."""
    keys = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
    seconds = _best_seconds(
        lambda: keys[np.argsort(keys, kind="stable")], repeats
    )
    return {"local_sort_keys_per_s": n / seconds}


def probe_pack(n: int, repeats: int, rng: np.random.Generator) -> dict:
    """Pair pack/unpack bandwidth of the §4.6 packed-word layer.

    One round trip moves ``32·n`` bytes (read 4, write 8, read 8,
    write 12 per record through pack + unpack).
    """
    from repro.core.pairs import pack_key_index, unpack_key_index

    bits = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
    bits = bits.astype(np.uint32)

    def round_trip():
        packed = pack_key_index(bits, 32)
        unpack_key_index(packed, 32)

    seconds = _best_seconds(round_trip, repeats)
    return {"pack_bandwidth": 32 * n / seconds}


def probe_external(n: int, repeats: int, rng: np.random.Generator) -> dict:
    """Run-spill and streaming-merge rates of the external sorter.

    Spills a uint32 file under a quarter-size budget (several runs)
    and reads the sorter's own phase timings.  Both rates are bytes/s
    against ``2 × total_bytes`` (each phase reads and writes the
    dataset once); run production folds the in-memory sort cost into
    the spill rate, which is exactly how the planner prices it.
    """
    import shutil

    from repro.external.format import FileLayout
    from repro.external.sorter import ExternalSorter

    keys = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
    keys = keys.astype(np.uint32)
    total_bytes = keys.nbytes
    budget = max(4096, total_bytes // 4)
    tmpdir = tempfile.mkdtemp(prefix="repro-calibrate-")
    try:
        in_path = os.path.join(tmpdir, "in.bin")
        out_path = os.path.join(tmpdir, "out.bin")
        keys.tofile(in_path)
        layout = FileLayout(np.dtype(np.uint32))
        run_seconds = float("inf")
        merge_seconds = float("inf")
        for _ in range(max(1, repeats)):
            report = ExternalSorter(memory_budget=budget).sort_file(
                in_path, out_path, layout
            )
            run_seconds = min(run_seconds, max(report.run_seconds, 1e-9))
            merge_seconds = min(
                merge_seconds, max(report.merge_seconds, 1e-9)
            )
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return {
        "spill_bandwidth": 2 * total_bytes / run_seconds,
        "merge_bandwidth": 2 * total_bytes / merge_seconds,
    }


def probe_thread_scaling(
    n: int, repeats: int, rng: np.random.Generator
) -> dict:
    """Measured ×2-thread speedup of the hybrid engine (``workers=``)."""
    from dataclasses import replace

    from repro.core.hybrid_sort import HybridRadixSorter
    from repro.plan.planner import layout_preset

    keys, _ = _probe_arrays(rng, n, 32, 0)
    base = layout_preset(32, 0)
    t1 = _best_seconds(
        lambda: HybridRadixSorter(replace(base, workers=1)).sort(keys),
        repeats,
    )
    t2 = _best_seconds(
        lambda: HybridRadixSorter(replace(base, workers=2)).sort(keys),
        repeats,
    )
    return {"thread_speedup": {"1": 1.0, "2": max(t1 / t2, 1e-3)}}


def probe_shard_scaling(
    n: int, repeats: int, rng: np.random.Generator
) -> dict:
    """Measured ×2-shard-process speedup, spawn overhead included."""
    import repro

    keys, _ = _probe_arrays(rng, n, 32, 0)
    t1 = _best_seconds(
        lambda: repro.sort(keys, native="never"), repeats
    )
    t2 = _best_seconds(
        lambda: repro.sort(keys, shards=2, native="never"), repeats
    )
    return {"shard_speedup": {"1": 1.0, "2": max(t1 / t2, 1e-3)}}


def run_probes(
    n: int | None = None,
    repeats: int | None = None,
    *,
    quick: bool = False,
    seed: int = _DEFAULT_SEED,
    timestamp: float = 0.0,
) -> dict:
    """Run every micro-probe and assemble the profile document.

    ``timestamp`` is passed in by the caller (the CLI) so the probes
    themselves stay deterministic and replayable.  The returned dict
    is ready for :func:`save_profile`.
    """
    if n is None:
        n = _QUICK_N if quick else _DEFAULT_N
    if repeats is None:
        repeats = _QUICK_REPEATS if quick else _DEFAULT_REPEATS
    if n < 1024:
        n = 1024
    rng = np.random.default_rng(seed)
    profile: dict[str, Any] = {
        "schema": PROFILE_SCHEMA,
        "created": float(timestamp),
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count() or 1,
        },
        "probes": {
            "n": int(n),
            "repeats": int(repeats),
            "quick": bool(quick),
            "seed": int(seed),
        },
    }
    profile.update(probe_counting_scatter(n, repeats, rng))
    profile.update(probe_native(n, repeats, rng))
    profile.update(probe_local_sort(n, repeats, rng))
    profile.update(probe_pack(n, repeats, rng))
    # Disk and process probes carry real fixed costs (temp files, run
    # framing, process spawn): too small a probe measures the overhead,
    # not the rate.  Full calibration holds them near the in-memory
    # probe size; --quick bounds them so calibration stays interactive.
    external_n = min(n, 1 << 18) if quick else max(n, 1 << 21)
    profile.update(probe_external(external_n, 1, rng))
    profile.update(probe_thread_scaling(n, 1, rng))
    shard_n = min(n, 1 << 18) if quick else max(n, 1 << 20)
    profile.update(probe_shard_scaling(shard_n, 1, rng))
    return profile
