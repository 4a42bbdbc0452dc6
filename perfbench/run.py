"""Benchmark entry point.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 10 --trace 0

Runs one workload (``bulk``, ``outofcore`` or ``service``)
through the public ``repro`` API, checks every output byte for byte
against the same-run NumPy reference, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs an untraced and a
traced phase and reports the per-layer metrics.  ``RATIONALE.md``
explains the workloads and metrics.

The program is imported from ``src/`` beside this directory.  All
state the run keeps — the native build cache, the (deliberately
absent) host profile, temporary and out-of-core files, the host record
and the span log — lives under ``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_PROBES = 3  # before measuring, and again after

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Absolute figures every untraced run prints (on standard error) and
#: records.  The host's speed moves by a quarter in regimes lasting
#: minutes, so they do not repeat well enough to compare commits by;
#: the end-to-end metrics in BENCHMARK.json are same-run ratios,
#: memory and set-up time.
ABSOLUTE_UNITS = {"mkeys_per_s": "Mrecords/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms"}


def units(section: str) -> dict[str, str]:
    """Metric name -> unit for one metric list of ``BENCHMARK.json``."""
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def pin_environment() -> None:
    """Point every cache and temporary path of the program into WORK."""
    for sub in ("native", "tmp"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    profile = WORK / "no-host-profile.json"
    profile.unlink(missing_ok=True)
    os.environ["REPRO_HOST_PROFILE"] = str(profile)
    os.environ["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    os.environ.pop("REPRO_NATIVE", None)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    tempfile.tempdir = None
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)


def measure_setup(workload: str, warm: list) -> list[float]:
    """Seconds from spawn to ``ready`` for fresh set-up processes.

    ``warm`` (the workload's ``warm_inputs()``) reaches each probe as a
    pickle, so no probe times generating the warm-up inputs.
    """
    warm_path = WORK / f"warm-{workload}.pkl"
    warm_path.write_bytes(pickle.dumps(warm, protocol=pickle.HIGHEST_PROTOCOL))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(WORK), str(warm_path)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
        samples.append(seconds)
    return samples


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count (Linux); harmless elsewhere."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(m, setup: list[float], peak_mb: float) -> dict[str, float]:
    return {
        "mkeys_per_s": m.throughput / 1e6,
        "latency_p50_ms": m.p50 * 1e3,
        "latency_p99_ms": m.p99 * 1e3,
        "vs_numpy": m.vs_numpy,
        "latency_p99_over_p50": m.p99 / m.p50 if m.p50 else 0.0,
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setup),
    }


def per_layer(phases, host: dict) -> dict[str, float]:
    from tracing import layer_metrics

    plain, m, tracer = phases.plain, phases.traced, phases.tracer
    figures = layer_metrics(tracer.spans, m.done)
    native_seconds = sum(s.self_seconds for s in tracer.spans if s.name == "native.sort")
    run_bytes = sum(s.nbytes for s in tracer.spans if s.name == "external.spill")
    shares = {
        engine: m.routes[engine] / max(m.done, 1)
        for engine in ("native", "hybrid", "external", "batch")
    }
    shares["other"] = max(0.0, 1.0 - sum(shares.values())) if m.done else 0.0
    stats = m.stats
    planned = stats.get("plan_cache_hits", 0) + stats.get("plan_cache_misses", 0)
    attempted = plain.attempted + m.attempted

    figures.update({f"plan.route.{route}": share for route, share in shares.items()})
    figures.update({
        "native.gbps": m.native_bytes / native_seconds / 1e9 if native_seconds else 0.0,
        "host.memcpy_gbps": host["memcpy_gbps"],
        "external.write_amp": (
            (run_bytes + m.input_bytes) / m.input_bytes if m.input_bytes else 0.0
        ),
        "service.queue_wait_ms": _median(m.timings["queue"]) * 1e3,
        "service.execute_ms": _median(m.timings["execute"]) * 1e3,
        "service.overhead_ms": _median(m.timings["overhead"]) * 1e3,
        "service.batch_fill": (
            stats["batched_requests"] / stats["completed"]
            if stats.get("completed") else 0.0
        ),
        "service.mean_batch_size": (
            stats["batched_requests"] / stats["batches"] if stats.get("batches") else 0.0
        ),
        "service.plan_cache_hit_ratio": (
            stats["plan_cache_hits"] / planned if planned else 0.0
        ),
        "resilience.retries": plain.retries + m.retries,
        "resilience.downgrades": plain.downgrades + m.downgrades,
        "resilience.error_rate": (plain.failed + m.failed) / max(attempted, 1),
        "trace.overhead": m.op_seconds / plain.op_seconds - 1.0 if plain.op_seconds else 0.0,
        "trace.absent_targets": len(tracer.absent),
    })
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    pin_environment()

    import hostinfo

    native = hostinfo.ensure_native(WORK / "native")
    if not native["available"]:
        print("perfbench: WARNING: the native tier is unavailable "
              f"({native['reason']}); in-memory sorts run the NumPy tier",
              file=sys.stderr)
    host = hostinfo.describe(ROOT, native)
    print("perfbench: host " + json.dumps(host), file=sys.stderr)

    import workloads

    workload = workloads.WORKLOADS[args.workload](str(WORK))
    warm = workload.warm_inputs()
    setup = [] if args.trace else measure_setup(args.workload, warm)
    workload.prepare(args.seed)
    reset_peak_rss()
    phases = workload.measure(args.seconds, traced=bool(args.trace))
    peak_mb = peak_rss_mb()
    if not args.trace:
        setup += measure_setup(args.workload, warm)

    measured = [phases.plain] + ([phases.traced] if phases.traced else [])
    attempted = sum(m.attempted for m in measured)
    failed = sum(m.failed for m in measured)
    absolute = {}
    if args.trace:
        values, names = per_layer(phases, host), units("per_layer")
        phases.tracer.write(str(WORK / f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        values, names = end_to_end(phases.plain, setup, peak_mb), units("end_to_end")
        absolute = {
            name: {"value": values[name], "unit": unit}
            for name, unit in ABSOLUTE_UNITS.items()
        }
        print("perfbench: measured " + json.dumps(absolute), file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "setup_samples_s": setup,
        "operations": [len(m.latencies) for m in measured],
        "latency_ms_per_pass": [
            [[float(q) * 1e3 for q in pass_] for pass_ in m.percentiles] for m in measured
        ],
        "routes": [dict(m.routes) for m in measured],
        "absent_targets": phases.tracer.absent if phases.tracer else [],
        "absolute": absolute,
        "metrics": metrics,
    }
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, indent=1))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
