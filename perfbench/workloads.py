"""The benchmark's three workloads, driven through the public API only.

``bulk`` and ``outofcore`` are one sequential caller each:
the next operation starts when the previous one returns, and a run is
a whole number of passes over a fixed, seeded list of cases, so every
case is measured equally often.  ``service`` is two closed-loop
clients sharing one default ``repro.SortService``.

Every case carries its same-run NumPy reference (:mod:`oracle`).  The
reference output (or its digest, for the large ``bulk`` inputs) is
what the program's output must match byte for byte; the reference is
also timed right next to the program, on the same input, so that
``vs_numpy`` compares two timings taken under the same host load.

The host these numbers come from is shared.  Its speed wanders by a
third from second to second, with rare short stretches that are much
faster.  So every figure is a median over many samples spread across
the run: over the passes of a sequential workload (the cases are few
and short enough that a run makes a dozen passes or more) and over
the service's 1-s rounds.  A fastest-sample figure repeats worse,
because it depends on whether a run happened to catch a fast stretch.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import inputs
import oracle
import repro
from tracing import Tracer

BULK_N = 1 << 21
OOC_N = 1 << 20  # run count, and so most of the cost, is set by the budget share
SERVICE_CLIENTS = 2
SERVICE_BURSTS = 16
SERVICE_SMALL = 15
SERVICE_PAIRS = 5
SERVICE_SMALL_EXPONENTS = (9, 13)
SERVICE_LARGE = 1 << 18
SERVICE_ROUND_SECONDS = 1.0
WARM_N = 1 << 16
WARM_FILE_N = 1 << 14

PAIR32 = np.dtype([("key", np.uint32), ("value", np.uint32)])


@dataclass
class Case:
    """One operation: a call into the program, its check and reference."""

    label: str
    records: int
    call: object  # () -> program output
    check: object  # output -> True when byte-identical to the reference
    reference: object  # () -> the NumPy reference for the same input
    nbytes: int = 0
    settle: object = None  # () -> None, run after each operation, untimed


@dataclass
class Measurement:
    """Everything one measured phase observed."""

    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    throughput: float = 0.0  # records per second
    vs_numpy: float = 0.0
    p50: float = 0.0  # operation latency percentiles, seconds
    p99: float = 0.0
    op_seconds: float = 0.0  # mean seconds per operation
    routes: Counter = field(default_factory=Counter)
    native_bytes: int = 0
    retries: int = 0
    downgrades: int = 0
    input_bytes: int = 0
    timings: dict = field(
        default_factory=lambda: {"queue": [], "execute": [], "overhead": []}
    )
    stats: dict = field(default_factory=dict)
    percentiles: list = field(default_factory=list)  # [p50, p99] per pass or round

    @property
    def done(self) -> int:
        return len(self.latencies)


@dataclass
class Phases:
    """The untraced phase, and for a traced run the traced phase."""

    plain: Measurement
    traced: Measurement | None = None
    tracer: Tracer | None = None


def same_bytes(got, want: np.ndarray) -> bool:
    if got is None:
        return False
    got = np.ascontiguousarray(got)
    want = np.ascontiguousarray(want)
    return (
        got.dtype == want.dtype
        and got.shape == want.shape
        and np.array_equal(got.reshape(-1).view(np.uint8), want.reshape(-1).view(np.uint8))
    )


def route(out) -> str:
    """Which engine executed an operation, from what it returned."""
    meta = getattr(out, "meta", None)
    if meta is None:
        return "external" if hasattr(out, "n_runs") else "other"
    engine = meta.get("engine")
    return {"service-batch": "batch"}.get(engine, engine) or "other"


def observe(m: Measurement, out) -> None:
    """Fold one successful output's routing and resilience facts into ``m``."""
    engine = route(out)
    m.routes[engine] += 1
    meta = getattr(out, "meta", None) or {}
    if engine == "native" and meta.get("plan") is not None:
        m.native_bytes += meta["plan"].bytes_moved
    resilience = meta.get("resilience")
    if resilience:
        m.retries += resilience.get("retries", 0)
        m.downgrades += len(resilience.get("downgrades", ()))


def _report(label: str, exc: BaseException | None = None) -> None:
    if exc is None:
        print(f"perfbench: {label}: output differs from the NumPy reference",
              file=sys.stderr)
        return
    print(f"perfbench: {label} failed: {exc!r}", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def run_sequential(cases: list[Case], seconds: float, tracer=None) -> Measurement:
    """Whole passes over ``cases`` until ``seconds`` have elapsed.

    Each operation is followed by its NumPy reference on the same
    input.  Throughput and ``vs_numpy`` come from each case's median
    time over the passes, summed over the cases.  The latency
    percentiles are taken over all operations of one pass, and the run
    reports the median of each over its passes.
    """
    m = Measurement()
    program = [[] for _ in cases]
    reference = [[] for _ in cases]
    percentiles = []
    start = time.perf_counter()
    op = 0
    while m.attempted == 0 or time.perf_counter() - start < seconds:
        latencies = []
        for i, case in enumerate(cases):
            if tracer is not None:
                tracer.set_op(op)
            op += 1
            m.attempted += 1
            try:
                try:
                    dt, out = _timed(case.call)
                except Exception as exc:  # the program failed: count it, go on
                    m.failed += 1
                    _report(case.label, exc)
                    continue
                if not case.check(out):
                    m.failed += 1
                    _report(case.label)
                    continue
                latencies.append(dt)
                m.input_bytes += case.nbytes
                observe(m, out)
                program[i].append(dt)
                reference[i].append(_timed(case.reference)[0])
            finally:
                if case.settle is not None:
                    case.settle()
        if latencies:
            m.latencies.extend(latencies)
            percentiles.append(np.percentile(latencies, [50, 99]))
    measured = [i for i, times in enumerate(program) if times]
    typical = [np.median(program[i]) for i in measured]
    if measured:
        m.throughput = sum(cases[i].records for i in measured) / sum(typical)
        m.vs_numpy = sum(np.median(reference[i]) for i in measured) / sum(typical)
        m.p50, m.p99 = np.median(percentiles, axis=0)
        m.op_seconds = sum(typical) / len(typical)
        m.percentiles = percentiles
    return m


# ----------------------------------------------------------------------
# In-memory cases (bulk)
# ----------------------------------------------------------------------
def array_case(label: str, keys, values=None, digest_only: bool = False) -> Case:
    """``repro.sort``/``sort_pairs`` on one array input."""
    if values is None:
        def call():
            return repro.sort(keys)

        def reference():
            return (oracle.sort_keys(keys),)

        def outputs(out):
            return (out.keys,)
    else:
        def call():
            return repro.sort_pairs(keys, values)

        def reference():
            return oracle.sort_pairs(keys, values)

        def outputs(out):
            return out.keys, out.values

    want = reference()
    if digest_only:
        expected = oracle.digest(*want)
        del want

        def check(out):
            if any(array is None for array in outputs(out)):
                return False
            return oracle.digest(*outputs(out)) == expected
    else:
        def check(out):
            return all(same_bytes(g, w) for g, w in zip(outputs(out), want))

    return Case(label, keys.size, call, check, reference)


def _bulk_inputs(seed: int, n: int):
    """The six bulk inputs as ``(label, keys, values-or-None)``."""
    s = inputs.stream
    yield "u32-uniform", inputs.uniform_u32(s(seed, 1), n), None
    yield "u32-zipf", inputs.zipf_u32(s(seed, 2), n), None
    yield "u64-and4", inputs.and4_u64(s(seed, 3), n), None
    yield "f64-edges", inputs.float_with_edges(s(seed, 4), n), None
    yield "pairs-u32", inputs.uniform_u32(s(seed, 5), n), inputs.row_ids(n, np.uint32)
    yield "pairs-i64", inputs.uniform_i64(s(seed, 6), n), inputs.row_ids(n, np.uint64)


class Sequential:
    """Shared loop for the single-caller workloads.

    ``warm_inputs`` builds the warm-up calls' inputs (and files) once,
    in the parent, so that the set-up probes (``setup_s``) time only
    what a fresh process of the program pays: imports, the native
    probe and the warm-up calls themselves.
    """

    def __init__(self, work: str) -> None:
        self.work = work
        self.cases: list[Case] = []
        self.warm: list = []

    def warm_up(self, warm: list) -> None:
        """First calls per layout, so first-call costs are paid."""
        for keys, values in warm:
            if values is None:
                repro.sort(keys)
            else:
                repro.sort_pairs(keys, values)

    def measure(self, seconds: float, traced: bool) -> Phases:
        self.warm_up(self.warm)
        if not traced:
            return Phases(run_sequential(self.cases, seconds))
        plain = run_sequential(self.cases, seconds / 2)
        tracer = Tracer().install()
        try:
            traced_m = run_sequential(self.cases, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        return Phases(plain, traced_m, tracer)


class Bulk(Sequential):
    def prepare(self, seed: int) -> None:
        self.cases = [
            array_case(label, keys, values, digest_only=True)
            for label, keys, values in _bulk_inputs(seed, BULK_N)
        ]

    def warm_inputs(self) -> list:
        """One small input per bulk layout."""
        self.warm = [(keys, values) for _, keys, values in _bulk_inputs(0, WARM_N)]
        return self.warm


# ----------------------------------------------------------------------
# Out-of-core files
# ----------------------------------------------------------------------
def ooc_files(seed: int, n: int):
    """``(label, records, sort kwargs)`` for the three flat files."""
    s = inputs.stream
    yield "u32-uniform", inputs.uniform_u32(s(seed, 20), n), {"dtype": "uint32"}
    pairs = np.empty(n, dtype=PAIR32)
    rng = s(seed, 21)
    pairs["key"] = inputs.uniform_u32(rng, n)
    pairs["value"] = inputs.uniform_u32(rng, n)
    yield "pairs-u32", pairs, {"dtype": "uint32", "value_dtype": "uint32"}
    yield "u64-timestamps", inputs.timestamps_u64(s(seed, 22), n), {"dtype": "uint64"}


def sort_file(src: str, out: str, nbytes: int, kwargs: dict):
    return repro.sort(src, output=out, memory_budget=max(1, nbytes // 4), **kwargs)


def _remove(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


class OutOfCore(Sequential):
    """``repro.sort(path, output=, memory_budget=file/4)`` on flat files.

    The reference for a file is what a NumPy user would do with it:
    read it into memory, sort, and write the output file.
    """

    def __init__(self, work: str) -> None:
        super().__init__(os.path.join(work, "ooc"))
        os.makedirs(self.work, exist_ok=True)

    def _paths(self, tag: str, label: str):
        return (
            os.path.join(self.work, f"{tag}-{label}.{ext}")
            for ext in ("bin", "sorted", "ref")
        )

    def file_case(self, label: str, records: np.ndarray, kwargs: dict, tag: str) -> Case:
        src, out, ref_path = self._paths(tag, label)
        records.tofile(src)
        _remove(out)

        def call():
            return sort_file(src, out, records.nbytes, kwargs)

        def reference():
            data = np.fromfile(src, dtype=records.dtype)
            if data.dtype.names:
                ordered = oracle.sort_records(data)
            else:
                ordered = oracle.sort_keys(data)
            ordered.tofile(ref_path)
            return ordered

        want = reference().tobytes()

        def check(report):
            try:
                with open(out, "rb") as fh:
                    return fh.read() == want
            except FileNotFoundError:
                return False

        def settle():
            # Flush the reference's output now, so its write-back does
            # not land inside the next operation's fsyncs.  Remove the
            # program's output, whose unwritten pages go with it, so the
            # next check reads only bytes that its own call wrote.
            fd = os.open(ref_path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            _remove(out)

        return Case(
            label, records.size, call, check, reference, records.nbytes, settle
        )

    def prepare(self, seed: int) -> None:
        for name in os.listdir(self.work):  # earlier runs' files
            if name.startswith("seed"):
                _remove(os.path.join(self.work, name))
        self.cases = [
            self.file_case(label, records, kwargs, f"seed{seed}")
            for label, records, kwargs in ooc_files(seed, OOC_N)
        ]

    def warm_inputs(self) -> list:
        self.warm = []
        for label, records, kwargs in ooc_files(0, WARM_FILE_N):
            src, out, _ = self._paths("warm", label)
            records.tofile(src)
            self.warm.append((src, out, records.nbytes, kwargs))
        return self.warm

    def warm_up(self, warm: list) -> None:
        for src, out, nbytes, kwargs in warm:
            sort_file(src, out, nbytes, kwargs)


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------
@dataclass
class Request:
    keys: np.ndarray
    values: np.ndarray | None
    ref_keys: np.ndarray
    ref_values: np.ndarray | None


@dataclass
class Burst:
    requests: list
    records: int

    def reference(self) -> None:
        for r in self.requests:
            if r.values is None:
                oracle.sort_keys(r.keys)
            else:
                oracle.sort_pairs(r.keys, r.values)


def make_bursts(seed: int, count: int, large: int = SERVICE_LARGE) -> list[Burst]:
    """``count`` bursts of 15 small requests (a third pairs) and one large."""
    rng = inputs.stream(seed, 30)
    sizes = inputs.log_uniform_sizes(
        rng, count * SERVICE_SMALL, *SERVICE_SMALL_EXPONENTS
    )
    bursts = []
    for b in range(count):
        payloads = []
        for j in range(SERVICE_SMALL):
            n = int(sizes[b * SERVICE_SMALL + j])
            keys = inputs.uniform_u32(inputs.stream(seed, 31, b, j), n)
            values = inputs.row_ids(n, np.uint32) if j < SERVICE_PAIRS else None
            payloads.append((keys, values))
        payloads.append((inputs.uniform_u32(inputs.stream(seed, 32, b), large), None))
        requests = []
        for i in rng.permutation(len(payloads)):
            keys, values = payloads[i]
            if values is None:
                requests.append(Request(keys, None, oracle.sort_keys(keys), None))
            else:
                requests.append(Request(keys, values, *oracle.sort_pairs(keys, values)))
        bursts.append(Burst(requests, sum(r.keys.size for r in requests)))
    return bursts


async def _submit(svc, request: Request):
    t0 = time.perf_counter()
    try:
        if request.values is None:
            out = await svc.submit(request.keys)
        else:
            out = await svc.submit(request.keys, request.values)
    except Exception as exc:  # refused or failed request: counted by caller
        return None, time.perf_counter() - t0, exc
    return out, time.perf_counter() - t0, None


def _request_ok(request: Request, out) -> bool:
    if not same_bytes(out.keys, request.ref_keys):
        return False
    if request.values is None:
        return out.values is None
    return same_bytes(out.values, request.ref_values)


async def _client(svc, bursts, first: int, deadline: float, m: Measurement,
                  served: Counter) -> None:
    """A closed-loop client: submit a burst, await all of it, repeat."""
    b = first
    while True:
        index = b % len(bursts)
        b += SERVICE_CLIENTS
        burst = bursts[index]
        outcomes = await asyncio.gather(*(_submit(svc, r) for r in burst.requests))
        for request, (out, dt, exc) in zip(burst.requests, outcomes):
            m.attempted += 1
            if exc is not None or not _request_ok(request, out):
                m.failed += 1
                _report("service request", exc)
                continue
            m.latencies.append(dt)
            timing = out.meta.get("service", {})
            queue = timing.get("queue_wait", 0.0)
            execute = timing.get("execute_seconds", 0.0)
            m.timings["queue"].append(queue)
            m.timings["execute"].append(execute)
            m.timings["overhead"].append(
                dt - queue - timing.get("plan_seconds", 0.0) - execute
            )
            observe(m, out)
        served[index] += 1
        if time.perf_counter() >= deadline:
            return


_STAT_FIELDS = (
    "completed", "batches", "batched_requests", "plan_cache_hits",
    "plan_cache_misses", "retries", "fallbacks",
)


def _stats(svc) -> dict:
    stats = getattr(svc, "stats", None)
    return {name: getattr(stats, name, 0) for name in _STAT_FIELDS}


async def serve_phase(svc, bursts: list[Burst], seconds: float) -> Measurement:
    """Rounds of two-client traffic, each measured on its own.

    Between rounds the clients pause while every burst the round served
    is timed once through the NumPy reference.  Each round gives a
    throughput, a ``vs_numpy`` (the served bursts' median reference
    times over the round's wall time) and latency percentiles over all
    its requests; the run reports the median of each over its rounds.
    """
    m = Measurement()
    before = _stats(svc)
    rounds, percentiles = [], []
    ref_times = [[] for _ in bursts]
    for _ in range(max(1, round(seconds / SERVICE_ROUND_SECONDS))):
        served: Counter = Counter()
        done = m.done
        start = time.perf_counter()
        deadline = start + min(seconds, SERVICE_ROUND_SECONDS)
        await asyncio.gather(*(
            _client(svc, bursts, c, deadline, m, served)
            for c in range(SERVICE_CLIENTS)
        ))
        wall = time.perf_counter() - start
        for i in served:
            ref_times[i].append(_timed(bursts[i].reference)[0])
        rounds.append((wall, served))
        if m.done > done:
            percentiles.append(np.percentile(m.latencies[done:], [50, 99]))
    ref = [np.median(times) if times else 0.0 for times in ref_times]
    m.throughput = np.median([
        sum(bursts[i].records * count for i, count in served.items()) / wall
        for wall, served in rounds
    ])
    m.vs_numpy = np.median([
        sum(ref[i] * count for i, count in served.items()) / wall
        for wall, served in rounds
    ])
    if percentiles:
        m.p50, m.p99 = np.median(percentiles, axis=0)
        m.percentiles = percentiles
    m.op_seconds = sum(wall for wall, _ in rounds) / max(m.done, 1)
    after = _stats(svc)
    m.stats = {name: after[name] - before[name] for name in _STAT_FIELDS}
    # The service's own counters cover batched requests too.
    m.retries = m.stats["retries"]
    m.downgrades = m.stats["fallbacks"]
    return m


async def start_service():
    svc = repro.SortService()
    await svc.start()
    return svc


class Service:
    def __init__(self, work: str) -> None:
        self.work = work
        self.bursts: list[Burst] = []

    def prepare(self, seed: int) -> None:
        self.bursts = make_bursts(seed, SERVICE_BURSTS)

    def warm_inputs(self) -> list:
        """``(keys, values-or-None)`` of one small burst per client."""
        bursts = make_bursts(0, SERVICE_CLIENTS, large=WARM_N)
        return [(r.keys, r.values) for burst in bursts for r in burst.requests]

    def measure(self, seconds: float, traced: bool) -> Phases:
        return asyncio.run(self._measure(seconds, traced))

    async def _measure(self, seconds: float, traced: bool) -> Phases:
        svc = await start_service()
        try:
            await serve_phase(svc, self.bursts, 0.0)  # warm-up: one burst each
            if not traced:
                return Phases(await serve_phase(svc, self.bursts, seconds))
            plain = await serve_phase(svc, self.bursts, seconds / 2)
            tracer = Tracer().install()
            try:
                traced_m = await serve_phase(svc, self.bursts, seconds / 2)
            finally:
                tracer.uninstall()
            return Phases(plain, traced_m, tracer)
        finally:
            await svc.close()


# ----------------------------------------------------------------------
# Fresh-process set-up (what ``setup_s`` times)
# ----------------------------------------------------------------------
def setup(name: str, work: str, warm: list, ready) -> None:
    """Everything a fresh process does before its first timed operation.

    Imports have already happened (this module imports ``repro``); here
    the native tier is probed and loaded, the warm-up calls run on the
    inputs ``warm_inputs`` built, and for ``service`` the service
    starts.  ``ready()`` marks the end.
    """
    repro.native_status(warn=False)
    if name == "service":
        asyncio.run(_service_setup(warm, ready))
        return
    WORKLOADS[name](work).warm_up(warm)
    ready()


async def _service_setup(warm: list, ready) -> None:
    svc = await start_service()
    try:
        await asyncio.gather(*(svc.submit(keys, values) for keys, values in warm))
        ready()
    finally:
        await svc.close()


WORKLOADS = {
    "bulk": Bulk,
    "outofcore": OutOfCore,
    "service": Service,
}
