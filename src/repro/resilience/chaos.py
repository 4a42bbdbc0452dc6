"""The ``repro chaos`` scenario runner: one fault at a time, proven out.

Chaos engineering in miniature, and deterministic: for every named
fault site (:data:`~repro.resilience.faults.SITES`) and every fault
kind that makes sense there, run a small but complete sort with exactly
that one fault injected, and prove the **containment contract**:

    the caller gets byte-identical output (possibly after retries,
    engine degradation, or resume-from-manifest), or a *typed* error
    (:class:`~repro.errors.ReproError`, or the ``OSError`` an injected
    I/O fault surfaces as) — never silently corrupted output, and
    never an unbounded hang.

External-sorter sites run with retries disabled so the fault actually
escapes, then demonstrate the crash-recovery story:
:meth:`~repro.external.ExternalSorter.resume` must finish the sort
byte-identically from the spool the failed attempt left behind.  Each
runs twice, once per run-sort rung (:data:`EXTERNAL_RUNGS`), and
first checks that the plan spills on that rung.
Service and engine sites run through :class:`~repro.service.
SortService` with the default retry policy and degradation ladder, so
single faults are *absorbed* (``recovered``/``degraded`` outcomes) and
hangs are cut short by the watchdog.

Every scenario is deterministic — seeded data, hit-count faults — so a
failing line replays exactly with ``repro chaos --site <site>``.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile

import numpy as np

from repro.core.pairs import make_records
from repro.errors import ReproError
from repro.resilience.faults import SITES, FaultPlan, FaultSpec, inject

__all__ = ["add_chaos_args", "default_schedule", "execute", "run_chaos"]

#: Sites whose operation is a payload write — the only places a
#: ``partial`` (torn-write) fault is physically meaningful.
WRITE_SITES = frozenset(
    ("external.run_write", "external.manifest_write", "external.merge_write")
)

#: Errors the containment contract accepts: the repository's typed
#: hierarchy, plus the OSError an injected ENOSPC/EIO surfaces as.
TYPED_ERRORS = (ReproError, OSError)


def default_schedule(sites=None) -> list[tuple[str, str]]:
    """The (site, kind) matrix one chaos sweep covers.

    Every site gets ``error``; external sites add ``enospc``; write
    sites add ``partial``; the thread-pool dispatch site adds ``hang``
    (the watchdog scenario).  ``slow`` is omitted — it only adds
    latency, which every scenario already tolerates.
    """
    wanted = None if not sites else set(sites)
    schedule: list[tuple[str, str]] = []
    for site in sorted(SITES):
        if wanted is not None and site not in wanted:
            continue
        kinds = ["error"]
        if site.startswith("external."):
            kinds.append("enospc")
        if site in WRITE_SITES:
            kinds.append("partial")
        if site == "service.execute":
            kinds.append("hang")
        schedule.extend((site, kind) for kind in kinds)
    return schedule


def _keys(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(
        np.uint32
    )


def _expected_bytes(records: np.ndarray) -> bytes:
    """The stable bits-space sort of keys, or of records by key."""
    from repro.core.keys import to_sortable_bits

    keys = records["key"] if records.dtype.names else records
    order = np.argsort(to_sortable_bits(keys), kind="stable")
    return records[order].tobytes()


# ----------------------------------------------------------------------
# External-sorter scenarios (fault → typed error → resume → identical)
# ----------------------------------------------------------------------
#: The run-sort rungs every external site is exercised on: uint32 keys
#: spill on the library rung, int64-key pairs on the compiled tier (the
#: library rung too where it is not built).
EXTERNAL_RUNGS = ("library", "native")


def _external_input(rung: str, n: int, seed: int):
    """``(layout, records)`` whose run sorts land on ``rung``."""
    from repro.external import FileLayout

    keys = _keys(n, seed)
    if rung == "library":
        return FileLayout("uint32"), keys
    layout = FileLayout("int64", "uint32")
    signed = (keys.astype(np.int64) - (1 << 31)) << 16  # both signs
    return layout, layout.to_records(signed, np.arange(n, dtype=np.uint32))


def _external_scenario(
    site: str, kind: str, n: int, seed: int, rung: str = "library"
) -> dict:
    """One fault on an external-sorter site, then resume from its spool.

    The scenario first checks that the plan spills on ``rung`` (the
    ``spill-runs`` step's engine), so a routing change cannot quietly
    move the sweep off the rung it is meant to cover.
    """
    from repro.external import ExternalSorter, write_records
    from repro.native.build import native_status

    layout, records = _external_input(rung, n, seed)
    workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        inp = os.path.join(workdir, "in.bin")
        out = os.path.join(workdir, "out.bin")
        spool = os.path.join(workdir, "spool")
        write_records(inp, records)
        # Budget sized for ~4 runs, so production, manifest, and merge
        # sites all actually fire; retries off so the fault escapes.
        budget = max(4096, (n * layout.record_bytes) // 4)
        sorter = ExternalSorter(
            memory_budget=budget, spool_dir=spool, retry_policy=None
        )
        plan = sorter.sort_plan(inp, layout)
        engine = plan.step("spill-runs").params["engine"]
        want = rung
        if rung == "native" and not native_status(warn=False).available:
            want = "library"
        if engine != want:
            return _result(site, kind, "wrong-rung", ok=False,
                           detail=f"runs planned on {engine!r}, "
                                  f"expected {want!r}")
        expected = _expected_bytes(records)
        with inject(FaultPlan.single(site, kind)) as fault_plan:
            try:
                sorter.sort_file(inp, out, layout)
                err = None
            except TYPED_ERRORS as exc:
                err = exc
        if not fault_plan.fire_count():
            return _result(site, kind, "not-reached", ok=False,
                           detail=f"{engine} runs: fault site never hit")
        if err is None:
            detail = f"{engine} runs: sort completed despite fault"
            ok = open(out, "rb").read() == expected
            return _result(site, kind, "completed", ok=ok, detail=detail)
        if os.path.exists(out) and open(out, "rb").read() != expected:
            return _result(site, kind, "corrupt-output", ok=False,
                           detail="partial/incorrect bytes under output name")
        # The recovery story: resume from the spool the failure left.
        try:
            report = sorter.resume(inp, out, layout)
        except TYPED_ERRORS as exc:
            return _result(
                site, kind, "typed-error", ok=True,
                detail=f"{engine} runs: {type(err).__name__}; resume "
                       f"also typed: {type(exc).__name__}: {exc}",
            )
        if open(out, "rb").read() != expected:
            return _result(site, kind, "corrupt-output", ok=False,
                           detail="resume produced non-identical bytes")
        return _result(
            site, kind, "recovered", ok=True,
            detail=f"{engine} runs: {type(err).__name__} contained; "
                   f"resume reused {report.reused_runs}/{report.n_runs} "
                   f"runs",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# Service / engine scenarios (fault absorbed or typed, never a hang)
# ----------------------------------------------------------------------
#: The rung the ``engine.hetero`` scenario's chunks sort on: its uint32
#: pairs plan on the library rung, as in production.
HETERO_CHUNK_RUNG = "library"


def _service_scenario(site: str, kind: str, n: int, seed: int) -> dict:
    """Contain one fault on the service path or a simulated rung.

    Requests plan on the simulated hybrid engine (``native="never"``),
    so the ``engine.hybrid`` rung heads the ladder on every host
    whatever the request size; ``engine.fallback`` requests plan the
    §6.1 LSD baseline (``Planner(adaptive=True)``), and
    ``engine.oracle`` reaches the oracle by failing only the planned
    rung.  The host rungs have their own scenario.  The
    ``engine.hetero`` request plans as in production, and must sort
    its chunks on :data:`HETERO_CHUNK_RUNG`.
    """
    from repro.plan import Planner
    from repro.service import SortService

    keys = _keys(n, seed)
    values = None
    expected = _expected_bytes(keys)
    submit_kwargs: dict = {}
    native = "never"
    adaptive = site == "engine.fallback"  # small requests plan the LSD baseline
    if site == "engine.hetero":
        # Hetero only runs where chunks hold less than the whole sort:
        # uint32 pairs (held 3x on the library rung) under half their bytes.
        values = np.arange(n, dtype=np.uint32)
        expected = _expected_bytes(make_records(keys, values))
        submit_kwargs["memory_budget"] = max(4096, keys.nbytes)
        native = "auto"

    async def run() -> dict:
        workdir = None
        async with SortService(
            micro_batching=False,
            watchdog_timeout=1.0,
            planner=Planner(adaptive=adaptive, native=native),
        ) as svc:
            data = keys
            if site == "engine.external":
                nonlocal_dir = tempfile.mkdtemp(prefix="repro-chaos-")
                from repro.external import write_records

                inp = os.path.join(nonlocal_dir, "in.bin")
                write_records(inp, keys)
                submit_kwargs.update(
                    output=os.path.join(nonlocal_dir, "out.bin"),
                    dtype="uint32",
                    memory_budget=max(4096, keys.nbytes // 4),
                )
                data = inp
                workdir = nonlocal_dir
            # The oracle is only reachable once the planned rung is
            # failing; pin that failure persistently so the target site
            # actually executes.
            specs = []
            if site == "engine.oracle":
                specs.append(FaultSpec(site="engine.hybrid", times=-1))
            specs.append(FaultSpec(site=site, kind=kind, delay=30.0))
            try:
                with inject(FaultPlan(specs)) as plan:
                    try:
                        result = await svc.submit(
                            data, values, **submit_kwargs
                        )
                        err = None
                    except TYPED_ERRORS as exc:
                        err = exc
                if not plan.fire_count(site):
                    return _result(site, kind, "not-reached", ok=False,
                                   detail="fault site never hit")
                if err is not None:
                    return _result(
                        site, kind, "typed-error", ok=True,
                        detail=f"{type(err).__name__}: {err}",
                    )
                if site == "engine.hetero":
                    engine = result.meta["plan"].step(
                        "chunked-pipeline"
                    ).params["engine"]
                    if engine != HETERO_CHUNK_RUNG:
                        return _result(
                            site, kind, "wrong-rung", ok=False,
                            detail=f"chunks planned on {engine!r}, "
                                   f"expected {HETERO_CHUNK_RUNG!r}",
                        )
                if site == "engine.external":
                    got = open(submit_kwargs["output"], "rb").read()
                    identical = got == expected
                    resilience = {}
                else:
                    got = result.keys if values is None else make_records(
                        result.keys, result.values
                    )
                    identical = got.tobytes() == expected
                    resilience = result.meta.get("resilience") or {}
                if not identical:
                    return _result(site, kind, "corrupt-output", ok=False,
                                   detail="result differs from oracle")
                if resilience.get("downgrades"):
                    return _result(
                        site, kind, "degraded", ok=True,
                        detail=f"executed on "
                               f"{resilience['executed']!r} after "
                               f"{len(resilience['downgrades'])} "
                               f"downgrade(s)",
                    )
                if resilience.get("retries"):
                    return _result(
                        site, kind, "recovered", ok=True,
                        detail=f"{resilience['retries']} retry(ies), "
                               f"byte-identical",
                    )
                return _result(site, kind, "completed", ok=True,
                               detail="absorbed, byte-identical")
            finally:
                if workdir is not None:
                    shutil.rmtree(workdir, ignore_errors=True)

    return asyncio.run(run())


def _rung_scenario(site: str, kind: str, n: int, seed: int) -> dict:
    """Contain one fault on a host rung (native, library).

    ``engine.native`` plans with ``Planner(native="always")`` and
    ``engine.library`` with the default planner, so the faulted rung
    heads the ladder on every host — the fault trips at the rung
    boundary (before any engine code), making the scenario
    deterministic whether or not the extension compiled.  The contract:
    the fault is retried or degrades to the oracle, and the bytes are
    identical to the oracle's.
    """
    from repro.plan import InputDescriptor, Planner
    from repro.resilience.degrade import resilient_execute
    from repro.resilience.policy import RetryPolicy

    keys = _keys(n, seed)
    expected = _expected_bytes(keys)
    descriptor = InputDescriptor.for_array(keys)
    native = "always" if site == "engine.native" else "auto"
    plan = Planner(native=native).plan(descriptor)
    report: dict = {}
    with inject(FaultPlan.single(site, kind)) as fault_plan:
        try:
            result = resilient_execute(
                plan,
                retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01),
                report=report,
                keys=keys,
            )
            err = None
        except TYPED_ERRORS as exc:
            err = exc
    if not fault_plan.fire_count():
        return _result(site, kind, "not-reached", ok=False,
                       detail="fault site never hit")
    if err is not None:
        return _result(site, kind, "typed-error", ok=True,
                       detail=f"{type(err).__name__}: {err}")
    if result.keys.tobytes() != expected:
        return _result(site, kind, "corrupt-output", ok=False,
                       detail="result differs from oracle")
    if report.get("downgrades"):
        return _result(
            site, kind, "degraded", ok=True,
            detail=f"degraded after "
                   f"{len(report['downgrades'])} rung failure(s), "
                   f"byte-identical",
        )
    if report.get("retries"):
        return _result(
            site, kind, "recovered", ok=True,
            detail=f"{report['retries']} retry(ies), byte-identical",
        )
    return _result(site, kind, "completed", ok=True,
                   detail="absorbed, byte-identical")


def _result(site: str, kind: str, outcome: str, *, ok: bool,
            detail: str) -> dict:
    return {
        "site": site, "kind": kind, "outcome": outcome, "ok": ok,
        "detail": detail,
    }


def run_chaos(
    sites=None, *, n: int = 20_000, seed: int = 0
) -> list[dict]:
    """Run the chaos sweep; one result dict per (site, kind) scenario."""
    results = []
    for site, kind in default_schedule(sites):
        if site.startswith("external."):
            results.extend(
                _external_scenario(site, kind, n, seed, rung)
                for rung in EXTERNAL_RUNGS
            )
        elif site in ("engine.native", "engine.library"):
            results.append(_rung_scenario(site, kind, n, seed))
        else:
            results.append(_service_scenario(site, kind, n, seed))
    return results


# ----------------------------------------------------------------------
# CLI verb
# ----------------------------------------------------------------------
def add_chaos_args(parser) -> None:
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_sites",
        help="print the fault-site table and exit",
    )
    parser.add_argument(
        "--site",
        action="append",
        default=None,
        choices=sorted(SITES),
        help="limit the sweep to this site (repeatable)",
    )
    parser.add_argument(
        "--n",
        type=int,
        default=20_000,
        help="records per scenario (default 20000)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller scenarios (n=5000) for CI smoke runs",
    )


def execute(args) -> int:
    """Entry point for ``repro chaos``; returns the exit code."""
    if args.list_sites:
        width = max(len(site) for site in SITES)
        for site in sorted(SITES):
            print(f"{site:<{width}}  {SITES[site]}")
        return 0
    n = 5_000 if args.quick else args.n
    results = run_chaos(args.site, n=n, seed=args.seed)
    failed = 0
    for r in results:
        status = "ok " if r["ok"] else "FAIL"
        print(
            f"[{status}] {r['site']:<26} {r['kind']:<8} "
            f"{r['outcome']:<14} {r['detail']}"
        )
        failed += 0 if r["ok"] else 1
    print(
        f"\n{len(results)} scenario(s), {len(results) - failed} contained, "
        f"{failed} failed"
    )
    return 1 if failed else 0
