"""The asyncio sort service: queue → admission → batch → plan → execute.

:class:`SortService` is the concurrent front door to every engine in
the repository.  Callers ``await submit(...)`` with the same
polymorphic payloads :func:`repro.sort` accepts — arrays, pair columns,
records, file paths — and receive the same result objects back,
byte-identical to a direct call.  Between submit and resolve, the
service does the multi-tenant work a blocking facade cannot:

1. **queueing** — requests land on one asyncio queue; the scheduler
   drains whatever has accumulated each cycle, which is what lets
   bursts coalesce;
2. **micro-batching** — drained requests that are small and
   layout-compatible are fused into one vectorized
   :class:`~repro.core.local_sort.LocalSortEngine` dispatch
   (:mod:`repro.service.batching`), the §4 small-problem regime;
3. **admission** — every dispatch charges what its sort holds against
   the service memory budget, by the host's one memory model
   (:mod:`repro.service.admission`): large jobs serialize,
   small jobs interleave, impossible jobs are rejected;
4. **planning** — each request's strategy comes from the PR 4
   :class:`~repro.plan.planner.Planner`, via a signature-keyed
   :class:`~repro.service.cache.PlanCache` so repeat shapes skip
   re-planning;
5. **execution** — plans run on a thread pool through the standard
   executor registry, so the event loop stays free to admit and
   batch while engines crunch.

The engines themselves are untouched: concurrency changes *when* work
happens, never *what* is produced.  Each sort runs on the one executor
thread that dispatched it; the pool's threads only run different
sorts side by side.

The service is also the resilience integration point (PR 6): each
request may carry a ``deadline`` (rejected once expired — at dispatch,
after admission, and between engine retries), engine dispatches run
under a **watchdog** (``asyncio.wait_for``; a hung worker thread
cannot be killed, so it is abandoned and counted in
``stats.timeouts``), failures retry and then degrade to the oracle
through :func:`~repro.resilience.degrade.resilient_execute`, and under
a sustained failure rate the scheduler **sheds** small batchable
requests early with :class:`~repro.errors.OverloadedError` carrying a
retry-after hint derived from admission pressure.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from repro import _file_layout, _refuse_file_kwargs
from repro.core.pairs import decompose, recompose
from repro.cost.feedback import CostFeedback
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
)
from repro.gpu.spec import GPUSpec, TITAN_X_PASCAL
from repro.plan.descriptor import InputDescriptor
from repro.plan.executors import ExecutorRegistry
from repro.plan.ir import SortPlan
from repro.plan.planner import Planner, array_resident_bytes, plan_resident_bytes
from repro.resilience import faults
from repro.resilience.degrade import DEFAULT_LADDER, resilient_execute
from repro.resilience.policy import DEFAULT_RETRY_POLICY, Deadline, RetryPolicy
from repro.service.admission import AdmissionController
from repro.service.batching import BATCHABLE_STRATEGIES, execute_batch
from repro.service.cache import PlanCache
from repro.service.request import SortRequest
from repro.service.stats import ServiceStats

__all__ = ["SortService", "DEFAULT_SERVICE_BUDGET"]

#: Default in-flight working-set budget: roomy enough that typical test
#: and bench workloads interleave, small enough that a handful of large
#: requests exercise the serialization path.
DEFAULT_SERVICE_BUDGET = 1 << 30

#: Requests at or below this many records are micro-batching candidates
#: (the §4 small-problem regime; well under every Table 3 ∂̂-ladder top).
DEFAULT_SMALL_REQUEST_RECORDS = 1 << 13


class SortService:
    """Async facade accepting concurrent sort requests.

    Parameters
    ----------
    memory_budget:
        Bound on the summed working-set bytes of everything in flight
        (the bytes each sort holds; see :mod:`repro.service.admission`).
    micro_batching:
        Coalesce compatible small requests into one vectorized engine
        dispatch.  Off, every request runs individually — the mode the
        throughput bench compares against.
    small_request_records:
        Batching eligibility threshold on a request's record count.
    batch_max_requests / batch_max_records:
        Caps on one coalesced dispatch.
    batch_window:
        Optional seconds the scheduler lingers after receiving a lone
        batchable request, giving concurrent submitters a chance to
        land in the same batch.  ``0`` (default) only coalesces what
        has already queued — deterministic, and the natural fit for
        closed-loop callers.
    planner / registry / spec:
        Injection points for the strategy decision, the strategy →
        engine mapping, and the priced device.
    executor_threads:
        Thread-pool width engine dispatches run on.
    retry_policy:
        Per-rung retry policy for engine failures (see
        :func:`~repro.resilience.degrade.resilient_execute`).  ``None``
        disables retries.
    degradation:
        Fall back from a failing in-memory plan's engine to the NumPy
        oracle (the stable sort over the §4.6 bits) instead of failing
        the request; downgrades are recorded in
        ``result.meta["resilience"]`` and counted in ``stats.fallbacks``.
    watchdog_timeout:
        Seconds one engine dispatch may run before the service stops
        waiting (``stats.timeouts``).  The worker thread itself cannot
        be interrupted — it is abandoned and its pool slot is lost
        until it returns — but the caller gets a prompt, typed
        :class:`~repro.errors.DeadlineExceededError` instead of a
        hang.  ``None`` disables the watchdog.
    shed_failure_threshold:
        Fraction of recent dispatches that must have failed before the
        scheduler sheds small batchable requests with
        :class:`~repro.errors.OverloadedError` (``stats.shed``).
    time_budget:
        Optional seconds cap per request: a plan priced over it is
        rejected at admission with
        :class:`~repro.errors.AdmissionError`
        (``stats.rejected_time_budget``).  The price is the service's
        measured one (below) once the plan's strategy, layout and size
        class have run here, and the paper's §6 Titan X seconds
        before, which admit almost anything on a host.

    The service owns a :class:`~repro.cost.feedback.CostFeedback`
    (``self.feedback``): every completed unbatched request feeds its
    measured execute time back as seconds per byte moved, under its
    plan's strategy, key and value dtypes and size class
    (``n.bit_length()``).  From then on every plan with that rate key
    is priced at its bytes times the measured rate, for the time
    budget, and an unbatched result's ``meta["plan"]`` carries that
    price with ``cost_source="measured-feedback"``.

    Use as an async context manager::

        async with SortService() as svc:
            result = await svc.submit(keys)
    """

    def __init__(
        self,
        *,
        memory_budget: int = DEFAULT_SERVICE_BUDGET,
        micro_batching: bool = True,
        small_request_records: int = DEFAULT_SMALL_REQUEST_RECORDS,
        batch_max_requests: int = 256,
        batch_max_records: int = 1 << 20,
        batch_window: float = 0.0,
        planner: Planner | None = None,
        registry: ExecutorRegistry | None = None,
        plan_cache_size: int = 256,
        executor_threads: int = 4,
        spec: GPUSpec = TITAN_X_PASCAL,
        retry_policy: RetryPolicy | None = DEFAULT_RETRY_POLICY,
        degradation: bool = True,
        watchdog_timeout: float | None = 60.0,
        shed_failure_threshold: float = 0.5,
        time_budget: float | None = None,
    ) -> None:
        if batch_max_requests < 1 or batch_max_records < 1:
            raise ConfigurationError("batch caps must be positive")
        if batch_window < 0:
            raise ConfigurationError("batch_window must be non-negative")
        if watchdog_timeout is not None and watchdog_timeout <= 0:
            raise ConfigurationError(
                "watchdog_timeout must be positive (or None to disable)"
            )
        if not 0.0 < shed_failure_threshold <= 1.0:
            raise ConfigurationError(
                "shed_failure_threshold must be in (0, 1]"
            )
        if time_budget is not None and time_budget <= 0:
            raise ConfigurationError(
                "time_budget must be positive (or None to disable)"
            )
        self.micro_batching = micro_batching
        self.small_request_records = int(small_request_records)
        self.batch_max_requests = int(batch_max_requests)
        self.batch_max_records = int(batch_max_records)
        self.batch_window = float(batch_window)
        self.time_budget = time_budget
        self.planner = planner or Planner()
        self.feedback = CostFeedback()
        self.registry = registry
        self.spec = spec
        self.retry_policy = retry_policy
        self.degradation = degradation
        self.watchdog_timeout = watchdog_timeout
        self.shed_failure_threshold = float(shed_failure_threshold)
        self.admission = AdmissionController(memory_budget)
        self.plan_cache = PlanCache(plan_cache_size)
        self.stats = ServiceStats()
        self._executor_threads = int(executor_threads)
        self._queue: asyncio.Queue = asyncio.Queue()
        self._scheduler_task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._inflight: set[asyncio.Task] = set()
        self._closed = False
        # Sliding window of recent dispatch outcomes (True = success)
        # — the load-shedding signal.  Event-loop-only, no locking.
        self._recent_outcomes: deque[bool] = deque(maxlen=32)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SortService":
        """Start the scheduler (idempotent)."""
        if self._closed:
            raise ConfigurationError("service is closed")
        if self._scheduler_task is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._executor_threads,
                thread_name_prefix="repro-service",
            )
            self._scheduler_task = asyncio.create_task(self._scheduler())
        return self

    async def close(self) -> None:
        """Drain queued work, stop the scheduler, release the threads."""
        if self._closed:
            return
        self._closed = True
        if self._scheduler_task is not None:
            self._queue.put_nowait(None)
            await self._scheduler_task
            self._scheduler_task = None
        else:
            # Never started: withdraw anything submitted while idle.
            while not self._queue.empty():
                request = self._queue.get_nowait()
                if request is not None and not request.future.done():
                    request.future.cancel()
                    self.stats.cancelled += 1
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def __aenter__(self) -> "SortService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(
        self,
        data,
        values: np.ndarray | None = None,
        *,
        memory_budget: int | None = None,
        output: str | os.PathLike | None = None,
        layout=None,
        dtype=None,
        value_dtype=None,
        pair_packing: str = "auto",
        spool_dir: str | os.PathLike | None = None,
        config=None,
        device=None,
        deadline: float | Deadline | None = None,
    ):
        """Queue one sort and await its result.

        Accepts what :func:`repro.sort` accepts: a NumPy array (keys),
        an array plus ``values`` (pairs), a structured record array
        (decompose → sort → ``meta["records"]``), or a file path with
        ``output=`` and a layout description.  Resolves with the
        corresponding :class:`~repro.types.SortResult` or
        :class:`~repro.external.ExternalSortReport` — byte-identical
        to the direct call.  Cancelling the awaiting task while the
        request is still queued withdraws it.  Submissions made before
        :meth:`start` simply queue until the scheduler runs — the hook
        the deterministic batching tests use to stage a burst.

        ``deadline`` is a whole-request time budget: seconds from now
        (or a prepared :class:`~repro.resilience.policy.Deadline`).
        An expired request is rejected with
        :class:`~repro.errors.DeadlineExceededError` wherever it is —
        queued, awaiting admission, or between engine retries — rather
        than executed late.
        """
        if self._closed:
            raise ConfigurationError("service is closed")
        request = self._build_request(
            data,
            values,
            memory_budget=memory_budget,
            output=output,
            layout=layout,
            dtype=dtype,
            value_dtype=value_dtype,
            pair_packing=pair_packing,
            spool_dir=spool_dir,
            config=config,
            device=device,
        )
        if deadline is not None:
            request.deadline = (
                deadline
                if isinstance(deadline, Deadline)
                else Deadline.after(float(deadline))
            )
        return await self._enqueue(request)

    async def submit_many(self, payloads) -> list:
        """Submit a sequence of payloads concurrently; gather results.

        Each payload is an array (keys-only), a ``(keys, values)``
        tuple, or a dict of :meth:`submit` keyword arguments (the dict
        form reaches every submit option, files included).
        """
        coros = []
        for payload in payloads:
            if isinstance(payload, dict):
                coros.append(self.submit(**payload))
            elif isinstance(payload, tuple):
                coros.append(self.submit(*payload))
            else:
                coros.append(self.submit(payload))
        return list(await asyncio.gather(*coros))

    async def _enqueue(self, request: SortRequest):
        self.stats.submitted += 1
        request.future = asyncio.get_running_loop().create_future()
        request.enqueued_at = time.perf_counter()
        self._queue.put_nowait(request)
        return await request.future

    def _build_request(
        self,
        data,
        values,
        *,
        memory_budget,
        output,
        layout,
        dtype,
        value_dtype,
        pair_packing,
        spool_dir,
        config,
        device,
    ) -> SortRequest:
        spec = device.spec if device is not None else self.spec
        if isinstance(data, (str, os.PathLike)):
            if values is not None:
                raise ConfigurationError(
                    "values= does not apply to file-path inputs; describe "
                    "the pairs layout with value_dtype= or layout= instead"
                )
            file_layout = _file_layout(output, config, layout, dtype, value_dtype)
            descriptor = InputDescriptor.for_file(
                data,
                file_layout,
                memory_budget=memory_budget,
                spec=spec,
                pair_packing=pair_packing,
            )
            return SortRequest(
                kind="file",
                descriptor=descriptor,
                io={
                    "output_path": os.fspath(output),
                    "layout": file_layout,
                    "pair_packing": pair_packing,
                    "spool_dir": spool_dir,
                },
            )
        _refuse_file_kwargs(output, layout, dtype, value_dtype, spool_dir, pair_packing)
        data = np.asarray(data)
        kind = "keys"
        records = None
        if data.dtype.names is not None:
            if values is not None:
                raise ConfigurationError(
                    "record arrays carry their own values column"
                )
            kind = "records"
            records = data
            data, values = decompose(data)
        elif values is not None:
            kind = "pairs"
            values = np.asarray(values)
        descriptor = InputDescriptor.for_array(
            data,
            values,
            memory_budget=memory_budget,
            spec=spec,
        )
        return SortRequest(
            kind=kind,
            descriptor=descriptor,
            keys=data,
            values=values,
            records=records,
            io={"config": config, "device": device},
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    async def _scheduler(self) -> None:
        """Drain-and-dispatch loop: one cycle per accumulated burst."""
        stop = False
        while not stop:
            item = await self._queue.get()
            if item is None:
                break
            items = [item]
            if (
                self.micro_batching
                and self.batch_window > 0
                and self._batchable(item)
                and self._queue.empty()
            ):
                await asyncio.sleep(self.batch_window)
            while True:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    stop = True
                    break
                items.append(nxt)
            self._dispatch(items)

    def _batchable(self, request: SortRequest) -> bool:
        return (
            request.batch_group() is not None
            and request.descriptor.n <= self.small_request_records
        )

    def _dispatch(self, items: list[SortRequest]) -> None:
        """Partition one drained burst into batches and singles."""
        groups: dict[tuple, list[SortRequest]] = {}
        singles: list[SortRequest] = []
        for request in items:
            if request.cancelled:
                self.stats.cancelled += 1
                continue
            if request.deadline is not None and request.deadline.expired:
                self.stats.rejected_expired += 1
                request.reject(
                    DeadlineExceededError(
                        "deadline expired while the request was queued"
                    )
                )
                continue
            if self._batchable(request) and self._overloaded():
                # Load shedding: under a sustained failure rate, small
                # batchable requests (cheap for the caller to retry)
                # are turned away immediately with a hint instead of
                # queueing behind a struggling backend.
                self.stats.shed += 1
                request.reject(
                    OverloadedError(
                        "service is shedding small requests after "
                        "repeated dispatch failures; retry later",
                        retry_after=self._retry_after_hint(),
                    )
                )
                continue
            if self.micro_batching and self._batchable(request):
                groups.setdefault(request.batch_group(), []).append(request)
            else:
                singles.append(request)
        for members in groups.values():
            for chunk in self._chunk_batch(members):
                if len(chunk) == 1:
                    singles.append(chunk[0])
                else:
                    self._spawn(self._run_batch(chunk))
        for request in singles:
            self._spawn(self._run_single(request))

    def _chunk_batch(
        self, members: list[SortRequest]
    ) -> list[list[SortRequest]]:
        """Split a compatibility group under the per-dispatch caps.

        Caps: request count, record count, and the admission budget
        (one batch must always be admittable alone, or a wide burst
        could charge more than the whole service may hold).
        """
        chunks: list[list[SortRequest]] = []
        chunk: list[SortRequest] = []
        records = 0
        resident = 0
        for request in members:
            charge = array_resident_bytes(request.descriptor, "batch")
            if chunk and (
                len(chunk) >= self.batch_max_requests
                or records + request.descriptor.n > self.batch_max_records
                or resident + charge > self.admission.capacity
            ):
                chunks.append(chunk)
                chunk, records, resident = [], 0, 0
            chunk.append(request)
            records += request.descriptor.n
            resident += charge
        if chunk:
            chunks.append(chunk)
        return chunks

    def _spawn(self, coro) -> None:
        task = asyncio.create_task(coro)
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    # ------------------------------------------------------------------
    # Load shedding
    # ------------------------------------------------------------------
    def _record_outcome(self, ok: bool) -> None:
        self._recent_outcomes.append(ok)

    def _overloaded(self) -> bool:
        """True when recent dispatches fail at or above the threshold.

        Needs a minimum sample (8 dispatches) so one early failure
        cannot flip a fresh service into shedding.
        """
        window = self._recent_outcomes
        if len(window) < 8:
            return False
        failures = sum(1 for ok in window if not ok)
        return failures / len(window) >= self.shed_failure_threshold

    def _retry_after_hint(self) -> float:
        """Seconds a shed caller should wait, from admission pressure.

        The mean engine time, scaled up with how full the admission
        budget currently is — an empty service says "one dispatch from
        now", a saturated one stretches the hint accordingly.
        """
        base = self.stats.mean_execute_seconds or 0.05
        pressure = self.admission.in_flight / self.admission.capacity
        return round(max(0.05, base * (1.0 + 4.0 * pressure)), 3)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _plan_request(self, request: SortRequest) -> SortPlan:
        """Plan one request, through the cache when the planner allows,
        and hold its price to the time budget.

        A per-request ``config=`` changes the plan in ways the cache
        signature does not capture, so those requests plan fresh.
        """
        faults.trip("service.plan")
        t0 = time.perf_counter()
        config = request.io.get("config")
        if config is not None:
            plan = Planner(config=config).plan(request.descriptor)
            hit = False
        else:
            plan, hit = self.plan_cache.get_or_plan(
                self.planner, request.descriptor
            )
        request.timing.plan_seconds = time.perf_counter() - t0
        request.timing.cache_hit = hit
        if hit:
            self.stats.plan_cache_hits += 1
        else:
            self.stats.plan_cache_misses += 1
        if self.time_budget is not None:
            seconds = self.feedback.seconds(plan)
            if seconds > self.time_budget:
                self.stats.rejected_time_budget += 1
                source = (
                    "measured-feedback"
                    if self.feedback.observations(plan)
                    else plan.cost_source
                )
                raise AdmissionError(
                    f"plan predicts {seconds:.3g}s ({source}), over the "
                    f"service time budget of {self.time_budget:.3g}s"
                )
        return plan

    # ------------------------------------------------------------------
    # Execution units
    # ------------------------------------------------------------------
    async def _run_single(self, request: SortRequest) -> None:
        request.timing.queue_wait = time.perf_counter() - request.enqueued_at
        try:
            plan = self.feedback.apply(self._plan_request(request))
            resident = plan_resident_bytes(plan)
            await self.admission.acquire(resident)
        except AdmissionError as exc:
            self.stats.rejected += 1
            request.reject(exc)
            return
        except Exception as exc:
            # Broad by design: a planning failure of ANY kind (bad
            # injected planner/config included) must reject the future
            # — an uncaught task exception would leave the submitter
            # awaiting forever.
            self.stats.failed += 1
            request.reject(exc)
            return
        try:
            if request.deadline is not None and request.deadline.expired:
                self.stats.rejected_expired += 1
                request.reject(
                    DeadlineExceededError(
                        "deadline expired while waiting for admission"
                    )
                )
                return
            t0 = time.perf_counter()
            report: dict = {}
            result = await self._guarded_execute(
                partial(self._execute_single, plan, request, report),
                request.deadline,
            )
            request.timing.execute_seconds = time.perf_counter() - t0
            self._harvest(report)
            self._record_outcome(True)
            self._finish(request, plan, result)
            self.stats.record_batch(1)
            # Only unbatched requests price their rate key: a batch
            # member's execute time is the whole coalition's.
            if self.feedback.observe(plan, request.timing.execute_seconds):
                self.stats.feedback_observations += 1
                self.stats.feedback_keys = len(self.feedback)
        except Exception as exc:
            self.stats.failed += 1
            self._record_outcome(False)
            request.reject(exc)
        finally:
            await self.admission.release(resident)
            self.stats.peak_in_flight_bytes = self.admission.peak_in_flight

    async def _guarded_execute(self, fn, deadline: Deadline | None):
        """Run ``fn`` on the thread pool under the dispatch watchdog.

        The timeout is the tighter of ``watchdog_timeout`` and the
        request deadline's remaining budget plus a grace second (so a
        responsive engine's own in-thread deadline check wins the race
        and produces the precise error; the watchdog only fires when
        the worker is truly stuck).  A fired watchdog abandons the
        worker thread — Python offers no way to kill it — so the pool
        slot stays occupied until the thread returns on its own; a
        bounded ``hang`` fault (or a released one at teardown) keeps
        tests from leaking threads forever.
        """
        future = asyncio.get_running_loop().run_in_executor(
            self._executor, fn
        )
        budgets = []
        if self.watchdog_timeout is not None:
            budgets.append(self.watchdog_timeout)
        if deadline is not None:
            budgets.append(deadline.remaining + 1.0)
        if not budgets:
            return await future
        timeout = min(budgets)
        try:
            return await asyncio.wait_for(future, timeout)
        except (asyncio.TimeoutError, TimeoutError):
            self.stats.timeouts += 1
            raise DeadlineExceededError(
                f"engine dispatch did not complete within {timeout:.3f}s; "
                f"the worker thread was abandoned"
            ) from None

    def _harvest(self, report: dict) -> None:
        """Fold a worker-thread resilience report into the stats.

        The report dict is filled on the pool thread but read here on
        the event loop only after the executor future resolved — the
        happens-before edge that makes this lock-free.
        """
        self.stats.retries += report.get("retries", 0)
        if report.get("downgrades"):
            self.stats.fallbacks += 1

    def _execute_single(
        self, plan: SortPlan, request: SortRequest, report: dict
    ):
        """Engine dispatch (runs on the thread pool)."""
        faults.trip("service.execute")
        if request.kind == "file":
            io = {k: v for k, v in request.io.items()}
        else:
            io = {
                "keys": request.keys,
                "values": request.values,
                "config": request.io.get("config"),
                "device": request.io.get("device"),
            }
        result = resilient_execute(
            plan,
            registry=self.registry,
            ladder=DEFAULT_LADDER if self.degradation else (),
            retry_policy=self.retry_policy,
            deadline=request.deadline,
            report=report,
            **io,
        )
        if request.kind == "records":
            result.meta["records"] = recompose(result.keys, result.values)
        return result

    async def _run_batch(self, requests: list[SortRequest]) -> None:
        now = time.perf_counter()
        plans: list[SortPlan] = []
        runnable: list[SortRequest] = []
        for request in requests:
            request.timing.queue_wait = now - request.enqueued_at
            if request.deadline is not None and request.deadline.expired:
                self.stats.rejected_expired += 1
                request.reject(
                    DeadlineExceededError(
                        "deadline expired while the request was queued"
                    )
                )
                continue
            try:
                plan = self._plan_request(request)
            except Exception as exc:
                # One member's planning failure must never hang the
                # rest of the coalition (or its own caller).
                self.stats.failed += 1
                request.reject(exc)
                continue
            if plan.strategy in BATCHABLE_STRATEGIES:
                plans.append(plan)
                runnable.append(request)
            else:
                # A planner override routed this shape elsewhere;
                # honour its decision individually.
                self._spawn(self._run_single(request))
        if not runnable:
            return
        try:
            resident = sum(array_resident_bytes(r.descriptor, "batch") for r in runnable)
            await self.admission.acquire(resident)
        except Exception as exc:
            # Broad as in _run_single: an uncaught task exception would
            # leave every member's submitter awaiting forever.
            if isinstance(exc, AdmissionError):
                self.stats.rejected += len(runnable)
            else:
                self.stats.failed += len(runnable)
            for request in runnable:
                request.reject(exc)
            return
        try:
            t0 = time.perf_counter()
            batch_deadline = min(
                (
                    r.deadline
                    for r in runnable
                    if r.deadline is not None
                ),
                key=lambda d: d.expires_at,
                default=None,
            )
            results = await self._guarded_execute(
                partial(self._batch_dispatch, runnable), batch_deadline
            )
            dt = time.perf_counter() - t0
            for request, plan, result in zip(runnable, plans, results):
                request.timing.execute_seconds = dt
                request.timing.batch_size = len(runnable)
                result.meta["plan"] = plan
                self._finish(request, plan, result)
            self.stats.record_batch(len(runnable))
            self._record_outcome(True)
        except Exception as exc:
            self.stats.failed += len(runnable)
            self._record_outcome(False)
            for request in runnable:
                request.reject(exc)
        finally:
            await self.admission.release(resident)
            self.stats.peak_in_flight_bytes = self.admission.peak_in_flight

    @staticmethod
    def _batch_dispatch(runnable: list[SortRequest]):
        """Coalesced engine dispatch (runs on the thread pool)."""
        faults.trip("service.execute")
        return execute_batch(runnable)

    def _finish(self, request: SortRequest, plan: SortPlan, result) -> None:
        meta = getattr(result, "meta", None)
        if meta is not None:
            meta["service"] = request.timing.to_dict()
        request.resolve(result)
        self.stats.record(request.timing, plan.strategy)
