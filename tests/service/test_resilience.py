"""Service-level failure containment: deadlines, watchdog, shedding.

These tests drive the full async path — ``submit`` through planning,
admission, the thread-pool dispatch, and ``resilient_execute`` — with
deterministic faults injected at the named service/engine sites.
"""

from __future__ import annotations

import asyncio
import io
import json

import numpy as np
import pytest

import repro
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    TransientError,
)
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.plan import Planner
from repro.resilience.policy import Deadline
from repro.service import SortService
from repro.service.driver import request_kwargs, serve_stream


@pytest.fixture(autouse=True)
def clean_faults():
    faults.uninstall()
    yield
    faults.uninstall()


def run(coro):
    return asyncio.run(coro)


def make_keys(n=20_000, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 32, n, dtype=np.uint64).astype(np.uint32)


def numpy_tier() -> Planner:
    """A planner that keeps requests off the compiled tier, so faults
    at the ``engine.hybrid`` rung are reached on every host."""
    return Planner(native="never")


async def submit_once(keys, *, service_kwargs=None, **submit_kwargs):
    async with SortService(
        micro_batching=False, planner=numpy_tier(), **(service_kwargs or {})
    ) as service:
        result = await service.submit(keys, **submit_kwargs)
        return result, service.stats


class TestDeadlines:
    def test_expired_deadline_is_rejected_not_run(self):
        keys = make_keys()

        async def main():
            async with SortService(micro_batching=False) as service:
                with pytest.raises(
                    DeadlineExceededError, match="queued"
                ):
                    await service.submit(keys, deadline=0.0)
                return service.stats

        stats = run(main())
        assert stats.rejected_expired == 1
        assert stats.completed == 0

    def test_float_deadline_and_deadline_object_both_accepted(self):
        keys = make_keys(5_000)

        async def main():
            async with SortService(micro_batching=False) as service:
                a = await service.submit(keys, deadline=30.0)
                b = await service.submit(
                    keys, deadline=Deadline.after(30.0)
                )
                return a, b

        a, b = run(main())
        assert bytes(a.keys) == bytes(b.keys) == bytes(repro.sort(keys).keys)

    def test_negative_deadline_rejected(self):
        async def main():
            async with SortService(micro_batching=False) as service:
                with pytest.raises(ConfigurationError):
                    await service.submit(make_keys(100), deadline=-1.0)

        run(main())


class TestRetryAndDegrade:
    def test_single_engine_fault_is_retried_away(self):
        keys = make_keys()
        with inject(FaultPlan.single("engine.hybrid")):
            result, stats = run(submit_once(keys))
        assert bytes(result.keys) == bytes(repro.sort(keys).keys)
        assert result.meta["resilience"]["retries"] == 1
        assert result.meta["resilience"]["executed"] == "hybrid"
        assert stats.retries == 1
        assert stats.fallbacks == 0
        assert stats.completed == 1

    def test_persistent_engine_fault_degrades(self):
        keys = make_keys()
        with inject(FaultPlan.single("engine.hybrid", times=-1)):
            result, stats = run(submit_once(keys))
        assert bytes(result.keys) == bytes(repro.sort(keys).keys)
        assert result.meta["resilience"]["executed"] == "fallback"
        assert stats.fallbacks == 1
        assert stats.completed == 1

    def test_degradation_off_surfaces_the_typed_error(self):
        keys = make_keys(5_000)
        with inject(FaultPlan.single("engine.hybrid", times=-1)):
            with pytest.raises(TransientError):
                run(
                    submit_once(
                        keys,
                        service_kwargs=dict(
                            degradation=False, retry_policy=None
                        ),
                    )
                )

    def test_plan_site_failure_is_typed_and_counted(self):
        async def main():
            async with SortService(micro_batching=False) as service:
                with pytest.raises(TransientError):
                    await service.submit(make_keys(5_000))
                return service.stats

        with inject(FaultPlan.single("service.plan", times=-1)):
            stats = run(main())
        assert stats.failed == 1


class TestWatchdog:
    def test_hung_dispatch_is_abandoned_with_a_typed_error(self):
        keys = make_keys(5_000)
        with inject(
            FaultPlan.single("service.execute", "hang", delay=30.0)
        ) as plan:
            async def main():
                async with SortService(
                    micro_batching=False, watchdog_timeout=0.3
                ) as service:
                    with pytest.raises(
                        DeadlineExceededError, match="abandoned"
                    ):
                        await service.submit(keys)
                    # Unblock the abandoned worker before close() waits
                    # on the executor, or teardown stalls for `delay`.
                    plan.release_hangs()
                    return service.stats

            stats = run(main())
        assert stats.timeouts == 1

    def test_watchdog_validation(self):
        with pytest.raises(ConfigurationError):
            SortService(watchdog_timeout=0.0)
        with pytest.raises(ConfigurationError):
            SortService(shed_failure_threshold=0.0)


class TestLoadShedding:
    def test_overload_detection_needs_a_full_window(self):
        service = SortService()
        for _ in range(7):
            service._record_outcome(False)
        assert not service._overloaded()  # too few samples to judge
        service._record_outcome(False)
        assert service._overloaded()
        for _ in range(32):
            service._record_outcome(True)
        assert not service._overloaded()  # the window slid past the storm

    def test_retry_after_hint_is_positive_and_bounded(self):
        service = SortService()
        hint = service._retry_after_hint()
        assert hint >= 0.05

    def test_failure_storm_sheds_small_requests_with_retry_after(self):
        keys = make_keys(1_000)

        async def main():
            # Degradation and retries off so every dispatch genuinely
            # fails — a persistent engine fault manufactures the storm.
            async with SortService(
                degradation=False, retry_policy=None, planner=numpy_tier()
            ) as service:
                with inject(FaultPlan.single("engine.hybrid", times=-1)):
                    for _ in range(8):
                        with pytest.raises(TransientError):
                            await service.submit(keys)
                assert service._overloaded()
                with pytest.raises(OverloadedError) as info:
                    await service.submit(keys)
                assert info.value.retry_after >= 0.05
                return service.stats

        stats = run(main())
        assert stats.shed == 1
        assert stats.failed == 8

    def test_stats_expose_all_failure_counters(self):
        table = SortService().stats.to_dict()
        for counter in (
            "retries", "timeouts", "fallbacks", "rejected_expired", "shed"
        ):
            assert counter in table


class TestBatchDeadlines:
    def test_expired_member_of_a_batch_is_rejected_alone(self):
        keys = make_keys(1_000)

        async def main():
            async with SortService() as service:
                live = asyncio.ensure_future(
                    service.submit(keys, deadline=30.0)
                )
                dead = asyncio.ensure_future(
                    service.submit(keys, deadline=0.0)
                )
                await asyncio.sleep(0)
                await service.start()
                results = await asyncio.gather(
                    live, dead, return_exceptions=True
                )
                return results, service.stats

        (ok, err), stats = run(main())
        assert bytes(ok.keys) == bytes(repro.sort(keys).keys)
        assert isinstance(err, DeadlineExceededError)
        assert stats.rejected_expired == 1


class TestDriverSurface:
    def test_request_kwargs_parses_deadline(self):
        kwargs = request_kwargs(
            {"id": 1, "keys": [3, 1, 2], "dtype": "uint32",
             "deadline": 2.5}
        )
        assert kwargs["deadline"] == 2.5

    def test_error_responses_carry_type_and_retry_after(self):
        lines = io.StringIO(
            '{"id": 1, "keys": [3, 1, 2], "dtype": "uint32", '
            '"deadline": 0.0}\n'
        )
        out: list[str] = []
        rc = run(
            serve_stream(lines, out.append, micro_batching=False)
        )
        responses = [json.loads(line) for line in out]
        assert rc == 1
        error = responses[0]
        assert error["ok"] is False
        assert error["error_type"] == "DeadlineExceededError"
        stats = responses[-1]
        assert stats["event"] == "stats"
        assert stats["rejected_expired"] == 1

    def test_degraded_response_reports_the_executed_engine(self):
        lines = io.StringIO(
            '{"id": 1, "n": 5000, "dtype": "uint32"}\n'
        )
        out: list[str] = []
        with inject(
            FaultPlan([FaultSpec(site="engine.hybrid", times=-1)])
        ):
            rc = run(
                serve_stream(
                    lines,
                    out.append,
                    micro_batching=False,
                    planner=numpy_tier(),
                )
            )
        responses = [json.loads(line) for line in out]
        assert rc == 0
        first = responses[0]
        assert first["ok"] is True
        assert first["degraded_to"] == "fallback"
        stats = responses[-1]
        assert stats["fallbacks"] == 1
