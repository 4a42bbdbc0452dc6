"""The service's measured prices and the time-budget gate."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro
from repro.cost.feedback import CostFeedback
from repro.errors import AdmissionError, ConfigurationError
from repro.plan import InputDescriptor, Planner
from repro.service import SortService


def run(coro):
    return asyncio.run(coro)


class TestMeasuredPrices:
    def test_the_service_owns_the_feedback(self):
        service = SortService()
        assert isinstance(service.feedback, CostFeedback)
        assert not hasattr(service.planner, "feedback")

    def test_repeat_requests_are_priced_from_measurement(self, rng):
        keys = rng.integers(0, 2**32, 60_000).astype(np.uint32)

        async def main():
            async with SortService(micro_batching=False) as service:
                results = [await service.submit(keys) for _ in range(4)]
                return service, results

        service, results = run(main())
        first, *rest = [r.meta["plan"] for r in results]
        # The first request is priced analytically (no history yet);
        # every later one at the rate its predecessors measured.
        assert first.cost_source == "paper-analytical"
        assert all(p.cost_source == "measured-feedback" for p in rest)
        assert service.stats.feedback_observations == 4
        assert service.stats.feedback_keys == 1
        assert service.feedback.observations(first) == 4
        assert service.feedback.seconds(first) == pytest.approx(
            service.feedback.apply(first).predicted_seconds
        )
        for result in results:
            assert bytes(result.keys) == bytes(np.sort(keys))

    def test_plan_cache_hits_a_repeated_shape(self, rng):
        keys = rng.integers(0, 2**32, 60_000).astype(np.uint32)

        async def main():
            async with SortService(micro_batching=False) as service:
                await service.submit(keys)
                await service.submit(keys)
                return service.stats.to_dict()

        stats = run(main())
        assert stats["plan_cache_hits"] == 1
        assert stats["plan_cache_misses"] == 1
        assert stats["feedback_observations"] == 2

    def test_batched_requests_neither_observe_nor_reprice(self, rng):
        burst = [
            rng.integers(0, 2**32, 1000).astype(np.uint32) for _ in range(4)
        ]

        async def main():
            service = SortService()
            futures = [
                asyncio.ensure_future(service.submit(keys)) for keys in burst
            ]
            await asyncio.sleep(0)
            async with service:
                return service, await asyncio.gather(*futures)

        service, results = run(main())
        assert {r.meta["service"]["batch_size"] for r in results} == {4}
        assert service.stats.feedback_observations == 0
        assert all(
            r.meta["plan"].cost_source == "paper-analytical" for r in results
        )

    def test_feedback_keys_count_size_classes(self, rng):
        # 60,000 and 65,000 keys share the size class 2^15..2^16-1;
        # 4,096 keys are a class of their own.
        sizes = [60_000, 65_000, 4096]

        async def main():
            async with SortService(micro_batching=False) as service:
                for n in sizes:
                    await service.submit(
                        rng.integers(0, 2**32, n).astype(np.uint32)
                    )
                return service

        service = run(main())
        assert service.stats.feedback_observations == 3
        assert service.stats.feedback_keys == len(service.feedback) == 2
        assert service.stats.to_dict()["feedback_keys"] == 2

    def test_stats_expose_feedback_counters(self):
        stats = SortService().stats.to_dict()
        assert stats["feedback_observations"] == 0
        assert stats["feedback_keys"] == 0
        assert stats["rejected_time_budget"] == 0


class TestTimeBudget:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="time_budget"):
            SortService(time_budget=0.0)
        with pytest.raises(ConfigurationError, match="time_budget"):
            SortService(time_budget=-1.0)

    def test_over_budget_plans_are_rejected(self, rng):
        keys = rng.integers(0, 2**32, 200_000).astype(np.uint32)

        async def main():
            # Any real plan predicts more than a nanosecond.
            async with SortService(time_budget=1e-9) as service:
                with pytest.raises(AdmissionError, match="time budget"):
                    await service.submit(keys)
                return service.stats

        stats = run(main())
        assert stats.rejected_time_budget == 1
        assert stats.completed == 0

    def test_within_budget_requests_complete(self, rng):
        keys = rng.integers(0, 2**32, 30_000).astype(np.uint32)

        async def main():
            async with SortService(time_budget=3600.0) as service:
                result = await service.submit(keys)
                return service, result

        service, result = run(main())
        assert bytes(result.keys) == bytes(repro.sort(keys).keys)
        assert service.stats.rejected_time_budget == 0

    @pytest.mark.parametrize(
        "key_dtype, value_dtype",
        [
            (np.uint32, None),
            (np.float64, None),
            (np.uint32, np.uint32),
            (np.int64, np.uint32),
        ],
        ids=["uint32", "float64", "uint32-uint32", "int64-uint32"],
    )
    def test_budget_holds_after_warm_up_for_its_size_class(
        self, rng, key_dtype, value_dtype
    ):
        # The paper prices 2^16 uint32 keys at about 1.4 µs on its
        # Titan X; any host takes hundreds of times longer.  Under a
        # budget of four times the paper's price, once one such request
        # has run, the next size in its class is priced at the measured
        # rate and refused, while a size class with no history still
        # gets the paper's price.
        def request(n):
            keys = rng.integers(0, 2**31, n).astype(key_dtype)
            if value_dtype is None:
                return (keys,)
            return keys, rng.integers(0, 2**31, n).astype(value_dtype)

        bigger = InputDescriptor(
            n=(1 << 16) + 1000, key_dtype=key_dtype, value_dtype=value_dtype
        )
        budget = 4 * Planner().plan(bigger).predicted_seconds

        async def main():
            async with SortService(
                time_budget=budget, micro_batching=False
            ) as service:
                first = await service.submit(*request(1 << 16))
                with pytest.raises(AdmissionError, match="measured-feedback"):
                    await service.submit(*request(bigger.n))
                small = await service.submit(*request(1 << 12))
                return service, first, small

        service, first, small = run(main())
        assert first.meta["plan"].cost_source == "paper-analytical"
        assert small.meta["plan"].cost_source == "paper-analytical"
        assert service.stats.rejected_time_budget == 1
        assert service.stats.completed == 2
        # A refused request executes nothing, so it measures nothing.
        assert service.stats.feedback_observations == 2
        assert service.stats.feedback_keys == 2
