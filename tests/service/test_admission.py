"""Unit tests for the admission controller and its byte accounting."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import AdmissionError, ConfigurationError
from repro.plan import InputDescriptor, Planner
from repro.service.admission import (
    BUFFERS_IN_PLACE,
    AdmissionController,
    plan_resident_bytes,
)


class TestPlanResidentBytes:
    def test_hybrid_charges_three_buffers(self):
        desc = InputDescriptor(n=1000, key_dtype=np.uint32)
        plan = Planner(native="never").plan(desc)
        assert plan.strategy == "hybrid"
        assert plan_resident_bytes(plan) == BUFFERS_IN_PLACE * 4000

    def test_fallback_charges_three_buffers(self):
        desc = InputDescriptor(n=1000, key_dtype=np.uint32)
        plan = Planner(adaptive=True).plan(desc)
        assert plan.strategy == "fallback"
        assert plan_resident_bytes(plan) == BUFFERS_IN_PLACE * 4000

    def test_chunked_charges_chunks_not_input(self):
        desc = InputDescriptor(
            n=1_000_000, key_dtype=np.uint32, memory_budget=1 << 20
        )
        plan = Planner().plan(desc)
        assert plan.strategy == "hetero"
        charge = plan_resident_bytes(plan)
        assert charge == BUFFERS_IN_PLACE * plan.chunk_plan.chunk_bytes
        # The whole point of chunking: the charge is bounded by the
        # budget, not by the (much larger) input.
        assert charge <= desc.memory_budget
        assert charge < desc.total_bytes

    def test_external_charges_its_run_budget(self, tmp_path):
        from repro.external import FileLayout, write_records

        keys = np.arange(10_000, dtype=np.uint32)
        layout = FileLayout(np.dtype(np.uint32), None)
        path = tmp_path / "input.bin"
        write_records(path, layout.to_records(keys, None))
        desc = InputDescriptor.for_file(
            path, layout, memory_budget=8 << 10
        )
        plan = Planner().plan(desc)
        assert plan.strategy == "external"
        assert plan_resident_bytes(plan) == 8 << 10

    def test_empty_input_still_charges_one_byte(self):
        plan = Planner().plan(InputDescriptor(n=0, key_dtype=np.uint32))
        assert plan_resident_bytes(plan) == 1


class TestAdmissionController:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(0)

    def test_over_capacity_request_rejected_immediately(self):
        async def run():
            gate = AdmissionController(100)
            with pytest.raises(AdmissionError):
                await gate.acquire(101)
            assert gate.in_flight == 0

        asyncio.run(run())

    def test_acquire_release_accounting(self):
        async def run():
            gate = AdmissionController(100)
            await gate.acquire(60)
            await gate.acquire(30)
            assert gate.in_flight == 90
            assert gate.available == 10
            assert gate.peak_in_flight == 90
            await gate.release(60)
            assert gate.in_flight == 30
            assert gate.peak_in_flight == 90

        asyncio.run(run())

    def test_waiters_admitted_in_fifo_order(self):
        # FIFO prevents starvation: once a large charge is parked,
        # later small ones queue behind it even though they would fit.
        async def run():
            gate = AdmissionController(100)
            order = []

            await gate.acquire(80)

            async def want(tag, nbytes):
                await gate.acquire(nbytes)
                order.append(tag)

            big = asyncio.create_task(want("big", 90))
            small = asyncio.create_task(want("small", 20))
            for _ in range(3):
                await asyncio.sleep(0)
            assert order == []  # small fits, but never passes big
            await gate.release(80)
            await big
            assert order == ["big"]
            await gate.release(90)
            await small
            assert order == ["big", "small"]
            await gate.release(20)
            assert gate.in_flight == 0

        asyncio.run(run())

    def test_uncontended_small_charges_interleave(self):
        # With no larger charge parked ahead, small acquires never wait.
        async def run():
            gate = AdmissionController(100)
            await gate.acquire(30)
            await gate.acquire(30)
            await gate.acquire(30)
            assert gate.in_flight == 90

        asyncio.run(run())

    def test_cancelled_waiter_does_not_block_the_queue(self):
        async def run():
            gate = AdmissionController(100)
            await gate.acquire(80)
            stuck = asyncio.create_task(gate.acquire(50))
            behind = asyncio.create_task(gate.acquire(10))
            await asyncio.sleep(0)
            stuck.cancel()
            await asyncio.sleep(0)
            await behind  # head cancelled -> next waiter admitted
            assert gate.in_flight == 90

        asyncio.run(run())
