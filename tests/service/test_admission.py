"""Unit tests for the admission controller and its byte accounting."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import AdmissionError, ConfigurationError
from repro.plan import InputDescriptor, Planner
from repro.plan.planner import (
    CHUNK_OVERHEAD_BYTES,
    SORT_OVERHEAD_BYTES,
    array_resident_bytes,
    plan_resident_bytes,
)
from repro.service.admission import AdmissionController


class TestPlanResidentBytes:
    def test_library_keys_charge_their_bits(self):
        desc = InputDescriptor(n=1000, key_dtype=np.uint32)
        plan = Planner().plan(desc)
        assert plan.strategy == "library"
        assert plan_resident_bytes(plan) == 4000 + SORT_OVERHEAD_BYTES

    def test_hybrid_charges_its_run_footprint(self):
        desc = InputDescriptor(n=1000, key_dtype=np.uint32)
        plan = Planner(native="never").plan(desc)
        assert plan.strategy == "hybrid"
        assert plan_resident_bytes(plan) == 52_000 + SORT_OVERHEAD_BYTES

    def test_fallback_charges_record_and_40_bytes(self):
        desc = InputDescriptor(n=1000, key_dtype=np.uint32)
        plan = Planner(adaptive=True).plan(desc)
        assert plan.strategy == "fallback"
        assert plan_resident_bytes(plan) == 44_000 + SORT_OVERHEAD_BYTES

    def test_fused_pairs_charge_their_packing(self):
        from dataclasses import replace

        from repro.core.config import SortConfig

        desc = InputDescriptor(
            n=1000, key_dtype=np.uint32, value_dtype=np.uint32
        )
        fused = replace(SortConfig.for_layout(32, 32), pair_packing="fused")
        plain = plan_resident_bytes(Planner().plan(desc))
        assert plain == 24_000 + SORT_OVERHEAD_BYTES
        charge = plan_resident_bytes(Planner(config=fused).plan(desc))
        assert charge == 28_000 + SORT_OVERHEAD_BYTES

    def test_chunked_charges_staged_copy_output_and_budget(self):
        desc = InputDescriptor(
            n=1_000_000,
            key_dtype=np.uint32,
            value_dtype=np.uint32,
            memory_budget=1 << 20,
        )
        plan = Planner().plan(desc)
        assert plan.strategy == "hetero"
        charge = plan_resident_bytes(plan)
        assert charge == (
            2 * desc.total_bytes + (1 << 20)
            + plan.run_plan.n_runs * CHUNK_OVERHEAD_BYTES
            + SORT_OVERHEAD_BYTES  # library chunk sorts add none of theirs
        )
        # Chunking holds less than the whole library sort would.
        whole = Planner().plan(InputDescriptor(
            n=1_000_000, key_dtype=np.uint32, value_dtype=np.uint32
        ))
        assert charge < plan_resident_bytes(whole)
        # A radix rung's chunk sorts hold a sort's overhead of their own.
        radix = Planner(native="never").plan(desc)
        assert plan_resident_bytes(radix) == (
            2 * desc.total_bytes + (1 << 20)
            + radix.run_plan.n_runs * CHUNK_OVERHEAD_BYTES
            + 2 * SORT_OVERHEAD_BYTES
        )

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

    def test_empty_input_still_charges_the_overhead(self):
        plan = Planner().plan(InputDescriptor(n=0, key_dtype=np.uint32))
        assert plan_resident_bytes(plan) == SORT_OVERHEAD_BYTES

    def test_batch_members_charge_the_batch_footprint(self):
        keys = InputDescriptor(n=1000, key_dtype=np.uint32)
        pairs = InputDescriptor(
            n=1000, key_dtype=np.uint32, value_dtype=np.uint32
        )
        assert array_resident_bytes(keys, "batch") == (
            12_000 + SORT_OVERHEAD_BYTES
        )
        assert array_resident_bytes(pairs, "batch") == (
            104_000 + SORT_OVERHEAD_BYTES
        )

    @pytest.mark.parametrize("value_dtype", ["S4", "U1", "V4", object])
    def test_any_payload_is_charged_by_its_bytes(self, value_dtype):
        # Bytes, strings and object references ride along as numbers do.
        desc = InputDescriptor(
            n=1000, key_dtype=np.uint32, value_dtype=value_dtype
        )
        record = 4 + np.dtype(value_dtype).itemsize
        assert array_resident_bytes(desc, "batch") == (
            1000 * (8 * record + 40) + SORT_OVERHEAD_BYTES
        )
        assert plan_resident_bytes(Planner().plan(desc)) > 0


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
