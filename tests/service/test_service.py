"""SortService behaviour: lifecycle, edge cases, batching, admission.

The deterministic staging trick used throughout: submissions made
before ``start()`` simply queue, so a test can lay out an exact burst,
then start the scheduler and observe exactly one drain cycle — no
timing, no sleeps (beyond yielding to let ``submit`` coroutines run).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro
from repro.errors import AdmissionError, ConfigurationError
from repro.service import SortService


def run(coro):
    return asyncio.run(coro)


async def staged_burst(service, payloads):
    """Queue every payload, then start, gather, and close."""
    tasks = [
        asyncio.ensure_future(
            service.submit(*p) if isinstance(p, tuple) else service.submit(p)
        )
        for p in payloads
    ]
    await asyncio.sleep(0)
    await service.start()
    results = await asyncio.gather(*tasks)
    await service.close()
    return results


class TestBasics:
    def test_single_array_matches_direct_sort(self, rng):
        keys = rng.integers(0, 2**32, 20_000).astype(np.uint32)

        async def main():
            async with SortService() as service:
                return await service.submit(keys)

        result = run(main())
        assert bytes(result.keys) == bytes(repro.sort(keys).keys)
        assert result.meta["service"]["batch_size"] == 1
        assert result.meta["plan"].strategy == repro.plan_for(keys).strategy

    def test_pairs_and_records(self, rng):
        from repro.core.pairs import make_records

        keys = rng.integers(0, 50, 5000).astype(np.uint32)
        values = rng.integers(0, 2**32, 5000).astype(np.uint32)
        records = make_records(keys, values)

        async def main():
            async with SortService() as service:
                return await asyncio.gather(
                    service.submit(keys, values), service.submit(records)
                )

        pair_result, record_result = run(main())
        expect = repro.sort_pairs(keys, values)
        assert bytes(pair_result.keys) == bytes(expect.keys)
        assert bytes(pair_result.values) == bytes(expect.values)
        direct = repro.sort_records(records)
        assert bytes(record_result.meta["records"].tobytes()) == bytes(
            direct.meta["records"].tobytes()
        )

    def test_empty_and_single_element_requests(self):
        empty = np.array([], dtype=np.uint32)
        one = np.array([42], dtype=np.uint64)

        async def main():
            async with SortService() as service:
                return await asyncio.gather(
                    service.submit(empty), service.submit(one)
                )

        r_empty, r_one = run(main())
        assert r_empty.keys.size == 0 and r_empty.keys.dtype == np.uint32
        assert r_one.keys.tolist() == [42] and r_one.keys.dtype == np.uint64

    def test_duplicate_submissions_of_the_same_array(self, rng):
        keys = rng.integers(0, 2**32, 3000).astype(np.uint32)
        snapshot = keys.copy()

        async def main():
            service = SortService()
            return await staged_burst(service, [keys, keys, keys])

        results = run(main())
        expect = bytes(repro.sort(snapshot).keys)
        assert all(bytes(r.keys) == bytes(expect) for r in results)
        assert np.array_equal(keys, snapshot)  # input never mutated

    def test_submit_many_mixed_payload_forms(self, rng):
        keys = rng.integers(0, 2**32, 100).astype(np.uint32)
        values = np.arange(100, dtype=np.uint32)

        async def main():
            async with SortService() as service:
                return await service.submit_many(
                    [keys, (keys, values), {"data": keys}]
                )

        a, b, c = run(main())
        expect = repro.sort(keys)
        assert bytes(a.keys) == bytes(expect.keys) == bytes(c.keys)
        assert bytes(b.values) == bytes(repro.sort_pairs(keys, values).values)

    def test_workers_kwarg_is_byte_identical(self, rng):
        keys = rng.integers(0, 2**32, 50_000).astype(np.uint32)

        async def main():
            async with SortService() as service:
                return await asyncio.gather(
                    service.submit(keys), service.submit(keys, workers=2)
                )

        one, two = run(main())
        assert bytes(one.keys) == bytes(two.keys)

    def test_stray_file_kwargs_rejected_for_arrays(self):
        async def main():
            async with SortService() as service:
                await service.submit(
                    np.arange(4, dtype=np.uint32), output="x.bin"
                )

        with pytest.raises(ConfigurationError, match="file-path inputs"):
            run(main())

    def test_file_path_needs_output(self):
        async def main():
            async with SortService() as service:
                await service.submit("data.bin", dtype="uint32")

        with pytest.raises(ConfigurationError, match="output="):
            run(main())

    def test_file_path_rejects_positional_values(self):
        # A values column for a file sort would be silently dropped —
        # the layout (value_dtype=) is how pairs files are described.
        async def main():
            async with SortService() as service:
                await service.submit(
                    "data.bin",
                    np.arange(4, dtype=np.uint32),
                    output="out.bin",
                    dtype="uint32",
                )

        with pytest.raises(ConfigurationError, match="values="):
            run(main())

    def test_broken_injected_config_rejects_instead_of_hanging(self, rng):
        from types import SimpleNamespace

        keys = rng.integers(0, 2**32, 100).astype(np.uint32)

        async def main():
            async with SortService() as service:
                # Looks config-ish enough to pass submit (has .workers)
                # but explodes inside the planner: the caller must get
                # the exception, not an eternal await.
                await asyncio.wait_for(
                    service.submit(keys, config=SimpleNamespace(workers=1)),
                    timeout=10,
                )

        with pytest.raises(AttributeError):
            run(main())


class TestLifecycle:
    def test_submit_after_close_raises(self):
        async def main():
            service = SortService()
            await service.start()
            await service.close()
            with pytest.raises(ConfigurationError, match="closed"):
                await service.submit(np.arange(4, dtype=np.uint32))

        run(main())

    def test_close_without_start_withdraws_queued_requests(self):
        async def main():
            service = SortService()
            task = asyncio.ensure_future(
                service.submit(np.arange(4, dtype=np.uint32))
            )
            await asyncio.sleep(0)
            await service.close()
            with pytest.raises(asyncio.CancelledError):
                await task
            return service.stats

        stats = run(main())
        assert stats.cancelled == 1

    def test_close_is_idempotent(self):
        async def main():
            service = SortService()
            await service.start()
            await service.close()
            await service.close()

        run(main())


class TestCancellation:
    def test_cancel_mid_queue_skips_only_that_request(self, rng):
        arrays = [
            rng.integers(0, 2**32, 64).astype(np.uint32) for _ in range(5)
        ]

        async def main():
            service = SortService()
            tasks = [
                asyncio.ensure_future(service.submit(a)) for a in arrays
            ]
            await asyncio.sleep(0)
            tasks[2].cancel()
            await service.start()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            await service.close()
            return service.stats, results

        stats, results = run(main())
        assert isinstance(results[2], asyncio.CancelledError)
        for i, (array, result) in enumerate(zip(arrays, results)):
            if i == 2:
                continue
            assert bytes(result.keys) == bytes(repro.sort(array).keys)
        assert stats.cancelled == 1
        assert stats.completed == 4


class TestMicroBatching:
    def test_staged_burst_coalesces_into_one_dispatch(self, rng):
        arrays = [
            rng.integers(0, 2**32, n).astype(np.uint32)
            for n in (0, 1, 17, 500, 4096)
        ]

        async def main():
            service = SortService()
            results = await staged_burst(service, arrays)
            return service.stats, results

        stats, results = run(main())
        assert stats.batches == 1
        assert stats.max_batch_size == len(arrays)
        for array, result in zip(arrays, results):
            assert bytes(result.keys) == bytes(repro.sort(array).keys)
            assert result.meta["service"]["batch_size"] == len(arrays)
            assert result.meta["engine"] == "service-batch"

    def test_incompatible_layouts_batch_separately(self, rng):
        u32 = [rng.integers(0, 99, 64).astype(np.uint32) for _ in range(2)]
        f64 = [rng.standard_normal(64) for _ in range(2)]
        pairs = [
            (
                rng.integers(0, 99, 64).astype(np.uint32),
                np.arange(64, dtype=np.uint32),
            )
            for _ in range(2)
        ]

        async def main():
            service = SortService()
            results = await staged_burst(service, u32 + f64 + pairs)
            return service.stats, results

        stats, results = run(main())
        assert stats.batches == 3
        assert stats.max_batch_size == 2
        for array, result in zip(u32 + f64, results[:4]):
            assert bytes(result.keys) == bytes(repro.sort(array).keys)
        for (keys, values), result in zip(pairs, results[4:]):
            expect = repro.sort_pairs(keys, values)
            assert bytes(result.keys) == bytes(expect.keys)
            assert bytes(result.values) == bytes(expect.values)

    def test_large_requests_stay_on_the_direct_path(self, rng):
        small = rng.integers(0, 2**32, 100).astype(np.uint32)
        large = rng.integers(0, 2**32, 20_000).astype(np.uint32)

        async def main():
            service = SortService()  # default threshold is 8192 records
            results = await staged_burst(service, [small, small, large])
            return service.stats, results

        stats, results = run(main())
        assert stats.batches == 1
        assert results[2].meta["service"]["batch_size"] == 1
        assert results[2].meta.get("engine") != "service-batch"
        assert bytes(results[2].keys) == bytes(repro.sort(large).keys)

    def test_batching_off_runs_everything_individually(self, rng):
        arrays = [
            rng.integers(0, 2**32, 64).astype(np.uint32) for _ in range(4)
        ]

        async def main():
            service = SortService(micro_batching=False)
            results = await staged_burst(service, arrays)
            return service.stats, results

        stats, results = run(main())
        assert stats.batches == 0
        assert stats.max_batch_size == 1
        for array, result in zip(arrays, results):
            assert bytes(result.keys) == bytes(repro.sort(array).keys)

    def test_unplannable_batch_member_rejects_only_itself(self, rng):
        # datetime64 has an 8-byte itemsize (so it looks batchable) but
        # no §4.6 bijection; planning fails.  The member's caller must
        # get the error — and the rest of the coalition its results.
        from repro.errors import UnsupportedDtypeError

        good = rng.integers(0, 2**32, 64).astype(np.uint64)
        # Two bad members so they coalesce into a real batch of their
        # own (a lone one would fall back to the single path).
        bad = np.array([1, 2, 3], dtype="datetime64[ns]")

        async def main():
            service = SortService()
            tasks = [
                asyncio.ensure_future(service.submit(p))
                for p in (good, bad, bad, good)
            ]
            await asyncio.sleep(0)
            await service.start()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            await service.close()
            return results

        results = run(main())
        assert isinstance(results[1], UnsupportedDtypeError)
        assert isinstance(results[2], UnsupportedDtypeError)
        for i in (0, 3):
            assert bytes(results[i].keys) == bytes(repro.sort(good).keys)

    def test_pair_packing_rejected_for_arrays(self):
        async def main():
            async with SortService() as service:
                await service.submit(
                    np.arange(4, dtype=np.uint32), pair_packing="fused"
                )

        with pytest.raises(ConfigurationError, match="file-path inputs"):
            run(main())

    def test_batch_caps_split_oversized_coalitions(self, rng):
        arrays = [
            rng.integers(0, 2**32, 64).astype(np.uint32) for _ in range(6)
        ]

        async def main():
            service = SortService(batch_max_requests=4)
            results = await staged_burst(service, arrays)
            return service.stats, results

        stats, results = run(main())
        assert stats.batches == 2
        assert stats.max_batch_size == 4
        for array, result in zip(arrays, results):
            assert bytes(result.keys) == bytes(repro.sort(array).keys)


class TestPlanCache:
    def test_repeat_shapes_hit_the_cache(self, rng):
        shape_a = [
            rng.integers(0, 2**32, 1000).astype(np.uint32) for _ in range(3)
        ]
        shape_b = rng.integers(0, 2**32, 2000).astype(np.uint64)

        async def main():
            service = SortService(micro_batching=False)
            results = await staged_burst(service, shape_a + [shape_b])
            return service.stats, results

        stats, results = run(main())
        assert stats.plan_cache_misses == 2  # one per distinct shape
        assert stats.plan_cache_hits == 2
        assert results[1].meta["service"]["cache_hit"]


class TestAdmission:
    def test_request_exceeding_budget_alone_is_rejected(self, rng):
        big = rng.integers(0, 2**32, 100_000).astype(np.uint32)

        async def main():
            async with SortService(memory_budget=1 << 16) as service:
                with pytest.raises(AdmissionError, match="memory budget"):
                    await service.submit(big)
                return service.stats

        stats = run(main())
        assert stats.rejected == 1
        assert stats.completed == 0

    def test_budgeted_request_chunks_and_fits(self, rng):
        big = rng.integers(0, 2**32, 100_000).astype(np.uint32)

        async def main():
            async with SortService(memory_budget=1 << 16) as service:
                return await service.submit(big, memory_budget=1 << 14)

        result = run(main())
        assert result.meta["plan"].strategy == "hetero"
        assert bytes(result.keys) == bytes(np.sort(big))

    def test_small_requests_complete_alongside_rejection(self, rng):
        big = rng.integers(0, 2**32, 100_000).astype(np.uint32)
        small = rng.integers(0, 2**32, 500).astype(np.uint32)

        async def main():
            service = SortService(memory_budget=1 << 16)
            tasks = [
                asyncio.ensure_future(service.submit(small)),
                asyncio.ensure_future(service.submit(big)),
                asyncio.ensure_future(service.submit(small)),
            ]
            await asyncio.sleep(0)
            await service.start()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            await service.close()
            return results

        results = run(main())
        assert isinstance(results[1], AdmissionError)
        assert bytes(results[0].keys) == bytes(repro.sort(small).keys)
        assert bytes(results[2].keys) == bytes(repro.sort(small).keys)

    def test_peak_in_flight_respects_budget(self, rng):
        arrays = [
            rng.integers(0, 2**32, 4000).astype(np.uint32) for _ in range(8)
        ]
        budget = 100_000  # two 48 KB charges fit, three do not

        async def main():
            service = SortService(
                memory_budget=budget, micro_batching=False
            )
            results = await staged_burst(service, arrays)
            return service.stats, results

        stats, results = run(main())
        assert 0 < stats.peak_in_flight_bytes <= budget
        for array, result in zip(arrays, results):
            assert bytes(result.keys) == bytes(repro.sort(array).keys)


class TestFileRequests:
    def test_file_round_trip_through_the_service(self, tmp_path, rng):
        from repro.external import FileLayout, read_records, write_records

        keys = rng.integers(0, 2**32, 30_000).astype(np.uint32)
        layout = FileLayout(np.dtype(np.uint32), None)
        src = tmp_path / "input.bin"
        dst = tmp_path / "output.bin"
        write_records(src, layout.to_records(keys, None))

        async def main():
            async with SortService() as service:
                return await service.submit(
                    str(src),
                    output=str(dst),
                    dtype="uint32",
                    memory_budget=32 << 10,
                )

        report = run(main())
        assert report.plan.strategy == "external"
        assert report.n_runs > 1
        assert bytes(read_records(dst, layout)) == bytes(np.sort(keys))

    @pytest.mark.parametrize("packing", ["auto", "fused"])
    def test_file_pair_packing_reaches_the_planner(
        self, tmp_path, rng, packing
    ):
        # The packing decides how the library rung's run sorts order
        # ties: fused words by value bits (the record and its word,
        # twice, while they pack and unpack), key|position words by
        # input position, in place beside their values (1.5 records).
        from repro.external import FileLayout, write_records

        layout = FileLayout(np.uint32, np.uint32)
        keys = rng.integers(0, 50, 6_000).astype(np.uint32)
        values = rng.integers(0, 2**32, keys.size).astype(np.uint32)
        src = str(tmp_path / "input.bin")
        write_records(src, layout.to_records(keys, values))
        kwargs = dict(
            layout=layout, memory_budget=16 << 10, pair_packing=packing
        )

        async def main():
            async with SortService() as service:
                return await service.submit(
                    src, output=str(tmp_path / "served.bin"), **kwargs
                )

        report = run(main())
        step = report.plan.step("spill-runs")
        assert step.params["engine"] == "library"
        assert step.params["footprint_bytes"] == (
            32 if packing == "fused" else 12
        )
        repro.sort(src, output=str(tmp_path / "direct.bin"), **kwargs)
        served = (tmp_path / "served.bin").read_bytes()
        assert served == (tmp_path / "direct.bin").read_bytes()

    def test_missing_file_fails_cleanly(self, tmp_path):
        async def main():
            async with SortService() as service:
                await service.submit(
                    str(tmp_path / "ghost.bin"),
                    output=str(tmp_path / "out.bin"),
                    dtype="uint32",
                )

        with pytest.raises(FileNotFoundError):
            run(main())
