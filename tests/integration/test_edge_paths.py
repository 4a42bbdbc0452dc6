"""Edge-path and failure-injection tests across modules."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.analytical import AnalyticalModel
from repro.core.config import SortConfig
from repro.core.counting_sort import block_level_counting_sort
from repro.cost.model import CostModel
from repro.errors import TraceError
from repro.types import BlockStats, CountingPassTrace, SortTrace
from repro.workloads import uniform_keys


class TestFaithfulEngine64:
    def test_block_level_counting_sort_64bit(self, rng):
        config = SortConfig(
            key_bits=64, kpb=96, threads=32, kpt=3,
            local_threshold=128, merge_threshold=40,
            local_sort_configs=(16, 32, 64, 128),
        )
        keys = rng.integers(0, 2**64, 700, dtype=np.uint64)
        out, _, hist = block_level_counting_sort(keys, config, 0)
        assert hist.sum() == 700
        digits = (out >> np.uint64(56)).astype(np.int64)
        assert np.all(digits[:-1] <= digits[1:])
        assert np.array_equal(np.sort(out), np.sort(keys))


class TestTraceValidationInjection:
    def _bogus_trace(self, live_buckets: int, blocks: int) -> SortTrace:
        p = CountingPassTrace(
            pass_index=0,
            n_keys=10_000,
            n_buckets_in=1,
            n_blocks=blocks,
            n_subbuckets_nonempty=256,
            n_merged_buckets=0,
            n_local_buckets=live_buckets,
            n_next_buckets=0,
            block_stats=BlockStats(),
            key_bytes=4,
            value_bytes=0,
            avg_nonempty_per_block=10.0,
        )
        return SortTrace(
            n=10_000, key_bits=32, value_bits=0,
            counting_passes=(p,), local_sorts=(),
            finished_early=True, final_buffer_index=0,
        )

    def test_bucket_bound_violation_detected(self, small_config):
        model = AnalyticalModel(small_config)
        bogus = self._bogus_trace(live_buckets=10**6, blocks=1)
        violations = model.validate_trace(bogus)
        assert violations
        assert "I3" in violations[0]

    def test_block_bound_violation_detected(self, small_config):
        model = AnalyticalModel(small_config)
        bogus = self._bogus_trace(live_buckets=1, blocks=10**7)
        violations = model.validate_trace(bogus)
        assert any("I4" in v for v in violations)

    def test_cost_model_rejects_negative_n(self, small_config):
        model = CostModel()
        trace = SortTrace(
            n=-1, key_bits=32, value_bits=0, counting_passes=(),
            local_sorts=(), finished_early=True, final_buffer_index=0,
        )
        with pytest.raises(TraceError):
            model.price_hybrid(trace, small_config)


class TestHeteroOddSplits:
    @pytest.mark.parametrize("n", [100_001, 65_537, 99_999])
    def test_non_divisible_chunk_boundaries(self, rng, n, budget_for_chunks):
        keys = uniform_keys(n, 64, rng)
        out = repro.sort(
            keys, memory_budget=budget_for_chunks(keys.nbytes, 3)
        )
        assert out.meta["plan"].chunk_plan.n_chunks == 3
        assert np.array_equal(out.keys, np.sort(keys))

    def test_single_chunk_degenerates_to_direct_sort(self, rng):
        # A budget that holds the input as one chunk plans no merge.
        keys = uniform_keys(50_000, 64, rng)
        out = repro.sort(keys, memory_budget=3 * keys.nbytes)
        assert np.array_equal(out.keys, np.sort(keys))
        assert out.meta["plan"].strategy != "hetero"
