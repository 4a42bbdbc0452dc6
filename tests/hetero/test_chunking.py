"""Tests for chunk planning and the in-place replacement layout (§5)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ResourceExhaustedError
from repro.gpu.spec import TITAN_X_PASCAL
from repro.hetero.chunking import max_chunk_bytes, plan_chunks

GB = 10**9


class TestMaxChunk:
    def test_three_buffer_layout_near_third_of_device(self):
        # §5: chunks "may take up almost one third of the available
        # device memory".
        limit = max_chunk_bytes(in_place_replacement=True)
        assert limit > TITAN_X_PASCAL.device_memory_bytes // 4
        assert limit <= TITAN_X_PASCAL.device_memory_bytes // 3

    def test_four_buffer_layout_is_smaller(self):
        # The point of in-place replacement: larger chunks.
        with_replacement = max_chunk_bytes(in_place_replacement=True)
        without = max_chunk_bytes(in_place_replacement=False)
        assert without < with_replacement

    def test_64gb_in_16_chunks_fits(self):
        # §5: "we could sort an input of up to 64 GB" with 4 GB chunks.
        plan = plan_chunks(64 * GB, n_chunks=16)
        assert plan.chunk_bytes == 4 * GB
        assert plan.chunk_bytes <= max_chunk_bytes()

    def test_reserve_guard(self):
        with pytest.raises(ResourceExhaustedError):
            max_chunk_bytes(reserve_bytes=TITAN_X_PASCAL.device_memory_bytes + 1)


class TestPlanChunks:
    def test_explicit_chunk_count(self):
        plan = plan_chunks(6 * GB, n_chunks=4)
        assert plan.n_chunks == 4
        assert sum(plan.chunk_sizes) == 6 * GB

    def test_auto_chunk_count(self):
        plan = plan_chunks(64 * GB)
        assert plan.n_chunks >= 16
        assert plan.chunk_bytes <= max_chunk_bytes()

    def test_small_input_single_chunk(self):
        plan = plan_chunks(1 * GB)
        assert plan.n_chunks == 1

    def test_last_chunk_smaller(self):
        plan = plan_chunks(10 * GB, n_chunks=3)
        sizes = plan.chunk_sizes
        assert len(sizes) == 3
        assert sizes[-1] <= sizes[0]
        assert sum(sizes) == 10 * GB

    def test_oversized_chunk_rejected(self):
        with pytest.raises(ResourceExhaustedError):
            plan_chunks(64 * GB, n_chunks=2)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            plan_chunks(0)
        with pytest.raises(ConfigurationError):
            plan_chunks(1 * GB, n_chunks=0)
