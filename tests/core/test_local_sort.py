"""Tests for the local sort: configuration ladder and both engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.digits import DigitGeometry
from repro.core.local_sort import (
    LocalSortEngine,
    assign_configs,
    block_radix_sort_shared,
)
from repro.errors import ConfigurationError


GEOMETRY = DigitGeometry(32, 8)


class TestAssignConfigs:
    def test_smallest_fitting_config(self):
        idx = assign_configs(np.array([1, 128, 129, 500]), (128, 256, 512))
        assert idx.tolist() == [0, 0, 1, 2]

    def test_exact_boundaries(self):
        idx = assign_configs(np.array([256]), (128, 256, 512))
        assert idx.tolist() == [1]

    def test_oversized_rejected(self):
        with pytest.raises(ConfigurationError):
            assign_configs(np.array([513]), (128, 256, 512))

    def test_empty_bucket_rejected(self):
        with pytest.raises(ConfigurationError):
            assign_configs(np.array([0]), (128,))


def _run_engine(keys, offsets, sizes, sort_from=None, values=None,
                configs=(16, 32, 64, 128)):
    src = np.asarray(keys, dtype=np.uint32)
    dst = src.copy()
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if sort_from is None:
        sort_from = np.zeros(offsets.size, dtype=np.int64)
    src_v = dst_v = None
    if values is not None:
        src_v = np.asarray(values)
        dst_v = src_v.copy()
    engine = LocalSortEngine(configs, GEOMETRY)
    trace = engine.execute(
        0, src, dst, offsets, sizes, np.asarray(sort_from),
        src_values=src_v, dst_values=dst_v,
    )
    return dst, dst_v, trace


class TestFastEngine:
    def test_single_bucket(self, rng):
        keys = rng.integers(0, 2**32, 100, dtype=np.uint64).astype(np.uint32)
        out, _, _ = _run_engine(keys, [0], [100])
        assert np.array_equal(out, np.sort(keys))

    def test_multiple_disjoint_buckets(self, rng):
        keys = rng.integers(0, 2**32, 300, dtype=np.uint64).astype(np.uint32)
        out, _, _ = _run_engine(keys, [0, 100, 250], [100, 120, 50])
        assert np.array_equal(out[0:100], np.sort(keys[0:100]))
        assert np.array_equal(out[100:220], np.sort(keys[100:220]))
        assert np.array_equal(out[250:300], np.sort(keys[250:300]))
        # The gap between buckets stays untouched.
        assert np.array_equal(out[220:250], keys[220:250])

    def test_untouched_regions_preserved(self, rng):
        keys = rng.integers(0, 2**32, 100, dtype=np.uint64).astype(np.uint32)
        out, _, _ = _run_engine(keys, [10], [20])
        assert np.array_equal(out[:10], keys[:10])
        assert np.array_equal(out[30:], keys[30:])

    def test_max_valued_keys_not_confused_with_padding(self):
        keys = np.array([5, 0xFFFFFFFF, 1, 0xFFFFFFFF], dtype=np.uint32)
        out, _, _ = _run_engine(keys, [0], [4])
        assert out.tolist() == [1, 5, 0xFFFFFFFF, 0xFFFFFFFF]

    def test_values_follow_keys(self, rng):
        keys = rng.integers(0, 1000, 120, dtype=np.uint64).astype(np.uint32)
        values = np.arange(120, dtype=np.uint32)
        out, out_v, _ = _run_engine(keys, [0, 60], [60, 60], values=values)
        for lo, hi in ((0, 60), (60, 120)):
            assert np.array_equal(keys[out_v[lo:hi]], out[lo:hi])
            assert np.array_equal(out[lo:hi], np.sort(keys[lo:hi]))

    def test_trace_config_routing(self, rng):
        keys = rng.integers(0, 2**32, 200, dtype=np.uint64).astype(np.uint32)
        _, _, trace = _run_engine(
            keys, [0, 10, 50], [10, 40, 100], sort_from=[1, 2, 1]
        )
        capacities = {c.capacity: c for c in trace.per_config}
        assert capacities[16].n_buckets == 1
        assert capacities[64].n_buckets == 1
        assert capacities[128].n_buckets == 1
        assert trace.total_keys == 150
        # Provisioned = capacity x buckets (the over-provisioning metric).
        assert trace.provisioned_keys == 16 + 64 + 128

    def test_remaining_digits_weighted(self, rng):
        keys = rng.integers(0, 2**32, 64, dtype=np.uint64).astype(np.uint32)
        _, _, trace = _run_engine(keys, [0, 32], [32, 32], sort_from=[0, 0],
                                  configs=(32, 128))
        stats = trace.per_config[0]
        assert stats.avg_remaining_digits == pytest.approx(4.0)

    def test_empty_request(self):
        keys = np.zeros(10, dtype=np.uint32)
        _, _, trace = _run_engine(keys, [], [])
        assert trace.total_keys == 0
        assert trace.per_config == ()

    def test_padded_pairs_with_max_valued_keys(self):
        # Non-uniform sizes force the padded scratch path; keys equal to
        # the pad value must keep their values attached (the value
        # matrix is uninitialised, so any leak of a padding cell into
        # the first `size` columns would surface here).
        keys = np.array(
            [0xFFFFFFFF, 5, 0xFFFFFFFF, 7, 3, 1, 2], dtype=np.uint32
        )
        values = np.arange(7, dtype=np.uint32)
        out, out_v, _ = _run_engine(
            keys, [0, 3], [3, 4], values=values, configs=(16,)
        )
        assert out.tolist() == [5, 0xFFFFFFFF, 0xFFFFFFFF, 1, 2, 3, 7]
        assert out_v.tolist() == [1, 0, 2, 5, 6, 4, 3]

    def test_uniform_batch_skips_padding(self, rng):
        # All buckets share one size below the configuration capacity:
        # the dense path must still sort values along with keys.
        keys = rng.integers(0, 2**32, 30, dtype=np.uint64).astype(np.uint32)
        values = np.arange(30, dtype=np.uint32)
        out, out_v, _ = _run_engine(
            keys, [0, 10, 20], [10, 10, 10], values=values, configs=(16,)
        )
        for lo in (0, 10, 20):
            assert np.array_equal(out[lo : lo + 10], np.sort(keys[lo : lo + 10]))
            assert np.array_equal(keys[out_v[lo : lo + 10]], out[lo : lo + 10])

    def test_scratch_pool_reused_across_batches(self, rng):
        engine = LocalSortEngine((16, 128), GEOMETRY)
        keys = rng.integers(0, 2**32, 200, dtype=np.uint64).astype(np.uint32)
        offsets = np.array([0, 7, 100], dtype=np.int64)
        sizes = np.array([7, 90, 100], dtype=np.int64)  # non-uniform
        sort_from = np.zeros(3, dtype=np.int64)
        dst = keys.copy()
        engine.execute(0, keys, dst, offsets, sizes, sort_from)
        buffers = {k: id(v) for k, v in engine._scratch.items()}
        assert buffers  # padded path drew from the pool
        dst2 = keys.copy()
        engine.execute(1, keys, dst2, offsets, sizes, sort_from)
        assert {k: id(v) for k, v in engine._scratch.items()} == buffers
        assert np.array_equal(dst, dst2)

    def test_empty_execute_remaining_uses_digit_form(self):
        # Regression: the early return used to copy `sizes` into
        # `bucket_remaining`; the two fields are semantically distinct
        # (sizes are key counts, remaining are digit counts) and the
        # remaining field must always be `num_digits - sort_from`.
        engine = LocalSortEngine((16, 128), GEOMETRY)
        keys = np.arange(10, dtype=np.uint32)
        empty = np.empty(0, dtype=np.int64)
        trace = engine.execute(
            3, keys, keys.copy(), empty, empty.copy(), empty.copy()
        )
        assert trace.bucket_sizes.size == 0
        assert trace.bucket_remaining.size == 0
        assert trace.bucket_remaining.dtype == np.int64
        # Same formula as the non-empty path, on the same inputs.
        nonempty = engine.execute(
            0, keys, keys.copy(),
            np.array([0], dtype=np.int64),
            np.array([10], dtype=np.int64),
            np.array([1], dtype=np.int64),
        )
        assert nonempty.bucket_remaining.tolist() == [
            GEOMETRY.num_digits - 1
        ]

    def test_large_batch_chunking(self, rng):
        # Many buckets in one class exercise the row-batching path.
        n_buckets = 3000
        size = 8
        keys = rng.integers(0, 2**32, n_buckets * size, dtype=np.uint64).astype(np.uint32)
        offsets = np.arange(n_buckets) * size
        out, _, _ = _run_engine(keys, offsets, np.full(n_buckets, size))
        reshaped = out.reshape(n_buckets, size)
        assert np.all(reshaped[:, :-1] <= reshaped[:, 1:])

    def test_slice_path_matches_matrix_path(self, rng, monkeypatch):
        import repro.core.local_sort as ls

        keys = rng.integers(0, 2**32, 600, dtype=np.uint64).astype(np.uint32)
        offsets = [0, 100, 230, 300, 420, 500]
        sizes = [100, 128, 70, 120, 80, 100]  # padded rows on the matrix path
        monkeypatch.setattr(ls, "_SLICE_SORT_MIN_AVG", 1)
        sliced, _, _ = _run_engine(keys, offsets, sizes)
        monkeypatch.setattr(ls, "_SLICE_SORT_MIN_AVG", 10**9)
        matrixed, _, _ = _run_engine(keys, offsets, sizes)
        assert np.array_equal(sliced, matrixed)
        for lo, size in zip(offsets, sizes):
            assert np.array_equal(
                sliced[lo : lo + size], np.sort(keys[lo : lo + size])
            )


class TestBlockRadixSortShared:
    def test_full_sort(self, rng):
        keys = rng.integers(0, 2**32, 500, dtype=np.uint64).astype(np.uint32)
        out, _ = block_radix_sort_shared(keys, GEOMETRY)
        assert np.array_equal(out, np.sort(keys))

    def test_from_digit_with_shared_prefix(self, rng):
        # Keys agreeing on the top two digits: sorting from digit 2 must
        # fully sort them.
        base = np.uint32(0xAABB0000)
        keys = (base | rng.integers(0, 2**16, 200, dtype=np.uint64).astype(np.uint32))
        out, _ = block_radix_sort_shared(keys, GEOMETRY, from_digit=2)
        assert np.array_equal(out, np.sort(keys))

    def test_values_follow(self, rng):
        keys = rng.integers(0, 256, 100, dtype=np.uint64).astype(np.uint32)
        values = np.arange(100, dtype=np.uint32)
        out, out_v = block_radix_sort_shared(keys, GEOMETRY, 0, values)
        assert np.array_equal(keys[out_v], out)

    def test_is_stable(self):
        keys = np.array([2, 1, 2, 1, 2], dtype=np.uint32)
        values = np.arange(5, dtype=np.uint32)
        _, out_v = block_radix_sort_shared(keys, GEOMETRY, 0, values)
        assert out_v.tolist() == [1, 3, 0, 2, 4]

    def test_matches_fast_engine(self, rng):
        keys = rng.integers(0, 2**32, 128, dtype=np.uint64).astype(np.uint32)
        faithful, _ = block_radix_sort_shared(keys, GEOMETRY)
        fast, _, _ = _run_engine(keys, [0], [128])
        assert np.array_equal(faithful, fast)

    def test_invalid_from_digit(self):
        with pytest.raises(ConfigurationError):
            block_radix_sort_shared(
                np.zeros(4, dtype=np.uint32), GEOMETRY, from_digit=5
            )
