"""Cross-module integration tests: full pipelines on realistic data."""

from __future__ import annotations

import numpy as np

import repro
from repro.baselines import CubRadixSort, MergeSortBaseline, ParadisSorter
from repro.core.hybrid_sort import HybridRadixSorter
from repro.workloads import (
    ENTROPY_LADDER_32,
    generate_entropy_keys,
    generate_pairs,
    uniform_keys,
    zipf_keys,
)


class TestAllSortersAgree:
    """Every sorter in the repository produces the same sorted output."""

    def test_keys_agree(self, rng):
        keys = zipf_keys(20_000, 32, rng=rng)
        expected = np.sort(keys)
        sorters = [
            HybridRadixSorter(),
            CubRadixSort("1.5.1"),
            CubRadixSort("1.6.4"),
            MergeSortBaseline(),
        ]
        for sorter in sorters:
            assert np.array_equal(sorter.sort(keys).keys, expected)
        assert np.array_equal(ParadisSorter().sort(keys).keys, expected)

    def test_pairs_agree_per_key_group(self, rng):
        keys = rng.integers(0, 64, 10_000, dtype=np.uint64).astype(np.uint32)
        values = np.arange(10_000, dtype=np.uint32)
        hybrid = HybridRadixSorter().sort(keys, values)
        cub = CubRadixSort().sort(keys, values)
        assert np.array_equal(hybrid.keys, cub.keys)
        # Value multisets per key group agree even though the hybrid
        # sort is unstable.
        boundaries = np.searchsorted(hybrid.keys, np.arange(64))
        for lo, hi in zip(boundaries, list(boundaries[1:]) + [10_000]):
            assert np.array_equal(
                np.sort(hybrid.values[lo:hi]), np.sort(cub.values[lo:hi])
            )


class TestEntropyLadderSweep:
    def test_hybrid_sorts_every_entropy_level(self, rng):
        for level in ENTROPY_LADDER_32:
            keys = generate_entropy_keys(30_000, 32, level.and_depth, rng)
            result = repro.sort(keys)
            assert np.array_equal(result.keys, np.sort(keys)), level

    def test_simulated_time_monotone_in_skew_direction(self, rng):
        # More counting passes for lower entropy => more simulated time
        # at the extremes (uniform vs constant).
        n = 1 << 18
        # native="never": the assertion is about the simulated device
        # trace, which only the NumPy hybrid engine produces.
        uniform = repro.sort(
            generate_entropy_keys(n, 32, 0, rng), native="never"
        )
        constant = repro.sort(
            generate_entropy_keys(n, 32, None, rng), native="never"
        )
        assert (
            constant.trace.num_counting_passes
            > uniform.trace.num_counting_passes
        )


class TestHeterogeneousEndToEnd:
    def test_hetero_equals_direct_sort(self, rng, budget_for_chunks):
        keys = uniform_keys(80_000, 64, rng)
        keys, values = generate_pairs(keys, 64)
        hetero = repro.sort_pairs(
            keys,
            values,
            memory_budget=budget_for_chunks(keys.nbytes + values.nbytes, 4),
        )
        direct = HybridRadixSorter().sort(keys, values)
        assert hetero.meta["plan"].chunk_plan.n_chunks == 4
        assert np.array_equal(hetero.keys, direct.keys)
        assert np.array_equal(keys[hetero.values.astype(np.int64)], hetero.keys)

    def test_chunk_count_does_not_change_output(self, rng, budget_for_chunks):
        keys = zipf_keys(50_000, 64, rng=rng)
        a = repro.sort(keys, memory_budget=budget_for_chunks(keys.nbytes, 2))
        b = repro.sort(keys, memory_budget=budget_for_chunks(keys.nbytes, 8))
        assert a.meta["plan"].chunk_plan.n_chunks == 2
        assert b.meta["plan"].chunk_plan.n_chunks == 8
        assert np.array_equal(a.keys, b.keys)


class TestPublicAPI:
    def test_sort_function(self, rng):
        keys = uniform_keys(10_000, 32, rng)
        result = repro.sort(keys)
        assert np.array_equal(result.keys, np.sort(keys))

    def test_sort_pairs_function(self, rng):
        keys = uniform_keys(10_000, 32, rng)
        values = np.arange(10_000, dtype=np.uint32)
        result = repro.sort_pairs(keys, values)
        assert np.array_equal(keys[result.values], result.keys)

    def test_version(self):
        assert repro.__version__

    def test_device_accounting_via_api(self, rng):
        device = repro.SimulatedGPU()
        repro.sort(uniform_keys(50_000, 32, rng), device=device)
        assert device.counters.kernel_launches > 0
        assert device.counters.bytes_total > 0
