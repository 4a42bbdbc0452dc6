"""Tests for the heterogeneous sort (§5): the host run and the model."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.hetero.sorter import HeterogeneousSorter
from repro.workloads import generate_pairs, uniform_keys, zipf_keys

GB = 10**9


class TestFunctionalPath:
    """The §5 scheme really sorting: a budgeted ``repro.sort``.

    Chunks sort on the host rungs and merge through
    ``external.merge.drain_cursors``; the model below only prices.
    """

    def test_sorts_keys(self, rng, budget_for_chunks):
        keys = uniform_keys(100_000, 64, rng)
        out = repro.sort(
            keys, memory_budget=budget_for_chunks(keys.nbytes, 4)
        )
        assert out.meta["plan"].chunk_plan.n_chunks == 4
        assert np.array_equal(out.keys, np.sort(keys))

    def test_sorts_pairs(self, rng, budget_for_chunks):
        keys = uniform_keys(60_000, 64, rng)
        keys, values = generate_pairs(keys, 64)
        out = repro.sort_pairs(
            keys,
            values,
            memory_budget=budget_for_chunks(keys.nbytes + values.nbytes, 3),
        )
        assert out.meta["plan"].chunk_plan.n_chunks == 3
        assert np.array_equal(out.keys, np.sort(keys))
        assert np.array_equal(keys[out.values.astype(np.int64)], out.keys)

    def test_zipf_input(self, rng, budget_for_chunks):
        keys = zipf_keys(50_000, 64, rng=rng)
        out = repro.sort(
            keys, memory_budget=budget_for_chunks(keys.nbytes, 4)
        )
        assert out.meta["plan"].chunk_plan.n_chunks == 4
        assert np.array_equal(out.keys, np.sort(keys))

    def test_host_run_reports_no_simulated_time(self, rng, budget_for_chunks):
        keys = uniform_keys(50_000, 64, rng)
        out = repro.sort(
            keys, memory_budget=budget_for_chunks(keys.nbytes, 4)
        )
        assert out.meta["engine"] == "hetero"
        assert out.simulated_seconds == 0.0

    def test_empty_input_never_chunks(self):
        out = repro.sort(np.empty(0, dtype=np.uint64), memory_budget=1)
        assert out.keys.size == 0
        assert out.meta["plan"].strategy != "hetero"


class TestModelPath:
    @pytest.fixture
    def sample(self, rng):
        keys = uniform_keys(1 << 18, 64, rng)
        return generate_pairs(keys, 64)

    def test_fig8_chunked_sort_approaches_pcie_time(self, sample):
        # §6.2: at s = 16 the chunked sort is within ~16 % of one PCIe
        # traversal of the 6 GB input (540 ms).
        keys, values = sample
        out = HeterogeneousSorter().simulate(
            6 * GB, keys, values, n_chunks=16
        )
        assert out.chunked_sort_seconds == pytest.approx(0.540, rel=0.25)
        assert out.chunked_sort_seconds >= 0.540

    def test_fig8_minimum_at_four_chunks(self, sample):
        keys, values = sample
        totals = {
            s: HeterogeneousSorter()
            .simulate(6 * GB, keys, values, n_chunks=s)
            .total_seconds
            for s in (2, 4, 16)
        }
        # §6.2: "we therefore see a minimum for the overall end-to-end
        # sorting time for four chunks" on the six-core host.
        assert totals[4] < totals[2]
        assert totals[4] < totals[16]

    def test_fig9_uniform_64gb(self, sample):
        keys, values = sample
        out = HeterogeneousSorter().simulate(64 * GB, keys, values, n_chunks=16)
        # §6.2: GPU side done after ~6.7 s, merge ~9.3 s, total ~16 s.
        assert out.chunked_sort_seconds == pytest.approx(6.7, rel=0.1)
        assert out.merge_seconds == pytest.approx(9.3, rel=0.1)
        assert out.total_seconds == pytest.approx(16.0, rel=0.1)

    def test_distribution_agnostic(self, rng, sample):
        # §6.2: hetero performance varies "by no more than 5%" between
        # uniform and Zipfian.
        uni_keys, uni_values = sample
        zipf = zipf_keys(1 << 18, 64, rng=rng)
        zipf, zipf_values = generate_pairs(zipf, 64)
        t_uni = HeterogeneousSorter().simulate(
            16 * GB, uni_keys, uni_values, n_chunks=4
        ).total_seconds
        t_zipf = HeterogeneousSorter().simulate(
            16 * GB, zipf, zipf_values, n_chunks=4
        ).total_seconds
        assert abs(t_zipf - t_uni) / t_uni < 0.05

    def test_naive_baseline(self):
        h = HeterogeneousSorter()
        naive = h.simulate_naive(6 * GB, on_gpu_seconds=0.636)
        # Figure 8's naive CUB bar: 540 + 636 + 540 ms.
        assert naive["total"] == pytest.approx(1.716, rel=0.01)

    def test_pipelined_beats_naive(self, sample):
        keys, values = sample
        out = HeterogeneousSorter().simulate(6 * GB, keys, values, n_chunks=4)
        naive = HeterogeneousSorter().simulate_naive(
            6 * GB, out.meta["per_chunk_sort"] * 4
        )
        assert out.total_seconds < naive["total"]


class TestModelSchedule:
    def test_schedule_attached(self, rng):
        keys = uniform_keys(50_000, 64, rng)
        out = HeterogeneousSorter().simulate(6 * GB, keys, n_chunks=4)
        assert out.schedule.n_chunks == 4
        assert out.total_seconds > 0
        assert out.total_seconds == pytest.approx(
            out.chunked_sort_seconds + out.merge_seconds
        )
