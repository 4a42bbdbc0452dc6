"""Oracle tests: planner-routed execution is bit-identical to the engines.

The refactor's contract is that the plan layer only *chooses* — every
facade output must be byte-for-byte what the pre-planner engine
produced.  The oracles here are the engines called directly
(``HybridRadixSorter``, ``CubRadixSort``) and NumPy's stable sort.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.baselines.cub import CubRadixSort
from repro.core.hybrid_sort import HybridRadixSorter
from repro.errors import ConfigurationError
from repro.external import FileLayout, read_records, write_records
from repro.plan import (
    DEFAULT_REGISTRY,
    ExecutorRegistry,
    InputDescriptor,
    Planner,
    execute_plan,
)

key_lists = st.lists(
    st.integers(0, 2**32 - 1), min_size=0, max_size=400
)


class TestHybridOracle:
    @given(raw=key_lists)
    @settings(max_examples=40, deadline=None)
    def test_facade_equals_engine_keys(self, raw):
        keys = np.array(raw, dtype=np.uint32)
        facade = repro.sort(keys)
        oracle = HybridRadixSorter().sort(keys)
        assert np.array_equal(facade.keys, oracle.keys)
        assert facade.meta["plan"].strategy == "library"
        pinned = repro.sort(keys, native="never")
        assert np.array_equal(pinned.keys, oracle.keys)
        assert pinned.meta["plan"].strategy == "hybrid"

    @given(raw=key_lists)
    @settings(max_examples=25, deadline=None)
    def test_facade_equals_engine_pairs(self, raw):
        keys = np.array(raw, dtype=np.uint32)
        values = np.arange(keys.size, dtype=np.uint32)
        facade = repro.sort_pairs(keys, values)
        oracle = HybridRadixSorter().sort(keys, values)
        assert np.array_equal(facade.keys, oracle.keys)
        assert np.array_equal(facade.values, oracle.values)

    @pytest.mark.parametrize(
        "dtype", [np.uint32, np.uint64, np.int32, np.int64,
                  np.float32, np.float64]
    )
    def test_every_dtype_routes_and_matches(self, dtype, rng):
        keys = rng.integers(0, 2**31, 5_000).astype(dtype)
        facade = repro.sort(keys)
        oracle = HybridRadixSorter().sort(keys)
        assert facade.keys.dtype == np.dtype(dtype)
        assert np.array_equal(facade.keys, oracle.keys)

    def test_records_facade_keeps_recomposition(self, rng):
        from repro.core.pairs import make_records

        keys = rng.integers(0, 2**32, 3_000, dtype=np.uint64).astype(
            np.uint32
        )
        values = np.arange(keys.size, dtype=np.uint32)
        result = repro.sort_records(
            make_records(keys, values), native="never"
        )
        assert np.array_equal(result.meta["records"]["key"], result.keys)
        assert result.meta["plan"].strategy == "hybrid"


class TestAdaptiveOracle:
    @given(
        n=st.integers(0, 3000),
        crossover=st.integers(0, 3000),
    )
    @settings(max_examples=30, deadline=None)
    def test_dispatch_matches_manual_oracle(self, n, crossover):
        keys = (np.arange(n, dtype=np.uint32) * 2654435761) % (2**31)
        sorter = repro.AdaptiveSorter(key_crossover=crossover)
        result = sorter.sort(keys)
        if n >= crossover:
            oracle = HybridRadixSorter().sort(keys)
            assert result.meta["engine"] == "hybrid"
        else:
            oracle = CubRadixSort("1.5.1").sort(keys)
            assert result.meta["engine"] == "cub-fallback"
        assert np.array_equal(result.keys, oracle.keys)
        assert result.meta["plan"].strategy in ("hybrid", "fallback")


class TestHeteroOracle:
    def test_budgeted_facade_equals_in_memory(self, rng):
        keys = rng.integers(0, 2**32, 80_000, dtype=np.uint64).astype(
            np.uint32
        )
        values = np.arange(keys.size, dtype=np.uint32)
        budget = (keys.nbytes + values.nbytes) // 3
        chunked = repro.sort_pairs(keys, values, memory_budget=budget)
        oracle = HybridRadixSorter().sort(keys, values)
        assert chunked.meta["engine"] == "hetero"
        assert chunked.meta["plan"].run_plan.n_runs > 1
        assert np.array_equal(chunked.keys, oracle.keys)
        assert np.array_equal(chunked.values, oracle.values)

    @pytest.mark.parametrize("value_dtype", [np.int16, np.bool_, np.float16])
    def test_chunks_stage_any_numeric_values(self, rng, value_dtype):
        # Chunks sort as records, whatever value dtype rides along.
        keys = rng.integers(0, 2**32, 20_000, dtype=np.uint64).astype(
            np.uint32
        )
        values = rng.integers(0, 2, keys.size).astype(value_dtype)
        budget = (keys.nbytes + values.nbytes) // 4
        chunked = repro.sort_pairs(keys, values, memory_budget=budget)
        whole = repro.sort_pairs(keys, values)
        assert chunked.meta["plan"].strategy == "hetero"
        assert chunked.keys.tobytes() == whole.keys.tobytes()
        assert chunked.values.tobytes() == whole.values.tobytes()

    @pytest.mark.parametrize("value_dtype", ["S4", "U1", "V4"])
    def test_chunks_stage_byte_payloads(self, rng, value_dtype):
        # Bytes, strings and raw fields stage as records too.
        keys = rng.integers(0, 2**32, 20_000, dtype=np.uint64).astype(
            np.uint32
        )
        values = rng.integers(32, 127, keys.size).astype(np.uint32)
        values = values.view(value_dtype)
        budget = (keys.nbytes + values.nbytes) // 4
        chunked = repro.sort_pairs(keys, values, memory_budget=budget)
        whole = repro.sort_pairs(keys, values)
        assert chunked.meta["plan"].strategy == "hetero"
        assert chunked.keys.tobytes() == whole.keys.tobytes()
        assert chunked.values.tobytes() == whole.values.tobytes()

    @pytest.mark.parametrize("native", ["auto", "never"])
    def test_object_payloads_sort_whole(self, rng, native):
        # Object references cannot stage as record bytes, so no budget
        # chunks them.
        keys = rng.integers(0, 50, 5_000).astype(np.uint32)
        values = np.arange(keys.size).astype(object)
        whole = repro.sort_pairs(keys, values, native=native)
        for budget in (1 << 30, 12 * keys.size, 1024):
            out = repro.sort_pairs(
                keys, values, memory_budget=budget, native=native
            )
            assert out.meta["plan"].strategy == whole.meta["plan"].strategy
            assert out.keys.tobytes() == whole.keys.tobytes()
            assert out.values.tolist() == whole.values.tolist()

    def test_hetero_sorter_unchanged_by_refactor(
        self, rng, budget_for_chunks
    ):
        keys = rng.integers(0, 2**32, 65_537, dtype=np.uint64)
        out = repro.sort(
            keys,
            memory_budget=budget_for_chunks(keys, None, 3),
            native="never",
        )
        assert np.array_equal(out.keys, np.sort(keys))
        assert out.meta["plan"].strategy == "hetero"
        assert out.meta["plan"].run_plan.n_runs == 3


class TestExternalOracle:
    def test_file_facade_equals_in_memory(self, tmp_path, rng):
        keys = rng.integers(0, 2**32, 20_000, dtype=np.uint64).astype(
            np.uint32
        )
        inp = tmp_path / "in.bin"
        outp = tmp_path / "out.bin"
        write_records(inp, keys)
        report = repro.sort(
            str(inp), output=outp, dtype="uint32", memory_budget=16_384
        )
        assert report.n_runs > 1
        assert report.plan.strategy == "external"
        got = read_records(outp, FileLayout(np.uint32))
        assert np.array_equal(got, np.sort(keys))

    def test_layout_object_and_pathlike_inputs(self, tmp_path, rng):
        layout = FileLayout(np.uint32, np.uint32)
        keys = rng.integers(0, 100, 5_000, dtype=np.uint64).astype(np.uint32)
        values = np.arange(keys.size, dtype=np.uint32)
        inp = tmp_path / "pairs.bin"
        outp = tmp_path / "sorted.bin"
        write_records(inp, layout.to_records(keys, values))
        report = repro.sort(
            inp, output=outp, layout=layout, memory_budget=8_192
        )
        oracle = HybridRadixSorter().sort(keys, values)
        got_keys, got_values = layout.to_columns(
            read_records(outp, layout)
        )
        assert np.array_equal(got_keys, oracle.keys)
        assert np.array_equal(got_values, oracle.values)

    def test_file_sort_requires_output_and_layout(self, tmp_path):
        inp = tmp_path / "in.bin"
        np.arange(10, dtype=np.uint32).tofile(inp)
        with pytest.raises(ConfigurationError):
            repro.sort(str(inp), dtype="uint32")
        with pytest.raises(ConfigurationError):
            repro.sort(str(inp), output=tmp_path / "out.bin")

    def test_array_sort_rejects_file_only_kwargs(self, tmp_path):
        # output= on an array would otherwise be silently dead — no
        # file written, no error.
        keys = np.arange(100, dtype=np.uint32)
        with pytest.raises(ConfigurationError, match="file-path"):
            repro.sort(keys, output=tmp_path / "out.bin")
        with pytest.raises(ConfigurationError, match="file-path"):
            repro.sort(keys, dtype="uint32")
        with pytest.raises(ConfigurationError, match="file-path"):
            repro.sort(keys, pair_packing="fused")


class TestRegistry:
    def test_unknown_strategy_errors(self):
        desc = InputDescriptor(n=10, key_dtype=np.uint32)
        plan = Planner().plan(desc)
        object.__setattr__(plan, "strategy", "quantum")
        with pytest.raises(ConfigurationError):
            execute_plan(plan, keys=np.arange(10, dtype=np.uint32))

    def test_custom_registry_extends_without_touching_default(self):
        registry = ExecutorRegistry()
        registry.register("hybrid", lambda plan, **io: "custom")
        desc = InputDescriptor(n=10, key_dtype=np.uint32)
        plan = Planner(native="never").plan(desc)
        assert execute_plan(plan, registry=registry) == "custom"
        assert "hybrid" in DEFAULT_REGISTRY.strategies()
        assert set(DEFAULT_REGISTRY.strategies()) == {
            "hybrid", "fallback", "hetero", "external", "oracle", "native",
            "library",
        }
