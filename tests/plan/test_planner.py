"""Tests for the sort planner: descriptors, strategy choice, the IR.

Planning is a pure function of the descriptor — deterministic, cheap,
and data-free — and its budget arithmetic must be *the same* arithmetic
the engines used before the refactor (``plan_chunks``/``plan_runs``),
not a reimplementation that can drift.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.external.format import FileLayout
from repro.external.runs import plan_runs, run_footprint
from repro.hetero.chunking import plan_chunks
from repro.plan import (
    PAPER_CROSSOVER_KEYS,
    PAPER_CROSSOVER_PAIRS,
    InputDescriptor,
    Planner,
    PlanStep,
    SortPlan,
)


class TestInputDescriptor:
    def test_for_array_records_geometry(self):
        keys = np.zeros(1000, dtype=np.uint64)
        values = np.zeros(1000, dtype=np.uint32)
        desc = InputDescriptor.for_array(keys, values)
        assert desc.n == 1000
        assert desc.key_bits == 64
        assert desc.value_bits == 32
        assert desc.record_bytes == 12
        assert desc.total_bytes == 12_000
        assert desc.source == "array"

    def test_for_file_reads_size_only(self, tmp_path):
        path = tmp_path / "data.bin"
        np.arange(500, dtype=np.uint32).tofile(path)
        desc = InputDescriptor.for_file(path, FileLayout(np.uint32))
        assert desc.n == 500
        assert desc.source == "file"
        assert desc.path == str(path)

    def test_float_keys_use_bits_width(self):
        desc = InputDescriptor.for_array(np.zeros(4, dtype=np.float64))
        assert desc.key_bits == 64

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            InputDescriptor(n=-1, key_dtype=np.uint32)
        with pytest.raises(ConfigurationError):
            InputDescriptor(n=1, key_dtype=np.uint32, source="tape")
        with pytest.raises(ConfigurationError):
            InputDescriptor(n=1, key_dtype=np.uint32, source="file")
        with pytest.raises(ConfigurationError):
            InputDescriptor(n=1, key_dtype=np.uint32, memory_budget=0)
        with pytest.raises(ConfigurationError):
            InputDescriptor(n=1, key_dtype=np.uint32, workers=0)
        with pytest.raises(ConfigurationError):
            InputDescriptor.for_array(np.zeros((2, 2), dtype=np.uint32))

    def test_to_dict_is_json_ready(self):
        desc = InputDescriptor.for_array(np.zeros(8, dtype=np.int32))
        json.dumps(desc.to_dict())


class TestStrategyChoice:
    def test_array_defaults_to_hybrid(self):
        # native="never" pins the NumPy tier: the default planner may
        # upgrade a large array to the compiled tier when the host has
        # it (TestNativeChoice covers that dispatch).
        desc = InputDescriptor(n=1 << 20, key_dtype=np.uint32)
        plan = Planner(native="never").plan(desc)
        assert plan.strategy == "hybrid"
        assert [s.kind for s in plan.steps] == ["hybrid-msd"]

    def test_tiny_array_plans_one_local_sort(self):
        desc = InputDescriptor(n=100, key_dtype=np.uint32)
        plan = Planner(native="never").plan(desc)
        assert [s.kind for s in plan.steps] == ["local-sort"]

    def test_adaptive_small_input_falls_back(self):
        desc = InputDescriptor(n=100_000, key_dtype=np.uint32)
        assert Planner(native="never").plan(desc).strategy == "hybrid"
        plan = Planner(adaptive=True, native="never").plan(desc)
        assert plan.strategy == "fallback"
        assert [s.kind for s in plan.steps] == ["lsd-fallback"]

    def test_budget_overflow_plans_chunked_pipeline(self):
        desc = InputDescriptor(
            n=1 << 20, key_dtype=np.uint32, memory_budget=1 << 20
        )
        plan = Planner().plan(desc)
        assert plan.strategy == "hetero"
        assert [s.kind for s in plan.steps] == [
            "chunked-pipeline", "kway-merge",
        ]

    def test_budget_fitting_input_stays_hybrid(self):
        desc = InputDescriptor(
            n=1000, key_dtype=np.uint32, memory_budget=1 << 20
        )
        assert Planner(native="never").plan(desc).strategy == "hybrid"

    def test_file_plans_external(self, tmp_path):
        path = tmp_path / "in.bin"
        np.arange(10_000, dtype=np.uint32).tofile(path)
        desc = InputDescriptor.for_file(
            path, FileLayout(np.uint32), memory_budget=8192
        )
        plan = Planner().plan(desc)
        assert plan.strategy == "external"
        assert [s.kind for s in plan.steps] == ["spill-runs", "kway-merge"]
        assert plan.run_plan.n_runs > 1

    def test_planning_is_deterministic(self):
        desc = InputDescriptor(
            n=123_456, key_dtype=np.uint64, value_dtype=np.uint64,
            memory_budget=1 << 20,
        )
        assert Planner().plan(desc) == Planner().plan(desc)


class TestBudgetLogicUnification:
    """The planner's sizing equals the engines' historical arithmetic."""

    def test_chunked_plan_matches_plan_chunks(self):
        desc = InputDescriptor(
            n=1 << 20, key_dtype=np.uint32, memory_budget=1 << 20
        )
        plan = Planner().plan(desc)
        assert plan.chunk_plan == plan_chunks(
            desc.total_bytes, budget_bytes=desc.memory_budget
        )

    def test_external_plan_matches_plan_runs(self, tmp_path):
        path = tmp_path / "in.bin"
        np.arange(9_999, dtype=np.uint32).tofile(path)
        desc = InputDescriptor.for_file(
            path, FileLayout(np.uint32), memory_budget=16_384
        )
        plan = Planner().plan(desc)
        # uint32 key runs sort in place on the library rung: their
        # footprint is the record itself.
        footprint = run_footprint(FileLayout(np.uint32), "library")
        assert plan.step("spill-runs").params["footprint_bytes"] == footprint
        assert plan.run_plan == plan_runs(9_999, 4, 16_384, footprint)

    def test_larger_budget_never_needs_more_runs(self, tmp_path):
        path = tmp_path / "in.bin"
        np.arange(50_000, dtype=np.uint32).tofile(path)
        runs = [
            Planner().plan(
                InputDescriptor.for_file(
                    path, FileLayout(np.uint32), memory_budget=budget
                )
            ).run_plan.n_runs
            for budget in (8 << 10, 32 << 10, 128 << 10)
        ]
        assert runs == sorted(runs, reverse=True)

    @pytest.mark.parametrize("memory_budget", [None, 1 << 10])
    def test_empty_chunked_plan_rejected(self, memory_budget):
        desc = InputDescriptor(
            n=0, key_dtype=np.uint32, memory_budget=memory_budget
        )
        with pytest.raises(ConfigurationError):
            Planner().plan_chunked(desc)

    def test_unbudgeted_chunked_plan_rejected(self):
        # Chunks are sized against memory_budget; there is no device
        # memory to fall back on.
        desc = InputDescriptor(n=1 << 20, key_dtype=np.uint64)
        with pytest.raises(ConfigurationError, match="memory_budget"):
            Planner().plan_chunked(desc)


class TestChunkedPlan:
    """A budgeted array sorts its chunks on the rung a run would use."""

    @pytest.mark.parametrize("native", ["auto", "never"])
    @pytest.mark.parametrize(
        "key_dtype,value_dtype",
        [
            (np.uint32, None),
            (np.float64, None),
            (np.uint32, np.uint32),
            (np.int64, np.uint64),
        ],
    )
    def test_chunk_engine_is_the_run_engine(
        self, native, key_dtype, value_dtype
    ):
        planner = Planner(native=native)
        desc = InputDescriptor(
            n=1 << 20,
            key_dtype=key_dtype,
            value_dtype=value_dtype,
            memory_budget=1 << 20,
        )
        plan = planner.plan(desc)
        step = plan.step("chunked-pipeline")
        chunk = -(-desc.n // plan.chunk_plan.n_chunks)
        assert (step.params["engine"], step.params["engine_note"]) == (
            planner.run_engine(desc, chunk)
        )
        assert plan.engine == f"{step.params['engine']} chunks + drain_cursors"

    def test_fused_packing_chunks_take_the_library_rung(self):
        from dataclasses import replace

        from repro.core.config import SortConfig

        config = replace(SortConfig.for_layout(32, 32), pair_packing="fused")
        desc = InputDescriptor(
            n=1 << 20, key_dtype=np.uint32, value_dtype=np.uint32,
            memory_budget=1 << 20,
        )
        step = Planner(config=config).plan(desc).step("chunked-pipeline")
        assert step.params["engine"] == "library"

    def test_chunks_priced_as_run_sorts(self):
        planner = Planner(native="never")
        desc = InputDescriptor(
            n=1_000_003, key_dtype=np.uint32, memory_budget=1 << 20
        )
        plan = planner.plan(desc)
        k = plan.chunk_plan.n_chunks
        chunk = -(-desc.n // k)
        assert plan.step("chunked-pipeline").predicted_seconds == (
            pytest.approx(k * planner._run_sort_seconds(desc, "hybrid", chunk))
        )
        assert plan.step("kway-merge").predicted_seconds == pytest.approx(
            planner._merge_seconds(desc.total_bytes, k, desc.record_bytes)
        )


class TestAdaptiveDispatchProperty:
    """Planner dispatch reproduces ``chooses_hybrid`` exactly (§6.1)."""

    @given(
        n=st.integers(0, 4_000_000),
        has_values=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_strategy_equals_case_distinction(self, n, has_values):
        planner = Planner(adaptive=True, native="never")
        desc = InputDescriptor(
            n=n,
            key_dtype=np.uint32,
            value_dtype=np.uint32 if has_values else None,
        )
        plan = planner.plan(desc)
        expected_hybrid = planner.chooses_hybrid(n, has_values)
        assert (plan.strategy == "hybrid") == expected_hybrid
        assert (plan.strategy == "fallback") == (not expected_hybrid)

    def test_crossover_boundary_is_inclusive(self):
        planner = Planner(adaptive=True, native="never")
        at = InputDescriptor(n=PAPER_CROSSOVER_KEYS, key_dtype=np.uint32)
        below = InputDescriptor(
            n=PAPER_CROSSOVER_KEYS - 1, key_dtype=np.uint32
        )
        assert planner.plan(at).strategy == "hybrid"
        assert planner.plan(below).strategy == "fallback"
        pairs_at = InputDescriptor(
            n=PAPER_CROSSOVER_PAIRS, key_dtype=np.uint32,
            value_dtype=np.uint32,
        )
        assert planner.plan(pairs_at).strategy == "hybrid"

    def test_negative_crossover_rejected(self):
        with pytest.raises(ConfigurationError):
            Planner(key_crossover=-1)


class TestPlanIR:
    def test_unknown_step_kind_rejected(self):
        with pytest.raises(ValueError):
            PlanStep(kind="teleport")

    def test_step_lookup(self):
        desc = InputDescriptor(n=10, key_dtype=np.uint32)
        plan = Planner(native="never").plan(desc)
        assert plan.step("local-sort").kind == "local-sort"
        with pytest.raises(KeyError):
            plan.step("spill-runs")

    def test_to_dict_json_round_trip(self, tmp_path):
        path = tmp_path / "in.bin"
        np.arange(5_000, dtype=np.uint32).tofile(path)
        desc = InputDescriptor.for_file(
            path, FileLayout(np.uint32), memory_budget=8192
        )
        plan = Planner().plan(desc)
        payload = json.loads(json.dumps(plan.to_dict()))
        assert payload["strategy"] == "external"
        assert payload["descriptor"]["n"] == 5_000
        assert [s["kind"] for s in payload["steps"]] == [
            "spill-runs", "kway-merge",
        ]
        assert payload["predicted_seconds"] > 0

    def test_explain_mentions_strategy_and_steps(self):
        desc = InputDescriptor(
            n=1 << 21, key_dtype=np.uint32, memory_budget=1 << 20
        )
        text = Planner().plan(desc).explain()
        assert "strategy        : hetero" in text
        assert "chunked-pipeline" in text
        assert "predicted total" in text

    def test_predictions_are_positive_and_additive(self):
        desc = InputDescriptor(n=1 << 20, key_dtype=np.uint64)
        plan = Planner().plan(desc)
        assert plan.predicted_seconds > 0
        assert plan.predicted_seconds == pytest.approx(
            sum(s.predicted_seconds for s in plan.steps)
        )
        assert isinstance(plan, SortPlan)
