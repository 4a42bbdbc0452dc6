"""Tests for the sort planner: descriptors, strategy choice, the IR.

Planning is a pure function of the descriptor — deterministic, cheap,
and data-free — and its budget arithmetic must be *the same* arithmetic
the engines use (``plan_runs`` for a file's runs and a budgeted
array's chunks alike), not a reimplementation that can drift.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.external.format import FileLayout
from repro.external.runs import plan_runs
from repro.hetero.merge import CpuMergeModel
from repro.plan import (
    PAPER_CROSSOVER_KEYS,
    PAPER_CROSSOVER_PAIRS,
    InputDescriptor,
    Planner,
    PlanStep,
    SortPlan,
)
from repro.plan.planner import plan_resident_bytes, run_footprint


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
            n=1 << 20, key_dtype=np.uint32, value_dtype=np.uint32,
            memory_budget=1 << 20,
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

    def test_chunked_plan_matches_plan_runs(self):
        # Chunks are cut as a file's runs of the layout and budget.
        desc = InputDescriptor(
            n=1 << 20, key_dtype=np.uint32, value_dtype=np.uint32,
            memory_budget=1 << 20,
        )
        plan = Planner().plan(desc)
        footprint = run_footprint(FileLayout(np.uint32, np.uint32), "library")
        step = plan.step("chunked-pipeline")
        assert step.params["footprint_bytes"] == footprint
        assert plan.run_plan == plan_runs(1 << 20, 1 << 20, footprint)

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
        assert plan.run_plan == plan_runs(9_999, 16_384, footprint)

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
        plan = planner.plan_chunked(desc)
        step = plan.step("chunked-pipeline")
        assert (step.params["engine"], step.params["engine_note"]) == (
            planner.run_engine(desc)
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
        bounds = plan.run_plan.bounds
        k = plan.run_plan.n_runs
        assert plan.step("chunked-pipeline").predicted_seconds == (
            pytest.approx(sum(
                planner._run_sort_seconds(desc, "hybrid", hi - lo)
                for lo, hi in zip(bounds, bounds[1:])
            ))
        )
        assert plan.step("kway-merge").predicted_seconds == pytest.approx(
            CpuMergeModel().merge_seconds(
                total_bytes=desc.total_bytes,
                n_runs=k,
                record_bytes=desc.record_bytes,
            )
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
            n=1 << 21, key_dtype=np.uint32, value_dtype=np.uint32,
            memory_budget=1 << 20,
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


def _file_descriptor(tmp_path, layout=FileLayout(np.uint32), n=100_000):
    path = tmp_path / "input.bin"
    keys = np.arange(n).astype(layout.key_dtype)
    if layout.value_dtype is None:
        keys.tofile(path)
    else:
        values = np.arange(n).astype(layout.value_dtype)
        layout.to_records(keys, values).tofile(path)
    return InputDescriptor.for_file(path, layout, memory_budget=1 << 18)


#: One descriptor of each shape a plan is made for: library keys,
#: 64-bit-key pairs, one local sort, a chunked array and a file.
DESCRIPTORS = {
    "keys": lambda tmp_path: InputDescriptor(
        n=4_000_000, key_dtype=np.uint32
    ),
    "pairs64": lambda tmp_path: InputDescriptor(
        n=2_000_000, key_dtype=np.uint64, value_dtype=np.uint64
    ),
    "small": lambda tmp_path: InputDescriptor(n=500, key_dtype=np.uint32),
    "budgeted": lambda tmp_path: InputDescriptor(
        n=4_000_000, key_dtype=np.uint32, memory_budget=1 << 22
    ),
    "file": _file_descriptor,
}


class TestProvenance:
    """Every plan is priced in the paper's §6 seconds and says so, all
    the way into ``to_dict()``."""

    TOP_LEVEL = {
        "descriptor",
        "strategy",
        "engine",
        "reason",
        "notes",
        "steps",
        "predicted_seconds",
        "bytes_moved",
        "cost_source",
    }
    STEP_LEVEL = {"kind", "params", "predicted_seconds", "bytes_moved"}

    @pytest.mark.parametrize("native", ["auto", "never"])
    @pytest.mark.parametrize("shape", sorted(DESCRIPTORS))
    def test_plans_say_they_are_paper_priced(self, tmp_path, shape, native):
        plan = Planner(native=native).plan(DESCRIPTORS[shape](tmp_path))
        assert plan.cost_source == "paper-analytical"
        assert "cost source     : paper-analytical" in plan.explain()
        doc = plan.to_dict()
        assert set(doc) == self.TOP_LEVEL
        for step in doc["steps"]:
            assert set(step) == self.STEP_LEVEL
        assert doc["cost_source"] == "paper-analytical"

    @given(
        n=st.integers(min_value=1, max_value=50_000_000),
        pairs=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_deterministic_over_descriptor_space(self, n, pairs):
        desc = InputDescriptor(
            n=n,
            key_dtype=np.uint32,
            value_dtype=np.uint32 if pairs else None,
        )
        first = Planner(native="never").plan(desc)
        second = Planner(native="never").plan(desc)
        assert first.to_dict() == second.to_dict()


def stream_seconds(desc, bytes_moved):
    """Seconds to stream ``bytes_moved`` at the §6 device's bandwidth."""
    return bytes_moved / desc.spec.effective_bandwidth


class TestPaperPricing:
    """Each strategy's step prices, in the §6 device's seconds."""

    @pytest.mark.parametrize(
        "key_dtype, value_dtype, packing",
        [
            (np.uint32, None, None),
            (np.float64, None, None),
            (np.int32, np.uint64, None),
            (np.uint32, np.uint32, "fused"),
        ],
        ids=["uint32", "float64", "int32-uint64", "fused-u32"],
    )
    def test_library_priced_as_streaming_its_bytes_twice(
        self, key_dtype, value_dtype, packing
    ):
        desc = InputDescriptor(
            n=4_000_000,
            key_dtype=key_dtype,
            value_dtype=value_dtype,
            pair_packing=packing,
        )
        (step,) = Planner().plan(desc).steps
        assert step.kind == "library-sort"
        assert step.bytes_moved == 2 * desc.total_bytes
        assert step.predicted_seconds == pytest.approx(
            stream_seconds(desc, 2 * desc.total_bytes)
        )

    @pytest.mark.parametrize(
        "key_dtype, value_dtype",
        [
            (np.uint32, None),
            (np.uint64, None),
            (np.float32, None),
            (np.uint32, np.uint32),
        ],
        ids=["uint32", "uint64", "float32", "uint32-uint32"],
    )
    def test_local_sort_streams_its_bytes_twice(self, key_dtype, value_dtype):
        desc = InputDescriptor(
            n=500, key_dtype=key_dtype, value_dtype=value_dtype
        )
        (step,) = Planner(native="never").plan(desc).steps
        assert step.kind == "local-sort"
        assert step.bytes_moved == 2 * desc.total_bytes
        assert step.predicted_seconds == pytest.approx(
            stream_seconds(desc, 2 * desc.total_bytes)
        )

    @pytest.mark.parametrize(
        "key_dtype, value_dtype",
        [
            (np.uint32, None),
            (np.uint64, None),
            (np.uint32, np.uint32),
            (np.uint64, np.uint64),
        ],
        ids=["uint32", "uint64", "uint32-uint32", "uint64-uint64"],
    )
    def test_hybrid_priced_by_its_counting_passes(
        self, key_dtype, value_dtype
    ):
        # Each counting pass reads the records for the histogram and
        # reads and writes them for the scatter; the local sorts that
        # finish the buckets read and write them once more.
        desc = InputDescriptor(
            n=1 << 20, key_dtype=key_dtype, value_dtype=value_dtype
        )
        (step,) = Planner(native="never").plan(desc).steps
        assert step.kind == "hybrid-msd"
        passes = step.params["expected_passes"]
        assert passes >= 1
        assert step.bytes_moved == (3 * passes + 2) * desc.total_bytes
        assert step.predicted_seconds == pytest.approx(
            stream_seconds(desc, step.bytes_moved)
        )

    @pytest.mark.parametrize(
        "has_values", [False, True], ids=["keys", "pairs"]
    )
    def test_fallback_priced_by_the_lsd_baseline(self, has_values):
        from repro.baselines.cub import CubRadixSort

        value_dtype = np.uint32 if has_values else None
        desc = InputDescriptor(
            n=10_000, key_dtype=np.uint32, value_dtype=value_dtype
        )
        (step,) = Planner(adaptive=True, native="never").plan(desc).steps
        assert step.kind == "lsd-fallback"
        baseline = CubRadixSort("1.5.1", spec=desc.spec)
        assert step.predicted_seconds == pytest.approx(
            baseline.simulated_seconds(desc.n, 4, 4 if has_values else 0)
        )

    @pytest.mark.parametrize("native", ["auto", "never"])
    @pytest.mark.parametrize(
        "layout",
        [
            FileLayout(np.uint32),
            FileLayout(np.float64),
            FileLayout(np.int64, np.uint32),
        ],
        ids=["uint32", "float64", "int64-uint32"],
    )
    def test_external_plan_priced_by_disk_runs_and_merge(
        self, tmp_path, layout, native
    ):
        from repro.plan.planner import HOST_DISK_BANDWIDTH

        desc = _file_descriptor(tmp_path, layout)
        planner = Planner(native=native)
        plan = planner.plan(desc)
        spill, merge = plan.steps
        engine = spill.params["engine"]
        bounds = plan.run_plan.bounds
        assert len(bounds) - 1 == plan.run_plan.n_runs > 1
        disk = 2 * desc.total_bytes / HOST_DISK_BANDWIDTH
        run_sorts = sum(
            planner._run_sort_seconds(desc, engine, hi - lo)
            for lo, hi in zip(bounds, bounds[1:])
        )
        assert spill.predicted_seconds == pytest.approx(disk + run_sorts)
        assert merge.predicted_seconds == pytest.approx(
            disk
            + CpuMergeModel().merge_seconds(
                total_bytes=desc.total_bytes,
                n_runs=plan.run_plan.n_runs,
                record_bytes=desc.record_bytes,
            )
        )


class TestChunkOnlyWhenItHoldsLess:
    """A budgeted array chunks exactly when the chunked plan holds fewer
    bytes than the whole sort (``plan_resident_bytes``): never for
    library keys, whose sort holds about their bytes, and for uint32
    pairs, whose library sort holds three times theirs, only under a
    budget below their own bytes."""

    N = 1000

    @pytest.mark.parametrize(
        "memory_budget", [None, 1 << 20, 12_000, 4_000, 1_000, 64]
    )
    def test_library_keys_never_chunk(self, memory_budget):
        desc = InputDescriptor(
            n=self.N, key_dtype=np.uint32, memory_budget=memory_budget
        )
        assert Planner().plan(desc).strategy == "library"

    @pytest.mark.parametrize(
        "fraction,strategy",
        [(4.0, "library"), (1.0, "library"), (0.99, "hetero"), (0.5, "hetero")],
    )
    def test_pairs_chunk_only_below_their_bytes(self, fraction, strategy):
        n = 1 << 16
        desc = InputDescriptor(
            n=n, key_dtype=np.uint32, value_dtype=np.uint32,
            memory_budget=int(8 * n * fraction),
        )
        planner = Planner()
        plan = planner.plan(desc)
        assert plan.strategy == strategy
        whole = planner.plan(desc.with_budget(None))
        chunked = planner.plan_chunked(desc)
        assert (strategy == "hetero") == (
            plan_resident_bytes(chunked) < plan_resident_bytes(whole)
        )

