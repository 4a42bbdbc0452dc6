"""The native tier as the planner/executor/resilience layers see it.

These tests run on every host: where they need a specific availability
state they fake the probe, so CI legs with and without the extension
exercise the same assertions.
"""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import SortConfig
from repro.core.digits import (
    NATIVE_INNER_BITS,
    NATIVE_LOCAL_SORT_MAX,
    NATIVE_MSD_BITS,
    native_finish_widths,
    native_pairs_pass_plan,
    native_traffic,
)
from repro.errors import ConfigurationError
from repro.external import FileLayout
from repro.plan import InputDescriptor, Planner
from repro.plan.executors import execute_plan
from repro.plan.planner import NATIVE_MIN_KEYS
from repro.resilience.degrade import (
    DEFAULT_LADDER,
    fallback_chain,
    resilient_execute,
)

from repro.native import build
from repro.native.build import C_SOURCE

NATIVE_AVAILABLE = build.native_status(warn=False).available


def big_descriptor(n: int = 1 << 20) -> InputDescriptor:
    return InputDescriptor(n=n, key_dtype=np.uint32)


def pairs64_descriptor(n: int = 1 << 20) -> InputDescriptor:
    """The layout ``native="auto"`` still sends to the compiled tier."""
    return InputDescriptor(n=n, key_dtype=np.int64, value_dtype=np.uint64)


class TestPlannerChoice:
    def test_auto_prefers_native_when_available(self):
        plan = Planner().plan(pairs64_descriptor())
        if NATIVE_AVAILABLE:
            assert plan.strategy == "native"
            assert plan.engine == "NativeRadixEngine"
            assert [s.kind for s in plan.steps] == ["native-lsd"]
            assert any("selected" in note for note in plan.notes)
        else:
            assert plan.strategy == "hybrid"
            assert any("unavailable" in note for note in plan.notes)

    def test_never_pins_numpy_tier(self):
        plan = Planner(native="never").plan(big_descriptor())
        assert plan.strategy == "hybrid"
        assert plan.notes == ("native tier disabled for this planner",)

    def test_always_plans_native_even_when_unavailable(
        self, fresh_probe, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        plan = Planner(native="always").plan(big_descriptor())
        assert plan.strategy == "native"
        assert any("forced" in note for note in plan.notes)

    def test_small_inputs_stay_on_numpy_tier(self):
        plan = Planner().plan(pairs64_descriptor(n=NATIVE_MIN_KEYS - 1))
        assert plan.strategy == "hybrid"
        assert any("floor" in note for note in plan.notes)

    def test_floor_is_inclusive(self, fresh_probe, monkeypatch):
        # Fake availability so the boundary test runs on any host.
        from repro.native import build

        monkeypatch.setattr(
            build,
            "_probe",
            lambda: build.NativeStatus(True, "compiled native kernel"),
        )
        plan = Planner().plan(pairs64_descriptor(n=NATIVE_MIN_KEYS))
        assert plan.strategy == "native"

    @pytest.mark.parametrize("n", [0, 1, NATIVE_MIN_KEYS - 1, 1 << 20])
    def test_auto_sends_library_layouts_to_the_library(self, n):
        # Keys, and pairs whose keys index-pack, whatever the size and
        # whether or not the compiled tier built.
        for descriptor in (
            big_descriptor(n),
            InputDescriptor(n=n, key_dtype=np.int64),
            InputDescriptor(n=n, key_dtype=np.float32,
                            value_dtype=np.uint64),
        ):
            plan = Planner().plan(descriptor)
            assert plan.strategy == "library"
            assert [s.kind for s in plan.steps] == ["library-sort"]
            assert any("library rung" in note for note in plan.notes)

    def test_narrow_keys_stay_off_the_library(self):
        # The in-memory engines refuse 8/16-bit keys (they are
        # file-only); the library rung must not change which inputs
        # succeed.
        plan = Planner().plan(InputDescriptor(n=1 << 20, key_dtype=np.uint16))
        assert plan.strategy != "library"

    @pytest.mark.parametrize("built", [True, False], ids=["built", "off"])
    @pytest.mark.parametrize("packing", ["fused", "off"])
    def test_fused_and_off_packing_take_the_library(
        self, fresh_probe, monkeypatch, packing, built
    ):
        # Equal fused words are identical records, and "off" orders
        # ties by position as "auto" does: np.sort serves both
        # byte-identically, in memory and as a budgeted array's chunks,
        # whether or not the compiled tier is built.
        use_tier(monkeypatch, built)
        config = replace(SortConfig.for_layout(32, 32), pair_packing=packing)
        planner = Planner(config=config)
        descriptor = InputDescriptor(
            n=1 << 20, key_dtype=np.uint32, value_dtype=np.uint32
        )
        plan = planner.plan(descriptor)
        assert plan.strategy == "library"
        assert plan.step("library-sort").params["packing"] == (
            "fused" if packing == "fused" else "index"
        )
        budgeted = planner.plan(replace(descriptor, memory_budget=1 << 20))
        assert budgeted.step("chunked-pipeline").params["engine"] == "library"

    @pytest.mark.parametrize("n", [0, 1, 2, 300])
    def test_records_too_wide_to_fuse_fail_as_on_every_engine(self, n):
        # Fewer than two records need no tie order, so no rung refuses
        # them; more 32/64-bit records fuse into no word on any rung.
        import repro

        config = replace(SortConfig.for_layout(32, 64), pair_packing="fused")
        keys = np.arange(n, dtype=np.uint32)[::-1].copy()
        values = np.arange(n, dtype=np.uint64)
        for native in ("auto", "never"):
            if n < 2:
                result = repro.sort_pairs(
                    keys, values, config=config, native=native
                )
                assert result.keys.tobytes() == keys.tobytes()
            else:
                with pytest.raises(ConfigurationError):
                    repro.sort_pairs(
                        keys, values, config=config, native=native
                    )

    @pytest.mark.parametrize("built", [True, False], ids=["built", "off"])
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16], ids=str)
    def test_narrow_arrays_stay_off_the_library_on_both_tiers(
        self, fresh_probe, monkeypatch, dtype, built
    ):
        # Only a file's runs take narrow keys to the library rung; an
        # array of them, budgeted or not, still fails.
        import repro

        use_tier(monkeypatch, built)
        keys = np.arange(1 << 12, dtype=dtype)
        for budget in (None, keys.nbytes // 4):
            plan = repro.plan_for(keys, memory_budget=budget)
            assert plan.strategy != "library"
            if budget is not None:
                step = plan.step("chunked-pipeline")
                assert step.params["engine"] != "library"
            with pytest.raises(ConfigurationError):
                repro.sort(keys, memory_budget=budget)

    def test_always_keeps_keys_on_the_native_tier(self):
        assert Planner(native="always").plan(big_descriptor()).strategy == (
            "native"
        )

    def test_explicit_sort_bits_skips_native(self):
        config = replace(SortConfig.for_layout(32, 0), sort_bits=12)
        plan = Planner(config=config).plan(big_descriptor())
        assert plan.strategy == "hybrid"
        assert any("sort_bits" in note for note in plan.notes)

    def test_invalid_native_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="native"):
            Planner(native="sometimes")

    def test_notes_surface_in_explain_and_dict(self):
        plan = Planner(native="never").plan(big_descriptor())
        assert "note            : native tier disabled" in plan.explain()
        assert plan.to_dict()["notes"] == list(plan.notes)


class TestPassPlanMirror:
    def test_mirrors_kernel_digit_schedule(self):
        big = 1 << 24
        # 8192-key buckets split once more, into buckets of about 4
        # keys that finish by insertion sorts.
        assert native_pairs_pass_plan(32, big) == (11, (11,), ())
        assert native_pairs_pass_plan(64, big) == (11, (11,), ())
        # Narrow ranges skip the MSD partition, like the C side, and
        # split their bits into equal digits.
        assert native_pairs_pass_plan(16, big) == (0, (), (8, 8))
        assert native_pairs_pass_plan(22, big) == (0, (), (11, 11))

    def test_small_buckets_finish_by_size(self):
        # 2-key buckets: the partition, then insertion sorts.
        assert native_pairs_pass_plan(32, 1 << 12) == (11, (), ())
        # ~37-key buckets (one benchmark run): a 6-bit split leaves
        # about one key a sub-bucket.
        assert native_pairs_pass_plan(32, 74_898) == (11, (6,), ())
        # No larger than one insertion sort: no partition either.
        assert native_pairs_pass_plan(32, NATIVE_LOCAL_SORT_MAX) == (
            0, (), ()
        )
        assert native_finish_widths(NATIVE_LOCAL_SORT_MAX + 1, 21)

    def test_python_constants_match_the_c_source(self):
        defines = dict(
            re.findall(r"^#define (\w+) (\d+)$", C_SOURCE, re.MULTILINE)
        )
        assert int(defines["MSD_BITS"]) == NATIVE_MSD_BITS
        assert int(defines["INNER_BITS"]) == NATIVE_INNER_BITS
        assert int(defines["LOCAL_SORT_MAX"]) == NATIVE_LOCAL_SORT_MAX

    def test_plan_prices_the_size_adapted_schedule(self):
        # uint32 keys ride in the kernel's 8-byte key lane beside an
        # 8-byte payload lane: 16 bytes a record, not 4.
        plan = Planner(native="always").plan(big_descriptor(n=1 << 12))
        (step,) = plan.steps
        passes, bytes_moved = native_traffic(32, 1 << 12)
        assert step.params["expected_passes"] == passes == 1
        assert step.params["inner_widths"] == "insertion"
        assert step.bytes_moved == bytes_moved == 5 * (1 << 12) * 16

    def test_plan_prices_the_pairs_kernels_dram_passes(self):
        # The MSD partition (histogram read, scatter read and write)
        # and one read and write per bucket; the further split runs in
        # the kernel's cache-sized scratch and moves no DRAM bytes.
        n = 1 << 20
        (step,) = Planner(native="always").plan(pairs64_descriptor(n)).steps
        passes, bytes_moved = native_traffic(64, n)
        assert step.params["split_widths"] == "9"
        assert step.params["expected_passes"] == passes == 2
        assert step.bytes_moved == bytes_moved == 5 * n * 16


def fake_available(monkeypatch):
    monkeypatch.setattr(
        build,
        "_probe",
        lambda: build.NativeStatus(True, "compiled native kernel"),
    )


def use_tier(monkeypatch, built: bool) -> None:
    """Fake a built compiled tier, or switch it off (``REPRO_NATIVE=0``);
    callers take ``fresh_probe``."""
    if built:
        fake_available(monkeypatch)
    else:
        monkeypatch.setenv("REPRO_NATIVE", "0")


class TestExternalRunEngine:
    """The ``spill-runs`` step names the run sorts' engine and why.

    The floor tests use 64-bit-key pairs, a layout the library rung
    does not serve, so ``native="auto"`` decides by the native floor.
    """

    PAIRS64 = FileLayout(np.uint64, np.uint32)

    def file_descriptor(self, tmp_path, n, budget_records, layout):
        path = tmp_path / "in.bin"
        np.zeros(n, dtype=layout.storage_dtype).tofile(path)
        return InputDescriptor.for_file(
            path, layout, memory_budget=budget_records * layout.record_bytes
        )

    def native_sized(self, tmp_path, layout=PAIRS64):
        # Runs of about 4/3 of the floor (three-buffer accounting).
        return self.file_descriptor(
            tmp_path, 4 * NATIVE_MIN_KEYS + 17, 4 * NATIVE_MIN_KEYS, layout
        )

    def test_runs_at_the_floor_sort_native(
        self, tmp_path, fresh_probe, monkeypatch
    ):
        fake_available(monkeypatch)
        plan = Planner().plan(self.native_sized(tmp_path))
        step = plan.step("spill-runs")
        assert step.params["run_records"] >= NATIVE_MIN_KEYS
        assert step.params["engine"] == "native"
        assert step.params["engine_note"] == (
            "native tier selected: compiled native kernel"
        )
        text = plan.explain()
        assert "engine=native" in text
        assert "engine_note=native tier selected" in text
        assert "sorted by the native engine" in plan.reason

    def test_runs_below_the_floor_sort_hybrid(
        self, tmp_path, fresh_probe, monkeypatch
    ):
        fake_available(monkeypatch)
        plan = Planner().plan(
            self.file_descriptor(
                tmp_path, 4 * NATIVE_MIN_KEYS, 85, self.PAIRS64
            )
        )
        step = plan.step("spill-runs")
        assert step.params["run_records"] < NATIVE_MIN_KEYS
        assert step.params["engine"] == "hybrid"
        assert "floor" in step.params["engine_note"]

    def test_never_planner_keeps_runs_on_numpy(self, tmp_path):
        plan = Planner(native="never").plan(
            self.native_sized(tmp_path, FileLayout(np.uint32))
        )
        step = plan.step("spill-runs")
        assert step.params["engine"] == "hybrid"
        assert step.params["engine_note"] == (
            "native tier disabled for this planner"
        )

    def test_uncalibrated_native_runs_priced_by_native_traffic(
        self, tmp_path, fresh_probe, monkeypatch
    ):
        from repro.plan.planner import HOST_DISK_BANDWIDTH

        fake_available(monkeypatch)
        # Runs of at most 32 records: the kernel finishes them in one
        # insertion sort, which native_traffic prices apart from the
        # hybrid engine's one analytical counting pass.
        desc = self.file_descriptor(
            tmp_path, 4 * NATIVE_MIN_KEYS + 17, 3 * 32, FileLayout(np.uint32)
        )
        plan = Planner(native="always", profile=None).plan(desc)
        assert plan.step("spill-runs").params["engine"] == "native"
        run_plan = plan.run_plan
        assert run_plan.run_records == NATIVE_LOCAL_SORT_MAX
        sort_bytes = sum(
            native_traffic(32, hi - lo)[1]
            for lo, hi in zip(run_plan.bounds, run_plan.bounds[1:])
        )
        expected = (
            2 * desc.total_bytes / HOST_DISK_BANDWIDTH
            + sort_bytes / desc.spec.effective_bandwidth
        )
        step = plan.step("spill-runs")
        assert step.predicted_seconds == pytest.approx(expected)
        hybrid = Planner(native="never", profile=None).plan(desc)
        assert step.predicted_seconds != pytest.approx(
            hybrid.step("spill-runs").predicted_seconds
        )

    @pytest.mark.parametrize("built", [True, False], ids=["built", "off"])
    @pytest.mark.parametrize(
        "layout, packing, library",
        [
            (FileLayout(np.uint32), "auto", True),
            (FileLayout(np.float64), "auto", True),
            (FileLayout(np.uint32, np.uint32), "auto", True),
            (FileLayout(np.int32, np.uint64), "index", True),
            (FileLayout(np.uint32, np.uint32), "fused", True),
            (FileLayout(np.uint32, np.uint32), "off", True),
            (FileLayout(np.uint16, np.uint16), "fused", True),
            (FileLayout(np.uint64, np.uint32), "auto", False),
            (FileLayout(np.uint16), "auto", True),
            (FileLayout(np.uint8), "auto", True),
            (FileLayout(np.uint8, np.uint32), "auto", True),
        ],
        ids=lambda v: v.describe() if isinstance(v, FileLayout) else str(v),
    )
    def test_runs_take_the_library_rung_where_it_serves(
        self, tmp_path, fresh_probe, monkeypatch, layout, packing, library,
        built,
    ):
        # Every layout np.sort serves byte-identically, a file's
        # 8/16-bit keys and fused/off packing included, on either tier;
        # 64-bit-key pairs keep the radix engines.
        use_tier(monkeypatch, built)
        desc = replace(
            self.native_sized(tmp_path, layout), pair_packing=packing
        )
        step = Planner().plan(desc).step("spill-runs")
        if library:
            assert step.params["engine"] == "library"
            assert step.params["engine_note"].startswith(
                "library rung selected"
            )
        else:
            assert step.params["engine"] == ("native" if built else "hybrid")


class TestExecutorDegradation:
    def test_native_plan_degrades_inline_when_unavailable(
        self, fresh_probe, monkeypatch, rng
    ):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        keys = rng.integers(0, 1 << 32, 100_000).astype(np.uint32)
        plan = Planner(native="always").plan(InputDescriptor.for_array(keys))
        result = execute_plan(plan, keys=keys)
        assert result.meta["engine"] == "hybrid"
        resilience = result.meta["resilience"]
        assert resilience["requested"] == "native"
        assert resilience["executed"] == "hybrid"
        assert resilience["downgrades"][0]["engine"] == "native"
        assert "NativeUnavailableError" in resilience["downgrades"][0]["error"]
        assert "REPRO_NATIVE=0" in resilience["native"]
        expected = np.sort(keys)
        assert np.array_equal(result.keys, expected)

    def test_native_execution_reports_engine(self, rng):
        if not NATIVE_AVAILABLE:
            pytest.skip("native extension not built on this host")
        keys = rng.integers(-(1 << 63), 1 << 63, 100_000, dtype=np.int64)
        values = np.arange(keys.size, dtype=np.uint64)
        plan = Planner().plan(InputDescriptor.for_array(keys, values))
        result = execute_plan(plan, keys=keys, values=values)
        assert result.meta["engine"] == "native"
        order = np.argsort(keys, kind="stable")
        assert result.keys.tobytes() == keys[order].tobytes()
        assert result.values.tobytes() == values[order].tobytes()
        assert result.meta["plan"] is plan
        assert "resilience" not in result.meta

    def test_resilient_execute_keeps_inline_record(
        self, fresh_probe, monkeypatch, rng
    ):
        # The ladder walker only writes meta["resilience"] for its own
        # downgrades; the executor's inline record must survive it.
        monkeypatch.setenv("REPRO_NATIVE", "0")
        keys = rng.integers(0, 1 << 32, 100_000).astype(np.uint32)
        plan = Planner(native="always").plan(InputDescriptor.for_array(keys))
        result = resilient_execute(plan, keys=keys)
        assert result.meta["resilience"]["requested"] == "native"


class TestLadder:
    def test_native_plans_walk_down_to_numpy(self):
        assert fallback_chain("native") == (
            "native", "hybrid", "fallback", "oracle",
        )

    def test_library_plans_walk_down_to_numpy(self):
        assert fallback_chain("library") == (
            "library", "hybrid", "fallback", "oracle",
        )

    def test_default_ladder_never_escalates_to_native(self):
        assert "native" not in DEFAULT_LADDER
        assert fallback_chain("hybrid") == ("hybrid", "fallback", "oracle")


class TestFacadeKnob:
    def test_sort_native_knob(self, rng):
        import repro

        keys = rng.integers(0, 1 << 32, 100_000).astype(np.uint32)
        pinned = repro.sort(keys, native="never")
        assert pinned.meta["engine"] == "hybrid"
        auto = repro.sort(keys)
        assert auto.keys.tobytes() == pinned.keys.tobytes()
        assert auto.meta["engine"] == "library"
        forced = repro.sort(keys, native="always")
        assert forced.keys.tobytes() == pinned.keys.tobytes()
        if NATIVE_AVAILABLE:
            assert forced.meta["engine"] == "native"

    def test_plan_for_reports_tier(self, rng):
        import repro

        keys = rng.integers(0, 1 << 32, 100_000).astype(np.uint32)
        plan = repro.plan_for(keys)
        assert plan.notes  # the tier decision is always explained
        assert repro.plan_for(keys, native="never").strategy == "hybrid"
