"""Host-calibrated planning: determinism, provenance, serialised shape.

The contract under test: a host profile changes *predicted seconds*,
never a plan's structure; planning stays a deterministic function of
(descriptor, profile); and every plan records which cost tier priced it
(``cost_source`` + ``profile_fingerprint``) all the way into
``to_dict()`` — the shape the bench reports and the service API expose.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.hostprofile import PROFILE_SCHEMA, HostProfile, save_profile
from repro.external.format import FileLayout
from repro.plan import InputDescriptor, Planner

SYNTHETIC_PROFILE = {
    "schema": PROFILE_SCHEMA,
    "created": 99.0,
    "host": {"platform": "test", "cpu_count": 4},
    "probes": {"n": 1024, "repeats": 1, "quick": True, "seed": 1},
    "counting_bandwidth": {
        "32/0": 2.0e8, "64/0": 1.5e8, "32/32": 1.2e8, "64/64": 1.0e8,
    },
    "native_bandwidth": {"32/0": 6.0e8, "64/0": 5.0e8},
    "local_sort_keys_per_s": 2.0e7,
    "pack_bandwidth": 2.0e9,
    "spill_bandwidth": 1.0e8,
    "merge_bandwidth": 2.0e8,
    "thread_speedup": {"1": 1.0, "2": 1.5},
}


@pytest.fixture
def profile_path(tmp_path):
    path = tmp_path / "host-profile.json"
    save_profile(SYNTHETIC_PROFILE, path)
    return str(path)


def various_descriptors(tmp_path):
    array = InputDescriptor(n=4_000_000, key_dtype=np.uint32)
    pairs = InputDescriptor(
        n=2_000_000, key_dtype=np.uint64, value_dtype=np.uint64
    )
    small = InputDescriptor(n=500, key_dtype=np.uint32)
    budgeted = InputDescriptor(
        n=4_000_000, key_dtype=np.uint32, memory_budget=1 << 22
    )
    path = tmp_path / "input.bin"
    np.arange(100_000, dtype=np.uint32).tofile(path)
    on_disk = InputDescriptor.for_file(path, FileLayout(np.uint32))
    return [array, pairs, small, budgeted, on_disk]


class TestProvenance:
    def test_uncalibrated_plans_say_so(self):
        plan = Planner(native="never").plan(
            InputDescriptor(n=4_000_000, key_dtype=np.uint32)
        )
        assert plan.cost_source == "paper-analytical"
        assert plan.profile_fingerprint is None
        assert "cost source     : paper-analytical" in plan.explain()

    def test_calibrated_plans_carry_the_fingerprint(self, profile_path):
        planner = Planner(native="never", profile=profile_path)
        plan = planner.plan(InputDescriptor(n=4_000_000, key_dtype=np.uint32))
        assert plan.cost_source == "host-profile"
        assert plan.profile_fingerprint == planner.profile.fingerprint
        assert plan.profile_fingerprint.startswith("hp-")
        assert plan.profile_fingerprint in plan.explain()

    def test_profile_none_disables_calibration(self, profile_path, monkeypatch):
        monkeypatch.setenv("REPRO_HOST_PROFILE", profile_path)
        assert Planner(profile="auto").host is not None
        assert Planner(profile=None).host is None

    def test_missing_auto_profile_matches_profile_none(self):
        # conftest points REPRO_HOST_PROFILE at a nonexistent file, so
        # the default planner and an explicitly uncalibrated one must
        # produce byte-identical plans — the pre-calibration behaviour.
        desc = InputDescriptor(n=4_000_000, key_dtype=np.uint32)
        auto = Planner(native="never").plan(desc)
        off = Planner(native="never", profile=None).plan(desc)
        assert auto.to_dict() == off.to_dict()


class TestStructureInvariance:
    def test_profile_reprices_but_never_reroutes(self, profile_path, tmp_path):
        for desc in various_descriptors(tmp_path):
            paper = Planner(native="never", profile=None).plan(desc)
            host = Planner(native="never", profile=profile_path).plan(desc)
            assert host.strategy == paper.strategy
            assert host.engine == paper.engine
            assert [s.kind for s in host.steps] == [
                s.kind for s in paper.steps
            ]
            assert [s.bytes_moved for s in host.steps] == [
                s.bytes_moved for s in paper.steps
            ]
            assert host.predicted_seconds > 0

    @pytest.mark.parametrize("library_probe", [False, True])
    def test_profile_reprices_but_never_reroutes_library_plans(
        self, tmp_path, library_probe
    ):
        doc = dict(SYNTHETIC_PROFILE)
        if library_probe:
            doc["library_bandwidth"] = {"32/0": 9.0e8, "32/32": 4.0e8}
        path = tmp_path / "profile.json"
        save_profile(doc, path)
        for desc in (
            InputDescriptor(n=4_000_000, key_dtype=np.uint32),
            InputDescriptor(n=500, key_dtype=np.float64),
            InputDescriptor(
                n=2_000_000, key_dtype=np.int32, value_dtype=np.uint64
            ),
        ):
            paper = Planner(profile=None).plan(desc)
            host = Planner(profile=str(path)).plan(desc)
            assert paper.strategy == host.strategy == "library"
            assert host.engine == paper.engine
            assert [s.kind for s in host.steps] == ["library-sort"]
            assert host.bytes_moved == paper.bytes_moved
            assert host.cost_source == "host-profile"
            assert host.predicted_seconds != paper.predicted_seconds

    def test_fixed_profile_planning_is_deterministic(
        self, profile_path, tmp_path
    ):
        a = Planner(native="never", profile=profile_path)
        b = Planner(native="never", profile=profile_path)
        for desc in various_descriptors(tmp_path):
            assert a.plan(desc).to_dict() == b.plan(desc).to_dict()

    @given(
        n=st.integers(min_value=1, max_value=50_000_000),
        pairs=st.booleans(),
        workers=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_deterministic_over_descriptor_space(self, n, pairs, workers):
        profile = HostProfile.from_dict(SYNTHETIC_PROFILE)
        desc = InputDescriptor(
            n=n,
            key_dtype=np.uint32,
            value_dtype=np.uint32 if pairs else None,
            workers=workers,
        )
        first = Planner(native="never", profile=profile).plan(desc)
        second = Planner(native="never", profile=profile).plan(desc)
        assert first.to_dict() == second.to_dict()
        assert first.cost_source == "host-profile"


class TestSerialisedShape:
    """Regression-pin the JSON shape downstream consumers parse."""

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
        "profile_fingerprint",
    }
    STEP_LEVEL = {"kind", "params", "predicted_seconds", "bytes_moved"}

    def test_plan_to_dict_shape(self, profile_path):
        plan = Planner(native="never", profile=profile_path).plan(
            InputDescriptor(n=4_000_000, key_dtype=np.uint32)
        )
        doc = plan.to_dict()
        assert set(doc) == self.TOP_LEVEL
        for step in doc["steps"]:
            assert set(step) == self.STEP_LEVEL
        assert doc["cost_source"] == "host-profile"
        assert isinstance(doc["profile_fingerprint"], str)

    def test_uncalibrated_to_dict_shape(self):
        doc = (
            Planner(native="never")
            .plan(InputDescriptor(n=1000, key_dtype=np.uint32))
            .to_dict()
        )
        assert set(doc) == self.TOP_LEVEL
        assert doc["cost_source"] == "paper-analytical"
        assert doc["profile_fingerprint"] is None


class TestCalibratedPricing:
    def test_local_sort_priced_by_argsort_rate(self, profile_path):
        plan = Planner(native="never", profile=profile_path).plan(
            InputDescriptor(n=1000, key_dtype=np.uint32)
        )
        assert plan.steps[0].kind == "local-sort"
        assert plan.predicted_seconds == pytest.approx(1000 / 2.0e7)

    def test_library_priced_by_library_bandwidth(self, tmp_path):
        doc = dict(SYNTHETIC_PROFILE, library_bandwidth={"32/0": 9.0e8})
        path = tmp_path / "profile.json"
        save_profile(doc, path)
        desc = InputDescriptor(n=4_000_000, key_dtype=np.uint32)
        (step,) = Planner(profile=str(path)).plan(desc).steps
        assert step.kind == "library-sort"
        assert step.bytes_moved == 2 * desc.total_bytes
        assert step.predicted_seconds == pytest.approx(
            step.bytes_moved / 9.0e8
        )

    def test_library_without_its_probe_priced_by_argsort_rate(
        self, profile_path
    ):
        # Profiles written before the library probe still price it.
        plan = Planner(profile=profile_path).plan(
            InputDescriptor(n=4_000_000, key_dtype=np.uint32)
        )
        assert plan.strategy == "library"
        assert plan.predicted_seconds == pytest.approx(4_000_000 / 2.0e7)

    def test_uncalibrated_library_priced_as_a_local_sort(self):
        desc = InputDescriptor(n=4_000_000, key_dtype=np.uint32)
        (step,) = Planner(profile=None).plan(desc).steps
        assert step.predicted_seconds == pytest.approx(
            2 * desc.total_bytes / desc.spec.effective_bandwidth
        )

    def test_hybrid_priced_by_layout_bandwidth(self, profile_path):
        plan = Planner(native="never", profile=profile_path).plan(
            InputDescriptor(n=4_000_000, key_dtype=np.uint32)
        )
        step = plan.steps[0]
        assert step.kind == "hybrid-msd"
        assert step.predicted_seconds == pytest.approx(
            step.bytes_moved / 2.0e8
        )

    def test_workers_speed_up_the_calibrated_estimate(self, profile_path):
        planner = Planner(native="never", profile=profile_path)
        one = planner.plan(InputDescriptor(n=4_000_000, key_dtype=np.uint32))
        two = planner.plan(
            InputDescriptor(n=4_000_000, key_dtype=np.uint32, workers=2)
        )
        assert two.predicted_seconds == pytest.approx(
            one.predicted_seconds / 1.5
        )

    def test_external_plan_priced_by_spill_and_merge_rates(
        self, profile_path, tmp_path
    ):
        path = tmp_path / "input.bin"
        np.arange(100_000, dtype=np.uint32).tofile(path)
        desc = InputDescriptor.for_file(path, FileLayout(np.uint32))
        plan = Planner(profile=profile_path).plan(desc)
        total = desc.total_bytes
        assert plan.step("spill-runs").predicted_seconds == pytest.approx(
            2 * total / 1.0e8
        )
        assert plan.step("kway-merge").predicted_seconds == pytest.approx(
            2 * total / 2.0e8
        )
