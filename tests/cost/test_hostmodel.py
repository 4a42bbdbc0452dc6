"""Tests for :class:`HostCostModel` pricing over a synthetic profile."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.hostmodel import HostCostModel
from repro.cost.hostprofile import PROFILE_SCHEMA, HostProfile
from repro.plan import InputDescriptor


def profile_doc(**overrides) -> dict:
    """A synthetic profile with round constants, easy to price by hand."""
    doc = {
        "schema": PROFILE_SCHEMA,
        "created": 123.0,
        "host": {"platform": "test", "cpu_count": 8},
        "probes": {"n": 1024, "repeats": 1, "quick": True, "seed": 1},
        "counting_bandwidth": {
            "32/0": 1.0e8, "64/0": 8.0e7, "32/32": 6.0e7, "64/64": 5.0e7,
        },
        "native_bandwidth": {"32/0": 4.0e8},
        "local_sort_keys_per_s": 1.0e7,
        "pack_bandwidth": 1.0e9,
        "spill_bandwidth": 5.0e7,
        "merge_bandwidth": 1.0e8,
        "thread_speedup": {"1": 1.0, "2": 1.6},
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def model() -> HostCostModel:
    return HostCostModel(HostProfile.from_dict(profile_doc()))


def descriptor(n=1 << 20, key_dtype=np.uint32, value_dtype=None, workers=1):
    return InputDescriptor(
        n=n, key_dtype=key_dtype, value_dtype=value_dtype, workers=workers
    )


class TestBandwidthLookup:
    def test_exact_layout(self, model):
        assert model.counting_bandwidth(32, 0) == 1.0e8
        assert model.counting_bandwidth(64, 64) == 5.0e7

    def test_unprobed_layout_falls_back_to_slowest_rate(self, model):
        # 64/32 (12-byte records) was never probed and no probed layout
        # shares its record width → the conservative minimum applies.
        assert model.counting_bandwidth(64, 32) == 5.0e7

    def test_counting_seconds_is_exact_division(self, model):
        desc = descriptor()
        assert model.counting_seconds(desc, 4.0e8) == pytest.approx(
            4.0e8 / 1.0e8
        )

    def test_native_falls_back_to_counting_when_unprobed(self, model):
        # The synthetic profile probed native only for 32/0.
        desc32 = descriptor()
        assert model.native_seconds(desc32, 4.0e8) == pytest.approx(1.0)
        profile = HostProfile.from_dict(profile_doc(native_bandwidth={}))
        empty = HostCostModel(profile)
        assert empty.native_seconds(desc32, 4.0e8) == pytest.approx(
            empty.counting_seconds(desc32, 4.0e8)
        )


class TestStepPricing:
    def test_local_sort_rate(self, model):
        assert model.local_sort_seconds(1.0e7) == pytest.approx(1.0)
        assert model.local_sort_seconds(0) > 0  # degenerate, never 0/0

    def test_spill_and_streaming_merge(self, model):
        assert model.spill_seconds(5.0e7) == pytest.approx(2.0)
        assert model.external_merge_seconds(1.0e8) == pytest.approx(2.0)

    def test_merge_passes_grow_logarithmically(self, model):
        one = model.merge_seconds(1.0e8, n_runs=1)
        four = model.merge_seconds(1.0e8, n_runs=4)
        sixteen = model.merge_seconds(1.0e8, n_runs=16)
        assert one == pytest.approx(2.0)  # one streaming pass
        assert four == pytest.approx(one)  # ≤ merge width: still one
        assert sixteen == pytest.approx(2 * one)  # ceil(log₄ 16) = 2


class TestSpeedups:
    def test_measured_point_used_exactly(self, model):
        assert model.thread_speedup(1) == 1.0
        assert model.thread_speedup(2) == 1.6

    def test_extrapolation_scales_measured_efficiency(self, model):
        # ×2 measured at 1.6 → efficiency 0.8; 4 workers on an 8-CPU
        # host extrapolate to 4 × 0.8.
        assert model.thread_speedup(4) == pytest.approx(3.2)

    def test_extrapolation_caps_at_cpu_count(self, model):
        # 64 requested workers on an 8-CPU host: only 8 are usable.
        assert model.thread_speedup(64) == pytest.approx(8 * 0.8)

    def test_workers_discount_counting_seconds(self, model):
        slow = model.counting_seconds(descriptor(workers=1), 1.0e8)
        fast = model.counting_seconds(descriptor(workers=2), 1.0e8)
        assert fast == pytest.approx(slow / 1.6)
