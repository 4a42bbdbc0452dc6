"""Unit tests for the plan cache."""

from __future__ import annotations

import numpy as np

from repro.plan import InputDescriptor, Planner
from repro.service.cache import PlanCache, descriptor_signature


class TestDescriptorSignature:
    def test_equal_descriptors_share_a_signature(self):
        a = InputDescriptor(n=100, key_dtype=np.uint32)
        b = InputDescriptor(n=100, key_dtype="uint32")
        assert descriptor_signature(a) == descriptor_signature(b)

    def test_every_planning_input_is_in_the_signature(self):
        base = InputDescriptor(n=100, key_dtype=np.uint32)
        variants = [
            InputDescriptor(n=101, key_dtype=np.uint32),
            InputDescriptor(n=100, key_dtype=np.uint64),
            InputDescriptor(n=100, key_dtype=np.uint32, value_dtype=np.uint32),
            InputDescriptor(n=100, key_dtype=np.uint32, memory_budget=1 << 10),
            InputDescriptor(n=100, key_dtype=np.uint32, pair_packing="fused"),
        ]
        signatures = {descriptor_signature(d) for d in variants}
        assert descriptor_signature(base) not in signatures
        assert len(signatures) == len(variants)


class TestPlanCache:
    def test_hit_returns_the_same_plan_object(self):
        cache = PlanCache(maxsize=8)
        desc = InputDescriptor(n=1000, key_dtype=np.uint32)
        plan, hit = cache.get_or_plan(Planner(), desc)
        assert not hit and cache.misses == 1
        again, hit = cache.get_or_plan(Planner(), desc)
        assert hit and again is plan and cache.hits == 1

    def test_lru_evicts_the_oldest_shape(self):
        cache = PlanCache(maxsize=2)
        descs = [
            InputDescriptor(n=n, key_dtype=np.uint32) for n in (10, 20, 30)
        ]
        for desc in descs:
            cache.get_or_plan(Planner(), desc)
        assert len(cache) == 2
        _, hit = cache.get_or_plan(Planner(), descs[0])  # evicted
        assert not hit
        _, hit = cache.get_or_plan(Planner(), descs[2])  # still resident
        assert hit

    def test_file_descriptors_bypass_the_cache(self, tmp_path):
        from repro.external import FileLayout, write_records

        layout = FileLayout(np.dtype(np.uint32), None)
        path = tmp_path / "input.bin"
        write_records(
            path, layout.to_records(np.arange(64, dtype=np.uint32), None)
        )
        desc = InputDescriptor.for_file(path, layout)
        cache = PlanCache(maxsize=8)
        _, hit1 = cache.get_or_plan(Planner(), desc)
        _, hit2 = cache.get_or_plan(Planner(), desc)
        assert not hit1 and not hit2 and len(cache) == 0

    def test_maxsize_zero_disables_caching(self):
        cache = PlanCache(maxsize=0)
        desc = InputDescriptor(n=1000, key_dtype=np.uint32)
        cache.get_or_plan(Planner(), desc)
        _, hit = cache.get_or_plan(Planner(), desc)
        assert not hit and cache.misses == 2
