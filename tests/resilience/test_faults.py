"""The fault-injection switchboard itself: deterministic, scoped, loud."""

from __future__ import annotations

import errno
import io
import threading
import time

import pytest

from repro.errors import ConfigurationError, TransientError
from repro.resilience import faults
from repro.resilience.faults import (
    FAULT_KINDS,
    SITES,
    FaultPlan,
    FaultSpec,
    faulted_write,
    inject,
    trip,
)


class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault site"):
            FaultSpec(site="external.nope")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultSpec(site="engine.hybrid", kind="explode")

    def test_negative_after_and_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(site="engine.hybrid", after=-1)
        with pytest.raises(ConfigurationError):
            FaultSpec(site="engine.hybrid", delay=-0.1)

    def test_build_error_taxonomy(self):
        assert isinstance(
            FaultSpec(site="engine.hybrid").build_error(), TransientError
        )
        enospc = FaultSpec(
            site="external.run_write", kind="enospc"
        ).build_error()
        assert isinstance(enospc, OSError)
        assert enospc.errno == errno.ENOSPC
        partial = FaultSpec(
            site="external.run_write", kind="partial"
        ).build_error()
        assert partial.errno == errno.EIO

    def test_exc_factory_wins(self):
        spec = FaultSpec(
            site="engine.hybrid", exc_factory=lambda: KeyError("custom")
        )
        assert isinstance(spec.build_error(), KeyError)

    def test_every_declared_kind_is_constructible(self):
        for kind in FAULT_KINDS:
            FaultSpec(site="service.execute", kind=kind)


class TestTrip:
    def test_no_plan_is_free_and_silent(self):
        assert faults.active_plan() is None
        assert trip("engine.hybrid") is None

    def test_error_fires_on_scheduled_hit_only(self):
        with inject(FaultPlan.single("engine.hybrid", after=2)) as plan:
            trip("engine.hybrid")
            trip("engine.hybrid")
            with pytest.raises(TransientError, match="injected error"):
                trip("engine.hybrid")
            # times=1 default: burned out, later hits pass again.
            trip("engine.hybrid")
        assert plan.hits("engine.hybrid") == 4
        assert plan.fired == [("engine.hybrid", "error", 2)]

    def test_times_minus_one_fires_forever(self):
        with inject(
            FaultPlan.single("engine.hybrid", times=-1)
        ) as plan:
            for _ in range(5):
                with pytest.raises(TransientError):
                    trip("engine.hybrid")
        assert plan.fire_count("engine.hybrid") == 5

    def test_partial_at_non_write_site_is_loud(self):
        # A torn write cannot be enacted by a read site; the spec still
        # surfaces as an I/O error instead of silently doing nothing.
        with inject(FaultPlan.single("external.slice_read", "partial")):
            with pytest.raises(OSError):
                trip("external.slice_read")

    def test_slow_returns_after_delay(self):
        with inject(
            FaultPlan.single("service.execute", "slow", delay=0.05)
        ):
            start = time.monotonic()
            spec = trip("service.execute")
            assert spec is not None and spec.kind == "slow"
            assert time.monotonic() - start >= 0.05

    def test_hang_blocks_until_released(self):
        with inject(
            FaultPlan.single("service.execute", "hang", delay=30.0)
        ) as plan:
            released = threading.Event()

            def worker():
                trip("service.execute")
                released.set()

            thread = threading.Thread(target=worker, daemon=True)
            thread.start()
            assert not released.wait(0.1)  # genuinely wedged
            plan.release_hangs()
            assert released.wait(5.0)
            thread.join(timeout=5.0)


class TestPlanLifecycle:
    def test_inject_scopes_activation(self):
        with inject(FaultPlan.single("engine.hybrid")) as plan:
            assert faults.active_plan() is plan
        assert faults.active_plan() is None

    def test_inject_cleans_up_on_error(self):
        with pytest.raises(RuntimeError):
            with inject(FaultPlan.single("engine.hybrid")):
                raise RuntimeError("test body blew up")
        assert faults.active_plan() is None

    def test_inject_accepts_raw_spec_lists(self):
        with inject([FaultSpec(site="engine.hybrid")]) as plan:
            assert isinstance(plan, FaultPlan)
            with pytest.raises(TransientError):
                trip("engine.hybrid")

    def test_install_replaces_and_releases_previous(self):
        first = faults.install(
            FaultPlan.single("service.execute", "hang", delay=30.0)
        )
        blocked = threading.Thread(
            target=lambda: trip("service.execute"), daemon=True
        )
        blocked.start()
        time.sleep(0.05)
        faults.install(FaultPlan.single("engine.hybrid"))
        blocked.join(timeout=5.0)  # replaced plan released its hangs
        assert not blocked.is_alive()
        assert faults.active_plan() is not first
        faults.uninstall()
        assert faults.active_plan() is None

    def test_concurrent_trips_fire_exactly_times(self):
        # 16 threads x 8 hits against times=3: the lock must hand out
        # exactly three firings no matter how the hits interleave.
        plan = faults.install(
            FaultPlan.single("engine.hybrid", times=3)
        )
        errors = []

        def worker():
            for _ in range(8):
                try:
                    trip("engine.hybrid")
                except TransientError:
                    errors.append(1)

        threads = [
            threading.Thread(target=worker) for _ in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(errors) == 3
        assert plan.fire_count() == 3
        assert plan.hits("engine.hybrid") == 16 * 8


class TestFaultedWrite:
    def test_plain_write_without_plan(self):
        buf = io.BytesIO()
        faulted_write("external.run_write", buf, b"abcdef")
        assert buf.getvalue() == b"abcdef"

    def test_partial_writes_half_then_raises_eio(self):
        buf = io.BytesIO()
        with inject(FaultPlan.single("external.run_write", "partial")):
            with pytest.raises(OSError) as info:
                faulted_write("external.run_write", buf, b"abcdefgh")
        assert info.value.errno == errno.EIO
        assert buf.getvalue() == b"abcd"  # the torn half really landed


class TestSitesTable:
    def test_site_names_have_component_prefixes(self):
        for site in SITES:
            component, _, name = site.partition(".")
            assert component in ("external", "service", "engine")
            assert name
