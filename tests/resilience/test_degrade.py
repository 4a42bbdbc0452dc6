"""The degradation ladder: retry the rung, then climb down, never lie."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    EngineFailedError,
    TransientError,
    UnsupportedDtypeError,
)
from repro.plan import ExecutorRegistry
from repro.resilience.degrade import (
    DEFAULT_LADDER,
    fallback_chain,
    resilient_execute,
)
from repro.resilience.faults import FaultPlan, inject
from repro.resilience.policy import Deadline, RetryPolicy

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


def plan_for(strategy: str):
    return SimpleNamespace(strategy=strategy)


def ok_result(tag: str):
    return SimpleNamespace(meta={}, tag=tag)


def registry_with(**engines) -> ExecutorRegistry:
    registry = ExecutorRegistry()
    for name, fn in engines.items():
        registry.register(name, fn)
    return registry


class TestFallbackChain:
    def test_planned_strategy_runs_first_then_ladder(self):
        assert fallback_chain("hybrid") == ("hybrid", "oracle")
        assert fallback_chain("hetero") == ("hetero", "oracle")
        assert fallback_chain("fallback") == ("fallback", "oracle")

    def test_native_walks_down_but_is_never_escalated_to(self):
        # A native plan degrades to the oracle; no plan may walk *up*
        # into the compiled tier or over to a simulated engine.
        assert fallback_chain("native") == ("native", "oracle")
        assert "native" not in fallback_chain("hybrid")
        assert "hybrid" not in fallback_chain("library")

    def test_external_never_changes_engine(self):
        assert fallback_chain("external") == ("external",)

    def test_custom_ladder(self):
        assert fallback_chain("library", ladder=("fallback", "oracle")) == (
            "library", "fallback", "oracle"
        )


class TestResilientExecute:
    def test_clean_success_leaves_no_resilience_meta(self):
        registry = registry_with(hybrid=lambda plan, **io: ok_result("hy"))
        result = resilient_execute(
            plan_for("hybrid"), registry=registry,
            retry_policy=FAST_RETRY,
        )
        assert result.tag == "hy"
        assert "resilience" not in result.meta

    def test_retry_within_rung_is_recorded(self):
        calls = []

        def flaky(plan, **io):
            calls.append(1)
            if len(calls) == 1:
                raise TransientError("blip")
            return ok_result("hy")

        report: dict = {}
        result = resilient_execute(
            plan_for("hybrid"),
            registry=registry_with(hybrid=flaky),
            retry_policy=FAST_RETRY,
            report=report,
        )
        assert result.tag == "hy"
        assert report["retries"] == 1
        assert result.meta["resilience"] == {
            "requested": "hybrid",
            "executed": "hybrid",
            "retries": 1,
            "downgrades": [],
        }

    def test_persistent_failure_degrades_down_the_ladder(self):
        def broken(plan, **io):
            raise TransientError("hybrid is down")

        report: dict = {}
        result = resilient_execute(
            plan_for("hybrid"),
            registry=registry_with(
                hybrid=broken,
                oracle=lambda plan, **io: ok_result("or"),
            ),
            report=report,
        )
        assert result.tag == "or"
        resilience = result.meta["resilience"]
        assert resilience["requested"] == "hybrid"
        assert resilience["executed"] == "oracle"
        assert [d["engine"] for d in resilience["downgrades"]] == ["hybrid"]
        assert report["downgrades"] == resilience["downgrades"]

    def test_whole_ladder_failing_raises_engine_failed(self):
        def broken(plan, **io):
            raise TransientError("down")

        with pytest.raises(EngineFailedError, match="every engine rung") as e:
            resilient_execute(
                plan_for("hybrid"),
                registry=registry_with(
                    hybrid=broken, fallback=broken, oracle=broken
                ),
            )
        assert isinstance(e.value.__cause__, TransientError)

    @pytest.mark.parametrize(
        "exc", [
            ConfigurationError("bad request"),
            UnsupportedDtypeError("complex128"),
            DeadlineExceededError("late"),
        ],
    )
    def test_non_degradable_errors_reraise_immediately(self, exc):
        fallback_ran = []

        def broken(plan, **io):
            raise exc

        def fb(plan, **io):
            fallback_ran.append(1)
            return ok_result("fb")

        with pytest.raises(type(exc)):
            resilient_execute(
                plan_for("hybrid"),
                registry=registry_with(hybrid=broken, fallback=fb),
            )
        assert not fallback_ran  # degrading cannot fix a caller bug

    def test_external_one_rung_reraises_original_error(self):
        def broken(plan, **io):
            raise TransientError("spill failed")

        with pytest.raises(TransientError, match="spill failed"):
            resilient_execute(
                plan_for("external"),
                registry=registry_with(external=broken),
            )

    def test_missing_planned_engine_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="no executor"):
            resilient_execute(
                plan_for("hybrid"), registry=registry_with()
            )

    def test_missing_optional_rung_is_skipped(self):
        def broken(plan, **io):
            raise TransientError("down")

        # fallback is unregistered; the ladder should step over it.
        result = resilient_execute(
            plan_for("hybrid"),
            registry=registry_with(
                hybrid=broken, oracle=lambda plan, **io: ok_result("or")
            ),
            ladder=("fallback", "oracle"),
        )
        assert result.tag == "or"
        assert result.meta["resilience"]["executed"] == "oracle"

    def test_expired_deadline_stops_the_ladder(self):
        with pytest.raises(DeadlineExceededError):
            resilient_execute(
                plan_for("hybrid"),
                registry=registry_with(
                    hybrid=lambda plan, **io: ok_result("hy")
                ),
                deadline=Deadline.after(0.0),
            )

    def test_fault_sites_cover_every_ladder_rung(self):
        # The chaos suite relies on engine.<rung> firing inside
        # resilient_execute for every rung it can reach.
        registry = registry_with(
            hybrid=lambda plan, **io: ok_result("hy"),
            fallback=lambda plan, **io: ok_result("fb"),
            oracle=lambda plan, **io: ok_result("or"),
        )
        with inject(
            FaultPlan.single("engine.hybrid", times=-1)
        ):
            result = resilient_execute(
                plan_for("hybrid"), registry=registry
            )
        assert result.tag == "or"
        assert result.meta["resilience"]["executed"] == "oracle"
        with inject(FaultPlan.single("engine.fallback", times=-1)):
            result = resilient_execute(
                plan_for("fallback"), registry=registry
            )
        assert result.meta["resilience"]["executed"] == "oracle"

    def test_default_ladder_matches_registered_oracle(self):
        # The real registry must know every default rung, or the
        # ladder would silently shrink.
        from repro.plan import DEFAULT_REGISTRY

        for rung in DEFAULT_LADDER:
            assert DEFAULT_REGISTRY.executor_for(rung) is not None
