"""Measured prices: one EWMA of seconds per byte per rate key.

Deterministic: every observation is a fixed number of seconds against
a real plan, so the expected rates are exact arithmetic.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.feedback import CostFeedback, rate_key
from repro.external.format import FileLayout
from repro.plan import InputDescriptor, Planner


def plan_for(n=1 << 16, key_dtype=np.uint32, value_dtype=None, native="auto"):
    descriptor = InputDescriptor(
        n=n, key_dtype=key_dtype, value_dtype=value_dtype
    )
    return Planner(native=native).plan(descriptor)


def file_plan(tmp_path):
    path = tmp_path / "in.bin"
    np.zeros(1 << 14, dtype=np.uint32).tofile(path)
    descriptor = InputDescriptor.for_file(
        path, FileLayout(np.uint32), memory_budget=1 << 14
    )
    return Planner().plan(descriptor)


#: A real plan of every strategy the planner makes, with the step
#: kinds it lays out.
STRATEGY_PLANS = {
    "library-keys": (lambda tmp_path: plan_for(), ["library-sort"]),
    "library-pairs": (
        lambda tmp_path: plan_for(value_dtype=np.uint32), ["library-sort"]
    ),
    "hybrid": (lambda tmp_path: plan_for(native="never"), ["hybrid-msd"]),
    "local-sort": (
        lambda tmp_path: plan_for(n=100, native="never"), ["local-sort"]
    ),
    "native": (
        lambda tmp_path: plan_for(
            key_dtype=np.int64, value_dtype=np.uint32, native="always"
        ),
        ["native-lsd"],
    ),
    "fallback": (
        lambda tmp_path: Planner(adaptive=True, native="never").plan(
            InputDescriptor(n=1000, key_dtype=np.uint32)
        ),
        ["lsd-fallback"],
    ),
    "hetero": (
        lambda tmp_path: Planner().plan(
            InputDescriptor(
                n=1 << 16, key_dtype=np.uint32, value_dtype=np.uint32,
                memory_budget=1 << 16,
            )
        ),
        ["chunked-pipeline", "kway-merge"],
    ),
    "external": (file_plan, ["spill-runs", "kway-merge"]),
}


class TestObserve:
    def test_smoothing_is_validated(self):
        with pytest.raises(ValueError):
            CostFeedback(smoothing=0.0)
        with pytest.raises(ValueError):
            CostFeedback(smoothing=1.5)

    @pytest.mark.parametrize("strategy", sorted(STRATEGY_PLANS))
    def test_first_observation_sets_the_rate(self, tmp_path, strategy):
        build, kinds = STRATEGY_PLANS[strategy]
        plan = build(tmp_path)
        assert [s.kind for s in plan.steps] == kinds
        feedback = CostFeedback()
        assert feedback.observe(plan, 2e-3)
        assert feedback.observations(plan) == 1
        assert len(feedback) == 1
        assert feedback.seconds(plan) == pytest.approx(2e-3)

    @pytest.mark.parametrize(
        "smoothing, expected",
        # The rate walks 1 → 1 → 2 ms per plan's bytes at 0.5; at 1
        # it is the latest measurement.
        [(0.5, 2e-3), (1.0, 3e-3)],
    )
    def test_ewma_of_seconds_per_byte(self, smoothing, expected):
        plan = plan_for()
        feedback = CostFeedback(smoothing=smoothing)
        for seconds in (1e-3, 1e-3, 3e-3):
            feedback.observe(plan, seconds)
        assert feedback.observations(plan) == 3
        assert feedback.seconds(plan) == pytest.approx(expected)

    def test_the_rate_key(self):
        plan = plan_for(n=(1 << 16) + 5, value_dtype=np.uint32)
        assert rate_key(plan) == ("library", "<u4", "<u4", 17)
        assert rate_key(plan_for(n=1000)) == ("library", "<u4", None, 10)

    @pytest.mark.parametrize(
        "seen, asked, shared",
        [
            (1 << 16, (1 << 17) - 1, True),
            ((1 << 17) - 1, 1 << 16, True),
            (1 << 16, (1 << 16) - 1, False),
            (1 << 16, 1 << 17, False),
        ],
        ids=["top-of-class", "bottom-of-class", "class-below", "class-above"],
    )
    def test_size_classes_are_powers_of_two(self, seen, asked, shared):
        feedback = CostFeedback()
        feedback.observe(plan_for(n=seen), 1e-3)
        plan = plan_for(n=asked)
        assert (feedback.observations(plan) == 1) == shared
        assert (feedback.apply(plan) is not plan) == shared

    def test_a_size_class_prices_its_other_sizes(self):
        feedback = CostFeedback()
        feedback.observe(plan_for(n=1 << 16), 1e-3)
        bigger = plan_for(n=(1 << 16) + 1000)
        assert feedback.seconds(bigger) == pytest.approx(
            1e-3 * bigger.bytes_moved / plan_for(n=1 << 16).bytes_moved
        )
        assert feedback.apply(bigger).cost_source == "measured-feedback"

    @pytest.mark.parametrize(
        "other",
        [
            pytest.param({"n": 1 << 12}, id="size-class"),
            pytest.param({"key_dtype": np.int32}, id="key-dtype"),
            pytest.param({"value_dtype": np.uint32}, id="value-dtype"),
            pytest.param({"native": "never"}, id="strategy"),
        ],
    )
    def test_other_keys_stay_paper_analytical(self, other):
        feedback = CostFeedback()
        feedback.observe(plan_for(), 1e-3)
        plan = plan_for(**other)
        assert feedback.observations(plan) == 0
        assert feedback.seconds(plan) == plan.predicted_seconds
        assert feedback.apply(plan) is plan
        assert plan.cost_source == "paper-analytical"

    @pytest.mark.parametrize("seconds", [0.0, -1.0])
    def test_non_positive_times_are_skipped(self, seconds):
        plan = plan_for()
        feedback = CostFeedback()
        assert not feedback.observe(plan, seconds)
        assert len(feedback) == 0

    def test_zero_byte_plans_are_not_observed(self):
        plan = plan_for(n=0)
        assert plan.bytes_moved == 0
        feedback = CostFeedback()
        assert not feedback.observe(plan, 1e-3)
        assert feedback.observations(plan) == 0

    def test_concurrent_observations_all_count(self):
        # The service observes from its executor threads.
        plan = plan_for()
        feedback = CostFeedback()

        def observe_many():
            for _ in range(200):
                feedback.observe(plan, 1e-3)

        threads = [threading.Thread(target=observe_many) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert feedback.observations(plan) == 800
        assert feedback.seconds(plan) == pytest.approx(1e-3)


class TestApply:
    def test_unobserved_key_returns_the_plan(self):
        plan = plan_for()
        assert CostFeedback().apply(plan) is plan

    @pytest.mark.parametrize("strategy", sorted(STRATEGY_PLANS))
    def test_steps_cost_their_bytes_at_the_rate(self, tmp_path, strategy):
        plan = STRATEGY_PLANS[strategy][0](tmp_path)
        feedback = CostFeedback()
        feedback.observe(plan, 0.5)
        priced = feedback.apply(plan)
        rate = 0.5 / plan.bytes_moved
        assert priced.cost_source == "measured-feedback"
        assert priced.strategy == plan.strategy
        assert priced.engine == plan.engine
        assert [s.kind for s in priced.steps] == [s.kind for s in plan.steps]
        assert [s.params for s in priced.steps] == [
            s.params for s in plan.steps
        ]
        assert [s.bytes_moved for s in priced.steps] == [
            s.bytes_moved for s in plan.steps
        ]
        for step in priced.steps:
            assert step.predicted_seconds == pytest.approx(
                step.bytes_moved * rate
            )
        assert priced.predicted_seconds == pytest.approx(0.5)
        assert priced.to_dict()["cost_source"] == "measured-feedback"
        assert plan.cost_source == "paper-analytical"

    @given(
        n=st.integers(min_value=1, max_value=50_000_000),
        pairs=st.booleans(),
        seconds=st.floats(min_value=1e-6, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_measured_prices_never_reroute(self, n, pairs, seconds):
        descriptor = InputDescriptor(
            n=n,
            key_dtype=np.uint32,
            value_dtype=np.uint32 if pairs else None,
        )
        plan = Planner().plan(descriptor)
        feedback = CostFeedback()
        feedback.observe(plan, seconds)
        priced = feedback.apply(plan)
        assert priced.descriptor == plan.descriptor
        assert priced.strategy == plan.strategy
        assert [s.kind for s in priced.steps] == [s.kind for s in plan.steps]
        assert priced.bytes_moved == plan.bytes_moved
        assert priced.predicted_seconds == pytest.approx(
            feedback.seconds(plan)
        )
        assert priced.predicted_seconds == pytest.approx(seconds)
