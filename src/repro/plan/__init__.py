"""Sort planning: one plan IR + dispatch facade for every engine.

The paper's core idea is *planning before sorting* — §3's analytical
model and §5's chunk/pipeline schedule pick a strategy from input size,
layout, and memory geometry before any data moves.  This package makes
that phase first-class and inspectable:

* :class:`~repro.plan.descriptor.InputDescriptor` — the facts planning
  needs (size, layout, array vs file, budget, device);
* :class:`~repro.plan.ir.SortPlan` / :class:`~repro.plan.ir.PlanStep`
  — the serialisable plan IR with cost annotations;
* :class:`~repro.plan.planner.Planner` — the single strategy decision
  (absorbing the §6.1 adaptive crossover and the §5 budget accounting
  every engine used to re-derive privately);
* :mod:`~repro.plan.executors` — the registry mapping a plan's
  strategy onto the engine that executes it.

``repro.sort()``, ``AdaptiveSorter`` and ``ExternalSorter`` all
plan-then-execute through this layer; the
``repro plan`` CLI verb explains a plan without executing it.
"""

from repro.plan.descriptor import InputDescriptor
from repro.plan.executors import DEFAULT_REGISTRY, ExecutorRegistry, execute_plan
from repro.plan.ir import STEP_KINDS, PlanStep, SortPlan
from repro.plan.planner import (
    PAPER_CROSSOVER_KEYS,
    PAPER_CROSSOVER_PAIRS,
    Planner,
)

__all__ = [
    "DEFAULT_REGISTRY",
    "ExecutorRegistry",
    "InputDescriptor",
    "PAPER_CROSSOVER_KEYS",
    "PAPER_CROSSOVER_PAIRS",
    "PlanStep",
    "Planner",
    "STEP_KINDS",
    "SortPlan",
    "execute_plan",
]
