"""Executor registry: plans → engines.

The planner describes work; this module maps a
:class:`~repro.plan.ir.SortPlan`'s strategy onto the engine that
performs it.  Each executor is a plain callable
``fn(plan, **io) -> SortResult | ExternalSortReport`` registered under
the plan's strategy name, so new engines (a sharded service, a cached
backend) plug in without touching the planner or the facades.

Every stock executor drives the *existing* engine unchanged — the plan
only decides which engine runs and with what sizing — which is what
keeps the planner refactor bit-identical to the pre-planner behaviour
(the oracle property tests in ``tests/plan/`` pin this).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.plan.ir import SortPlan
from repro.types import SortResult

__all__ = [
    "ExecutorRegistry",
    "DEFAULT_REGISTRY",
    "execute_plan",
    "sort_in_memory",
]


class ExecutorRegistry:
    """Maps plan strategies onto engine-driving callables."""

    def __init__(self) -> None:
        self._executors: dict[str, Callable] = {}

    def register(self, strategy: str, fn: Callable) -> None:
        self._executors[strategy] = fn

    def executor_for(self, strategy: str) -> Callable:
        try:
            return self._executors[strategy]
        except KeyError:
            raise ConfigurationError(
                f"no executor registered for strategy {strategy!r}; "
                f"known: {', '.join(sorted(self._executors))}"
            ) from None

    def strategies(self) -> tuple[str, ...]:
        return tuple(sorted(self._executors))

    def execute(self, plan: SortPlan, **io):
        """Run a plan through its strategy's engine."""
        return self.executor_for(plan.strategy)(plan, **io)


# ----------------------------------------------------------------------
# Stock executors
# ----------------------------------------------------------------------
def _merged_config(plan: SortPlan, config):
    """Fold the descriptor's worker count into the engine config.

    The descriptor's ``workers`` is the resolved request (an explicit
    ``workers=`` kwarg, or the config's own count) and always wins —
    including an explicit ``workers=1`` overriding a threaded config.
    """
    from dataclasses import replace

    from repro.plan.planner import layout_preset

    desc = plan.descriptor
    if config is not None:
        if config.workers != desc.workers:
            return replace(config, workers=desc.workers)
        return config
    if desc.workers == 1:
        return None
    return replace(
        layout_preset(desc.key_bits, desc.value_bits), workers=desc.workers
    )


def sort_in_memory(
    engine: str,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    config=None,
    device=None,
) -> SortResult:
    """One in-memory sort on ``engine`` (``"native"`` or ``"hybrid"``).

    The native engine is the compiled counting-scatter
    (:mod:`repro.native`): byte-identical to ``hybrid`` by construction
    (property-pinned in ``tests/native/``), just compiled, and it
    models no device and reports no simulated time.  A missing
    extension or a failed kernel call degrades *inline* to the hybrid
    engine with the downgrade recorded in ``result.meta["resilience"]``
    — so a caller that chose native never fails for tier-availability
    reasons.  The native plan executor and the external sorter's run
    sorts both go through here.
    """
    from repro.core.hybrid_sort import HybridRadixSorter
    from repro.errors import NativeExecutionError, NativeUnavailableError
    from repro.native.build import native_status

    downgrade = None
    if engine == "native":
        try:
            from repro.native.engine import NativeRadixEngine

            result = NativeRadixEngine(config=config).sort(keys, values)
            result.meta["engine"] = "native"
            return result
        except (NativeUnavailableError, NativeExecutionError) as exc:
            downgrade = exc
    result = HybridRadixSorter(config=config, device=device).sort(
        keys, values
    )
    result.meta["engine"] = "hybrid"
    if downgrade is not None:
        result.meta["resilience"] = {
            "requested": "native",
            "executed": "hybrid",
            "retries": 0,
            "downgrades": [
                {
                    "engine": "native",
                    "error": f"{type(downgrade).__name__}: {downgrade}",
                }
            ],
            "native": native_status(warn=False).reason,
        }
    return result


def _execute_hybrid(
    plan: SortPlan,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    config=None,
    device=None,
    **_: object,
) -> SortResult:
    result = sort_in_memory(
        "hybrid", keys, values, _merged_config(plan, config), device
    )
    result.meta["plan"] = plan
    return result


def _execute_fallback(
    plan: SortPlan,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    **_: object,
) -> SortResult:
    from repro.baselines.cub import CubRadixSort

    result = CubRadixSort("1.5.1", spec=plan.descriptor.spec).sort(
        keys, values
    )
    result.meta["engine"] = "cub-fallback"
    result.meta["plan"] = plan
    return result


def _execute_hetero(
    plan: SortPlan,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    config=None,
    **_: object,
) -> SortResult:
    from repro.hetero.sorter import HeterogeneousSorter

    sorter = HeterogeneousSorter(
        spec=plan.descriptor.spec,
        in_place_replacement=plan.chunk_plan.in_place_replacement,
        config=_merged_config(plan, config),
    )
    outcome = sorter.run_plan(plan, keys, values)
    result = SortResult(
        keys=outcome.keys,
        values=outcome.values,
        simulated_seconds=outcome.total_seconds,
        meta={"engine": "hetero", "plan": plan, "outcome": outcome},
    )
    return result


def _execute_external(
    plan: SortPlan,
    output_path=None,
    pair_packing: str = "auto",
    spool_dir=None,
    layout=None,
    **_: object,
):
    from repro.external.format import FileLayout
    from repro.external.sorter import DEFAULT_MEMORY_BUDGET, ExternalSorter

    desc = plan.descriptor
    if output_path is None:
        raise ConfigurationError(
            "executing a file plan needs an output_path"
        )
    if layout is None:
        layout = FileLayout(desc.key_dtype, desc.value_dtype)
    sorter = ExternalSorter(
        memory_budget=desc.memory_budget or DEFAULT_MEMORY_BUDGET,
        workers=desc.workers,
        pair_packing=pair_packing,
        spool_dir=spool_dir,
    )
    return sorter.execute_plan(plan, desc.path, output_path, layout)


def _execute_sharded(
    plan: SortPlan,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    config=None,
    supervisor=None,
    partition: str | None = None,
    device=None,
    **_: object,
) -> SortResult:
    """The multiprocess scatter/merge backend (:mod:`repro.shard`).

    Sits above ``hybrid`` on the degradation ladder: if the worker
    pool is systematically failing, :func:`repro.resilience.degrade.
    resilient_execute` falls back to the single-process engines, which
    produce byte-identical output.
    """
    from repro.shard.router import execute_sharded_plan

    return execute_sharded_plan(
        plan,
        keys=keys,
        values=values,
        config=_merged_config(plan, config),
        supervisor=supervisor,
        partition=partition,
    )


def _execute_native(
    plan: SortPlan,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    config=None,
    device=None,
    **_: object,
) -> SortResult:
    """The compiled counting-scatter tier (:mod:`repro.native`).

    Top rung of the in-memory ladder.  Through :func:`sort_in_memory`,
    a plan that says "native" degrades inline to the hybrid engine
    rather than fail for tier-availability reasons, even outside
    ``resilient_execute``.
    """
    result = sort_in_memory(
        "native", keys, values, _merged_config(plan, config), device
    )
    result.meta["plan"] = plan
    return result


def _execute_oracle(
    plan: SortPlan,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    **_: object,
) -> SortResult:
    """The last rung of the degradation ladder: NumPy's stable sort.

    Sorts in §4.6 bits space (the engines' total order — NaNs after
    +inf, ``-0.0`` before ``+0.0``) with a stable argsort, so its
    output is byte-identical to every radix engine above it.  It
    models no device and reports no simulated time; its one job is to
    always produce the correct answer when faster rungs have failed.
    """
    from repro.core.keys import to_sortable_bits

    keys = np.asarray(keys)
    order = np.argsort(to_sortable_bits(keys), kind="stable")
    return SortResult(
        keys=keys[order],
        values=None if values is None else np.asarray(values)[order],
        simulated_seconds=0.0,
        meta={"engine": "numpy-oracle", "plan": plan},
    )


#: The registry the facades use.  Extend it to plug in new engines.
DEFAULT_REGISTRY = ExecutorRegistry()
DEFAULT_REGISTRY.register("hybrid", _execute_hybrid)
DEFAULT_REGISTRY.register("fallback", _execute_fallback)
DEFAULT_REGISTRY.register("hetero", _execute_hetero)
DEFAULT_REGISTRY.register("external", _execute_external)
DEFAULT_REGISTRY.register("sharded", _execute_sharded)
DEFAULT_REGISTRY.register("native", _execute_native)
DEFAULT_REGISTRY.register("oracle", _execute_oracle)


def execute_plan(plan: SortPlan, registry: ExecutorRegistry | None = None, **io):
    """Run ``plan`` through ``registry`` (the default one if omitted)."""
    return (registry or DEFAULT_REGISTRY).execute(plan, **io)
