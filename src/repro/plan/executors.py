"""Executor registry: plans → engines.

The planner describes work; this module maps a
:class:`~repro.plan.ir.SortPlan`'s strategy onto the engine that
performs it.  Each executor is a plain callable
``fn(plan, **io) -> SortResult | ExternalSortReport`` registered under
the plan's strategy name, so new engines (a cached backend, say) plug
in without touching the planner or the facades.

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
def sort_in_memory(
    engine: str,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    config=None,
    device=None,
) -> SortResult:
    """One in-memory sort on ``engine``: ``"library"``, ``"native"`` or
    ``"hybrid"``.

    The library rung is NumPy's ``np.sort`` over the §4.6 bits
    (:mod:`repro.core.library`).  The native engine is the compiled
    counting-scatter (:mod:`repro.native`): byte-identical to the
    other two by construction (property-pinned in ``tests/native/``),
    and it models no device and reports no simulated time.  A missing
    extension or a failed kernel call degrades *inline* to the library
    rung with the downgrade recorded in ``result.meta["resilience"]``
    — so a caller that chose native never fails for tier-availability
    reasons.  The hybrid engine is the paper's simulated §4 sort.  The
    plan executors and the run sorts of a file or a budgeted array's
    chunks all go through here.
    """
    from repro.core.library import library_sort

    if engine == "hybrid":
        from repro.core.hybrid_sort import HybridRadixSorter

        result = HybridRadixSorter(config=config, device=device).sort(
            keys, values
        )
        result.meta["engine"] = "hybrid"
        return result
    if engine == "native":
        from repro.errors import NativeExecutionError, NativeUnavailableError
        from repro.native.build import native_status

        try:
            from repro.native.engine import NativeRadixEngine

            result = NativeRadixEngine(config=config).sort(keys, values)
            result.meta["engine"] = "native"
            return result
        except (NativeUnavailableError, NativeExecutionError) as exc:
            result = library_sort(keys, values, config)
            result.meta["resilience"] = {
                "requested": "native",
                "executed": "library",
                "retries": 0,
                "downgrades": [
                    {"engine": "native", "error": f"{type(exc).__name__}: {exc}"}
                ],
                "native": native_status(warn=False).reason,
            }
            return result
    return library_sort(keys, values, config)


def _execute_hybrid(
    plan: SortPlan,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    config=None,
    device=None,
    **_: object,
) -> SortResult:
    result = sort_in_memory("hybrid", keys, values, config, device)
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


def _columns(records: np.ndarray) -> tuple[np.ndarray, ...]:
    """Keys, or the key and value fields of ``("key", "value")`` records."""
    if records.dtype.names is None:
        return (records,)
    return records["key"], records["value"]


def _execute_hetero(
    plan: SortPlan,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    **_: object,
) -> SortResult:
    """The §5 chunked sort of a budgeted array, on the host rungs.

    Each chunk the ``chunked-pipeline`` step cut sorts in one staged
    copy of the records with a file's run sort
    (:meth:`~repro.external.runs.RunWriter.sort_records`, on the step's
    engine and packing); :func:`~repro.external.merge.drain_cursors`
    merges them over :class:`~repro.external.merge.ArrayCursor` blocks
    sized so a round fits the budget.  The bytes equal the unbudgeted
    sort's.
    """
    from repro.core.config import SortConfig
    from repro.external.format import FileLayout
    from repro.external.merge import (
        ArrayCursor,
        array_block_records,
        drain_cursors,
    )
    from repro.external.runs import RunWriter, _fused

    keys = np.asarray(keys)
    pairs = values is not None
    values = np.asarray(values) if pairs else None
    # Run sorts widen a file's 8/16-bit keys; an array whose layout
    # no in-memory rung sorts fails here as it does unchunked.
    SortConfig.for_layout(8 * keys.itemsize, 8 * values.itemsize if pairs else 0)
    step = plan.step("chunked-pipeline")
    layout = FileLayout(keys.dtype, values.dtype if pairs else None)
    packing = step.params["packing"]
    writer = RunWriter(layout, packing, engine=step.params["engine"])
    staged = layout.to_records(keys, values) if pairs else keys.copy()
    bounds = plan.run_plan.bounds
    chunks = list(zip(bounds, bounds[1:]))
    for lo, hi in chunks:
        chunk = staged[lo:hi]
        done = writer.sort_records(chunk)
        if not np.may_share_memory(done, chunk):  # a sorted copy
            chunk[...] = done
        del done  # one chunk's sort at a time, none in the merge
    fused = _fused(layout, packing)
    block = array_block_records(
        len(chunks), staged.dtype, fused, plan.descriptor.memory_budget
    )
    out = [np.empty(keys.size, field.dtype) for field in _columns(staged[:0])]
    written = 0

    def emit(words: np.ndarray) -> None:
        nonlocal written
        merged = words.view(staged.dtype)
        for column, field in zip(out, _columns(merged)):
            column[written:written + merged.size] = field
        written += merged.size

    drain_cursors(
        [ArrayCursor(staged[lo:hi], block, fused) for lo, hi in chunks],
        emit,
    )
    return SortResult(
        keys=out[0],
        values=out[1] if pairs else None,
        meta={"engine": "hetero", "plan": plan},
    )


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
        pair_packing=pair_packing,
        spool_dir=spool_dir,
    )
    return sorter.execute_plan(plan, desc.path, output_path, layout)


def _execute_native(
    plan: SortPlan,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    config=None,
    device=None,
    **_: object,
) -> SortResult:
    """The compiled counting-scatter tier (:mod:`repro.native`).

    Through :func:`sort_in_memory`, a plan that says "native" degrades
    inline to the library rung rather than fail for tier-availability
    reasons, even outside ``resilient_execute``.
    """
    result = sort_in_memory("native", keys, values, config, device)
    result.meta["plan"] = plan
    return result


def _execute_library(
    plan: SortPlan,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    config=None,
    **_: object,
) -> SortResult:
    """The library rung: ``np.sort`` over the §4.6 bits
    (:mod:`repro.core.library`); a failure degrades to the oracle."""
    result = sort_in_memory("library", keys, values, config)
    result.meta["plan"] = plan
    return result


def _execute_oracle(
    plan: SortPlan,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    **_: object,
) -> SortResult:
    """The degradation ladder's one rung: NumPy's stable sort.

    Sorts in §4.6 bits space (the engines' total order — NaNs after
    +inf, ``-0.0`` before ``+0.0``) with a stable argsort, so its
    output is byte-identical to every engine it stands in for.  It
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
DEFAULT_REGISTRY.register("native", _execute_native)
DEFAULT_REGISTRY.register("library", _execute_library)
DEFAULT_REGISTRY.register("oracle", _execute_oracle)


def execute_plan(plan: SortPlan, registry: ExecutorRegistry | None = None, **io):
    """Run ``plan`` through ``registry`` (the default one if omitted)."""
    return (registry or DEFAULT_REGISTRY).execute(plan, **io)
