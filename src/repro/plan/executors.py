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
    """One in-memory sort on ``engine``: ``"library"``, ``"native"`` or
    ``"hybrid"``.

    The library rung is one ``np.sort`` over the §4.6 bits
    (:mod:`repro.core.library`).  The native engine is the compiled
    counting-scatter (:mod:`repro.native`): byte-identical to
    ``hybrid`` by construction (property-pinned in ``tests/native/``),
    just compiled, and it models no device and reports no simulated
    time.  A missing extension or a failed kernel call degrades
    *inline* to the hybrid engine with the downgrade recorded in
    ``result.meta["resilience"]`` — so a caller that chose native never
    fails for tier-availability reasons.  The native plan executor,
    the external sorter's radix run sorts and the chunk sorts of a
    budgeted array all go through here.
    """
    if engine == "library":
        from repro.core.library import library_sort

        return library_sort(keys, values, config)
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


def _columns(records: np.ndarray) -> tuple[np.ndarray, ...]:
    """Keys, or the key and value fields of ``("key", "value")`` records."""
    if records.dtype.names is None:
        return (records,)
    return records["key"], records["value"]


def _execute_hetero(
    plan: SortPlan,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    config=None,
    **_: object,
) -> SortResult:
    """The §5 chunked sort of a budgeted array, on the host rungs.

    Each chunk sorts on the engine the ``chunked-pipeline`` step
    recorded (:meth:`~repro.plan.planner.Planner.run_engine`) into one
    staged copy of the input.  The file merge's
    :func:`~repro.external.merge.drain_cursors` then merges the chunks
    over :class:`~repro.external.merge.ArrayCursor` blocks sized so a
    round's temporaries fit the budget.  Both order records as every
    engine does, so the bytes equal the unbudgeted sort's.
    """
    from repro.core.pairs import fused_packable, record_dtype
    from repro.external.merge import (
        ArrayCursor,
        array_block_records,
        drain_cursors,
    )

    keys = np.asarray(keys)
    pairs = values is not None
    values = np.asarray(values) if pairs else None
    config = _merged_config(plan, config)
    engine = plan.step("chunked-pipeline").params["engine"]
    n, n_chunks = keys.size, plan.chunk_plan.n_chunks
    bounds = [n * i // n_chunks for i in range(n_chunks + 1)]
    chunks = list(zip(bounds, bounds[1:]))
    staged = np.empty(
        n, record_dtype(keys.dtype, values.dtype) if pairs else keys.dtype
    )
    for lo, hi in chunks:
        chunk = sort_in_memory(
            engine, keys[lo:hi], values[lo:hi] if pairs else None, config
        )
        for field, column in zip(
            _columns(staged[lo:hi]), (chunk.keys, chunk.values)
        ):
            field[:] = column
        del chunk, column  # one chunk's output at a time, none in the merge
    # The merge orders ties as the chunk sorts did (runs._fused's rule).
    fused = (
        pairs
        and config is not None
        and config.pair_packing == "fused"
        and fused_packable(8 * keys.itemsize, 8 * values.itemsize)
    )
    block = array_block_records(
        n_chunks, staged.dtype, fused, plan.descriptor.memory_budget
    )
    out = [np.empty(n, field.dtype) for field in _columns(staged[:0])]
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
        workers=desc.workers,
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


def _execute_library(
    plan: SortPlan,
    keys: np.ndarray,
    values: np.ndarray | None = None,
    config=None,
    **_: object,
) -> SortResult:
    """The library rung: one ``np.sort`` over the §4.6 bits
    (:mod:`repro.core.library`).  Above ``hybrid`` on the degradation
    ladder, so a failure degrades to the radix engines."""
    result = sort_in_memory("library", keys, values, config)
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
DEFAULT_REGISTRY.register("native", _execute_native)
DEFAULT_REGISTRY.register("library", _execute_library)
DEFAULT_REGISTRY.register("oracle", _execute_oracle)


def execute_plan(plan: SortPlan, registry: ExecutorRegistry | None = None, **io):
    """Run ``plan`` through ``registry`` (the default one if omitted)."""
    return (registry or DEFAULT_REGISTRY).execute(plan, **io)
