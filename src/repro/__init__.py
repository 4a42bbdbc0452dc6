"""repro — a reproduction of "A Memory Bandwidth-Efficient Hybrid Radix
Sort on GPUs" (Stehle & Jacobsen, SIGMOD 2017) on a simulated GPU.

Quickstart::

    import numpy as np
    import repro

    keys = np.random.default_rng(0).integers(
        0, 2**32, 1 << 20, dtype=np.uint64
    ).astype(np.uint32)
    result = repro.sort(keys)  # the planner picks the engine
    assert (result.keys[:-1] <= result.keys[1:]).all()
    sim = repro.sort(keys, native="never")  # the simulated hybrid engine
    print(f"simulated Titan X time: {sim.simulated_seconds * 1e3:.2f} ms")

The package layout mirrors the paper: :mod:`repro.core` is the hybrid
MSD radix sort (§4), :mod:`repro.hetero` the pipelined heterogeneous
sort (§5), :mod:`repro.baselines` the comparison systems (§3/§6),
:mod:`repro.gpu` and :mod:`repro.cost` the simulated hardware substrate,
and :mod:`repro.workloads` the entropy/Zipf benchmark generators (§6).
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.adaptive import AdaptiveSorter
from repro.core.analytical import AnalyticalModel
from repro.core.config import SortConfig, derive_table3
from repro.core.hybrid_sort import HybridRadixSorter
from repro.core.keys import from_sortable_bits, to_sortable_bits
from repro.core.pairs import decompose, make_records, recompose
from repro.errors import (
    ConfigurationError,
    CorruptRunError,
    DeadlineExceededError,
    DeviceStateError,
    EngineFailedError,
    OverloadedError,
    ReproError,
    ResourceExhaustedError,
    TraceError,
    TransientError,
    UnsupportedDtypeError,
)
from repro.gpu.device import SimulatedGPU
from repro.gpu.spec import GPUSpec, GTX_980, TESLA_P100, TITAN_X_PASCAL
from repro.plan import (
    InputDescriptor,
    Planner,
    PlanStep,
    SortPlan,
    execute_plan,
)
from repro.types import SortResult, SortTrace, TimeBreakdown

__version__ = "1.1.0"

__all__ = [
    "AdaptiveSorter",
    "AnalyticalModel",
    "ConfigurationError",
    "CorruptRunError",
    "Deadline",
    "DeadlineExceededError",
    "DeviceStateError",
    "EngineFailedError",
    "FaultPlan",
    "FaultSpec",
    "OverloadedError",
    "RetryPolicy",
    "GPUSpec",
    "GTX_980",
    "HybridRadixSorter",
    "InputDescriptor",
    "NativeRadixEngine",
    "PlanStep",
    "Planner",
    "ReproError",
    "ResourceExhaustedError",
    "SimulatedGPU",
    "SortConfig",
    "SortPlan",
    "SortResult",
    "SortService",
    "SortTrace",
    "TESLA_P100",
    "TITAN_X_PASCAL",
    "TimeBreakdown",
    "TraceError",
    "TransientError",
    "UnsupportedDtypeError",
    "decompose",
    "derive_table3",
    "execute_plan",
    "from_sortable_bits",
    "make_records",
    "native_status",
    "plan_for",
    "recompose",
    "sort",
    "sort_pairs",
    "sort_records",
    "to_sortable_bits",
]


def __getattr__(name: str):
    """Lazy re-exports (PEP 562) that keep ``import repro`` light.

    The service layer pulls in asyncio machinery most library users
    never touch; it loads on first attribute access instead.
    """
    if name == "SortService":
        from repro.service import SortService

        return SortService
    if name in ("RetryPolicy", "Deadline"):
        from repro.resilience import policy

        return getattr(policy, name)
    if name in ("FaultPlan", "FaultSpec"):
        from repro.resilience import faults

        return getattr(faults, name)
    if name == "NativeRadixEngine":
        # Importing the engine probes (and may compile) the extension;
        # keep ``import repro`` free of that cost and of cffi itself.
        from repro.native.engine import NativeRadixEngine

        return NativeRadixEngine
    if name == "native_status":
        from repro.native.build import native_status

        return native_status
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _describe(
    data,
    values: np.ndarray | None = None,
    device: SimulatedGPU | None = None,
    memory_budget: int | None = None,
    workers: int | None = None,
    config: SortConfig | None = None,
    layout=None,
    dtype=None,
    value_dtype=None,
    pair_packing: str | None = None,
) -> InputDescriptor:
    """Build the planner's input descriptor for arrays or file paths."""
    spec = device.spec if device is not None else TITAN_X_PASCAL
    if workers is None:
        workers = config.workers if config is not None else 1
    if isinstance(data, (str, os.PathLike)):
        return InputDescriptor.for_file(
            data,
            _resolve_layout(layout, dtype, value_dtype),
            memory_budget=memory_budget,
            workers=workers,
            spec=spec,
            pair_packing=pair_packing,
        )
    return InputDescriptor.for_array(
        np.asarray(data),
        None if values is None else np.asarray(values),
        memory_budget=memory_budget,
        workers=workers,
        spec=spec,
    )


def _native_policy(native: str, device: SimulatedGPU | None) -> str:
    """A simulated ``device=`` asks for the engines it simulates."""
    return "never" if device is not None and native == "auto" else native


def _resolve_layout(layout, dtype, value_dtype):
    """One FileLayout from either a layout object or dtype names."""
    from repro.external.format import FileLayout, parse_dtype

    if layout is not None:
        return layout
    if dtype is None:
        raise ConfigurationError(
            "sorting a file path needs layout= or dtype= "
            "(e.g. dtype='uint32')"
        )
    return FileLayout(
        parse_dtype(np.dtype(dtype).name),
        None
        if value_dtype is None
        else parse_dtype(np.dtype(value_dtype).name, value=True),
    )


def plan_for(
    data,
    values: np.ndarray | None = None,
    config: SortConfig | None = None,
    device: SimulatedGPU | None = None,
    *,
    memory_budget: int | None = None,
    workers: int | None = None,
    layout=None,
    dtype=None,
    value_dtype=None,
    native: str = "auto",
) -> SortPlan:
    """The plan :func:`sort` would execute, without executing anything.

    Accepts the same polymorphic input as :func:`sort` (array or file
    path) and returns the :class:`~repro.plan.ir.SortPlan` — strategy,
    steps, and predicted costs.  Planning never reads input data.
    """
    descriptor = _describe(
        data, values, device, memory_budget, workers, config,
        layout, dtype, value_dtype,
    )
    return Planner(
        config=config, native=_native_policy(native, device)
    ).plan(descriptor)


def sort(
    data,
    config: SortConfig | None = None,
    device: SimulatedGPU | None = None,
    *,
    memory_budget: int | None = None,
    workers: int | None = None,
    output: str | os.PathLike | None = None,
    layout=None,
    dtype=None,
    value_dtype=None,
    pair_packing: str = "auto",
    spool_dir: str | os.PathLike | None = None,
    native: str = "auto",
):
    """Sort an array or a flat binary file — plan, then execute.

    Every call routes through :class:`~repro.plan.planner.Planner`:

    * a NumPy array of any dtype with an order-preserving bijection
      sorts in memory — on the library rung (``np.sort`` over the
      §4.6 bits), the compiled tier or the hybrid sort (§4) — and
      returns a :class:`~repro.types.SortResult` whose
      ``meta["plan"]`` records the executed plan;
    * an array with a ``memory_budget`` it does not fit runs the §5
      chunked pipeline (chunk sorts + k-way merge, bit-identical
      output);
    * a file path (``str``/``PathLike``; describe the records with
      ``layout=`` or ``dtype=``/``value_dtype=``) spills sorted runs
      and merges them into ``output=``, returning the
      :class:`~repro.external.ExternalSortReport`.

    ``workers=`` fans disjoint work across host threads; the output
    is byte-identical for any worker count.

    ``native=`` is the engine policy (``"auto"``, the default, sends
    keys and pairs of at most 32-bit keys under any ``pair_packing`` —
    in memory, as a budgeted array's chunks or as a file's run sorts,
    where 8/16-bit keys qualify too — to the library rung, and
    64-bit-key pairs to the compiled tier when the extension is
    available; ``"never"`` pins the
    simulated NumPy engines — the ones that produce a trace and
    simulated seconds, and the choice ``"auto"`` makes when a
    ``device=`` is given; ``"always"`` forces the native tier, which
    still degrades gracefully when the extension is missing).  Every
    tier is byte-identical.
    """
    if isinstance(data, (str, os.PathLike)):
        if output is None:
            raise ConfigurationError("sorting a file path needs output=")
        if config is not None:
            # The external engine derives its slice configuration from
            # the file layout; a caller config would be silently dropped.
            raise ConfigurationError(
                "config= does not apply to file-path inputs; use "
                "memory_budget=, workers=, and pair_packing= instead"
            )
        file_layout = _resolve_layout(layout, dtype, value_dtype)
        descriptor = _describe(
            data, None, device, memory_budget, workers, config,
            layout=file_layout, pair_packing=pair_packing,
        )
        return execute_plan(
            Planner(config=config, native=native).plan(descriptor),
            output_path=output,
            pair_packing=pair_packing,
            spool_dir=spool_dir,
            layout=file_layout,
        )
    # File-only kwargs on an array input would be silently dead (no
    # output file would ever be written) — refuse loudly instead.
    file_only = {
        "output": output, "layout": layout, "dtype": dtype,
        "value_dtype": value_dtype, "spool_dir": spool_dir,
    }
    if pair_packing != "auto":
        file_only["pair_packing"] = pair_packing
    stray = [name for name, value in file_only.items() if value is not None]
    if stray:
        raise ConfigurationError(
            f"{', '.join(stray)}= only apply to file-path inputs; "
            f"got an in-memory array"
        )
    descriptor = _describe(
        data, None, device, memory_budget, workers, config
    )
    return execute_plan(
        Planner(
            config=config, native=_native_policy(native, device)
        ).plan(descriptor),
        keys=np.asarray(data),
        config=config,
        device=device,
    )


def sort_pairs(
    keys: np.ndarray,
    values: np.ndarray,
    config: SortConfig | None = None,
    device: SimulatedGPU | None = None,
    *,
    memory_budget: int | None = None,
    workers: int | None = None,
    native: str = "auto",
) -> SortResult:
    """Sort decomposed key-value pairs (§4.6) through the planner."""
    keys = np.asarray(keys)
    values = np.asarray(values)
    descriptor = _describe(
        keys, values, device, memory_budget, workers, config
    )
    plan = Planner(
        config=config, native=_native_policy(native, device)
    ).plan(descriptor)
    return execute_plan(
        plan, keys=keys, values=values, config=config, device=device
    )


def sort_records(
    records: np.ndarray,
    config: SortConfig | None = None,
    device: SimulatedGPU | None = None,
    *,
    memory_budget: int | None = None,
    workers: int | None = None,
    native: str = "auto",
) -> SortResult:
    """Sort coherent key-value records: decompose, sort, recompose."""
    keys, values = decompose(records)
    result = sort_pairs(
        keys,
        values,
        config=config,
        device=device,
        memory_budget=memory_budget,
        workers=workers,
        native=native,
    )
    result.meta["records"] = recompose(result.keys, result.values)
    return result
