"""One queued unit of service work.

A :class:`SortRequest` pairs the caller's payload (array, pair columns,
records, or a file path) with the :class:`~repro.plan.descriptor.
InputDescriptor` the planner prices it by, the :class:`asyncio.Future`
the caller awaits, and the telemetry record the scheduler fills in.
Requests are created by :meth:`repro.service.SortService.submit` and
consumed by the scheduler; they never outlive the service.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro.plan.descriptor import InputDescriptor
from repro.resilience.policy import Deadline
from repro.service.stats import RequestTiming

__all__ = ["SortRequest"]

#: Request kinds, mirroring the ``repro.sort*`` facades.
KINDS = ("keys", "pairs", "records", "file")


@dataclass
class SortRequest:
    """Payload + descriptor + completion future for one submitted sort.

    ``io`` carries the executor keyword arguments that ride along to
    :func:`repro.plan.executors.execute_plan` (``output_path``,
    ``layout``, ``pair_packing``, ``spool_dir`` for file requests;
    ``config``/``device`` for in-memory ones).
    """

    kind: str
    descriptor: InputDescriptor
    keys: np.ndarray | None = None
    values: np.ndarray | None = None
    records: np.ndarray | None = None
    io: dict = field(default_factory=dict)
    future: asyncio.Future = None
    enqueued_at: float = 0.0
    timing: RequestTiming = field(default_factory=RequestTiming)
    #: Absolute time budget (monotonic) the whole request must finish
    #: within; checked at dispatch, admission, and between engine
    #: retries.  ``None`` = no deadline.
    deadline: Deadline | None = None

    @property
    def cancelled(self) -> bool:
        """The caller gave up while this request was still queued."""
        return self.future is not None and self.future.cancelled()

    def batch_group(self) -> tuple | None:
        """The compatibility key micro-batching coalesces on.

        ``None`` marks the request unbatchable: file requests stream
        through their own engine, budgeted requests carry per-request
        chunking the batch path has no equivalent of, and a custom
        ``config``/``device`` changes engine behaviour in ways one
        shared batch dispatch could not honour per-request.  Everything
        else groups by exact layout — batches concatenate raw columns,
        so dtypes must match bit for bit.
        """
        if self.kind == "file":
            return None
        if self.descriptor.memory_budget is not None:
            return None
        if self.io.get("config") is not None or self.io.get("device") is not None:
            return None
        if self.descriptor.key_dtype.itemsize < 4:
            # The in-memory engines reject narrow pedagogical dtypes
            # (they are file-only, widened by RunWriter); batching them
            # would make a request's outcome depend on queue state.
            return None
        value_dtype = self.descriptor.value_dtype
        return (
            self.descriptor.key_dtype.str,
            None if value_dtype is None else value_dtype.str,
        )

    def resolve(self, result) -> None:
        """Fulfil the caller's future (unless it was cancelled)."""
        if self.future is not None and not self.future.done():
            self.future.set_result(result)

    def reject(self, exc: BaseException) -> None:
        if self.future is not None and not self.future.done():
            self.future.set_exception(exc)
