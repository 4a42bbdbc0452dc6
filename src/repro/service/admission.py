"""Admission control: bound the bytes the service's sorts hold at once.

A multi-tenant service faces the constraint the paper's §5 pipeline
faces one level down: the sum of every in-flight sort's working set
must fit the machine.  Each dispatch is charged what its sort holds
beside its input, by the host's one memory model
(:func:`repro.plan.planner.plan_resident_bytes`, and
:func:`~repro.plan.planner.array_resident_bytes` on the ``"batch"``
rung for each member of a micro-batch).

``acquire`` blocks (asynchronously) until the charge fits under the
budget next to everything already admitted.  Admission is FIFO: a
large job therefore serializes — it waits for the machine and then
occupies most of it — while small jobs keep interleaving whenever no
larger charge arrived before them (first-come order is what stops a
sustained stream of small requests from starving a parked large one).
A request whose charge exceeds the budget *alone* can never be
admitted; it is rejected immediately with
:class:`~repro.errors.AdmissionError` rather than parking the queue
forever.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.errors import AdmissionError, ConfigurationError

__all__ = ["AdmissionController"]


class AdmissionController:
    """Async gate bounding the sum of admitted working-set bytes.

    Parameters
    ----------
    max_in_flight_bytes:
        The service's memory budget.  ``acquire(b)`` with
        ``b > max_in_flight_bytes`` raises :class:`AdmissionError`
        immediately; otherwise it waits until ``b`` fits next to the
        already-admitted charges.
    """

    def __init__(self, max_in_flight_bytes: int) -> None:
        if max_in_flight_bytes <= 0:
            raise ConfigurationError("max_in_flight_bytes must be positive")
        self.capacity = int(max_in_flight_bytes)
        self.in_flight = 0
        self.peak_in_flight = 0
        self._condition = asyncio.Condition()
        self._waiters: deque[object] = deque()

    async def acquire(self, nbytes: int) -> None:
        """Admit ``nbytes`` of working set, waiting (FIFO) for room.

        Waiters are admitted in arrival order: a charge only proceeds
        once it is at the head of the wait queue *and* fits, so a large
        request cannot be starved by a stream of small ones arriving
        behind it (they queue until the head is admitted).
        """
        nbytes = int(nbytes)
        if nbytes > self.capacity:
            raise AdmissionError(
                f"request working set ({nbytes:,} B) exceeds the service "
                f"memory budget ({self.capacity:,} B) even alone; "
                f"raise the budget or set a per-request memory_budget "
                f"so the planner chunks it"
            )
        ticket = object()
        async with self._condition:
            self._waiters.append(ticket)
            try:
                while (
                    self._waiters[0] is not ticket
                    or self.in_flight + nbytes > self.capacity
                ):
                    await self._condition.wait()
            finally:
                self._waiters.remove(ticket)
                self._condition.notify_all()
            self.in_flight += nbytes
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)

    async def release(self, nbytes: int) -> None:
        """Return an admitted charge and wake every waiter to re-check."""
        async with self._condition:
            self.in_flight -= int(nbytes)
            self._condition.notify_all()

    @property
    def available(self) -> int:
        return self.capacity - self.in_flight
