"""Plan cache: repeat request shapes skip re-planning.

Planning is pure — a :class:`~repro.plan.ir.SortPlan` is a function of
the :class:`~repro.plan.descriptor.InputDescriptor` alone and never
reads input data — so two requests with the same descriptor signature
get the *same* plan.  A service seeing millions of similarly-shaped
requests (the common case for an index-build or query backend: one
schema, many batches) should therefore pay the planner once per shape,
not once per request.

Plans are frozen dataclasses, safe to share across requests and
threads; the cache is a small LRU keyed on the descriptor's signature
tuple.  File descriptors are *not* cached: their ``n`` is read from the
filesystem at describe time, so a path's plan can go stale while the
signature stays equal.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.plan.descriptor import InputDescriptor
from repro.plan.ir import SortPlan
from repro.plan.planner import Planner

__all__ = ["PlanCache", "descriptor_signature"]


def descriptor_signature(descriptor: InputDescriptor) -> tuple:
    """The hashable identity planning depends on.

    Everything :meth:`Planner.plan` reads from the descriptor is in
    here; two descriptors with equal signatures always plan identically.
    The tuple lives on the descriptor itself
    (:meth:`InputDescriptor.signature`).
    """
    return descriptor.signature()


class PlanCache:
    """A small LRU of descriptor signature → :class:`SortPlan`.

    >>> import numpy as np
    >>> from repro.plan import InputDescriptor, Planner
    >>> cache = PlanCache(maxsize=4)
    >>> desc = InputDescriptor(n=1000, key_dtype=np.uint32)
    >>> plan, hit = cache.get_or_plan(Planner(), desc)
    >>> hit
    False
    >>> again, hit = cache.get_or_plan(Planner(), desc)
    >>> hit and again is plan
    True
    """

    def __init__(self, maxsize: int = 128) -> None:
        self.maxsize = max(0, int(maxsize))
        self._plans: OrderedDict[tuple, SortPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._plans)

    def get_or_plan(
        self, planner: Planner, descriptor: InputDescriptor
    ) -> tuple[SortPlan, bool]:
        """The cached plan for ``descriptor``, planning on a miss.

        Returns ``(plan, cache_hit)``.  File descriptors bypass the
        cache entirely (their record count is a filesystem fact that
        can change between requests to the same path).
        """
        if self.maxsize == 0 or descriptor.source == "file":
            self.misses += 1
            return planner.plan(descriptor), False
        key = descriptor_signature(descriptor)
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            self.hits += 1
            return plan, True
        self.misses += 1
        plan = planner.plan(descriptor)
        self._plans[key] = plan
        while len(self._plans) > self.maxsize:
            self._plans.popitem(last=False)
        return plan, False

    def clear(self) -> None:
        self._plans.clear()
