"""Sort-as-a-service: an asyncio batching front-end over the planner.

The rest of the repository sorts for *one* caller at a time: every
facade (``repro.sort*``, the CLI verbs) is a blocking call that owns the
whole machine for its duration.  A production sorting service — the
database/indexing backend the ROADMAP's north star describes — faces a
different problem: many concurrent tenants submitting sorts of wildly
different sizes, all competing for one memory budget.

:mod:`repro.service` solves exactly that, and it does so by reusing the
plan layer as its scheduling currency:

* :class:`~repro.service.service.SortService` — the asyncio facade.
  ``await svc.submit(keys)`` accepts arrays, pairs, records, and file
  paths (the same polymorphism as :func:`repro.sort`), queues the
  request, and resolves with the same result object a direct call
  returns — byte-identical output, concurrency notwithstanding.
* micro-batching (:mod:`repro.service.batching`) — compatible small
  requests are coalesced into one vectorized
  :class:`~repro.core.local_sort.LocalSortEngine` pass, the paper's §4
  small-problem regime: each request becomes one "bucket" of a batch,
  so a burst of tiny sorts pays one engine dispatch instead of many.
* admission control (:mod:`repro.service.admission`) — in-flight
  bytes are bounded by what each sort holds, the same memory model the
  planner chunks by; large jobs serialize, small jobs interleave, and
  a job that cannot fit the budget even alone is rejected up front
  with :class:`~repro.errors.AdmissionError`.
* plan caching (:mod:`repro.service.cache`) — plans are pure functions
  of the :class:`~repro.plan.descriptor.InputDescriptor`, so repeat
  request shapes skip re-planning entirely.
* telemetry (:mod:`repro.service.stats`) — per-request queue wait /
  plan / execute timings ride along in ``result.meta["service"]``, and
  :class:`~repro.service.stats.ServiceStats` aggregates them.

``python -m repro serve`` drives a service from JSON lines on stdin;
perfbench's ``service`` workload times it against a same-run NumPy
sort of the same requests.
"""

from repro.service.admission import AdmissionController
from repro.service.batching import BATCHABLE_STRATEGIES, execute_batch
from repro.service.cache import PlanCache
from repro.service.request import SortRequest
from repro.service.service import SortService
from repro.service.stats import RequestTiming, ServiceStats

__all__ = [
    "AdmissionController",
    "BATCHABLE_STRATEGIES",
    "PlanCache",
    "RequestTiming",
    "ServiceStats",
    "SortRequest",
    "SortService",
    "execute_batch",
]
