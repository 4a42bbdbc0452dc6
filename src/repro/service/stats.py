"""Service telemetry: per-request timings and aggregate counters.

Every request the service completes carries a :class:`RequestTiming` in
its result's ``meta["service"]`` — how long it queued, how long planning
took (and whether the plan came from the cache), how long the engine
ran, and how many requests shared its batch.  :class:`ServiceStats`
aggregates the same facts across the service's lifetime; it is what the
``repro serve`` driver prints at EOF and what the throughput bench
records next to its latency percentiles.

Both records are plain data — the service updates them from the event
loop only, so no locking is needed, and ``to_dict()`` keeps them
JSON-ready for the bench reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RequestTiming", "ServiceStats"]


@dataclass
class RequestTiming:
    """One request's life-cycle timings, in seconds.

    ``queue_wait`` runs from ``submit()`` to the moment the scheduler
    dispatched the request; ``plan_seconds`` is the planner call (zero
    and ``cache_hit=True`` when the descriptor signature was already
    planned); ``execute_seconds`` is the engine; ``batch_size`` is the
    number of requests that shared the engine dispatch (1 = unbatched).
    """

    queue_wait: float = 0.0
    plan_seconds: float = 0.0
    execute_seconds: float = 0.0
    batch_size: int = 1
    cache_hit: bool = False

    @property
    def total_seconds(self) -> float:
        return self.queue_wait + self.plan_seconds + self.execute_seconds

    def to_dict(self) -> dict:
        return {
            "queue_wait": self.queue_wait,
            "plan_seconds": self.plan_seconds,
            "execute_seconds": self.execute_seconds,
            "batch_size": self.batch_size,
            "cache_hit": self.cache_hit,
            "total_seconds": self.total_seconds,
        }


@dataclass
class ServiceStats:
    """Aggregate counters over a service's lifetime.

    Attributes
    ----------
    submitted / completed / failed / rejected / cancelled:
        Request outcomes.  ``rejected`` counts admission rejections
        (the request could never fit the budget); ``cancelled`` counts
        requests whose caller gave up while they were still queued.
    batches / batched_requests / max_batch_size:
        Micro-batching activity: engine dispatches that coalesced more
        than one request, how many requests rode in them, and the
        largest coalition seen.
    plan_cache_hits / plan_cache_misses:
        Descriptor signatures served from / inserted into the plan
        cache.
    queue_wait_seconds / plan_seconds / execute_seconds:
        Summed per-request timings (``mean_*`` properties divide by
        ``completed``).
    peak_in_flight_bytes:
        High-water mark of admitted working-set bytes — how close the
        service came to its memory budget.
    retries / timeouts / fallbacks / rejected_expired / shed:
        Failure-mode counters from the resilience layer: engine
        attempts the :class:`~repro.resilience.policy.RetryPolicy`
        retried, dispatches the watchdog timed out, requests completed
        on a downgraded engine rung, requests rejected because their
        deadline expired before execution, and small requests shed
        under overload (each with a retry-after hint).
    rejected_time_budget:
        Requests refused because the plan's price exceeded the
        service's ``time_budget`` — admission control priced in
        *time*, not just bytes.
    feedback_observations / feedback_keys:
        Measured prices: execute times folded into the service's
        :class:`~repro.cost.feedback.CostFeedback`, and how many rate
        keys (strategy, layout, size class) have a measured rate.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    cancelled: int = 0
    batches: int = 0
    batched_requests: int = 0
    max_batch_size: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    queue_wait_seconds: float = 0.0
    plan_seconds: float = 0.0
    execute_seconds: float = 0.0
    peak_in_flight_bytes: int = 0
    retries: int = 0
    timeouts: int = 0
    fallbacks: int = 0
    rejected_expired: int = 0
    shed: int = 0
    rejected_time_budget: int = 0
    feedback_observations: int = 0
    feedback_keys: int = 0
    by_strategy: dict = field(default_factory=dict)

    def record(self, timing: RequestTiming, strategy: str) -> None:
        """Fold one completed request's timing into the aggregates."""
        self.completed += 1
        self.queue_wait_seconds += timing.queue_wait
        self.plan_seconds += timing.plan_seconds
        self.execute_seconds += timing.execute_seconds
        self.by_strategy[strategy] = self.by_strategy.get(strategy, 0) + 1

    def record_batch(self, size: int) -> None:
        if size > 1:
            self.batches += 1
            self.batched_requests += size
        self.max_batch_size = max(self.max_batch_size, size)

    @property
    def mean_queue_wait(self) -> float:
        return self.queue_wait_seconds / self.completed if self.completed else 0.0

    @property
    def mean_execute_seconds(self) -> float:
        return self.execute_seconds / self.completed if self.completed else 0.0

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "cancelled": self.cancelled,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "max_batch_size": self.max_batch_size,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "queue_wait_seconds": self.queue_wait_seconds,
            "plan_seconds": self.plan_seconds,
            "execute_seconds": self.execute_seconds,
            "mean_queue_wait": self.mean_queue_wait,
            "mean_execute_seconds": self.mean_execute_seconds,
            "peak_in_flight_bytes": self.peak_in_flight_bytes,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "fallbacks": self.fallbacks,
            "rejected_expired": self.rejected_expired,
            "shed": self.shed,
            "rejected_time_budget": self.rejected_time_budget,
            "feedback_observations": self.feedback_observations,
            "feedback_keys": self.feedback_keys,
            "by_strategy": dict(self.by_strategy),
        }
