"""Measured prices: seconds per byte learned from real executions.

The paper's model prices a plan on its Titan X (§6); a host runs at
other rates.  :class:`CostFeedback` learns them from the executions
themselves.  It keeps one exponentially
weighted moving average of measured seconds per byte moved for each
*rate key* — the plan's strategy, its key and value dtypes, and the
size class ``n.bit_length()`` — and prices any plan whose key has at
least one observation as

    predicted seconds = bytes_moved × measured seconds per byte.

So a size the service has never run is priced from the runs of its
size class, not only from exact repeats.  Until a key has its first
observation, the plan keeps its ``"paper-analytical"`` price; there is
no probe: the first execution of a key seeds it.  The sort service
owns one instance and feeds it from its unbatched executions.
"""

from __future__ import annotations

import threading
from dataclasses import replace

__all__ = ["CostFeedback"]


def rate_key(plan) -> tuple:
    """The rate a plan is priced at: (strategy, key dtype, value
    dtype, ``n.bit_length()``)."""
    desc = plan.descriptor
    return (
        plan.strategy,
        desc.key_dtype.str,
        None if desc.value_dtype is None else desc.value_dtype.str,
        desc.n.bit_length(),
    )


class CostFeedback:
    """Per-rate-key EWMA of measured seconds per byte moved.

    Parameters
    ----------
    smoothing:
        EWMA weight of the newest observation (0 < smoothing ≤ 1).
    """

    def __init__(self, smoothing: float = 0.3):
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self.smoothing = smoothing
        self._lock = threading.Lock()
        # rate key -> (observations, seconds per byte)
        self._rates: dict[tuple, tuple[int, float]] = {}

    def __len__(self) -> int:
        return len(self._rates)

    def observe(self, plan, measured_seconds: float) -> bool:
        """Fold one execution of ``plan`` into its rate key's EWMA.

        Returns whether it did: plans that move no bytes, and
        non-positive times, say nothing about a rate and are skipped.
        """
        bytes_moved = plan.bytes_moved
        if measured_seconds <= 0 or bytes_moved <= 0:
            return False
        rate = measured_seconds / bytes_moved
        key = rate_key(plan)
        with self._lock:
            count, ewma = self._rates.get(key, (0, rate))
            ewma += self.smoothing * (rate - ewma)
            self._rates[key] = (count + 1, ewma)
        return True

    def observations(self, plan) -> int:
        """How many executions priced ``plan``'s rate key."""
        return self._rates.get(rate_key(plan), (0, 0.0))[0]

    def seconds(self, plan) -> float:
        """``plan``'s predicted seconds: its bytes at the measured rate,
        or its own prediction while the rate key has no history."""
        entry = self._rates.get(rate_key(plan))
        if entry is None:
            return plan.predicted_seconds
        return plan.bytes_moved * entry[1]

    def apply(self, plan):
        """``plan`` re-priced at its measured rate, when there is one.

        Each step costs its bytes at the rate, and ``cost_source``
        becomes ``"measured-feedback"``; a rate key with no history
        returns the plan itself.
        """
        entry = self._rates.get(rate_key(plan))
        if entry is None:
            return plan
        rate = entry[1]
        steps = tuple(
            replace(step, predicted_seconds=step.bytes_moved * rate)
            for step in plan.steps
        )
        return replace(plan, steps=steps, cost_source="measured-feedback")
