"""Adaptive sorter: the §6.1 case distinction for small inputs.

The paper observes that CUB keeps an edge for very small, highly skewed
inputs ("the hybrid radix sort still outperforms CUB for inputs larger
than 1.9 million keys and 1.6 million key-value pairs, independently of
the key distribution") and notes: "Given that the input size is a
function parameter, we could easily default to CUB's sorting algorithm
using a simple case distinction for small inputs that fall short of
these thresholds."

:class:`AdaptiveSorter` implements exactly that, as a thin facade over
the shared planner: the case distinction itself lives in
:class:`repro.plan.planner.Planner` (``adaptive=True``), this class
plans each input and dispatches the plan through the executor registry.
The thresholds default to the paper's measured crossovers and can be
recalibrated for other devices with :func:`calibrate_crossover`.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.cub import CubRadixSort
from repro.core.config import SortConfig
from repro.gpu.spec import GPUSpec, TITAN_X_PASCAL
from repro.plan.descriptor import InputDescriptor
from repro.plan.executors import execute_plan
from repro.plan.planner import (
    PAPER_CROSSOVER_KEYS,
    PAPER_CROSSOVER_PAIRS,
    Planner,
)
from repro.types import SortResult

__all__ = [
    "AdaptiveSorter",
    "PAPER_CROSSOVER_KEYS",
    "PAPER_CROSSOVER_PAIRS",
    "calibrate_crossover",
]


class AdaptiveSorter:
    """Hybrid radix sort with an LSD fallback for small inputs.

    Parameters
    ----------
    key_crossover / pair_crossover:
        Input sizes below which the LSD baseline handles the sort; the
        defaults are the paper's measured worst-case crossovers.
    config:
        Optional hybrid-sort configuration override.
    """

    def __init__(
        self,
        key_crossover: int = PAPER_CROSSOVER_KEYS,
        pair_crossover: int = PAPER_CROSSOVER_PAIRS,
        config: SortConfig | None = None,
        spec: GPUSpec = TITAN_X_PASCAL,
    ) -> None:
        # The §6.1 distinction is between the simulated hybrid engine
        # and the LSD baseline, so the compiled tier stays out of it.
        self.planner = Planner(
            config=config,
            adaptive=True,
            key_crossover=key_crossover,
            pair_crossover=pair_crossover,
            native="never",
        )
        self.spec = spec
        self._config = config

    @property
    def key_crossover(self) -> int:
        return self.planner.key_crossover

    @property
    def pair_crossover(self) -> int:
        return self.planner.pair_crossover

    def chooses_hybrid(self, n: int, has_values: bool) -> bool:
        """The case distinction itself (delegated to the planner)."""
        return self.planner.chooses_hybrid(n, has_values)

    def sort(
        self, keys: np.ndarray, values: np.ndarray | None = None
    ) -> SortResult:
        """Plan (dispatching on input size), then execute the plan."""
        keys = np.asarray(keys)
        descriptor = InputDescriptor.for_array(keys, values, spec=self.spec)
        plan = self.planner.plan(descriptor)
        return execute_plan(plan, keys=keys, values=values, config=self._config)


def calibrate_crossover(
    sample_keys: np.ndarray,
    spec: GPUSpec = TITAN_X_PASCAL,
    value_bytes: int = 0,
    candidates: tuple[int, ...] = (
        250_000, 500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000,
    ),
) -> int:
    """Find the input size where the hybrid sort overtakes the fallback.

    Prices both sorters (via the scale model) over ``candidates`` for
    the distribution represented by ``sample_keys`` and returns the
    smallest size where the hybrid sort wins.  With a worst-case
    (constant) sample this recovers the paper's ~1.9 M-key threshold.
    """
    from repro.bench.scaling import simulate_sort_at_scale

    fallback = CubRadixSort("1.5.1", spec=spec)
    key_bytes = sample_keys.dtype.itemsize
    for n in candidates:
        sample = sample_keys[: min(sample_keys.size, n)]
        hybrid_seconds = simulate_sort_at_scale(
            sample, n, spec=spec
        ).simulated_seconds
        cub_seconds = fallback.simulated_seconds(n, key_bytes, value_bytes)
        if hybrid_seconds < cub_seconds:
            return n
    return candidates[-1]
