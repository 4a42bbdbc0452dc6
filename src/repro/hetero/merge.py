"""The CPU multiway merge's cost model (§5).

The heterogeneous sort leaves the CPU "with the task of merging the s
chunks into one final sorted sequence" using "the parallel multiway merge
... from the parallel extension of stdlibc++".  :class:`CpuMergeModel`
reproduces the six-core host's behaviour: it merges at streaming
bandwidth up to a width of four, and wider inputs need multiple passes
— which is exactly why Figure 8's optimum sits at s = 4 on that
machine.  The merge that really runs on this host, for files and for
budgeted arrays alike, is :func:`repro.external.merge.drain_cursors`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cost.calibration import Calibration, DEFAULT_CALIBRATION
from repro.errors import ConfigurationError

__all__ = ["CpuMergeModel"]


@dataclass(frozen=True)
class CpuMergeModel:
    """Cost of merging ``s`` sorted runs on the host CPU.

    ``merge_width`` runs merge in one streaming pass; more runs need
    ``ceil(log_width(s))`` passes, each reading and writing the whole
    input (§6.2: the six-core host "lacks the compute power to
    efficiently merge more than four chunks at a time").
    """

    calibration: Calibration = DEFAULT_CALIBRATION

    def merge_passes(self, n_runs: int) -> int:
        if n_runs <= 1:
            return 0
        width = max(2, self.calibration.cpu_merge_width)
        return max(1, math.ceil(math.log(n_runs, width)))

    def merge_seconds(
        self, total_bytes: int, n_runs: int, record_bytes: int = 16
    ) -> float:
        """Seconds to merge ``n_runs`` runs totalling ``total_bytes``."""
        if total_bytes < 0:
            raise ConfigurationError("total_bytes must be non-negative")
        passes = self.merge_passes(n_runs)
        if passes == 0 or total_bytes == 0:
            return 0.0
        per_pass_stream = total_bytes / self.calibration.cpu_merge_bandwidth
        records = total_bytes / max(1, record_bytes)
        per_pass_compare = records * self.calibration.cpu_merge_per_record
        return passes * (per_pass_stream + per_pass_compare)
