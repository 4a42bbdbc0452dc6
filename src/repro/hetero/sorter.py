"""The heterogeneous sorter's model (§5): Figures 8 and 9.

Splits the input into ``s`` chunks, pipelines HtD transfer / on-GPU
hybrid sort / DtH transfer with the in-place replacement layout, then
multiway-merges the sorted runs on the CPU:

    T_EtE = T_HtD/s + max(T_HtD, T_S, T_DtH) + T_DtH/s + T_M

:meth:`HeterogeneousSorter.simulate` prices an input of tens of
gigabytes from a distribution sample without materialising it, and
:meth:`HeterogeneousSorter.simulate_naive` prices the unpipelined
baseline.  Nothing here sorts data: a budgeted ``repro.sort`` runs the
same chunk-and-merge scheme on the host rungs (the ``hetero`` plan
strategy: :class:`repro.external.runs.RunWriter` chunk sorts and
:func:`repro.external.merge.drain_cursors`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.scaling import simulate_sort_at_scale
from repro.core.config import SortConfig
from repro.gpu.pcie import PCIeLink
from repro.gpu.spec import GPUSpec, TITAN_X_PASCAL
from repro.hetero.chunking import ChunkPlan, plan_chunks
from repro.hetero.merge import CpuMergeModel
from repro.hetero.pipeline import PipelineSchedule, simulate_pipeline

__all__ = ["HeteroOutcome", "HeterogeneousSorter"]


@dataclass
class HeteroOutcome:
    """The simulated timing decomposition of one heterogeneous sort."""

    plan: ChunkPlan
    schedule: PipelineSchedule
    chunked_sort_seconds: float
    merge_seconds: float
    meta: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.chunked_sort_seconds + self.merge_seconds

    @property
    def analytic_bound(self) -> float:
        return self.schedule.analytic_bound()


class HeterogeneousSorter:
    """Pipelined CPU+GPU sort model for inputs beyond device memory."""

    def __init__(
        self,
        spec: GPUSpec = TITAN_X_PASCAL,
        in_place_replacement: bool = True,
        config: SortConfig | None = None,
        merge_model: CpuMergeModel | None = None,
    ) -> None:
        self.spec = spec
        self.link = PCIeLink.for_spec(spec)
        self.in_place_replacement = in_place_replacement
        self.config = config
        self.merge_model = merge_model or CpuMergeModel()

    def simulate(
        self,
        total_bytes: int,
        sample_keys: np.ndarray,
        sample_values: np.ndarray | None = None,
        n_chunks: int | None = None,
    ) -> HeteroOutcome:
        """Price the heterogeneous sort of ``total_bytes`` records.

        ``sample_keys`` (and optional values) characterise the
        distribution; each chunk's on-GPU time comes from the scale-model
        simulation of one chunk-sized sort.
        """
        sample_keys = np.asarray(sample_keys)
        record_bytes = sample_keys.dtype.itemsize + (
            sample_values.dtype.itemsize if sample_values is not None else 0
        )
        plan = plan_chunks(
            total_bytes,
            n_chunks=n_chunks,
            spec=self.spec,
            in_place_replacement=self.in_place_replacement,
        )
        chunk_records = max(
            sample_keys.size, plan.chunk_bytes // record_bytes
        )
        outcome = simulate_sort_at_scale(
            sample_keys,
            chunk_records,
            values=sample_values,
            config=self.config,
            spec=self.spec,
        )
        per_chunk_sort = outcome.simulated_seconds
        upload, sorting, download = [], [], []
        for chunk_bytes in plan.chunk_sizes:
            fraction = chunk_bytes / plan.chunk_bytes
            upload.append(self.link.transfer_time(chunk_bytes))
            sorting.append(per_chunk_sort * fraction)
            download.append(self.link.transfer_time(chunk_bytes))
        schedule = simulate_pipeline(
            upload, sorting, download, self.in_place_replacement
        )
        merge_seconds = self.merge_model.merge_seconds(
            total_bytes=total_bytes,
            n_runs=plan.n_chunks,
            record_bytes=record_bytes,
        )
        return HeteroOutcome(
            plan=plan,
            schedule=schedule,
            chunked_sort_seconds=schedule.makespan,
            merge_seconds=merge_seconds,
            meta={"per_chunk_sort": per_chunk_sort, "scaled": outcome},
        )

    def simulate_naive(
        self,
        total_bytes: int,
        on_gpu_seconds: float,
    ) -> dict[str, float]:
        """The unpipelined baseline of Figure 8: HtD, sort, DtH in series."""
        htd = self.link.transfer_time(total_bytes)
        dth = self.link.transfer_time(total_bytes)
        return {
            "pcie_htd": htd,
            "on_gpu_sorting": on_gpu_seconds,
            "pcie_dth": dth,
            "total": htd + on_gpu_seconds + dth,
        }
