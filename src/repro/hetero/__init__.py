"""Heterogeneous (CPU+GPU) sorting for out-of-core inputs (§5).

* :mod:`repro.hetero.chunking` — chunk planning against the device-memory
  budget, including the three-buffer in-place replacement layout
  (Figure 5).
* :mod:`repro.hetero.pipeline` — event-driven simulation of the
  overlapped HtD / on-GPU sort / DtH pipeline (Figure 4).
* :mod:`repro.hetero.merge` — the six-core host's multiway-merge cost
  model.
* :mod:`repro.hetero.sorter` — the end-to-end heterogeneous sort model
  and its analytic T_EtE decomposition (Figures 8 and 9).

This package models and sorts no data: a budgeted ``repro.sort`` (the
``hetero`` plan strategy) sorts :func:`plan_chunks`-sized chunks on
the host rungs and merges them through
:func:`repro.external.merge.drain_cursors`.
"""

from repro.hetero.chunking import ChunkPlan, plan_chunks
from repro.hetero.merge import CpuMergeModel
from repro.hetero.pipeline import PipelineSchedule, simulate_pipeline
from repro.hetero.sorter import HeterogeneousSorter, HeteroOutcome

__all__ = [
    "ChunkPlan",
    "CpuMergeModel",
    "HeteroOutcome",
    "HeterogeneousSorter",
    "PipelineSchedule",
    "plan_chunks",
    "simulate_pipeline",
]
