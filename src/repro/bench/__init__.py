"""Experiment harness shared by the paper-figure benchmarks.

* :mod:`repro.bench.scaling` — scale-model simulation: run the functional
  sorter on a sample, price the trace at the paper's input size.
* :mod:`repro.bench.runner` — experiment execution helpers and result
  containers.
* :mod:`repro.bench.reporting` — ASCII tables/series in the shape of the
  paper's figures.

These report *simulated* seconds.  Real host time is measured by
``perfbench/run.py``, against a same-run NumPy sort of the same input.
"""

from repro.bench.reporting import format_series, format_table
from repro.bench.runner import BenchmarkSettings, ExperimentResult
from repro.bench.scaling import ScaledSortOutcome, simulate_sort_at_scale

__all__ = [
    "BenchmarkSettings",
    "ExperimentResult",
    "ScaledSortOutcome",
    "format_series",
    "format_table",
    "simulate_sort_at_scale",
]
