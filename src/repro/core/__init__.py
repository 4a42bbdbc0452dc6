"""The paper's primary contribution: the hybrid MSD radix sort.

Module map (paper section in parentheses):

* :mod:`repro.core.digits` — radix/digit geometry (§2.1).
* :mod:`repro.core.keys` — order-preserving bijections for signed and
  floating-point keys (§4.6).
* :mod:`repro.core.sorting_network` — the 9-input, 25-comparator network
  used by the thread-reduction histogram (§4.3).
* :mod:`repro.core.config` — sort configurations and the Table 3 presets.
* :mod:`repro.core.bucket` — bucket/block descriptors, merge rule R3 and
  the §4.5 bookkeeping structures.
* :mod:`repro.core.histogram` — histogram kernels: atomics-only and
  thread reduction & atomics (§4.3).
* :mod:`repro.core.scatter` — key scattering with shared-memory write
  combining and the look-ahead of two (§4.4).
* :mod:`repro.core.local_sort` — local-sort configurations and the
  in-shared-memory block radix sort (§4.2).
* :mod:`repro.core.counting_sort` — one counting-sort pass over all
  active buckets (fast vectorized engine + faithful block-level engine).
* :mod:`repro.core.hybrid_sort` — the MSD driver (§4.1), double
  buffering, early finish, ablation switches.
* :mod:`repro.core.analytical` — the analytical model (§4.5): bucket and
  block bounds I1–I4, memory requirements M1–M5.
* :mod:`repro.core.pairs` — key-value layouts and de/re-composition
  (§4.6).
* :mod:`repro.core.library` — the library rung: NumPy's ``np.sort``
  over the §4.6 bits, the host's strongest competitor, routed to where
  it is byte-identical and faster.
"""

from repro.core.adaptive import AdaptiveSorter
from repro.core.analytical import AnalyticalModel
from repro.core.config import SortConfig, derive_table3
from repro.core.hybrid_sort import HybridRadixSorter

__all__ = [
    "AdaptiveSorter",
    "AnalyticalModel",
    "HybridRadixSorter",
    "SortConfig",
    "derive_table3",
]
