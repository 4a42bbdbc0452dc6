"""Pricing plans with a measured :class:`HostProfile`.

The planner's traffic formulas (pass counts × records × record bytes)
come from the paper; this module swaps the §6 Titan X bandwidth
constant for the constants ``repro calibrate`` measured on the host.
Division of labour:

* :mod:`repro.cost.calibration` — the documented, paper-anchored
  fallback; always available, prices the *simulated* GPU.
* :class:`HostCostModel` (here) — prices the same step shapes with
  this host's measured rates; only exists when a profile does.

Every method is a pure function of the profile, so planning stays
deterministic for a fixed profile — the property the plan cache and
the byte-identity doctests rely on.
"""

from __future__ import annotations

import math

from repro.cost.hostprofile import HostProfile, layout_key

__all__ = ["HostCostModel"]

#: Merge fan-out of the paper's host merge model (CpuMergeModel's
#: ``merge_width``): runs reduce in ceil(log₄ runs) streaming passes.
_MERGE_WIDTH = 4


class HostCostModel:
    """Scales the planner's analytical pass counts by profile constants.

    All ``*_seconds`` methods take the *same* ``bytes_moved`` numbers
    the paper-anchored pricing uses, so switching a host profile on
    changes predicted seconds but never a plan's structure.
    """

    def __init__(self, profile: HostProfile) -> None:
        self.profile = profile

    @property
    def fingerprint(self) -> str:
        return self.profile.fingerprint

    # ------------------------------------------------------------------
    # Bandwidth lookups
    # ------------------------------------------------------------------
    def _layout_bandwidth(
        self, table, key_bits: int, value_bits: int
    ) -> float | None:
        if not table:
            return None
        exact = table.get(layout_key(key_bits, value_bits))
        if exact:
            return float(exact)
        # Unprobed layout (e.g. widened uint16 keys): borrow the probed
        # layout with the same record width, else the slowest probe —
        # a conservative, deterministic stand-in.
        record_bytes = key_bits // 8 + value_bits // 8
        for key, value in sorted(table.items()):
            kb, _, vb = key.partition("/")
            try:
                if int(kb) // 8 + int(vb) // 8 == record_bytes:
                    return float(value)
            except ValueError:
                continue
        return float(min(table.values()))

    def counting_bandwidth(self, key_bits: int, value_bits: int) -> float:
        bw = self._layout_bandwidth(
            self.profile.counting_bandwidth, key_bits, value_bits
        )
        assert bw is not None  # from_dict guarantees a non-empty table
        return bw

    # ------------------------------------------------------------------
    # Step pricing
    # ------------------------------------------------------------------
    def counting_seconds(self, descriptor, bytes_moved: int) -> float:
        """Seconds for counting-scatter traffic on this host."""
        bw = self.counting_bandwidth(
            descriptor.key_bits, descriptor.value_bits
        )
        return bytes_moved / bw / self.thread_speedup(descriptor.workers)

    def native_seconds(self, descriptor, bytes_moved: int) -> float:
        """Seconds for compiled-tier traffic; counting rate when the
        profile was taken on a host without the extension."""
        bw = self._layout_bandwidth(
            self.profile.native_bandwidth,
            descriptor.key_bits,
            descriptor.value_bits,
        )
        if bw is None:
            return self.counting_seconds(descriptor, bytes_moved)
        return bytes_moved / bw

    def library_seconds(self, descriptor, bytes_moved: int) -> float:
        """Seconds for a library-rung ``np.sort``; the measured stable
        sort rate when the profile predates the library probe."""
        bw = self._layout_bandwidth(
            self.profile.library_bandwidth,
            descriptor.key_bits,
            descriptor.value_bits,
        )
        if bw is None:
            return self.local_sort_seconds(descriptor.n)
        return bytes_moved / bw

    def local_sort_seconds(self, n: int) -> float:
        """One stable sort of ``n`` records (local-sort / LSD fallback)."""
        return max(1, n) / self.profile.local_sort_keys_per_s

    def spill_seconds(self, total_bytes: int) -> float:
        """External run production: read + sort + write, one pass."""
        return 2 * total_bytes / self.profile.spill_bandwidth

    def external_merge_seconds(self, total_bytes: int) -> float:
        """External k-way merge: one bounded-buffer streaming pass."""
        return 2 * total_bytes / self.profile.merge_bandwidth

    def merge_seconds(
        self, total_bytes: int, n_runs: int, record_bytes: int = 16
    ) -> float:
        """In-memory k-way reduce: ceil(log₄ runs) streaming passes."""
        if n_runs <= 1:
            passes = 1
        else:
            passes = max(
                1, math.ceil(math.log(n_runs) / math.log(_MERGE_WIDTH))
            )
        return passes * 2 * total_bytes / self.profile.merge_bandwidth

    # ------------------------------------------------------------------
    # Scaling factors
    # ------------------------------------------------------------------
    def thread_speedup(self, workers: int) -> float:
        if workers <= 1:
            return 1.0
        table = self.profile.thread_speedup
        exact = table.get(str(workers))
        if exact:
            return max(float(exact), 1e-3)
        # Extrapolate from the widest measured point at its parallel
        # efficiency, capped by the CPU count (no superlinear fantasy).
        best_count, best_speedup = 1, 1.0
        for key, value in table.items():
            try:
                k = int(key)
            except ValueError:
                continue
            if k > best_count:
                best_count, best_speedup = k, float(value)
        if best_count <= 1:
            return 1.0
        efficiency = best_speedup / best_count
        usable = min(workers, max(self.profile.cpu_count, best_count))
        return max(1e-3, usable * efficiency)
