"""Chunk planning and the in-place replacement layout (§5, Figure 5).

A chunk must fit the device-memory budget together with its auxiliary
double-buffer.  The naive layout needs room for *four* chunks (sorting,
auxiliary, returning, incoming); the paper's in-place replacement
strategy needs only *three*, because the buffer holding a finished sorted
run is refilled with the next chunk's input while the run streams out —
"this allows us to support larger sub-problems, which improves the
overall performance for sorting large inputs".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, ResourceExhaustedError
from repro.gpu.spec import GPUSpec, TITAN_X_PASCAL

__all__ = ["ChunkPlan", "plan_chunks", "max_chunk_bytes"]


@dataclass(frozen=True)
class ChunkPlan:
    """How an input is split for the pipelined heterogeneous sort."""

    total_bytes: int
    chunk_bytes: int
    n_chunks: int
    in_place_replacement: bool

    @property
    def chunk_sizes(self) -> list[int]:
        """Byte size of every chunk (the last one may be smaller)."""
        sizes = []
        remaining = self.total_bytes
        for _ in range(self.n_chunks):
            sizes.append(min(self.chunk_bytes, remaining))
            remaining -= sizes[-1]
        return sizes


def max_chunk_bytes(
    spec: GPUSpec = TITAN_X_PASCAL,
    in_place_replacement: bool = True,
    reserve_bytes: int = 256 << 20,
) -> int:
    """Largest chunk the device memory can host under the given layout.

    Three buffers with in-place replacement, four without (§5);
    ``reserve_bytes`` keeps room for the bucket bookkeeping (§4.5's ≤5 %)
    and the CUDA context.  This is the device's rule: the host path
    sizes a budgeted array's chunks by what their sort measurably holds
    (:func:`repro.plan.planner.run_footprint`).
    """
    buffers = 3 if in_place_replacement else 4
    usable = spec.device_memory_bytes - reserve_bytes
    if usable <= 0:
        raise ResourceExhaustedError("device reserve exceeds device memory")
    return max(1, usable // buffers)


def plan_chunks(
    total_bytes: int,
    n_chunks: int | None = None,
    spec: GPUSpec = TITAN_X_PASCAL,
    in_place_replacement: bool = True,
    reserve_bytes: int = 256 << 20,
) -> ChunkPlan:
    """Split ``total_bytes`` into pipeline chunks.

    With ``n_chunks`` given, validates that the resulting chunk fits the
    device budget; otherwise picks the smallest chunk count whose
    chunks fit.
    """
    if total_bytes <= 0:
        raise ConfigurationError("total_bytes must be positive")
    limit = max_chunk_bytes(spec, in_place_replacement, reserve_bytes)
    if n_chunks is None:
        n_chunks = max(1, -(-total_bytes // limit))
        if total_bytes > limit and n_chunks < 2:
            n_chunks = 2
    if n_chunks <= 0:
        raise ConfigurationError("n_chunks must be positive")
    chunk_bytes = -(-total_bytes // n_chunks)
    if chunk_bytes > limit:
        raise ResourceExhaustedError(
            f"chunks of {chunk_bytes} B exceed the device budget of "
            f"{limit} B; use more chunks"
        )
    return ChunkPlan(
        total_bytes=total_bytes,
        chunk_bytes=chunk_bytes,
        n_chunks=n_chunks,
        in_place_replacement=in_place_replacement,
    )
