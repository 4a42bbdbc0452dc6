"""The sharded sort's reduce: a bits-space k-way merge over arrays.

Shard outputs are sorted runs that happen to live in memory instead of
on disk, so the reduce reuses the external sorter's bounded-lookahead
merge core (:func:`repro.external.merge.drain_cursors`) with an array
cursor in place of the file cursor.  Same comparison keys (§4.6 bits
space, fused key|value words when the engines sorted fused), same
run-index tie-break, therefore the same stability proof: shard-local
stable sorts composed with this merge equal one global stable sort,
record for record.

Merge **fan-in** follows the multiway-mergesort accounting of
Casanova, Iacono, Karsin, Sitchinava and Weichert (arXiv:1702.07961,
"An Efficient Multiway Mergesort for GPU Architectures"): a fan-in of
``F`` keeps ``F + 1``
blocks resident (one per input run, one output block), so the largest
``F`` whose buffers fit the merge budget minimises the number of
passes (``ceil(log_F runs)``) without blowing the working set.  More
runs than the budgeted fan-in merge in groups of consecutive runs —
consecutive, because run order *is* the stability tie-break.

Range-partitioned shards (the router's default) arrive globally
ordered and disjoint; :func:`merge_shard_records` detects that and
reduces by plain concatenation — the merge's degenerate, zero-compare
fast path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.external.format import FileLayout
from repro.external.merge import _comparison_keys, drain_cursors
from repro.external.runs import _fused

__all__ = [
    "DEFAULT_MERGE_BUDGET",
    "DEFAULT_BLOCK_RECORDS",
    "choose_fan_in",
    "merge_shard_records",
]

#: Resident-byte budget for merge buffers (not the data itself): the
#: fan-in accounting sizes ``F + 1`` blocks against this.
DEFAULT_MERGE_BUDGET = 64 << 20

#: Records per merge block.  Big enough that the per-block stable
#: argsort amortises Python overhead, small enough that dozens of
#: cursors fit the default budget.
DEFAULT_BLOCK_RECORDS = 64 << 10


class _ArrayCursor:
    """The :class:`~repro.external.merge._RunCursor` surface over an
    in-memory sorted run (no file, no CRC — the array is authoritative).
    """

    def __init__(
        self,
        records: np.ndarray,
        layout: FileLayout,
        block_records: int,
        fused: bool,
    ) -> None:
        self._all = records
        self._words = records.view(layout.word_dtype)
        self._layout = layout
        self._block = max(1, int(block_records))
        self._fused = fused
        self._next = 0
        self._records = self._words[:0]
        self._ckeys = np.empty(0, dtype=np.uint64)

    @property
    def pending(self) -> bool:
        return self._next < self._all.size

    @property
    def buffered(self) -> int:
        return self._ckeys.size

    @property
    def head(self):
        return self._ckeys[0]

    @property
    def last(self):
        return self._ckeys[-1]

    def refill(self) -> None:
        if self._ckeys.size or self._next >= self._all.size:
            return
        lo = self._next
        self._next = hi = min(lo + self._block, self._all.size)
        self._records = self._words[lo:hi]
        self._ckeys = _comparison_keys(
            self._layout, self._all[lo:hi], self._fused
        )

    def split_below(self, bound) -> int:
        return int(np.searchsorted(self._ckeys, bound, side="left"))

    def split_through(self, bound) -> int:
        return int(np.searchsorted(self._ckeys, bound, side="right"))

    def take(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        records = self._records[:count]
        ckeys = self._ckeys[:count]
        self._records = self._records[count:]
        self._ckeys = self._ckeys[count:]
        return records, ckeys


def choose_fan_in(
    n_runs: int,
    record_bytes: int,
    block_records: int = DEFAULT_BLOCK_RECORDS,
    merge_budget: int = DEFAULT_MERGE_BUDGET,
) -> int:
    """The multiway-merge fan-in the buffer budget affords.

    ``F`` input blocks plus one output block must fit ``merge_budget``;
    the largest such ``F`` (floored at 2 — below that a merge cannot
    make progress) minimises merge passes per the Casanova et al.
    accounting.
    """
    if n_runs <= 1:
        return max(1, n_runs)
    block_bytes = max(1, int(block_records) * int(record_bytes))
    affordable = merge_budget // block_bytes - 1
    return int(max(2, min(n_runs, affordable)))


def _boundary_keys(
    runs: list[np.ndarray], layout: FileLayout, fused: bool
) -> list[tuple]:
    """(first, last) comparison key per non-empty run, in run order."""
    bounds = []
    for run in runs:
        if run.size == 0:
            continue
        first = _comparison_keys(layout, run[:1], fused)[0]
        last = _comparison_keys(layout, run[-1:], fused)[0]
        bounds.append((first, last))
    return bounds


def _is_ordered_disjoint(bounds: list[tuple]) -> bool:
    """Whether run i's keys all precede (or tie into) run i+1's.

    Ties on the boundary are fine: concatenation preserves run order,
    which is exactly the stable merge's tie-break.
    """
    for (first, _), (_, prev_last) in zip(bounds[1:], bounds[:-1]):
        if first < prev_last:
            return False
    return True


def _merge_once(
    runs: list[np.ndarray],
    layout: FileLayout,
    fused: bool,
    block_records: int,
) -> np.ndarray:
    total = sum(int(r.size) for r in runs)
    out = np.empty(total, dtype=layout.storage_dtype)
    words = out.view(layout.word_dtype)
    pos = 0

    def emit(records: np.ndarray) -> None:
        nonlocal pos
        words[pos:pos + records.size] = records
        pos += records.size

    cursors = [
        _ArrayCursor(run, layout, block_records, fused) for run in runs
    ]
    drain_cursors(cursors, emit)
    return out


def merge_shard_records(
    runs: list[np.ndarray],
    layout: FileLayout,
    *,
    pair_packing: str = "auto",
    block_records: int = DEFAULT_BLOCK_RECORDS,
    merge_budget: int = DEFAULT_MERGE_BUDGET,
    fan_in: int | None = None,
) -> np.ndarray:
    """Reduce sorted shard outputs into one globally sorted record array.

    ``runs`` are record arrays (``layout.storage_dtype``) in shard
    order — the stability tie-break order.  Globally ordered, disjoint
    runs (range partitioning) concatenate; overlapping runs (slice
    partitioning) merge in bits space, in grouped passes of at most
    ``fan_in`` runs (:func:`choose_fan_in` when unset).
    """
    if fan_in is not None and fan_in < 2:
        raise ConfigurationError("fan_in must be >= 2")
    fused = _fused(layout, pair_packing)
    runs = [np.ascontiguousarray(r) for r in runs]
    if not runs:
        return np.empty(0, dtype=layout.storage_dtype)
    bounds = _boundary_keys(runs, layout, fused)
    if len(bounds) <= 1 or _is_ordered_disjoint(bounds):
        return np.concatenate(runs)
    while len(runs) > 1:
        take = fan_in or choose_fan_in(
            len(runs), layout.record_bytes, block_records, merge_budget
        )
        if take >= len(runs):
            return _merge_once(runs, layout, fused, block_records)
        runs = [
            _merge_once(runs[i:i + take], layout, fused, block_records)
            for i in range(0, len(runs), take)
        ]
    return runs[0]
