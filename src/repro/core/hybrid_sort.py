"""The hybrid MSD radix sorter — the paper's primary contribution (§4).

Workflow (§4.1, Figure 1): a counting sort partitions the input on the
most-significant digit into up to ``radix`` sub-buckets; every subsequent
pass either partitions a bucket further (size > ∂̂) or finishes it with a
local sort in on-chip memory (size ≤ ∂̂).  Adjacent tiny sub-buckets are
merged while their total stays below ∂ (R3).  Double buffering alternates
input and output memory per pass; local sorts always place their output
in the buffer that will hold the final sequence, so the algorithm may
finish early (all buckets locally sorted) without a compaction step.

The sorter is distribution-sensitive but order-insensitive, supports
keys-only and key-value (decomposed) layouts, and any dtype with an
order-preserving bijection (§4.6).  Key-value inputs take *packed*
fast paths by default (§4.6 in host terms — the payload must not buy
extra memory trips):

* keys of at most 32 bits are packed with their row index into one
  64-bit word (:func:`repro.core.pairs.pack_key_index`) and sorted by
  the keys-only pipeline over the word's key digits; one final gather
  reorders the values.  Because the index payload is the stability
  tie-break, the result is bit-identical to the decomposed stable
  argsort pipeline for every input.
* 64-bit keys sort the same packed way on their high 32-bit word, then
  refine the (typically rare) runs of equal high words by the low word
  — a stable two-stage decomposition of the full 64-bit stable sort.
* ``SortConfig(pair_packing="fused")`` opts narrow values into the key
  word itself (no final gather; ties between equal keys order by value
  bits), and ``pair_packing="off"`` keeps the decomposed argsort
  pipeline — the oracle the packed paths are property-tested against.

Every run emits a :class:`~repro.types.SortTrace` describing the *pair*
layout (packed passes report the decomposed record widths, so the cost
model prices the same kernels the paper runs); the simulated Titan X
timing attached to the result comes from
:class:`repro.cost.model.CostModel`.  Every pass runs on the calling
thread: the paper's parallelism is the GPU's thread blocks, which the
cost model prices.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro._util import concatenated_aranges, segment_ids_from_sizes
from repro.core.bucket import PartitionOutcome, partition_subbuckets
from repro.core.config import SortConfig
from repro.core.counting_sort import counting_sort_pass
from repro.core.keys import (
    bits_dtype_for,
    from_sortable_bits,
    to_sortable_bits,
)
from repro.core.local_sort import LocalSortEngine
from repro.core.pairs import (
    fused_packable,
    index_packable,
    join_words64,
    pack_key_index,
    pack_key_value,
    split_words64,
    unpack_key_index,
    unpack_key_value,
)
from repro.errors import ConfigurationError
from repro.gpu.device import SimulatedGPU
from repro.gpu.kernel import KernelLaunch, LaunchConfig
from repro.types import (
    CountingPassTrace,
    LocalSortTrace,
    SortResult,
    SortTrace,
)

__all__ = ["HybridRadixSorter"]


def _finished_outcome(counts: np.ndarray) -> PartitionOutcome:
    """Terminal outcome for the final pass: every sub-bucket is done."""
    empty = np.empty(0, dtype=np.int64)
    return PartitionOutcome(
        next_offsets=empty,
        next_sizes=empty.copy(),
        local_offsets=empty.copy(),
        local_sizes=empty.copy(),
        local_is_merged=np.empty(0, dtype=bool),
        n_subbuckets_nonempty=int(np.count_nonzero(counts)),
    )


class HybridRadixSorter:
    """Hybrid MSD radix sort on the simulated GPU.

    Parameters
    ----------
    config:
        Tuning parameters; defaults to the Table 3 preset matching the
        input layout at :meth:`sort` time.
    device:
        Simulated GPU used for launch/traffic accounting; a fresh Titan X
        when omitted.
    cost_model:
        Prices the execution trace; a default-calibrated
        :class:`~repro.cost.model.CostModel` when omitted.
    """

    def __init__(
        self,
        config: SortConfig | None = None,
        device: SimulatedGPU | None = None,
        cost_model=None,
    ) -> None:
        self.config = config
        self.device = device or SimulatedGPU()
        self._cost_model = cost_model

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def sort(
        self, keys: np.ndarray, values: np.ndarray | None = None
    ) -> SortResult:
        """Sort ``keys`` (with optional parallel ``values``) ascending.

        Returns a :class:`~repro.types.SortResult` with fresh output
        arrays, the execution trace, and the simulated duration.
        """
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise ConfigurationError("keys must be one-dimensional")
        if values is not None:
            values = np.asarray(values)
            if values.shape != keys.shape:
                raise ConfigurationError("values must parallel keys")
        config = self._resolve_config(keys, values)

        bits = to_sortable_bits(keys)
        mode = self._packing_mode(config, bits.size, values)
        if mode == "decomposed":
            trace, sorted_bits, sorted_values = self._sort_bits(
                bits, values, config
            )
        elif mode == "fused":
            trace, sorted_bits, sorted_values = self._sort_packed_fused(
                bits, values, config
            )
        elif mode == "index":
            trace, sorted_bits, perm = self._sort_packed_index(bits, config)
            sorted_values = values[perm]
        else:  # mode == "split"
            trace, sorted_bits, perm = self._sort_packed_split(bits, config)
            sorted_values = values[perm]
        out_keys = from_sortable_bits(sorted_bits, keys.dtype)
        result = SortResult(
            keys=out_keys,
            values=sorted_values,
            trace=trace,
            meta={"config": config, "packing": mode},
        )
        model = self._resolve_cost_model()
        breakdown = model.price_hybrid(trace, config)
        result.breakdown = breakdown
        result.simulated_seconds = breakdown.total
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve_config(
        self, keys: np.ndarray, values: np.ndarray | None
    ) -> SortConfig:
        key_bits = bits_dtype_for(keys.dtype).itemsize * 8
        value_bits = 0 if values is None else values.dtype.itemsize * 8
        if self.config is None:
            return SortConfig.for_layout(key_bits, value_bits)
        if self.config.key_bits != key_bits:
            raise ConfigurationError(
                f"config is for {self.config.key_bits}-bit keys; "
                f"got {key_bits}-bit input"
            )
        if self.config.value_bits != value_bits:
            raise ConfigurationError(
                f"config is for {self.config.value_bits}-bit values; "
                f"got {value_bits}-bit input"
            )
        return self.config

    def _packing_mode(
        self, config: SortConfig, n: int, values: np.ndarray | None
    ) -> str:
        """Which pair engine this sort runs.

        ``"decomposed"`` is the classic two-array pipeline (keys-only
        inputs, ``pair_packing="off"``, unpackable layouts, and trivial
        sizes); ``"index"``/``"split"``/``"fused"`` are the packed
        fast paths.
        """
        if values is None or n <= 1 or config.pair_packing == "off":
            return "decomposed"
        if config.pair_packing == "fused":
            if not fused_packable(config.key_bits, config.value_bits):
                raise ConfigurationError(
                    "pair_packing='fused' requires "
                    "key_bits + value_bits <= 64"
                )
            return "fused"
        # "auto" and "index": the bit-identical index payload.
        if index_packable(config.key_bits, n):
            return "index"
        if config.key_bits == 64:
            return "split"
        return "decomposed"

    def _resolve_cost_model(self):
        if self._cost_model is None:
            from repro.cost.model import CostModel

            self._cost_model = CostModel(self.device.spec)
        return self._cost_model

    # ------------------------------------------------------------------
    # Packed pair engines
    # ------------------------------------------------------------------
    def _packed_config(self, config: SortConfig, word_bits: int) -> SortConfig:
        """The keys-only configuration a packed run executes under.

        Same thresholds, ladder, and ablation switches as the pair
        preset — the packed run therefore partitions into exactly the
        same buckets as the decomposed run would — but over a
        ``word_bits`` key whose digit sequence covers only the original
        key's bits.
        """
        return replace(
            config,
            key_bits=word_bits,
            value_bits=0,
            sort_bits=config.key_bits if config.sort_bits is None
            else config.sort_bits,
            pair_packing="off",
        )

    def _sort_packed_index(
        self,
        bits: np.ndarray,
        config: SortConfig,
    ) -> tuple[SortTrace, np.ndarray, np.ndarray]:
        """Keys ≤ 32 bits: pack key+row-index, sort words, unpack.

        Returns ``(trace, sorted key bits, permutation)``; applying the
        permutation to the values reproduces the stable argsort pipeline
        bit for bit (the row index is the stability tie-break).
        """
        packed = pack_key_index(bits, config.key_bits)
        trace, sorted_packed, _ = self._sort_bits(
            packed,
            None,
            self._packed_config(config, 64),
            record_bytes=(config.key_bytes, config.value_bytes),
        )
        out_bits, perm = unpack_key_index(sorted_packed, config.key_bits)
        return self._rebrand_trace(trace, config), out_bits, perm

    def _sort_packed_split(
        self,
        bits: np.ndarray,
        config: SortConfig,
    ) -> tuple[SortTrace, np.ndarray, np.ndarray]:
        """64-bit keys: packed sort of the high word, low-word refinement.

        Stage 1 runs the packed key+index pipeline on the high 32 bits —
        a stable sort of the high words.  Stage 2 restores the full-key
        order inside each run of equal high words by a stable sort on
        the low words (rare for well-spread keys, the whole input for
        degenerate ones); composing two stable stages reproduces the
        64-bit stable sort exactly.  The refinement is host bookkeeping
        on top of the traced passes (like the paper's de/re-composition
        step, it runs at memory bandwidth and is not separately priced).
        """
        n = bits.size
        high, low = split_words64(bits)
        stage_config = replace(self._packed_config(config, 64), sort_bits=32)
        offset = config.num_digits - stage_config.num_digits
        if int(high.min()) == int(high.max()):
            # Degenerate split: every key shares its high word (64-bit
            # columns holding 32-bit ids, say).  The low word alone
            # decides the stable order, at full packed-index speed —
            # without this, stage 1 would run constant-digit passes and
            # the refinement would stably sort the whole input as one
            # run.
            trace, sorted_packed, _ = self._sort_bits(
                pack_key_index(low, 32),
                None,
                stage_config,
                record_bytes=(config.key_bytes, config.value_bytes),
                trace_digit_offset=offset,
            )
            low_sorted, perm = unpack_key_index(sorted_packed, 32)
            out_bits = join_words64(np.full(n, high[0]), low_sorted)
            return self._rebrand_trace(trace, config), out_bits, perm
        packed = pack_key_index(high, 32)
        trace, sorted_packed, _ = self._sort_bits(
            packed,
            None,
            stage_config,
            record_bytes=(config.key_bytes, config.value_bytes),
            trace_digit_offset=offset,
        )
        high_sorted, perm = unpack_key_index(sorted_packed, 32)
        boundaries = (
            np.flatnonzero(high_sorted[1:] != high_sorted[:-1]) + 1
        )
        run_starts = np.concatenate(([0], boundaries))
        run_lens = np.concatenate((boundaries, [n])) - run_starts
        multi = np.flatnonzero(run_lens >= 2)
        if multi.size:
            seg_sizes = run_lens[multi]
            pos = np.repeat(run_starts[multi], seg_sizes)
            pos += concatenated_aranges(seg_sizes)
            sub = perm[pos]
            # Stable by (run, low word); ties keep stage-1's stable
            # order, i.e. the original input order.
            order = np.lexsort(
                (low[sub], segment_ids_from_sizes(seg_sizes))
            )
            perm[pos] = sub[order]
        out_bits = join_words64(high_sorted, low[perm])
        return self._rebrand_trace(trace, config), out_bits, perm

    def _sort_packed_fused(
        self,
        bits: np.ndarray,
        values: np.ndarray,
        config: SortConfig,
    ) -> tuple[SortTrace, np.ndarray, np.ndarray]:
        """Opt-in value fusion: sort ``key|value`` words, unpack both.

        The digit sequence covers the whole word — key bits, the zero
        gap of asymmetric layouts, then value bits — so the packed
        partition refines all the way to the record order
        ``lexsort((value bits, key))`` even when no local sort touches
        a bucket.
        """
        packed = pack_key_value(bits, values, config.key_bits)
        trace, sorted_packed, _ = self._sort_bits(
            packed,
            None,
            replace(
                self._packed_config(config, packed.dtype.itemsize * 8),
                sort_bits=None,
            ),
            record_bytes=(config.key_bytes, config.value_bytes),
        )
        out_bits, out_values = unpack_key_value(
            sorted_packed, config.key_bits, values.dtype
        )
        return self._rebrand_trace(trace, config), out_bits, out_values

    @staticmethod
    def _rebrand_trace(trace: SortTrace, config: SortConfig) -> SortTrace:
        """Report a packed run's trace in the pair layout's terms."""
        return replace(
            trace,
            key_bits=config.key_bits,
            value_bits=config.value_bits,
        )

    # ------------------------------------------------------------------
    # The pass loop
    # ------------------------------------------------------------------
    def _sort_bits(
        self,
        bits: np.ndarray,
        values: np.ndarray | None,
        config: SortConfig,
        record_bytes: tuple[int, int] | None = None,
        trace_digit_offset: int = 0,
    ) -> tuple[SortTrace, np.ndarray, np.ndarray | None]:
        n = bits.size
        num_digits = config.num_digits
        final_idx = 0 if num_digits % 2 == 0 else 1
        geometry = config.geometry
        key_bytes, value_bytes = record_bytes or (
            config.key_bytes,
            config.value_bytes,
        )

        if n <= 1:
            trace = SortTrace(
                n=n,
                key_bits=config.key_bits,
                value_bits=config.value_bits,
                counting_passes=(),
                local_sorts=(),
                finished_early=True,
                final_buffer_index=final_idx,
            )
            return trace, bits.copy(), None if values is None else values.copy()

        # to_sortable_bits returns a freshly-owned array (never a view of
        # the caller's keys), so it can be mutated as buffer 0 directly.
        key_buffers = [bits, np.empty_like(bits)]
        value_buffers = None
        if values is not None:
            value_buffers = [values.copy(), np.empty_like(values)]

        local_engine = LocalSortEngine(config.effective_configs, geometry)
        counting_traces: list[CountingPassTrace] = []
        local_traces: list[LocalSortTrace] = []

        def run_local(pass_index, offsets, sizes, sort_from, src, src_v):
            trace_ls = local_engine.execute(
                pass_index=pass_index,
                src_keys=src,
                dst_keys=key_buffers[final_idx],
                offsets=offsets,
                sizes=sizes,
                sort_from=sort_from,
                src_values=src_v,
                dst_values=None
                if value_buffers is None
                else value_buffers[final_idx],
            )
            trace_ls = replace(
                trace_ls, key_bytes=key_bytes, value_bytes=value_bytes
            )
            if trace_digit_offset:
                # Packed split runs partition on the high word only; the
                # local kernel of the true layout also sorts the low
                # word's digits (done host-side by the refinement), so
                # the trace charges them to the local sort.
                trace_ls = replace(
                    trace_ls,
                    bucket_remaining=trace_ls.bucket_remaining
                    + trace_digit_offset,
                    per_config=tuple(
                        replace(
                            s,
                            avg_remaining_digits=s.avg_remaining_digits
                            + trace_digit_offset,
                        )
                        for s in trace_ls.per_config
                    ),
                )
            local_traces.append(trace_ls)
            self._record_local_launches(trace_ls, pass_index)

        if n <= config.local_threshold:
            # The whole input fits one local sort; no counting pass runs.
            run_local(
                0,
                np.array([0], dtype=np.int64),
                np.array([n], dtype=np.int64),
                np.array([0], dtype=np.int64),
                key_buffers[0],
                None if value_buffers is None else value_buffers[0],
            )
            active_offsets = np.empty(0, dtype=np.int64)
            active_sizes = np.empty(0, dtype=np.int64)
        else:
            active_offsets = np.array([0], dtype=np.int64)
            active_sizes = np.array([n], dtype=np.int64)

        for pass_index in range(num_digits):
            if active_sizes.size == 0:
                break
            src = key_buffers[pass_index % 2]
            dst = key_buffers[(pass_index + 1) % 2]
            src_v = dst_v = None
            if value_buffers is not None:
                src_v = value_buffers[pass_index % 2]
                dst_v = value_buffers[(pass_index + 1) % 2]

            output = counting_sort_pass(
                src,
                dst,
                active_offsets,
                active_sizes,
                config,
                pass_index,
                src_values=src_v,
                dst_values=dst_v,
            )
            final_pass = pass_index == num_digits - 1
            if final_pass:
                # After the least-significant digit everything is fully
                # sorted where it stands — no merging, no local sorts.
                outcome = _finished_outcome(output.counts)
            else:
                outcome = partition_subbuckets(
                    active_offsets,
                    output.counts,
                    config.merge_threshold,
                    config.local_threshold,
                    merging_enabled=config.use_bucket_merging,
                )
            counting_traces.append(
                self._counting_trace(
                    pass_index,
                    output,
                    outcome,
                    active_sizes,
                    config,
                    key_bytes,
                    value_bytes,
                )
            )
            self._record_counting_launches(
                pass_index,
                output.n_blocks,
                output.n_keys,
                config,
                key_bytes,
                value_bytes,
            )

            if outcome.n_local:
                # Merged buckets still disagree on this pass's digit;
                # plain ones are settled through it.
                sort_from = np.where(
                    outcome.local_is_merged, pass_index, pass_index + 1
                ).astype(np.int64)
                run_local(
                    pass_index,
                    outcome.local_offsets,
                    outcome.local_sizes,
                    sort_from,
                    dst,
                    dst_v,
                )

            active_offsets = outcome.next_offsets
            active_sizes = outcome.next_sizes

        trace = SortTrace(
            n=n,
            key_bits=config.key_bits,
            value_bits=config.value_bits,
            counting_passes=tuple(counting_traces),
            local_sorts=tuple(local_traces),
            finished_early=len(counting_traces) < num_digits,
            final_buffer_index=final_idx,
        )
        out_values = (
            None if value_buffers is None else value_buffers[final_idx]
        )
        return trace, key_buffers[final_idx], out_values

    def _counting_trace(
        self,
        pass_index: int,
        output,
        outcome: PartitionOutcome,
        active_sizes: np.ndarray,
        config: SortConfig,
        key_bytes: int,
        value_bytes: int,
    ) -> CountingPassTrace:
        counts = output.counts
        nonzero_per_bucket = np.count_nonzero(counts, axis=1)
        blocks_per_bucket = -(-active_sizes // config.kpb)
        # A block cannot hit more distinct sub-buckets than its bucket has
        # non-empty ones; weight by block population for the average.
        total_blocks = max(1, int(blocks_per_bucket.sum()))
        avg_nonempty = float(
            (nonzero_per_bucket * blocks_per_bucket).sum() / total_blocks
        )
        return CountingPassTrace(
            pass_index=pass_index,
            n_keys=output.n_keys,
            n_buckets_in=int(active_sizes.size),
            n_blocks=output.n_blocks,
            n_subbuckets_nonempty=outcome.n_subbuckets_nonempty,
            n_merged_buckets=outcome.n_merged,
            n_local_buckets=outcome.n_local,
            n_next_buckets=outcome.n_next,
            block_stats=output.stats,
            key_bytes=key_bytes,
            value_bytes=value_bytes,
            avg_nonempty_per_block=avg_nonempty,
        )

    def _record_counting_launches(
        self,
        pass_index: int,
        n_blocks: int,
        n_keys: int,
        config: SortConfig,
        key_bytes: int,
        value_bytes: int,
    ) -> None:
        """§4.2: exactly three launches per pass, whatever the buckets."""
        hist_bytes_read = n_keys * key_bytes
        hist_bytes_written = n_blocks * config.radix * 4
        self.device.record_launch(
            KernelLaunch(
                name="histogram",
                config=LaunchConfig(n_blocks, config.threads),
                bytes_read=hist_bytes_read,
                bytes_written=hist_bytes_written,
                pass_index=pass_index,
            )
        )
        self.device.record_launch(
            KernelLaunch(
                name="prefix_assign",
                config=LaunchConfig(1, config.threads),
                bytes_read=hist_bytes_written,
                bytes_written=hist_bytes_written,
                pass_index=pass_index,
            )
        )
        pair_bytes = n_keys * value_bytes
        self.device.record_launch(
            KernelLaunch(
                name="scatter",
                config=LaunchConfig(n_blocks, config.threads),
                bytes_read=n_keys * key_bytes + hist_bytes_written + pair_bytes,
                bytes_written=n_keys * key_bytes + pair_bytes,
                pass_index=pass_index,
            )
        )

    def _record_local_launches(
        self, trace: LocalSortTrace, pass_index: int
    ) -> None:
        """One launch per local-sort configuration with work (§4.2)."""
        record_bytes = trace.key_bytes + trace.value_bytes
        for stats in trace.per_config:
            if stats.n_buckets == 0:
                continue
            self.device.record_launch(
                KernelLaunch(
                    name=f"local_sort[{stats.capacity}]",
                    config=LaunchConfig(
                        stats.n_buckets, min(stats.capacity, 1024)
                    ),
                    bytes_read=stats.total_keys * record_bytes,
                    bytes_written=stats.total_keys * record_bytes,
                    pass_index=pass_index,
                )
            )
