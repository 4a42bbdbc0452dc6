"""Property tests: packed pair engines vs the decomposed argsort oracle.

The hybrid sorter's key-value fast paths pack key bits and a payload
into one unsigned word (``repro.core.pairs``).  The index payload is
the stability tie-break, so the packed engines must reproduce the
decomposed stable-argsort pipeline (``pair_packing="off"`` — the seed
implementation, kept as the oracle) *bit for bit*: same keys, same
values, for every key/value width, duplicates-heavy and constant
inputs, shared high words (the 64-bit split refinement), and any worker
count.  The fused packing trades the input-order tie-break for a
value-bits tie-break; its oracle is the record sort ``lexsort((value
bits, key))``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SortConfig
from repro.core.hybrid_sort import HybridRadixSorter
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

KEY_DTYPES = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}
VALUE_DTYPES = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}


def _config(key_bits: int, value_bits: int, **overrides) -> SortConfig:
    """A miniature pair configuration forcing multi-pass structure."""
    return SortConfig(
        key_bits=key_bits,
        value_bits=value_bits,
        kpb=96,
        threads=32,
        kpt=3,
        local_threshold=128,
        merge_threshold=40,
        local_sort_configs=(16, 32, 64, 128),
        **overrides,
    )


def _sort(keys, values, key_bits, value_bits, **overrides):
    config = _config(key_bits, value_bits, **overrides)
    return HybridRadixSorter(config=config).sort(keys, values)


@st.composite
def pair_inputs(draw):
    key_bits = draw(st.sampled_from(sorted(KEY_DTYPES)))
    value_bits = draw(st.sampled_from(sorted(VALUE_DTYPES)))
    n = draw(st.integers(0, 900))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    shape = draw(st.sampled_from(["uniform", "dupes", "constant", "lowhigh"]))
    if shape == "uniform":
        keys = rng.integers(0, 2**key_bits, n, dtype=np.uint64)
    elif shape == "dupes":
        keys = rng.integers(0, 7, n, dtype=np.uint64)
    elif shape == "constant":
        keys = np.full(n, draw(st.integers(0, 2**key_bits - 1)) % 251, dtype=np.uint64)
    else:
        # Few distinct high words over random low bits: exercises the
        # 64-bit split's run refinement (harmless for narrow keys).
        half = max(1, key_bits // 2)
        highs = rng.integers(0, 3, n, dtype=np.uint64) << np.uint64(half)
        keys = highs | rng.integers(0, 2**half, n, dtype=np.uint64)
    keys = keys.astype(KEY_DTYPES[key_bits])
    values = rng.integers(0, 2**value_bits, n, dtype=np.uint64).astype(
        VALUE_DTYPES[value_bits]
    )
    return keys, values, key_bits, value_bits


@settings(max_examples=120, deadline=None)
@given(pair_inputs())
def test_packed_engines_bit_identical_to_argsort_oracle(inputs):
    keys, values, key_bits, value_bits = inputs
    oracle = _sort(keys, values, key_bits, value_bits, pair_packing="off")
    for mode in ("auto", "index"):
        packed = _sort(keys, values, key_bits, value_bits, pair_packing=mode)
        assert np.array_equal(packed.keys, oracle.keys)
        assert np.array_equal(packed.values, oracle.values)
        assert packed.values.dtype == oracle.values.dtype


@settings(max_examples=60, deadline=None)
@given(pair_inputs())
def test_fused_engine_matches_record_sort_oracle(inputs):
    keys, values, key_bits, value_bits = inputs
    if not fused_packable(key_bits, value_bits):
        return
    result = _sort(keys, values, key_bits, value_bits, pair_packing="fused")
    order = np.lexsort((values, keys))
    assert np.array_equal(result.keys, keys[order])
    assert np.array_equal(result.values, values[order])


class TestPackedDispatch:
    """Deterministic probes of the packing mode resolution."""

    def test_auto_picks_index_for_narrow_keys(self, rng):
        keys = rng.integers(0, 2**32, 500, dtype=np.uint64).astype(np.uint32)
        values = np.arange(500, dtype=np.uint32)
        result = _sort(keys, values, 32, 32)
        assert result.meta["packing"] == "index"

    def test_auto_picks_split_for_wide_keys(self, rng):
        keys = rng.integers(0, 2**64, 500, dtype=np.uint64)
        values = np.arange(500, dtype=np.uint64)
        result = _sort(keys, values, 64, 64)
        assert result.meta["packing"] == "split"

    def test_degenerate_split_shared_high_word(self, rng):
        # 64-bit keys that all fit 32 bits: the split path must detect
        # the constant high word and sort on the low word alone —
        # still bit-identical to the decomposed oracle.
        keys = rng.integers(0, 2**32, 3000, dtype=np.uint64)
        values = rng.integers(0, 2**32, 3000, dtype=np.uint64)
        oracle = _sort(keys, values, 64, 64, pair_packing="off")
        packed = _sort(keys, values, 64, 64)
        assert packed.meta["packing"] == "split"
        assert np.array_equal(packed.keys, oracle.keys)
        assert np.array_equal(packed.values, oracle.values)
        # Same for a non-zero shared high word.
        shifted = keys | np.uint64(7 << 32)
        oracle = _sort(shifted, values, 64, 64, pair_packing="off")
        packed = _sort(shifted, values, 64, 64)
        assert np.array_equal(packed.keys, oracle.keys)
        assert np.array_equal(packed.values, oracle.values)

    def test_off_and_keys_only_stay_decomposed(self, rng):
        keys = rng.integers(0, 2**32, 500, dtype=np.uint64).astype(np.uint32)
        values = np.arange(500, dtype=np.uint32)
        off = _sort(keys, values, 32, 32, pair_packing="off")
        assert off.meta["packing"] == "decomposed"
        keys_only = HybridRadixSorter(config=_config(32, 0)).sort(keys)
        assert keys_only.meta["packing"] == "decomposed"

    def test_fused_rejected_for_wide_records(self, rng):
        from repro.errors import ConfigurationError

        keys = rng.integers(0, 2**64, 100, dtype=np.uint64)
        values = np.arange(100, dtype=np.uint64)
        with pytest.raises(ConfigurationError):
            _sort(keys, values, 64, 64, pair_packing="fused")

    def test_signed_and_float_keys_through_packed_paths(self, rng):
        for dtype in (np.int32, np.float32, np.int64, np.float64):
            keys = (rng.normal(size=800) * 1000).astype(dtype)
            values = np.arange(800, dtype=np.uint32)
            result = HybridRadixSorter().sort(keys, values)
            order = np.argsort(keys, kind="stable")
            assert np.array_equal(result.keys, keys[order])
            assert np.array_equal(result.values, values[order])

    def test_trace_reports_pair_layout_not_packed_word(self, rng):
        keys = rng.integers(0, 2**32, 2000, dtype=np.uint64).astype(np.uint32)
        values = np.arange(2000, dtype=np.uint32)
        result = _sort(keys, values, 32, 32)
        assert result.trace.key_bits == 32
        assert result.trace.value_bits == 32
        for pass_trace in result.trace.counting_passes:
            assert pass_trace.key_bytes == 4
            assert pass_trace.value_bytes == 4
        for local_trace in result.trace.local_sorts:
            assert local_trace.key_bytes == 4
            assert local_trace.value_bytes == 4

    def test_split_trace_charges_low_word_to_local_sorts(self, rng):
        # The split run partitions on the high word's 4 digits only;
        # the trace must still report remaining digits of the true
        # 8-digit key so the cost model prices the paper's kernel.
        keys = rng.integers(0, 2**64, 4000, dtype=np.uint64)
        values = np.arange(4000, dtype=np.uint64)
        result = _sort(keys, values, 64, 64)
        assert result.meta["packing"] == "split"
        num_digits = _config(64, 64).num_digits
        for local_trace in result.trace.local_sorts:
            pass_floor = local_trace.pass_index
            assert np.all(
                local_trace.bucket_remaining >= num_digits - pass_floor - 1
            )


class TestPackingPrimitives:
    def test_index_roundtrip(self, rng):
        for key_bits in (8, 16, 32):
            bits = rng.integers(
                0, 2**key_bits, 1000, dtype=np.uint64
            ).astype(KEY_DTYPES[key_bits])
            packed = pack_key_index(bits, key_bits)
            out_bits, perm = unpack_key_index(packed, key_bits)
            assert np.array_equal(out_bits, bits)
            assert np.array_equal(perm, np.arange(1000))

    def test_index_packed_sort_is_stable_sort(self, rng):
        bits = rng.integers(0, 4, 2000, dtype=np.uint64).astype(np.uint32)
        packed = np.sort(pack_key_index(bits, 32))
        out_bits, perm = unpack_key_index(packed, 32)
        order = np.argsort(bits, kind="stable")
        assert np.array_equal(out_bits, bits[order])
        assert np.array_equal(perm, order)

    def test_fused_roundtrip_word_widths(self, rng):
        for key_bits, value_bits, word in (
            (16, 16, np.uint32),
            (32, 32, np.uint64),
            (32, 16, np.uint64),
            (8, 8, np.uint32),
        ):
            bits = rng.integers(
                0, 2**key_bits, 500, dtype=np.uint64
            ).astype(KEY_DTYPES[key_bits])
            values = rng.integers(
                0, 2**value_bits, 500, dtype=np.uint64
            ).astype(VALUE_DTYPES[value_bits])
            packed = pack_key_value(bits, values, key_bits)
            assert packed.dtype == word
            out_bits, out_values = unpack_key_value(
                packed, key_bits, values.dtype
            )
            assert np.array_equal(out_bits, bits)
            assert np.array_equal(out_values, values)

    def test_index_packable_bounds(self):
        assert index_packable(32, 2**32)
        assert not index_packable(32, 2**32 + 1)
        assert not index_packable(64, 2)
        assert index_packable(16, 2**48)

    def test_split_join_words64(self, rng):
        words = rng.integers(0, 2**64, 1000, dtype=np.uint64)
        high, low = split_words64(words)
        assert high.dtype == low.dtype == np.uint32
        assert np.array_equal(
            high.astype(np.uint64) << np.uint64(32) | low, words
        )
        assert np.array_equal(join_words64(high, low), words)
