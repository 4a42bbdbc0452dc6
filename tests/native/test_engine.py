"""NativeRadixEngine byte-identity against the NumPy hybrid oracle.

Every (dtype, layout, packing) cell the hybrid engine supports must
come back byte-for-byte identical from the compiled tier — including
the float edge values (NaN, ±inf, -0.0) whose ordering is defined by
the §4.6 bijection, duplicate-heavy inputs (stability), and the empty /
single / constant degenerate shapes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SortConfig
from repro.core.hybrid_sort import HybridRadixSorter

from repro.native import build

pytestmark = pytest.mark.skipif(
    not build.native_status(warn=False).available,
    reason="native extension not built on this host",
)

FLOAT_EDGES = {
    np.dtype(np.float32): [np.nan, np.inf, -np.inf, -0.0, 0.0],
    np.dtype(np.float64): [np.nan, np.inf, -np.inf, -0.0, 0.0],
}


def make_engine(config: SortConfig | None = None):
    from repro.native.engine import NativeRadixEngine

    return NativeRadixEngine(config=config)


def make_keys(dtype, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        keys = rng.normal(0, 1e6, n).astype(dtype)
        edges = FLOAT_EDGES[dtype]
        if n:
            where = rng.integers(0, n, size=max(1, n // 7))
            keys[where] = rng.choice(np.array(edges, dtype=dtype), where.size)
        return keys
    info = np.iinfo(dtype)
    return rng.integers(
        info.min, int(info.max) + 1, n, dtype=dtype
    )


def assert_identical(keys, values=None, config=None):
    native = make_engine(config).sort(
        keys, None if values is None else values.copy()
    )
    hybrid = HybridRadixSorter(config=config).sort(
        keys, None if values is None else values.copy()
    )
    assert native.keys.dtype == hybrid.keys.dtype
    assert native.keys.tobytes() == hybrid.keys.tobytes()
    if values is None:
        assert native.values is None
    else:
        assert native.values.tobytes() == hybrid.values.tobytes()
    return native


class TestKeysOnlyParity:
    @pytest.mark.parametrize(
        "dtype",
        [np.uint32, np.int32, np.float32, np.uint64, np.int64, np.float64],
    )
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 100, 4097, 70_000])
    def test_byte_identity(self, dtype, n):
        assert_identical(make_keys(dtype, n, seed=n + 1))

    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
    def test_degenerate_distributions(self, dtype, rng):
        n = 50_000
        constant = np.full(n, 7, dtype=dtype)
        assert_identical(constant)
        presorted = np.arange(n, dtype=dtype)
        assert_identical(presorted)
        assert_identical(presorted[::-1].copy())
        # All keys share the MSD digit: exercises the trivial-bucket
        # skip in the partition pass.
        low = rng.integers(0, 1 << 16, n).astype(dtype)
        assert_identical(low)

    def test_narrow_keys_with_explicit_config(self, rng):
        config = SortConfig(key_bits=8, digit_bits=4)
        keys = rng.integers(0, 256, 10_000, dtype=np.uint8)
        assert_identical(keys, config=config)

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.integers(0, 2**64 - 1), min_size=0, max_size=300
        ),
        dtype=st.sampled_from(
            [np.uint32, np.int32, np.uint64, np.int64]
        ),
    )
    def test_hypothesis_integer_identity(self, data, dtype):
        keys = np.array(data, dtype=np.uint64).astype(dtype)
        assert_identical(keys)

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.floats(width=32, allow_nan=True, allow_infinity=True),
            min_size=0,
            max_size=300,
        )
    )
    def test_hypothesis_float_identity(self, data):
        assert_identical(np.array(data, dtype=np.float32))
        assert_identical(np.array(data, dtype=np.float64))


class TestPairParity:
    @pytest.mark.parametrize("n", [0, 1, 2, 100, 4097, 70_000])
    def test_index_packed_pairs32(self, n):
        keys = make_keys(np.uint32, n, seed=n + 11)
        values = np.arange(n, dtype=np.uint32)
        native = assert_identical(keys, values)
        if n > 1:
            assert native.meta["packing"] == "index"

    @pytest.mark.parametrize("n", [0, 1, 2, 100, 4097, 70_000])
    def test_split_pairs64(self, n):
        keys = make_keys(np.uint64, n, seed=n + 13)
        values = np.arange(n, dtype=np.uint64)
        native = assert_identical(keys, values)
        if n > 1:
            assert native.meta["packing"] == "split"

    @pytest.mark.parametrize(
        "value_dtype", [np.uint8, np.int16, np.float32, np.float64]
    )
    def test_split_payload_lane_carries_any_value_width(
        self, value_dtype, rng
    ):
        # Values ride the pairs kernel's payload lane (widened to 8
        # bytes when narrower) instead of a permutation and a gather.
        n = 50_000
        keys = rng.integers(-(1 << 62), 1 << 62, n, dtype=np.int64)
        values = rng.integers(-100, 100, n).astype(value_dtype)
        native = assert_identical(keys, values)
        assert native.meta["packing"] == "split"
        assert native.values.dtype == np.dtype(value_dtype)

    def test_split_timestamp_like_keys(self, rng):
        # Constant top digits over dense low ones: one MSD bucket holds
        # everything, so the pairs kernel splits the whole array,
        # skipping the constant digits.
        n = 1 << 17
        keys = (1_700_000_000_000_000 + rng.integers(0, 1 << 24, n)).astype(
            np.uint64
        )
        assert_identical(keys, np.arange(n, dtype=np.uint64))

    def test_split_degenerate_high_words(self, rng):
        # Constant high 32 bits: the split path's worst case.
        n = 30_000
        keys = rng.integers(0, 1 << 20, n).astype(np.uint64)
        values = np.arange(n, dtype=np.uint64)
        assert_identical(keys, values)

    def test_fused_packing(self, rng):
        config = replace(
            SortConfig.for_layout(32, 32), pair_packing="fused"
        )
        keys = rng.integers(0, 1 << 32, 30_000).astype(np.uint32)
        values = rng.integers(0, 1 << 32, 30_000).astype(np.uint32)
        native = assert_identical(keys, values, config=config)
        assert native.meta["packing"] == "fused"

    def test_decomposed_packing(self, rng):
        config = replace(SortConfig.for_layout(32, 32), pair_packing="off")
        keys = rng.integers(0, 1 << 32, 30_000).astype(np.uint32)
        values = np.arange(30_000, dtype=np.uint32)
        native = assert_identical(keys, values, config=config)
        assert native.meta["packing"] == "decomposed"

    def test_stability_under_heavy_duplicates(self, rng):
        # 16 distinct keys over 40k rows: ties everywhere; the payload
        # must come back in input order within each key group.
        keys = rng.integers(0, 16, 40_000).astype(np.uint32)
        values = np.arange(40_000, dtype=np.uint32)
        native = assert_identical(keys, values)
        for key in range(16):
            group = native.values[native.keys == key]
            assert np.all(group[:-1] <= group[1:])

    def test_float_keys_with_payload(self, rng):
        keys = make_keys(np.float64, 20_000, seed=17)
        values = np.arange(20_000, dtype=np.uint64)
        assert_identical(keys, values)


class TestEngineContract:
    def test_explicit_sort_bits_refused(self, rng):
        from repro.errors import ConfigurationError

        config = replace(SortConfig.for_layout(32, 0), sort_bits=12)
        keys = rng.integers(0, 1 << 32, 1000).astype(np.uint32)
        with pytest.raises(ConfigurationError, match="sort_bits"):
            make_engine(config).sort(keys)

    def test_config_layout_mismatch_refused(self, rng):
        from repro.errors import ConfigurationError

        config = SortConfig.for_layout(64, 0)
        keys = rng.integers(0, 1 << 32, 100).astype(np.uint32)
        with pytest.raises(ConfigurationError, match="64-bit keys"):
            make_engine(config).sort(keys)

    def test_shape_validation(self, rng):
        from repro.errors import ConfigurationError

        engine = make_engine()
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            engine.sort(np.zeros((2, 2), dtype=np.uint32))
        with pytest.raises(ConfigurationError, match="parallel"):
            engine.sort(
                np.zeros(4, dtype=np.uint32), np.zeros(3, dtype=np.uint32)
            )

    def test_result_meta(self, rng):
        keys = rng.integers(0, 1 << 32, 1000).astype(np.uint32)
        result = make_engine().sort(keys)
        assert result.meta["engine"] == "native"
        assert result.trace is None
        assert result.simulated_seconds == 0.0

    def test_input_arrays_unmodified(self, rng):
        keys = rng.integers(0, 1 << 32, 10_000).astype(np.uint32)
        values = np.arange(10_000, dtype=np.uint32)
        keys_before, values_before = keys.copy(), values.copy()
        make_engine().sort(keys, values)
        assert np.array_equal(keys, keys_before)
        assert np.array_equal(values, values_before)


class TestTierCrossCheck:
    """The planner's one-process NumPy tier against the compiled engine."""

    def test_numpy_tier_keys_match_native_engine(self, rng):
        import repro

        keys = rng.integers(0, 1 << 32, 120_000).astype(np.uint32)
        numpy_tier = repro.sort(keys, native="never")
        native = make_engine().sort(keys)
        assert numpy_tier.meta["engine"] == "hybrid"
        assert numpy_tier.keys.tobytes() == native.keys.tobytes()

    def test_numpy_tier_pairs_match_native_engine(self, rng):
        import repro

        keys = rng.integers(0, 1 << 32, 120_000).astype(np.uint32)
        values = np.arange(120_000, dtype=np.uint32)
        numpy_tier = repro.sort_pairs(keys, values, native="never")
        native = make_engine().sort(keys, values)
        assert numpy_tier.meta["engine"] == "hybrid"
        assert numpy_tier.keys.tobytes() == native.keys.tobytes()
        assert numpy_tier.values.tobytes() == native.values.tobytes()
