"""Tests for the order-preserving key bijections (§4.6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.keys import (
    SUPPORTED_DTYPES,
    bits_dtype_for,
    from_sortable_bits,
    to_sortable_bits,
)
from repro.errors import UnsupportedDtypeError


def _samples(dtype, rng):
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        finite = rng.uniform(-1e30, 1e30, 500).astype(dtype)
        special = np.array(
            [0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45], dtype=dtype
        )
        return np.concatenate((finite, special))
    info = np.iinfo(dtype)
    bits = dtype.itemsize * 8
    body = rng.integers(0, 2**bits, 500, dtype=np.uint64).astype(
        np.dtype(f"u{dtype.itemsize}")
    ).view(dtype)
    edges = np.array([info.min, info.max, 0], dtype=dtype)
    return np.concatenate((body, edges))


@pytest.mark.parametrize("dtype", SUPPORTED_DTYPES, ids=str)
class TestRoundTrip:
    def test_roundtrip_identity(self, dtype, rng):
        values = _samples(dtype, rng)
        bits = to_sortable_bits(values)
        back = from_sortable_bits(bits, dtype)
        assert np.array_equal(back, values)

    def test_order_preserved(self, dtype, rng):
        values = _samples(dtype, rng)
        bits = to_sortable_bits(values)
        order = np.argsort(bits, kind="stable")
        reference = np.argsort(values, kind="stable")
        assert np.array_equal(values[order], values[reference])

    def test_bits_dtype_unsigned(self, dtype, rng):
        assert bits_dtype_for(dtype).kind == "u"


class TestFloatEdgeCases:
    def test_negative_sorts_before_positive(self):
        values = np.array([1.0, -1.0, 0.5, -0.5], dtype=np.float32)
        bits = to_sortable_bits(values)
        assert np.array_equal(
            values[np.argsort(bits)], np.sort(values)
        )

    def test_negative_zero_vs_positive_zero(self):
        # -0.0 and 0.0 map to adjacent, ordered bit patterns.
        bits = to_sortable_bits(np.array([-0.0, 0.0], dtype=np.float64))
        assert bits[0] < bits[1]

    def test_infinities_at_extremes(self):
        values = np.array(
            [np.inf, -np.inf, 0.0, 1e300, -1e300], dtype=np.float64
        )
        bits = to_sortable_bits(values)
        assert bits.argmax() == 0
        assert bits.argmin() == 1

    def test_nan_sorts_last(self):
        values = np.array([np.nan, np.inf, 0.0], dtype=np.float64)
        bits = to_sortable_bits(values)
        assert bits.argmax() == 0


class TestSignedIntegers:
    def test_min_maps_to_zero(self):
        bits = to_sortable_bits(np.array([np.iinfo(np.int32).min], dtype=np.int32))
        assert bits[0] == 0

    def test_max_maps_to_all_ones(self):
        bits = to_sortable_bits(np.array([np.iinfo(np.int64).max], dtype=np.int64))
        assert bits[0] == np.uint64(0xFFFFFFFFFFFFFFFF)

    def test_negative_below_positive(self):
        bits = to_sortable_bits(np.array([-1, 1], dtype=np.int32))
        assert bits[0] < bits[1]


class TestRejections:
    def test_unsupported_dtype(self):
        with pytest.raises(UnsupportedDtypeError):
            to_sortable_bits(np.array([1 + 2j]))

    def test_unsupported_inverse(self):
        with pytest.raises(UnsupportedDtypeError):
            from_sortable_bits(np.array([1], dtype=np.uint32), np.complex64)

    def test_unsupported_bits_dtype(self):
        with pytest.raises(UnsupportedDtypeError):
            bits_dtype_for(np.float16)


# The ``np.where`` formulas the branch-free bijection replaced, kept as
# the reference it must match bit for bit.
def _where_to_bits(keys):
    udtype = bits_dtype_for(keys.dtype)
    raw = keys.view(udtype)
    sign = udtype.type(1 << (keys.dtype.itemsize * 8 - 1))
    if keys.dtype.kind == "u":
        return raw.copy()
    if keys.dtype.kind == "i":
        return raw ^ sign
    all_ones = udtype.type(2 ** (keys.dtype.itemsize * 8) - 1)
    return np.where((raw & sign) != 0, raw ^ all_ones, raw ^ sign)


def _where_from_bits(bits, dtype):
    dtype = np.dtype(dtype)
    udtype = bits_dtype_for(dtype)
    sign = udtype.type(1 << (dtype.itemsize * 8 - 1))
    if dtype.kind == "u":
        return bits.copy().view(dtype)
    if dtype.kind == "i":
        return (bits ^ sign).view(dtype)
    all_ones = udtype.type(2 ** (dtype.itemsize * 8) - 1)
    was_negative = (bits & sign) == 0
    return np.where(was_negative, bits ^ all_ones, bits ^ sign).view(dtype)


def _patterns(width, rng):
    """Random ``width``-bit patterns plus every float class of that width:
    quiet and signalling NaNs with payloads, of both signs, ±inf, ±0,
    subnormals and the extreme integers."""
    mant = 52 if width == 64 else 23
    exp_all = ((1 << (width - 1 - mant)) - 1) << mant
    quiet = 1 << (mant - 1)
    sign = 1 << (width - 1)
    classes = []
    for s in (0, sign):
        classes += [
            s | exp_all | quiet,                 # canonical quiet NaN
            s | exp_all | quiet | 12345,         # quiet NaN, payload
            s | exp_all | 1,                     # signalling NaN
            s | exp_all | (quiet - 1),           # signalling, max payload
            s | exp_all | ((1 << mant) - 1),     # all-ones payload
            s | exp_all,                         # infinity
            s,                                   # zero
            s | 1,                               # smallest subnormal
            s | ((1 << mant) - 1),               # largest subnormal
        ]
    classes += [(1 << width) - 1, sign - 1]
    udtype = np.dtype(f"u{width // 8}")
    body = rng.integers(0, 1 << width, 4000, dtype=np.uint64).astype(udtype)
    return np.concatenate((np.array(classes, dtype=udtype), body))


@pytest.mark.parametrize(
    "dtype",
    [np.float32, np.float64, np.int32, np.int64, np.uint32, np.uint64],
    ids=str,
)
class TestBranchFreeBijection:
    def test_matches_the_where_formulas(self, dtype, rng):
        keys = _patterns(np.dtype(dtype).itemsize * 8, rng).view(dtype)
        mapped = _where_to_bits(keys)
        assert to_sortable_bits(keys).tobytes() == mapped.tobytes()
        assert (
            from_sortable_bits(mapped, dtype).tobytes()
            == _where_from_bits(mapped, dtype).tobytes()
            == keys.tobytes()
        )

    def test_out_writes_into_the_array_it_is_given(self, dtype, rng):
        keys = _patterns(np.dtype(dtype).itemsize * 8, rng).view(dtype)
        mapped = _where_to_bits(keys)
        for out in (np.empty_like(keys), np.empty_like(mapped)):
            result = from_sortable_bits(mapped, dtype, out=out)
            assert result.dtype == np.dtype(dtype)
            assert np.shares_memory(result, out)
            assert out.tobytes() == keys.tobytes()
        # In place on the bits themselves, as the library and native
        # rungs invert their sorted buffers.
        owned = mapped.copy()
        result = from_sortable_bits(owned, dtype, out=owned)
        assert np.shares_memory(result, owned)
        assert owned.tobytes() == keys.tobytes()

    def test_forward_out_writes_into_the_array_it_is_given(self, dtype, rng):
        keys = _patterns(np.dtype(dtype).itemsize * 8, rng).view(dtype)
        mapped = _where_to_bits(keys)
        for out in (np.empty_like(keys), np.empty_like(mapped)):
            result = to_sortable_bits(keys, out=out)
            assert result.dtype == mapped.dtype
            assert np.shares_memory(result, out)
            assert out.tobytes() == mapped.tobytes()
        # In place on the keys themselves, as a run sort maps the run
        # it owns; the keys given are left as the bits.
        owned = keys.copy()
        result = to_sortable_bits(owned, out=owned)
        assert np.shares_memory(result, owned)
        assert owned.tobytes() == mapped.tobytes()
        # Into another view of the same buffer: the key half of a
        # record into its other half, as strided views.
        halves = np.zeros((keys.size, 2), dtype=mapped.dtype)
        halves[:, 0] = keys.view(mapped.dtype)
        to_sortable_bits(halves[:, 0].view(dtype), out=halves[:, 1])
        assert halves[:, 1].tobytes() == mapped.tobytes()
        assert halves[:, 0].tobytes() == keys.tobytes()

    def test_strided_views(self, dtype, rng):
        keys = _patterns(np.dtype(dtype).itemsize * 8, rng).view(dtype)
        assert (
            to_sortable_bits(keys[::3]).tobytes()
            == _where_to_bits(keys[::3]).tobytes()
        )
        mapped = _where_to_bits(keys)
        out = np.zeros_like(keys)
        from_sortable_bits(mapped[::2], dtype, out=out[::2])
        assert out[::2].tobytes() == keys[::2].tobytes()
        assert not out[1::2].view(mapped.dtype).any()
