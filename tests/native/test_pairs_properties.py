"""64-bit-key pairs against one bits-space reference.

``repro.sort_pairs`` and ``NativeRadixEngine().sort`` on int64, uint64
and float64 keys, whose §4.6 map the pairs kernel applies in its own
passes: values of every width, edge values, all-equal keys, strided
views and sizes around the kernel's boundaries (the insertion-sort
cutoff and one 11-bit digit).  The output must be byte-identical to a
stable argsort of the mapped bits, computed here, and neither input
array may change.  Without the compiled tier only ``sort_pairs`` is
checked, on the rung it takes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.native import build

NATIVE_AVAILABLE = build.native_status(warn=False).available

SIZES = (0, 1, 2, 31, 32, 33, (1 << 11) - 1, (1 << 11) + 1)
KEY_DTYPES = (np.int64, np.uint64, np.float64)
VALUE_DTYPES = (
    np.uint8, np.int8, np.uint16, np.int16, np.float16,
    np.uint32, np.int32, np.float32, np.uint64, np.int64, np.float64,
)
#: NaN payloads of both signs, ±0.0, ±inf, INT64_MIN/MAX, 0, -1 and
#: UINT64_MAX, as 64-bit patterns.
EDGE_BITS = np.array(
    [
        0x7FF8000000000001, 0xFFF8000000000001, 0x7FF0000000000001,
        0xFFF0000000000001, 0x0000000000000000, 0x8000000000000000,
        0x7FF0000000000000, 0xFFF0000000000000, 0x7FFFFFFFFFFFFFFF,
        0xFFFFFFFFFFFFFFFF, 0x0000000000000001, 0x3FF0000000000000,
    ],
    dtype=np.uint64,
)


def reference_bits(keys: np.ndarray) -> np.ndarray:
    """The §4.6 map, written out: flip the sign bit of signed keys and
    of non-negative floats, every bit of negative floats."""
    raw = keys.view(np.uint64)
    sign = np.uint64(1 << 63)
    if keys.dtype.kind == "u":
        return raw.copy()
    if keys.dtype.kind == "i":
        return raw ^ sign
    return np.where(raw & sign, ~raw, raw ^ sign)


def make_input(key_dtype, value_dtype, n, shape, strided, seed):
    """``(keys, values, key_buffer, value_buffer)``; the arrays are
    every other element of the buffers when ``strided``."""
    rng = np.random.default_rng(seed)
    m = 2 * n if strided else n
    bits = rng.integers(0, 1 << 64, m, dtype=np.uint64)
    if shape == "edges" and m:
        where = rng.random(m) < 0.5
        bits[where] = rng.choice(EDGE_BITS, int(where.sum()))
    elif shape == "equal" and m:
        bits[:] = rng.choice(EDGE_BITS)
    key_buffer = bits.view(key_dtype)
    value_buffer = (
        rng.integers(0, 256, m * np.dtype(value_dtype).itemsize, dtype=np.uint8)
        .view(value_dtype)
    )
    if strided:
        return key_buffer[::2], value_buffer[::2], key_buffer, value_buffer
    return key_buffer, value_buffer, key_buffer, value_buffer


inputs = st.tuples(
    st.sampled_from(KEY_DTYPES),
    st.sampled_from(VALUE_DTYPES),
    st.sampled_from(SIZES),
    st.sampled_from(("random", "edges", "equal")),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)


def sorters():
    yield "sort_pairs", repro.sort_pairs
    if NATIVE_AVAILABLE:
        from repro.native.engine import NativeRadixEngine

        yield "native", NativeRadixEngine().sort


@settings(max_examples=80, deadline=None)
@given(case=inputs)
def test_pairs_match_the_bits_space_reference(case):
    keys, values, key_buffer, value_buffer = make_input(*case)
    key_before, value_before = key_buffer.tobytes(), value_buffer.tobytes()
    order = np.argsort(reference_bits(keys), kind="stable")
    want_keys, want_values = keys[order].tobytes(), values[order].tobytes()
    for name, sort in sorters():
        result = sort(keys, values)
        assert result.keys.dtype == keys.dtype, name
        assert result.values.dtype == values.dtype, name
        assert result.keys.tobytes() == want_keys, name
        assert result.values.tobytes() == want_values, name
        assert key_buffer.tobytes() == key_before, name
        assert value_buffer.tobytes() == value_before, name

