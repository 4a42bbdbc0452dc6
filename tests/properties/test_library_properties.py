"""The library rung against the bits-space reference, entry by entry.

One property: for every in-memory dtype, keys or pairs, and every
``pair_packing``, ``repro.sort``, ``repro.sort_pairs``,
``repro.sort_records`` and ``SortService`` (single requests and
micro-batched bursts) return exactly the bytes of the §4.6 reference:
the keys' bit patterns in stable sorted order (ties by value bits
under ``"fused"`` packing), the values carried along.  Inputs mix in
the values that break bijections and size-driven dispatch: NaNs with
payloads of both signs, ±0.0, ±inf, the integer min and max,
all-equal keys, and n ∈ {0, 1, 2, 2^k ± 1}.  Layouts the library rung
serves must also have been planned onto it; 64-bit-key pairs run the
compiled tier's gather-free pairs path (or the hybrid engine) and are
held to the same bytes.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.keys import to_sortable_bits
from repro.core.library import library_serves, stable_argsort
from repro.core.pairs import fused_packable, make_records
from repro.plan.planner import layout_preset
from repro.service import SortService

ARRAY_DTYPES = tuple(
    np.dtype(d)
    for d in (np.uint32, np.uint64, np.int32, np.int64,
              np.float32, np.float64)
)
VALUE_DTYPES = (np.dtype(np.uint32), np.dtype(np.uint64))
SIZES = (0, 1, 2, 3, 7, 9, 31, 33, 255, 257, 1023, 1025, 4095, 4097)


def edge_values(dtype: np.dtype, rng) -> np.ndarray:
    """The values a bijection or a comparison is most likely to break."""
    if dtype.kind in "ui":
        info = np.iinfo(dtype)
        return np.array([info.min, info.max, 0, 1, info.max - 1], dtype)
    width = dtype.itemsize * 8
    udtype = np.dtype(f"u{dtype.itemsize}")
    mant = 52 if width == 64 else 23
    sign = 1 << (width - 1)
    exp_all = ((1 << (width - 1 - mant)) - 1) << mant
    payloads = [int(p) for p in rng.integers(1, 1 << mant, 2)]
    bits = [
        exp_all | payloads[0],             # +NaN with a payload
        sign | exp_all | payloads[1],      # -NaN with a payload
        exp_all | (1 << (mant - 1)),       # +quiet NaN
        sign | exp_all | 1,                # -NaN, smallest payload
        exp_all,                           # +inf
        sign | exp_all,                    # -inf
        0,                                 # +0.0
        sign,                              # -0.0
    ]
    return np.array(bits, dtype=udtype).view(dtype)


def make_keys(dtype: np.dtype, n: int, shape: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if shape == "all-equal":
        pool = edge_values(dtype, rng)
        return np.full(n, pool[seed % pool.size], dtype=dtype)
    raw = rng.integers(0, 1 << 16, n)
    if dtype.kind == "u":
        keys = raw.astype(dtype)
    elif dtype.kind == "i":
        keys = (raw - (1 << 15)).astype(dtype)
    else:
        keys = ((raw - (1 << 15)) / 64.0).astype(dtype)
    if n:
        edges = edge_values(dtype, rng)
        where = rng.integers(0, n, min(n, 2 * edges.size))
        keys[where] = edges[np.arange(where.size) % edges.size]
    return keys


def reference_order(
    keys: np.ndarray, values: np.ndarray | None, packing: str
) -> np.ndarray:
    """Stable order of the §4.6 bit patterns, ties by the values' raw
    bits under ``"fused"`` packing: the order to match."""
    bits = to_sortable_bits(keys)
    if values is not None and packing == "fused":
        return np.lexsort((values.view(f"u{values.itemsize}"), bits))
    return np.argsort(bits, kind="stable")


def as_bytes(result):
    return result.keys.tobytes(), (
        None if result.values is None else result.values.tobytes()
    )


async def through_service(keys, values, config, micro_batching):
    """A staged burst of three copies, so batching can coalesce them."""
    service = SortService(micro_batching=micro_batching)
    tasks = [
        asyncio.ensure_future(service.submit(keys, values, config=config))
        for _ in range(3)
    ]
    await asyncio.sleep(0)
    await service.start()
    try:
        return await asyncio.gather(*tasks)
    finally:
        await service.close()


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    dtype=st.sampled_from(ARRAY_DTYPES),
    n=st.sampled_from(SIZES),
    shape=st.sampled_from(["mixed", "all-equal"]),
    value_dtype=st.sampled_from((None,) + VALUE_DTYPES),
    packing=st.sampled_from(["auto", "index", "off", "fused"]),
    seed=st.integers(0, 2**16),
)
def test_every_entry_point_matches_the_bits_space_reference(
    dtype, n, shape, value_dtype, packing, seed
):
    keys = make_keys(dtype, n, shape, seed)
    key_bits = dtype.itemsize * 8
    value_bits = 0 if value_dtype is None else value_dtype.itemsize * 8
    if packing == "fused" and not fused_packable(key_bits, value_bits):
        packing = "off"  # every engine refuses records too wide to fuse
    values = None
    if value_dtype is not None:
        rng = np.random.default_rng(seed)
        # Few distinct values, so fused ties order by value bits.
        raw = rng.integers(0, 5, n) if packing == "fused" else rng.permutation(n)
        values = raw.astype(value_dtype)
    order = reference_order(keys, values, packing)
    want = keys[order].tobytes(), (
        None if values is None else values[order].tobytes()
    )
    config = None
    if packing != "auto":
        config = replace(
            layout_preset(key_bits, value_bits), pair_packing=packing
        )
    on_library = library_serves(key_bits, n, values is not None, packing)

    if values is None:
        direct = repro.sort(keys, config=config)
    else:
        direct = repro.sort_pairs(keys, values, config=config)
    assert as_bytes(direct) == want
    assert (direct.meta["plan"].strategy == "library") == on_library
    if on_library:
        assert direct.meta["engine"] == "library"

    if values is not None:
        records = repro.sort_records(make_records(keys, values), config=config)
        assert as_bytes(records) == want
        expected_records = make_records(keys, values)[order]
        assert records.meta["records"].tobytes() == expected_records.tobytes()

    for micro_batching in (False, True):
        results = asyncio.run(
            through_service(keys, values, config, micro_batching)
        )
        for result in results:
            assert as_bytes(result) == want
        if micro_batching and config is None and n:
            assert results[0].meta["service"]["batch_size"] == 3


@settings(max_examples=60, deadline=None)
@given(
    width=st.sampled_from((8, 16, 32, 64)),
    n=st.sampled_from(SIZES),
    spread=st.sampled_from((1, 3, 1 << 7)),
    seed=st.integers(0, 2**16),
)
def test_stable_argsort_equals_numpys_stable_argsort(width, n, spread, seed):
    """The merge's ordering helper is NumPy's stable argsort, ties and
    all, whether the bits index-pack (≤ 32 bits) or not."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, spread, n).astype(f"u{width // 8}")
    bits[rng.random(n) < 0.1] = np.iinfo(bits.dtype).max
    got = stable_argsort(bits)
    assert np.array_equal(got, np.argsort(bits, kind="stable"))
