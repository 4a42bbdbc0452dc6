"""Budgeted in-memory sorts return the unbudgeted sort's bytes.

A budgeted array whose whole sort would hold more than chunking it
plans the ``hetero`` strategy: budget-sized chunks sort on the host
rungs and merge through :func:`repro.external.merge.drain_cursors`.
That changes how the work is cut, never the answer.  The arrays drawn
here are small, so the model sorts many of them whole (their chunks'
fixed overheads would hold more); :class:`_ChunkingPlanner` chunks
them anyway, as the model does larger arrays, so every chunk boundary
drawn is sorted both ways.  For every in-memory key dtype, keys and
pairs, ``"auto"`` and ``"fused"`` pair packing, and inputs full of the
values a merge can get wrong (NaN payloads of both signs, ±0.0, ±inf,
integer extremes, all-equal keys), each entry point must return the
same bytes with a budget as without one.
"""

from __future__ import annotations

import asyncio
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.config import SortConfig
from repro.core.pairs import make_records
from repro.plan import Planner, execute_plan
from repro.service import SortService

KEY_DTYPES = tuple(
    np.dtype(d)
    for d in (np.uint32, np.uint64, np.int32, np.int64,
              np.float32, np.float64)
)

#: 1, 2 and 2^k ± 1: chunk boundaries fall off every power of two.
SIZES = (1, 2) + tuple(
    n for k in range(2, 11) for n in ((1 << k) - 1, (1 << k) + 1)
)

#: Float bit patterns a value-comparing merge orders wrongly: NaNs of
#: both signs with and without payloads, ±inf and ±0.0.
_FLOAT_SPECIALS = {
    4: (0x7FC00000, 0xFFC00000, 0x7FC00001, 0xFFC00123, 0x7F800001,
        0xFF800001, 0x7F800000, 0xFF800000, 0x00000000, 0x80000000,
        0x00000001, 0x80000001),
    8: (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
        0xFFF8000000000123, 0x7FF0000000000001, 0xFFF0000000000001,
        0x7FF0000000000000, 0xFFF0000000000000, 0, 0x8000000000000000,
        1, 0x8000000000000001),
}


def _specials(dtype: np.dtype) -> np.ndarray:
    if dtype.kind == "f":
        bits = np.dtype(f"u{dtype.itemsize}")
        finite = np.array([-1.5, 1.5, -2.0, 2.0], dtype=dtype)
        patterns = np.array(_FLOAT_SPECIALS[dtype.itemsize], dtype=bits)
        info = np.finfo(dtype)
        edges = np.array([info.min, info.max, info.tiny, -info.tiny], dtype)
        return np.concatenate([patterns.view(dtype), finite, edges])
    info = np.iinfo(dtype)
    return np.array(
        [info.min, info.max, 0, 1, info.max - 1, info.min + 1]
        + ([-1] if dtype.kind == "i" else []),
        dtype=dtype,
    )


def _keys(dtype: np.dtype, n: int, mode: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    specials = _specials(dtype)
    if mode == "all-equal":
        return np.full(n, specials[seed % specials.size], dtype=dtype)
    bits = np.dtype(f"u{dtype.itemsize}")
    noise = rng.integers(0, np.iinfo(bits).max, n, dtype=bits, endpoint=True)
    pool = np.concatenate([specials, noise.view(dtype)[:8]])
    if mode == "specials":
        return pool[rng.integers(0, pool.size, n)]
    keys = noise.view(dtype).copy()
    keys[rng.random(n) < 0.3] = pool[rng.integers(0, pool.size)]
    return keys


@st.composite
def budgeted_inputs(draw):
    """(keys, values or None, config or None, memory_budget, native)."""
    dtype = draw(st.sampled_from(KEY_DTYPES))
    n = draw(st.sampled_from(SIZES))
    mode = draw(st.sampled_from(("specials", "all-equal", "mixed")))
    seed = draw(st.integers(0, 2**31))
    keys = _keys(dtype, n, mode, seed)
    packing = draw(st.sampled_from(("none", "auto", "fused")))
    if packing == "fused" and dtype.itemsize != 4:
        packing = "auto"  # 64-bit keys leave no room to fuse a value
    values, config = None, None
    if packing != "none":
        value_dtype = np.dtype(
            np.uint32 if packing == "fused"
            else draw(st.sampled_from((np.uint32, np.uint64)))
        )
        rng = np.random.default_rng(seed + 1)
        # Few distinct values, so fused ties order by value bits.
        values = rng.integers(0, 4, n).astype(value_dtype)
        if packing == "fused":
            config = replace(
                SortConfig.for_layout(32, 32), pair_packing="fused"
            )
    nbytes = keys.nbytes + (0 if values is None else values.nbytes)
    n_chunks = draw(st.integers(2, 12))
    # A quarter to one and a half of the input's bytes.
    budget = 3 * -(-nbytes // n_chunks)
    native = draw(st.sampled_from(("auto", "never")))
    return keys, values, config, budget, native


class _ChunkingPlanner(Planner):
    """Chunks every budgeted array, whatever the memory model decides."""

    def plan(self, descriptor):
        if descriptor.memory_budget is not None and descriptor.n:
            return self.plan_chunked(descriptor)
        return super().plan(descriptor)


def _sort(keys, values, config, **kw):
    if values is None:
        return repro.sort(keys, config=config, **kw)
    return repro.sort_pairs(keys, values, config=config, **kw)


def _bytes(result) -> tuple:
    return (
        result.keys.tobytes(),
        None if result.values is None else result.values.tobytes(),
    )


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=budgeted_inputs())
def test_budget_never_changes_the_bytes(case):
    keys, values, config, budget, native = case
    budgeted = _sort(
        keys, values, config, memory_budget=budget, native=native
    )
    plan = _ChunkingPlanner(config=config, native=native).plan(
        budgeted.meta["plan"].descriptor
    )
    chunked = execute_plan(plan, keys=keys, values=values, config=config)
    if native == "never":
        assert plan.run_plan.n_runs >= min(2, keys.size)
    assert _bytes(budgeted) == _bytes(_sort(keys, values, config))
    assert _bytes(chunked) == _bytes(_sort(keys, values, config))
    if values is not None:
        records = make_records(keys, values)
        got = repro.sort_records(
            records, config=config, memory_budget=budget, native=native
        )
        want = repro.sort_records(records, config=config)
        assert (
            got.meta["records"].tobytes() == want.meta["records"].tobytes()
        )


async def _served(cases):
    # A request's config plans fresh, on the default policy; the rest
    # plan chunked on the hybrid rung.
    planner = _ChunkingPlanner(native="never")
    async with SortService(planner=planner) as service:
        return await asyncio.gather(
            *(
                service.submit(
                    keys, values, config=config, memory_budget=budget
                )
                for keys, values, config, budget, _ in cases
            )
        )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cases=st.lists(budgeted_inputs(), min_size=1, max_size=4))
def test_service_budget_never_changes_the_bytes(cases):
    served = asyncio.run(_served(cases))
    for (keys, values, config, _, _), result in zip(cases, served):
        if config is None:
            assert result.meta["plan"].strategy == "hetero"
        assert _bytes(result) == _bytes(_sort(keys, values, config))


@pytest.mark.parametrize(
    "layout", ["keys32", "pairs32", "keys-f64", "pairs-i32", "pairs-f32"]
)
@pytest.mark.parametrize("fraction", [0.75, 0.25])
def test_merge_temporaries_fit_the_budget(layout, fraction):
    # Beyond one staged copy of the sorted chunks and the output, a
    # budgeted sort allocates at most its budget (plus interpreter
    # slack): each chunk sort holds its run footprint within the budget
    # and the merge sizes its blocks from the round's temporaries.
    # float64 keys of both signs also buffer their bits and take the
    # inverse map's bool per key; 8-byte pair rounds sort in place as
    # words, and int32 and float32 pair keys buffer their bits too.
    # Keys chunk on the hybrid rung: their library sort holds about
    # their bytes, less than chunks would.  A budgeted sort never holds
    # more than the whole one.
    n = 1 << 18
    rng = np.random.default_rng(7)
    if layout == "keys-f64":
        keys = rng.standard_normal(n)
    elif layout == "pairs-f32":
        keys = rng.standard_normal(n).astype(np.float32)
    else:
        keys = rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32)
    if layout == "pairs-i32":
        keys = keys.view(np.int32)
    pairs = layout.startswith("pairs")
    values = np.arange(n, dtype=np.uint32) if pairs else None
    nbytes = keys.nbytes + (0 if values is None else values.nbytes)
    budget = int(nbytes * fraction)
    native = "auto" if pairs else "never"
    # A first call's imports are not the sort's allocations.
    warm = None if values is None else values[:1000]
    _sort(keys[:1000], warm, None, memory_budget=1000, native=native)
    peaks = []
    for memory_budget in (budget, None):
        tracemalloc.start()
        try:
            result = _sort(
                keys, values, None, memory_budget=memory_budget,
                native=native,
            )
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        if memory_budget is not None:
            assert result.meta["plan"].strategy == "hetero"
    peak, whole = peaks
    assert peak - 2 * nbytes <= budget + (128 << 10)
    assert peak <= whole + (128 << 10)
