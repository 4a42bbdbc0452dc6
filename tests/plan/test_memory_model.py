"""The host's memory model never under-charges a sort.

:func:`repro.plan.planner.plan_resident_bytes` charges an unchunked
plan its rung's measured footprint per record
(:func:`repro.plan.planner.array_footprint`), and the sort service
charges each micro-batch member the batch footprint
(:func:`repro.plan.planner.array_resident_bytes`).  For every in-memory
layout on every rung a host reaches — the library rung (64-bit-key
pairs there too, where the compiled tier is not built), the compiled
tier where it is built, the hybrid engine (``native="never"``) and the
micro-batch — the charge must cover the ``tracemalloc`` peak of the
execution, plus the 16 bytes a record of scratch the compiled kernel
mallocs outside ``tracemalloc``'s view.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.native.build import native_status
from repro.plan import InputDescriptor, Planner
from repro.plan.executors import execute_plan
from repro.plan.planner import (
    array_resident_bytes,
    layout_preset,
    plan_resident_bytes,
)
from repro.service.batching import execute_batch
from repro.service.request import SortRequest

#: The kernel's scratch, which it mallocs outside tracemalloc's view.
NATIVE_SCRATCH = 16

KEY_DTYPES = ("u4", "i4", "f4", "u8", "i8", "f8")

#: (key dtype, value dtype, pair packing); 32-bit keys under every
#: packing, 64-bit keys under the two their engines run.
PAIR_LAYOUTS = [
    (k, v, p)
    for k in ("u4", "f4")
    for v in ("u4", "u8", "u1")
    for p in ("auto", "fused", "off")
    if not (p == "fused" and v == "u8")
] + [(k, v, p) for k in ("i8", "f8") for v in ("u4", "u8") for p in ("auto", "off")]


def _data(key_dtype, value_dtype, n, seed=0):
    rng = np.random.default_rng(seed)
    key_dtype = np.dtype(key_dtype)
    if key_dtype.kind == "f":
        keys = rng.standard_normal(n).astype(key_dtype)
    else:
        bits = np.dtype(f"u{key_dtype.itemsize}")
        keys = rng.integers(
            0, np.iinfo(bits).max, n, dtype=bits, endpoint=True
        ).view(key_dtype)
    if value_dtype is None:
        return keys, None
    return keys, rng.integers(0, 255, n).astype(value_dtype)


def _config(keys, values, packing):
    if packing == "auto":
        return None
    return replace(
        layout_preset(
            keys.itemsize * 8, 0 if values is None else values.itemsize * 8
        ),
        pair_packing=packing,
    )


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _rungs():
    rungs = ["auto", "never"]
    if native_status(warn=False).available:
        rungs.append("always")
    return rungs


def _check(native, keys, values, packing):
    config = _config(keys, values, packing)
    planner = Planner(config=config, native=native)
    plan = planner.plan(InputDescriptor.for_array(keys, values))
    assert plan.strategy in ("library", "native", "hybrid")

    def run():
        execute_plan(plan, keys=keys, values=values, config=config)

    small = InputDescriptor.for_array(keys[:256], None if values is None else values[:256])
    execute_plan(  # imports and caches are not the sort's allocations
        planner.plan(small), keys=keys[:256],
        values=None if values is None else values[:256], config=config,
    )
    peak = _peak(run)
    if plan.strategy == "native":
        peak += NATIVE_SCRATCH * keys.size
    charge = plan_resident_bytes(plan)
    assert charge >= peak, (plan.strategy, charge, peak)
    return plan


@pytest.mark.parametrize("n", [1 << 14, 1 << 18])
@pytest.mark.parametrize("native", _rungs())
@pytest.mark.parametrize("key_dtype", KEY_DTYPES)
def test_keys_are_never_under_charged(n, native, key_dtype):
    keys, _ = _data(key_dtype, None, n)
    _check(native, keys, None, "auto")


@pytest.mark.parametrize("n", [1 << 14, 1 << 18])
@pytest.mark.parametrize("native", _rungs())
@pytest.mark.parametrize("key_dtype,value_dtype,packing", PAIR_LAYOUTS)
def test_pairs_are_never_under_charged(n, native, key_dtype, value_dtype, packing):
    keys, values = _data(key_dtype, value_dtype, n)
    if keys.itemsize == 8 and packing == "fused":
        pytest.skip("64-bit keys leave no room to fuse a value")
    _check(native, keys, values, packing)


@pytest.mark.parametrize("n", [1 << 10, 1 << 14, 1 << 18])
@pytest.mark.parametrize(
    "key_dtype,value_dtype",
    [("i8", "u4"), ("u8", "u8"), ("f8", "u8"), ("i8", "u1"), ("f8", "f8")],
)
def test_wide_key_pairs_on_the_library_are_never_under_charged(
    tier, n, key_dtype, value_dtype
):
    # Without the compiled tier, 64-bit-key pairs sort on the library
    # rung in two 32-bit passes: 32 bytes a record, output included.
    tier(False)
    keys, values = _data(key_dtype, value_dtype, n)
    assert _check("auto", keys, values, "auto").strategy == "library"


@pytest.mark.parametrize("value_dtype", [None, "u4", "u8", "u1"])
@pytest.mark.parametrize("key_dtype", KEY_DTYPES)
@pytest.mark.parametrize(
    "sizes",
    [
        "random",  # 15 requests of 2^9 to 2^13 records
        [4097 + i for i in range(15)],  # each row pads to twice its size
        [1 + i for i in range(15)],  # tiny rows pad to 32 records
    ],
    ids=["random", "padded", "tiny"],
)
def test_micro_batches_are_never_under_charged(sizes, key_dtype, value_dtype):
    rng = np.random.default_rng(5)
    if sizes == "random":
        sizes = rng.integers(1 << 9, (1 << 13) + 1, 15)
    requests = []
    for i, n in enumerate(sizes):
        keys, values = _data(key_dtype, value_dtype, int(n), seed=i)
        requests.append(
            SortRequest(
                kind="keys" if values is None else "pairs",
                descriptor=InputDescriptor.for_array(keys, values),
                keys=keys,
                values=values,
            )
        )
    execute_batch(requests[:2])  # imports are not the batch's bytes
    peak = _peak(lambda: execute_batch(requests))
    charge = sum(array_resident_bytes(r.descriptor, "batch") for r in requests)
    assert charge >= peak


#: Budgeted layouts the model chunks, with the policy that plans them
#: (``"library"``: ``"auto"`` without the compiled tier): uint32 pairs
#: on the library rung (under a budget below their bytes), 64-bit-key
#: pairs on it under a quarter of theirs, and any layout on the radix
#: rungs.
CHUNKED_LAYOUTS = [
    ("u4", "u4", "auto"), ("f4", "u4", "auto"), ("u4", None, "never"),
    ("f8", None, "never"), ("u8", "u8", "never"),
] + (
    [("u4", None, "always"), ("i8", "u4", "auto")]
    if "always" in _rungs() else []
)

#: A 5 % budget cuts about 250 radix chunks, whose sorts tracemalloc
#: slows to seconds; it runs on the library rung's 31 chunks.
CHUNKED_CASES = [
    (*layout, n, fraction)
    for layout in CHUNKED_LAYOUTS
    for n in (1 << 14, 1 << 16)
    for fraction in (0.75, 0.25)
] + [(k, v, "auto", 1 << 14, 0.05) for k, v in (("u4", "u4"), ("f4", "u4"))] + [
    (k, "u4", "library", n, 0.25) for k in ("i8", "f8") for n in (1 << 14, 1 << 16)
]


@pytest.mark.parametrize(
    "key_dtype,value_dtype,native,n,fraction", CHUNKED_CASES
)
def test_chunked_plans_are_never_under_charged(
    monkeypatch, tier, key_dtype, value_dtype, native, n, fraction
):
    from repro.external.runs import RunWriter

    if native == "library":
        tier(False)
        native = "auto"
    keys, values = _data(key_dtype, value_dtype, n)
    nbytes = keys.nbytes + (0 if values is None else values.nbytes)
    desc = InputDescriptor.for_array(
        keys, values, memory_budget=int(nbytes * fraction)
    )
    plan = Planner(native=native).plan(desc)
    assert plan.strategy == "hetero"
    scratch = NATIVE_SCRATCH * (
        plan.step("chunked-pipeline").params["engine"] == "native"
    )
    # The kernel's scratch lives only while a chunk sorts, so each phase
    # (staging, every chunk sort, the merge) is measured on its own.
    peaks, sort_records = [], RunWriter.sort_records

    def sort_chunk(writer, records):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        done = sort_records(writer, records)
        peaks.append(tracemalloc.get_traced_memory()[1] + scratch * records.size)
        tracemalloc.reset_peak()
        return done

    def run():
        execute_plan(plan, keys=keys, values=values)

    run()  # imports and caches are not the sort's allocations
    monkeypatch.setattr(RunWriter, "sort_records", sort_chunk)
    peaks.append(_peak(run))
    assert plan_resident_bytes(plan) >= max(peaks)


def test_native_wide_pairs_never_chunk():
    # The compiled kernel holds int64/uint64 pairs in their two output
    # lanes and its scratch: 32 bytes a record, what a chunked plan
    # holds before its budget (the staged copy and the output).
    if not native_status(warn=False).available:
        pytest.skip("compiled tier not built")
    n = 1 << 16
    for budget in (16 * n, 12 * n, 1 << 10):
        desc = InputDescriptor(
            n=n, key_dtype=np.int64, value_dtype=np.uint64,
            memory_budget=budget,
        )
        assert Planner().plan(desc).strategy == "native"
