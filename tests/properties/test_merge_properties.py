"""Property-based tests for the in-memory multiway merge and PARADIS."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.paradis import ParadisSorter
from repro.core.pairs import make_records
from repro.external.merge import ArrayCursor, drain_cursors

run_lists = st.lists(
    st.lists(st.integers(0, 10**6), min_size=0, max_size=200),
    min_size=0,
    max_size=12,
)


def _drain(runs, block_records):
    blocks = []
    written = drain_cursors(
        [ArrayCursor(run, block_records) for run in runs], blocks.append
    )
    dtype = runs[0].dtype if runs else np.dtype(np.uint64)
    merged = (
        np.concatenate(blocks).view(dtype) if blocks else np.empty(0, dtype)
    )
    assert written == merged.size
    return merged


@settings(max_examples=60, deadline=None)
@given(run_lists, st.integers(1, 64))
def test_array_merge_equals_global_sort(runs, block):
    arrays = [np.sort(np.array(r, dtype=np.uint64)) for r in runs]
    merged = _drain(arrays, block)
    expected = np.sort(
        np.concatenate(arrays) if arrays else np.empty(0, dtype=np.uint64)
    )
    assert np.array_equal(merged, expected)


@settings(max_examples=40, deadline=None)
@given(run_lists, st.integers(1, 64))
def test_array_merge_pairs_is_the_global_stable_sort(runs, block):
    record_runs = []
    offset = 0
    all_keys = []
    for r in runs:
        keys = np.array(r, dtype=np.uint64)
        values = np.arange(offset, offset + keys.size, dtype=np.uint64)
        order = np.argsort(keys, kind="stable")
        record_runs.append(make_records(keys[order], values[order]))
        all_keys.append(keys)
        offset += keys.size
    merged = _drain(record_runs, block)
    flat = (
        np.concatenate(all_keys) if all_keys else np.empty(0, dtype=np.uint64)
    )
    if flat.size:
        order = np.argsort(flat, kind="stable")
        assert np.array_equal(merged["key"], flat[order])
        # Values are input positions: equal keys in run order.
        assert np.array_equal(merged["value"], order)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=1500),
    st.integers(1, 16),
)
def test_paradis_sorts_any_input(values, workers):
    keys = np.array(values, dtype=np.uint64)
    result = ParadisSorter(workers=workers).sort(keys)
    assert np.array_equal(result.keys, np.sort(keys))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=0, max_size=800))
def test_paradis_low_cardinality(values):
    keys = np.array(values, dtype=np.uint64)
    result = ParadisSorter(workers=4, comparison_threshold=8).sort(keys)
    assert np.array_equal(result.keys, np.sort(keys))
