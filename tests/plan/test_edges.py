"""Edge cases: empty and single-element inputs through every facade.

Each facade must return a *well-formed* result — correct dtypes, a
plan in the metadata, no crashes — for the degenerate sizes that tend
to slip through size-driven dispatch logic.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.pairs import make_records
from repro.external import FileLayout, read_records, write_records
from repro.plan import InputDescriptor, Planner


@pytest.mark.parametrize("n", [0, 1])
class TestArrayFacades:
    def test_sort(self, n):
        keys = np.arange(n, dtype=np.uint32)
        result = repro.sort(keys)
        assert result.keys.shape == (n,)
        assert result.keys.dtype == np.uint32
        assert result.values is None
        assert result.meta["plan"].strategy == "library"

    def test_sort_pairs(self, n):
        keys = np.arange(n, dtype=np.uint64)
        values = np.arange(n, dtype=np.uint64)
        result = repro.sort_pairs(keys, values)
        assert result.keys.shape == (n,)
        assert result.values.shape == (n,)
        assert result.values.dtype == np.uint64

    def test_sort_records(self, n):
        records = make_records(
            np.arange(n, dtype=np.uint32), np.arange(n, dtype=np.uint32)
        )
        result = repro.sort_records(records)
        assert result.meta["records"].shape == (n,)

    def test_adaptive(self, n):
        result = repro.AdaptiveSorter().sort(np.arange(n, dtype=np.uint32))
        assert result.keys.shape == (n,)
        assert result.meta["engine"] == "cub-fallback"

    def test_sort_with_budget(self, n):
        # A degenerate input always fits any budget: stays in memory.
        result = repro.sort(
            np.arange(n, dtype=np.uint32), memory_budget=1 << 20
        )
        assert result.keys.shape == (n,)
        assert result.meta["plan"].strategy == "library"

    def test_planner_path(self, n):
        desc = InputDescriptor(n=n, key_dtype=np.uint32)
        plan = Planner().plan(desc)
        assert plan.strategy == "library"
        assert [s.kind for s in plan.steps] == ["library-sort"]
        plan = Planner(native="never").plan(desc)
        assert plan.strategy == "hybrid"
        assert [s.kind for s in plan.steps] == ["local-sort"]
        assert plan.predicted_seconds >= 0.0


@pytest.mark.parametrize("n", [0, 1])
class TestFileFacade:
    def test_sort_file(self, tmp_path, n):
        layout = FileLayout(np.uint32)
        inp = tmp_path / "in.bin"
        outp = tmp_path / "out.bin"
        write_records(inp, np.arange(n, dtype=np.uint32))
        report = repro.sort(inp, output=outp, layout=layout)
        assert report.n_records == n
        assert report.plan.strategy == "external"
        assert read_records(outp, layout).shape == (n,)

    def test_external_sorter_direct(self, tmp_path, n):
        from repro.external import ExternalSorter

        layout = FileLayout(np.uint32, np.uint32)
        inp = tmp_path / "in.bin"
        outp = tmp_path / "out.bin"
        write_records(
            inp,
            layout.to_records(
                np.arange(n, dtype=np.uint32), np.arange(n, dtype=np.uint32)
            ),
        )
        report = ExternalSorter(memory_budget=4096).sort_file(
            inp, outp, layout
        )
        assert report.n_records == n
        assert report.plan is not None
        assert report.plan.run_plan.n_records == n


class TestSingleElementValues:
    def test_pair_value_survives(self):
        result = repro.sort_pairs(
            np.array([7], dtype=np.uint32), np.array([42], dtype=np.uint32)
        )
        assert result.keys.tolist() == [7]
        assert result.values.tolist() == [42]

    def test_empty_plan_explain_renders(self):
        plan = Planner().plan(InputDescriptor(n=0, key_dtype=np.uint32))
        text = plan.explain()
        assert "0" in text and "library" in text
