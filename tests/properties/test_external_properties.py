"""Property tests for the external sorter and its streaming merge.

Two families of properties:

* **merge-level** — :func:`repro.external.merge.merge_runs` over
  arbitrary sorted runs, block sizes down to one record, and
  duplicate-heavy keys must equal one bits-space stable sort of the
  runs concatenated in run order (equal keys in run order), regardless
  of where block boundaries fall inside runs of equal keys.
* **sorter-level** — the full spill-to-disk pipeline over arbitrary
  inputs and budgets must be byte-identical to one in-memory stable
  sort, i.e. run boundaries are invisible in the output.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.keys import SUPPORTED_DTYPES, to_sortable_bits
from repro.core.pairs import fused_packable
from repro.errors import TransientError
from repro.external import ExternalSorter, FileLayout, write_records, write_run
from repro.external.merge import merge_runs
from repro.external.runs import RunWriter
from repro.native import build
from repro.plan.planner import Planner, run_footprint
from repro.resilience.faults import FaultPlan, inject

# Keys drawn from a tiny alphabet force long runs of equal keys that
# straddle block boundaries — the hard case for a bounded-buffer merge.
tiny_keys = st.lists(st.integers(0, 7), min_size=0, max_size=80)
run_sets = st.lists(tiny_keys, min_size=1, max_size=6)


def _write_runs(tmpdir, layout, runs):
    paths = []
    for i, (keys, values) in enumerate(runs):
        path = os.path.join(tmpdir, f"run-{i:05d}.bin")
        write_run(path, layout.to_records(keys, values))
        paths.append(path)
    return paths


@settings(max_examples=50, deadline=None)
@given(runs=run_sets, block=st.integers(1, 17))
def test_streaming_merge_equals_in_memory_stable_merge(
    tmp_path_factory, runs, block
):
    """Any block size reproduces the bits-space stable sort."""
    tmpdir = str(tmp_path_factory.mktemp("merge"))
    layout = FileLayout(np.uint32, np.uint32)
    key_runs, value_runs, prepared = [], [], []
    offset = 0
    for r in runs:
        keys = np.sort(np.array(r, dtype=np.uint32))
        values = np.arange(offset, offset + keys.size, dtype=np.uint32)
        offset += keys.size
        key_runs.append(keys)
        value_runs.append(values)
        prepared.append((keys, values))
    paths = _write_runs(tmpdir, layout, prepared)
    out = os.path.join(tmpdir, "out.bin")
    written = merge_runs(paths, layout, out, block_records=block)
    # The bits-space stable reference: one stable argsort of the runs
    # concatenated in run order.
    all_keys = np.concatenate(key_runs)
    order = np.argsort(to_sortable_bits(all_keys), kind="stable")
    expected_k = all_keys[order]
    expected_v = np.concatenate(value_runs)[order]
    got = np.fromfile(out, dtype=layout.storage_dtype)
    assert written == got.size == expected_k.size
    assert np.array_equal(got["key"], expected_k)
    # Equal keys must preserve run order — the stability contract.
    assert np.array_equal(got["value"], expected_v)


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(st.integers(0, 30), min_size=1, max_size=400),
    budget_records=st.integers(6, 60),
)
def test_external_sort_equals_global_stable_sort(
    tmp_path_factory, keys, budget_records
):
    """Run boundaries are invisible: output = one global stable sort."""
    tmpdir = str(tmp_path_factory.mktemp("ext"))
    layout = FileLayout(np.uint32, np.uint32)
    keys = np.array(keys, dtype=np.uint32)
    values = np.arange(keys.size, dtype=np.uint32)
    inp = os.path.join(tmpdir, "in.bin")
    out = os.path.join(tmpdir, "out.bin")
    write_records(inp, layout.to_records(keys, values))
    sorter = ExternalSorter(memory_budget=budget_records * layout.record_bytes)
    sorter.sort_file(inp, out, layout)
    got = np.fromfile(out, dtype=layout.storage_dtype)
    order = np.argsort(keys, kind="stable")
    assert np.array_equal(got["key"], keys[order])
    assert np.array_equal(got["value"], values[order])


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(0, 300),
    budget_records=st.integers(6, 50),
)
def test_external_sort_floats_match_in_memory_engine(
    tmp_path_factory, n, budget_records
):
    """Float keys (negatives, zeros) match the in-memory hybrid sort.

    The oracle is the hybrid engine itself (bit-pattern total order:
    ``-0.0`` before ``+0.0``), compared byte-for-byte.
    """
    from repro.core.hybrid_sort import HybridRadixSorter

    tmpdir = str(tmp_path_factory.mktemp("extf"))
    rng = np.random.default_rng(n * 1000 + budget_records)
    keys = rng.standard_normal(n).astype(np.float32)
    if n > 2:
        keys[0], keys[1] = -0.0, 0.0
    layout = FileLayout(np.float32)
    inp = os.path.join(tmpdir, "in.bin")
    out = os.path.join(tmpdir, "out.bin")
    write_records(inp, keys)
    ExternalSorter(memory_budget=budget_records * 4).sort_file(
        inp, out, layout
    )
    with open(out, "rb") as fh:
        got = fh.read()
    assert got == HybridRadixSorter().sort(keys).keys.tobytes()


@pytest.mark.parametrize("block", [1, 2, 3, 1000])
def test_equal_run_straddles_many_blocks(tmp_path, block):
    """One key repeated across every block boundary stays in run order."""
    layout = FileLayout(np.uint32, np.uint32)
    runs = []
    offset = 0
    for size in (7, 11, 5):
        keys = np.full(size, 42, dtype=np.uint32)
        values = np.arange(offset, offset + size, dtype=np.uint32)
        offset += size
        runs.append((keys, values))
    paths = _write_runs(str(tmp_path), layout, runs)
    out = tmp_path / "out.bin"
    merge_runs(paths, layout, out, block_records=block)
    got = np.fromfile(out, dtype=layout.storage_dtype)
    assert np.array_equal(got["value"], np.arange(23, dtype=np.uint32))


# ----------------------------------------------------------------------
# Across tiers: which engine sorted the runs never shows in the bytes
# ----------------------------------------------------------------------
NATIVE_AVAILABLE = build.native_status(warn=False).available
needs_native = pytest.mark.skipif(
    not NATIVE_AVAILABLE, reason="native extension not built on this host"
)


def _file_input(tmpdir, key_dtype, value_dtype, seed=0):
    """Four runs' worth of records: (layout, input path, budget)."""
    layout = FileLayout(key_dtype, value_dtype)
    n = 4 * 256 + 17
    rng = np.random.default_rng(seed)
    kd = layout.key_dtype
    if kd.kind == "f":
        keys = rng.standard_normal(n).astype(kd)
        keys[:8] = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0]
        rng.shuffle(keys)
    else:
        info = np.iinfo(kd)
        # A narrow range, so equal keys straddle run boundaries.
        keys = rng.integers(info.min, info.min + 97, n).astype(kd)
    values = None
    if layout.is_pairs:
        values = rng.integers(0, 50, n).astype(layout.value_dtype)
    path = os.path.join(tmpdir, "in.bin")
    write_records(path, layout.to_records(keys, values))
    # Four runs of n / 4 under §5's three-buffer rule.  Tests that need
    # about four runs on a given engine size the budget by its
    # run_footprint instead.
    return layout, path, 4 * 256 * layout.record_bytes


def _sort_file(
    tmpdir, tag, layout, path, budget, pair_packing="auto", native="auto"
):
    out = os.path.join(tmpdir, f"out-{tag}.bin")
    report = repro.sort(
        path,
        output=out,
        layout=layout,
        memory_budget=budget,
        pair_packing=pair_packing,
        native=native,
    )
    with open(out, "rb") as fh:
        return fh.read(), report.plan.step("spill-runs").params["engine"]


def _reference(layout, path, pair_packing):
    """Bits-space reference: stable by key bits (then value bits, fused)."""
    records = np.fromfile(path, dtype=layout.storage_dtype)
    keys, values = layout.to_columns(records)
    bits = to_sortable_bits(keys)
    if values is not None and pair_packing == "fused":
        order = np.lexsort((values, bits))
    else:
        order = np.argsort(bits, kind="stable")
    return records[order].tobytes()


_TIER_CASES = [
    pytest.param(kd, None, "auto", id=f"{np.dtype(kd)}-keys")
    for kd in SUPPORTED_DTYPES
] + [
    pytest.param(
        kd, np.uint32, packing, id=f"{np.dtype(kd)}-pairs-{packing}"
    )
    for kd in SUPPORTED_DTYPES
    for packing in ("auto", "index", "fused", "off")
    if packing != "fused" or fused_packable(np.dtype(kd).itemsize * 8, 32)
]


@needs_native
@pytest.mark.parametrize("key_dtype, value_dtype, pair_packing", _TIER_CASES)
def test_file_sort_is_identical_on_both_tiers(
    tmp_path, tier, key_dtype, value_dtype, pair_packing
):
    tmpdir = str(tmp_path)
    layout, path, budget = _file_input(tmpdir, key_dtype, value_dtype)
    tier(True)
    native, engine = _sort_file(
        tmpdir, "native", layout, path, budget, pair_packing, "always"
    )
    assert engine == "native"
    tier(False)
    hybrid, engine = _sort_file(
        tmpdir, "hybrid", layout, path, budget, pair_packing, "never"
    )
    assert engine == "hybrid"
    assert native == hybrid == _reference(layout, path, pair_packing)


@pytest.mark.parametrize("key_dtype, value_dtype, pair_packing", _TIER_CASES)
def test_forced_native_runs_without_the_tier_sort_on_the_library(
    tmp_path, tier, key_dtype, value_dtype, pair_packing
):
    # native="always" plans native runs; without the tier each degrades
    # inline to the library rung, 8/16-bit keys included.
    tmpdir = str(tmp_path)
    layout, path, budget = _file_input(tmpdir, key_dtype, value_dtype)
    tier(False)
    got, engine = _sort_file(
        tmpdir, "forced", layout, path, budget, pair_packing, "always"
    )
    assert engine == "native"
    assert got == _reference(layout, path, pair_packing)


@pytest.fixture
def run_engines(monkeypatch):
    """The engine of every run sort, in order (a ``RunWriter`` spy)."""
    engines = []
    real = RunWriter.sort_records

    def spy(self, records):
        engines.append(self.engine)
        return real(self, records)

    monkeypatch.setattr(RunWriter, "sort_records", spy)
    return engines


@pytest.mark.parametrize("key_dtype, value_dtype, pair_packing", _TIER_CASES)
def test_library_rung_runs_exactly_where_it_serves(
    tmp_path, run_engines, key_dtype, value_dtype, pair_packing
):
    """``native="auto"`` plans and runs the library rung for every run
    layout under every packing — key files, 8/16-bit keys included, and
    pairs — except 64-bit-key pairs where the compiled tier is built,
    which run on it; the bytes are identical either way."""
    tmpdir = str(tmp_path)
    layout, path, budget = _file_input(tmpdir, key_dtype, value_dtype)
    got, engine = _sort_file(tmpdir, "auto", layout, path, budget, pair_packing)
    native = layout.is_pairs and layout.key_bits == 64 and NATIVE_AVAILABLE
    assert engine == ("native" if native else "library")
    assert set(run_engines) == {engine}
    assert got == _reference(layout, path, pair_packing)


@needs_native
@pytest.mark.parametrize(
    "spill_native", [True, False], ids=["native-first", "library-first"]
)
def test_resume_finishes_the_other_tiers_runs(tmp_path, tier, spill_native):
    # 64-bit-key pairs run on the compiled tier where it is built and on
    # the library rung where it is not, so the tier decides.
    tmpdir = str(tmp_path)
    layout, path, _ = _file_input(tmpdir, np.int64, np.uint32, seed=3)
    # At least four runs on either tier: the library rung's footprint
    # is the smaller, so its runs are the longer.
    budget = (layout.records_in(path) // 4 + 1) * run_footprint(
        layout, "library"
    )
    out = os.path.join(tmpdir, "out.bin")
    spool = os.path.join(tmpdir, "spool")
    sorter = ExternalSorter(
        memory_budget=budget, spool_dir=spool, retry_policy=None
    )
    tier(spill_native)
    with inject(FaultPlan.single("external.merge_read")):
        with pytest.raises(TransientError):
            sorter.sort_file(path, out, layout)
    runs = sorted(n for n in os.listdir(spool) if n.startswith("run-"))
    assert len(runs) > 2
    for name in runs[::2]:  # the other tier re-produces every other run
        os.unlink(os.path.join(spool, name))
    tier(not spill_native)
    report = sorter.resume(path, out, layout)
    assert 0 < report.reused_runs < report.n_runs
    with open(out, "rb") as fh:
        assert fh.read() == _reference(layout, path, "auto")


@pytest.mark.parametrize(
    "spill_library", [True, False], ids=["library-first", "native-first"]
)
def test_resume_finishes_the_other_rungs_runs(
    tmp_path, monkeypatch, run_engines, spill_library
):
    """Runs one rung spilled and runs the other re-produces merge into
    the same bytes.  Routing the runs off the library rung for one
    phase stands in for a host whose planner routed differently."""
    on_rung = [spill_library]
    route = Planner.run_engine
    monkeypatch.setattr(
        Planner,
        "run_engine",
        lambda self, desc: route(self, desc) if on_rung[0] else (
            off_rung, "routed off the library rung"
        ),
    )
    off_rung = "native" if NATIVE_AVAILABLE else "hybrid"
    first, second = (
        ("library", off_rung) if spill_library else (off_rung, "library")
    )
    tmpdir = str(tmp_path)
    layout, path, _ = _file_input(tmpdir, np.uint32, np.uint32, seed=4)
    # About four runs, whichever rung spills first: the library rung
    # sorts these pairs in place, so its runs are cut by a smaller
    # footprint than the radix engines'.
    budget = (layout.records_in(path) // 4 + 1) * run_footprint(layout, first)
    out = os.path.join(tmpdir, "out.bin")
    spool = os.path.join(tmpdir, "spool")
    sorter = ExternalSorter(
        memory_budget=budget, spool_dir=spool, retry_policy=None
    )
    with inject(FaultPlan.single("external.merge_read")):
        with pytest.raises(TransientError):
            sorter.sort_file(path, out, layout)
    assert set(run_engines) == {first}
    runs = sorted(n for n in os.listdir(spool) if n.startswith("run-"))
    assert len(runs) > 2
    for name in runs[::2]:  # the other rung re-produces every other run
        os.unlink(os.path.join(spool, name))
    run_engines.clear()
    on_rung[0] = not spill_library
    report = sorter.resume(path, out, layout)
    assert set(run_engines) == {second}
    assert 0 < report.reused_runs < report.n_runs
    with open(out, "rb") as fh:
        assert fh.read() == _reference(layout, path, "auto")


@pytest.mark.parametrize(
    "key_dtype, value_dtype",
    [(np.uint16, None), (np.uint8, None), (np.uint16, np.uint32)],
    ids=["uint16-keys", "uint8-keys", "uint16-pairs"],
)
def test_resume_keeps_narrow_key_runs_on_the_library(
    tmp_path, run_engines, key_dtype, value_dtype
):
    """A resumed file sort re-sorts a file's 8/16-bit-key runs on the
    library rung that cut them, as its first attempt did: the radix
    engines' sorts of those runs would outgrow the budget they were
    cut by."""
    tmpdir = str(tmp_path)
    layout, path, _ = _file_input(tmpdir, key_dtype, value_dtype, seed=6)
    footprint = run_footprint(layout, "library")
    budget = (layout.records_in(path) // 4 + 1) * footprint
    out = os.path.join(tmpdir, "out.bin")
    spool = os.path.join(tmpdir, "spool")
    sorter = ExternalSorter(
        memory_budget=budget, spool_dir=spool, retry_policy=None
    )
    with inject(FaultPlan.single("external.merge_read")):
        with pytest.raises(TransientError):
            sorter.sort_file(path, out, layout)
    assert set(run_engines) == {"library"}
    runs = sorted(n for n in os.listdir(spool) if n.startswith("run-"))
    assert len(runs) > 2
    for name in runs[::2]:
        os.unlink(os.path.join(spool, name))
    run_engines.clear()
    report = sorter.resume(path, out, layout)
    assert set(run_engines) == {"library"}
    assert 0 < report.reused_runs < report.n_runs
    with open(out, "rb") as fh:
        assert fh.read() == _reference(layout, path, "auto")


def test_small_runs_of_wide_pairs_sort_on_the_tiers_rung(tmp_path):
    # 64-bit-key pairs: the tier decides, whatever the run size (runs
    # of a few dozen records here).
    layout = FileLayout(np.uint64, np.uint32)
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 1 << 40, 2_000).astype(np.uint64)
    values = np.arange(keys.size, dtype=np.uint32)
    path = str(tmp_path / "in.bin")
    write_records(path, layout.to_records(keys, values))
    budget = layout.record_bytes * 256
    got, engine = _sort_file(str(tmp_path), "small", layout, path, budget)
    assert engine == ("native" if NATIVE_AVAILABLE else "library")
    assert got == _reference(layout, path, "auto")


@needs_native
def test_native_file_sort_builds_no_simulator(tmp_path, tier, monkeypatch):
    from repro.cost.model import CostModel
    from repro.gpu.device import SimulatedGPU

    def forbidden(*args, **kwargs):
        raise AssertionError("the simulator ran during a native file sort")

    monkeypatch.setattr(SimulatedGPU, "__init__", forbidden)
    monkeypatch.setattr(CostModel, "price_hybrid", forbidden)
    tmpdir = str(tmp_path)
    layout, path, _ = _file_input(tmpdir, np.int64, np.uint32, seed=9)
    budget = (layout.records_in(path) // 4 + 1) * run_footprint(
        layout, "native"
    )
    tier(True)
    got, engine = _sort_file(tmpdir, "native", layout, path, budget)
    assert engine == "native"
    assert got == _reference(layout, path, "auto")
