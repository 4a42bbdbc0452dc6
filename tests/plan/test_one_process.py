"""Sorts run on the caller's thread, in the caller's process.

A sort runs on the thread that calls it: the caller's own, or one of
a :class:`~repro.service.SortService`'s executor threads.  An
in-memory sort starts no thread on any route; a file sort starts one,
its spool thread, and produces every run on the caller's.  No entry
point takes a ``shards=`` or ``workers=`` keyword, and no CLI verb or
flag starts worker processes or threads.  Passing either keyword fails
with Python's own ``TypeError`` rather than being ignored.
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core import hybrid_sort
from repro.core.config import SortConfig
from repro.core.pairs import make_records
from repro.external import (
    ExternalSorter,
    FileLayout,
    read_records,
    write_records,
)
from repro.external.runs import RunWriter
from repro.plan import InputDescriptor, executors
from repro.service import SortService

KEYS = np.arange(64, dtype=np.uint32)[::-1].copy()


def _submit(**kwargs):
    async def go():
        async with SortService() as service:
            return await service.submit(KEYS, **kwargs)

    return asyncio.run(go())


ENTRY_POINTS = {
    "sort": lambda **kw: repro.sort(KEYS, **kw),
    "sort_pairs": lambda **kw: repro.sort_pairs(KEYS, KEYS, **kw),
    "sort_records": lambda **kw: repro.sort_records(
        make_records(KEYS, KEYS), **kw
    ),
    "plan_for": lambda **kw: repro.plan_for(KEYS, **kw),
    "descriptor": lambda **kw: InputDescriptor(
        n=KEYS.size, key_dtype=KEYS.dtype, **kw
    ),
    "sort_config": lambda **kw: SortConfig(**kw),
    "external_sorter": lambda **kw: ExternalSorter(**kw),
    "service_submit": _submit,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_shards_keyword_is_a_type_error(entry):
    call = ENTRY_POINTS[entry]
    call()  # the entry point itself works
    with pytest.raises(TypeError, match="shards"):
        call(shards=2)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_workers_keyword_is_a_type_error(entry):
    with pytest.raises(TypeError, match="workers"):
        ENTRY_POINTS[entry](workers=2)


@pytest.mark.parametrize(
    "argv",
    [["serve", "--shards", "2"], ["bench-shard", "--quick"]],
    ids=["serve-flag", "bench-verb"],
)
def test_cli_has_no_process_fan_out(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "shard" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sort", "--n", "64"],
        ["plan", "--n", "64"],
        ["sort-file", "--input", "in.bin", "--output", "out.bin"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_has_no_workers_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_serve_refuses_a_workers_key_and_goes_on(tmp_path, capsys):
    requests = tmp_path / "requests.jsonl"
    requests.write_text(
        json.dumps({"id": 1, "keys": [3, 1, 2], "workers": 2}) + "\n"
        + json.dumps({"id": 2, "keys": [3, 1, 2]}) + "\n"
    )
    code = main(["serve", "--input", str(requests)])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    by_id = {line["id"]: line for line in lines if "id" in line}
    assert code == 1
    assert not by_id[1]["ok"]
    assert by_id[1]["error_type"] == "ConfigurationError"
    assert "unknown request key(s): workers" in by_id[1]["error"]
    assert by_id[2]["ok"] and by_id[2]["keys"] == [1, 2, 3]


_RNG = np.random.default_rng(29)
K32 = _RNG.integers(0, 2**32, 20_000, dtype=np.uint64).astype(np.uint32)
K64 = _RNG.integers(-(2**62), 2**62, 20_000, dtype=np.int64)
V32 = np.arange(20_000, dtype=np.uint32)

#: One call per in-memory route: (keys, values, the sort's result).
ROUTES = {
    "library-keys": lambda: (K32, None, repro.sort(K32)),
    "library-pairs": lambda: (K32, V32, repro.sort_pairs(K32, V32)),
    "library-records": lambda: (
        K32, V32, repro.sort_records(make_records(K32, V32))
    ),
    # The compiled tier where it is built, the library rung elsewhere.
    "int64-pairs": lambda: (K64, V32, repro.sort_pairs(K64, V32)),
    "hybrid-keys": lambda: (K32, None, repro.sort(K32, native="never")),
    "hybrid-pairs": lambda: (
        K64, V32, repro.sort_pairs(K64, V32, native="never")
    ),
    "hetero": lambda: (
        K64,
        None,
        repro.sort(K64, memory_budget=K64.nbytes // 4, native="never"),
    ),
}


@pytest.fixture
def started(monkeypatch):
    """Names of the threads started while the test runs, in order."""
    names = []
    start = threading.Thread.start

    def spy(self):
        names.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return names


def _record_threads(monkeypatch, owner, name):
    """Wrap ``owner.name`` to log the thread of every call; returns
    the log."""
    real, threads = getattr(owner, name), []

    def spy(*args, **kwargs):
        threads.append(threading.current_thread())
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return threads


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_an_in_memory_sort_runs_on_the_callers_thread(
    route, started, monkeypatch
):
    sorted_on = _record_threads(monkeypatch, executors, "sort_in_memory")
    keys, values, result = ROUTES[route]()
    assert sorted_on and set(sorted_on) == {threading.current_thread()}
    assert started == []
    order = np.argsort(keys, kind="stable")
    assert np.array_equal(result.keys, keys[order])
    if values is not None:
        assert np.array_equal(result.values, values[order])


@pytest.mark.parametrize("values", [None, V32], ids=["keys", "pairs"])
def test_every_hybrid_pass_runs_on_the_callers_thread(
    values, started, monkeypatch
):
    passes = _record_threads(monkeypatch, hybrid_sort, "counting_sort_pass")
    local_sorts = _record_threads(
        monkeypatch, hybrid_sort.LocalSortEngine, "execute"
    )
    result = hybrid_sort.HybridRadixSorter().sort(K32, values)
    caller = threading.current_thread()
    assert passes and set(passes) == {caller}
    assert local_sorts and set(local_sorts) == {caller}
    assert started == []
    order = np.argsort(K32, kind="stable")
    assert np.array_equal(result.keys, K32[order])
    if values is not None:
        assert np.array_equal(result.values, values[order])


@pytest.mark.parametrize(
    "layout",
    [FileLayout(np.uint32), FileLayout(np.int64, np.uint32)],
    ids=["keys32", "pairs-i64"],
)
def test_a_file_sort_starts_only_its_spool_thread(
    layout, started, monkeypatch, tmp_path
):
    keys = K32 if layout.key_dtype == np.uint32 else K64
    values = V32 if layout.is_pairs else None
    inp, out = tmp_path / "in.bin", tmp_path / "out.bin"
    write_records(inp, layout.to_records(keys, values))
    produced_on = _record_threads(monkeypatch, RunWriter, "sort_records")
    report = ExternalSorter(
        memory_budget=keys.size * layout.record_bytes // 4
    ).sort_file(inp, out, layout)
    assert report.n_runs > 1
    assert produced_on == [threading.current_thread()] * report.n_runs
    assert started == ["repro-spool"]
    got = read_records(out, layout)
    order = np.argsort(keys, kind="stable")
    if values is None:
        assert np.array_equal(got, keys[order])
    else:
        assert np.array_equal(got["key"], keys[order])
        assert np.array_equal(got["value"], values[order])


def test_a_service_sort_runs_on_its_executor_thread(started, monkeypatch):
    sorted_on = _record_threads(monkeypatch, executors, "sort_in_memory")

    async def go():
        async with SortService(executor_threads=1) as service:
            return await asyncio.gather(
                service.submit(K32), service.submit(K64, V32)
            )

    keys_only, pairs = asyncio.run(go())
    assert len(started) == 1 and started[0].startswith("repro-service")
    assert sorted_on and {t.name for t in sorted_on} == set(started)
    assert np.array_equal(keys_only.keys, np.sort(K32))
    order = np.argsort(K64, kind="stable")
    assert np.array_equal(pairs.keys, K64[order])
    assert np.array_equal(pairs.values, V32[order])
