"""Shared fixtures for the test suite.

``small_config`` scales the Table 3 geometry down so that multi-pass
structure (counting passes, merging, local-sort ladder) is exercised on
inputs of a few thousand keys, keeping the suite fast while touching the
same code paths as paper-scale runs.

Two autouse guards hold for every test: ``no_leaks`` fails a test that
leaves an open file descriptor, a temp entry or a thread behind, and
``clean_faults`` guarantees no test leaves a process-global
:class:`~repro.resilience.faults.FaultPlan` installed (a leaked plan
would make unrelated tests fail mysteriously).
"""

from __future__ import annotations

import os
import tempfile
import threading

import numpy as np
import pytest

from repro.core.config import SortConfig
from repro.resilience import faults

_FD_DIR = "/proc/self/fd"

#: Temp-directory entries the package creates (spools, calibration and
#: chaos work dirs) and its atomic-write temp files.
_TEMP_PREFIXES = ("repro-", ".tmp-")

#: Threads named so belong to the shared pools ``parallel.get_context``
#: keeps warm for the life of the process, on purpose.
_SHARED_POOL_PREFIX = "repro-sort"

#: How long a new thread may take to finish exiting before it counts.
_THREAD_GRACE_SECONDS = 1.0


def _open_fds() -> dict[int, str]:
    """Open descriptors and their targets; empty where /proc is absent."""
    if not os.path.isdir(_FD_DIR):
        return {}
    fds = {}
    for name in os.listdir(_FD_DIR):
        try:
            fds[int(name)] = os.readlink(os.path.join(_FD_DIR, name))
        except OSError:  # the listing's own descriptor, closed since
            pass
    return fds


def _temp_entries() -> set[str]:
    return {
        name
        for name in os.listdir(tempfile.gettempdir())
        if name.startswith(_TEMP_PREFIXES)
    }


def _live_threads() -> set[threading.Thread]:
    return {
        thread
        for thread in threading.enumerate()
        if not (thread.daemon or thread.name.startswith(_SHARED_POOL_PREFIX))
    }


@pytest.fixture
def budget_for_chunks():
    """``budget(nbytes, n_chunks)``: a ``memory_budget`` the planner
    splits ``nbytes`` into ``n_chunks`` chunks under (three chunk-sized
    buffers, :func:`repro.hetero.chunking.plan_chunks`)."""

    def budget(nbytes: int, n_chunks: int) -> int:
        return 3 * -(-nbytes // n_chunks)

    return budget


@pytest.fixture(autouse=True)
def no_leaks():
    """Fail the test if it leaves a descriptor, temp entry or thread."""
    fds, temps, threads = _open_fds(), _temp_entries(), _live_threads()
    yield
    leaked_fds = {
        fd: target for fd, target in _open_fds().items() if fd not in fds
    }
    assert not leaked_fds, f"test leaked file descriptors: {leaked_fds}"
    leaked_temps = _temp_entries() - temps
    assert not leaked_temps, (
        f"test left entries in {tempfile.gettempdir()}: "
        f"{sorted(leaked_temps)}"
    )
    leaked_threads = []
    for thread in _live_threads() - threads:
        thread.join(_THREAD_GRACE_SECONDS)
        if thread.is_alive():
            leaked_threads.append(thread.name)
    assert not leaked_threads, (
        f"test leaked non-daemon threads: {sorted(leaked_threads)}"
    )


@pytest.fixture(autouse=True)
def clean_faults():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture(autouse=True)
def _no_host_profile(monkeypatch, tmp_path):
    """Pin the suite to the uncalibrated state.

    A developer's real ``~/.cache/repro-host-profile.json`` must never
    leak measured constants into the deterministic planning tests —
    every test sees a nonexistent profile path unless it sets one up
    itself (the calibration tests override this).
    """
    monkeypatch.setenv(
        "REPRO_HOST_PROFILE", str(tmp_path / "no-host-profile.json")
    )


@pytest.fixture
def tier(monkeypatch):
    """Switch the native tier on (the host's build) or off
    (``REPRO_NATIVE=0``), with a fresh probe each way."""
    from repro.native import build

    def use(native: bool) -> None:
        if native:
            monkeypatch.delenv("REPRO_NATIVE", raising=False)
        else:
            monkeypatch.setenv("REPRO_NATIVE", "0")
        build._reset_status_cache()

    yield use
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    build._reset_status_cache()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xD1CE)


@pytest.fixture
def small_config() -> SortConfig:
    """A miniature 32-bit configuration: ∂̂=128, ∂=40, KPB=96."""
    return SortConfig(
        key_bits=32,
        value_bits=0,
        kpb=96,
        threads=32,
        kpt=3,
        local_threshold=128,
        merge_threshold=40,
        local_sort_configs=(16, 32, 64, 128),
    )


@pytest.fixture
def small_pair_config() -> SortConfig:
    """Miniature 32/32 pair configuration."""
    return SortConfig(
        key_bits=32,
        value_bits=32,
        kpb=64,
        threads=32,
        kpt=2,
        local_threshold=96,
        merge_threshold=32,
        local_sort_configs=(16, 32, 64, 96),
    )
