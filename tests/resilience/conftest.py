"""Shared guard for the resilience suite.

``hang_guard`` arms a ``SIGALRM`` watchdog around every test, so a
containment bug that produces a real hang fails the test instead of
wedging the whole suite.  (``pytest-timeout`` is not a dependency; the
alarm is the zero-dependency equivalent on POSIX.)  The suite-wide
``clean_faults`` guard lives in ``tests/conftest.py``.
"""

from __future__ import annotations

import signal

import pytest

TEST_TIMEOUT_SECONDS = 120


@pytest.fixture(autouse=True)
def hang_guard():
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return

    def on_alarm(signum, frame):  # pragma: no cover - only fires on hang
        raise TimeoutError(
            f"test exceeded {TEST_TIMEOUT_SECONDS}s hang guard"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(TEST_TIMEOUT_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
