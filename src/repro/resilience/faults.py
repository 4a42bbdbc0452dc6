"""Deterministic fault injection at named sites.

A production sorter is mostly made of things that can fail — reads,
writes, fsyncs, engine dispatches, the service's pool threads — and
the only way to *test* how the stack contains those failures is to
make them happen on demand.  This module is that switchboard:

* every failure-prone operation in the codebase calls
  :func:`trip` (or :func:`faulted_write`) with a **site name** from
  :data:`SITES` before performing the real work;
* a test (or the ``repro chaos`` CLI) builds a :class:`FaultPlan` —
  "at site X, on hit N, fail like Y" — and activates it with
  :func:`inject`;
* with no plan active, :func:`trip` is a single ``is None`` check, so
  the production hot paths pay nothing.

Faults are **deterministic**: a :class:`FaultSpec` fires by hit count
(``after``/``times``), never by randomness or wall clock, so a failing
chaos schedule replays exactly.  Five kinds cover the failure taxonomy
the resilience layer must contain:

========== ==========================================================
kind       effect at the site
========== ==========================================================
error      raise (:class:`~repro.errors.TransientError` by default, or
           any factory-supplied exception)
enospc     raise ``OSError(ENOSPC)`` — disk full
partial    write only half the payload, then raise ``OSError(EIO)``
           (a torn write; only write sites enact this, via
           :func:`faulted_write`)
slow       sleep ``delay`` seconds, then proceed normally
hang       block (up to ``delay`` seconds) until the plan's
           :meth:`~FaultPlan.release_hangs` — a wedged thread
========== ==========================================================

The active plan is process-global (not thread-local) on purpose: the
service executes on a thread pool and a file sort commits its runs on
a spool thread, and a fault plan must reach those threads.
"""

from __future__ import annotations

import errno
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, TransientError

__all__ = [
    "FAULT_KINDS",
    "SITES",
    "FaultSpec",
    "FaultPlan",
    "install",
    "uninstall",
    "inject",
    "active_plan",
    "trip",
    "faulted_write",
]

FAULT_KINDS = ("error", "enospc", "partial", "slow", "hang")

#: Every named fault site in the codebase.  The chaos CLI iterates this
#: table, the docs render it, and :class:`FaultPlan` validates spec
#: sites against it so a typo cannot silently inject nothing.
SITES: dict[str, str] = {
    "external.slice_read": (
        "run production: reading one input slice into RAM"
    ),
    "external.slice_sort": (
        "run production: the in-RAM sort of one slice"
    ),
    "external.run_write": (
        "run production: spilling one sorted run (atomic temp-file "
        "write; supports partial/enospc)"
    ),
    "external.run_sync": (
        "run production: one run's commit on the spool thread, just "
        "before its fsync (the run is re-produced on resume)"
    ),
    "external.manifest_write": (
        "run production: persisting the spill manifest"
    ),
    "external.merge_read": (
        "merge: refilling one run cursor's block from disk"
    ),
    "external.merge_write": (
        "merge: appending merged records to the output file "
        "(supports partial/enospc)"
    ),
    "service.plan": "service: planning one request's strategy",
    "service.execute": (
        "service: an engine dispatch on the thread pool "
        "(supports slow/hang for watchdog testing)"
    ),
    "engine.hybrid": "executor registry: the simulated hybrid MSD engine rung",
    "engine.fallback": (
        "executor registry: the simulated LSD fallback rung "
        "(adaptive plans of small inputs)"
    ),
    "engine.hetero": "executor registry: the chunked §5 pipeline rung",
    "engine.external": "executor registry: the out-of-core engine rung",
    "engine.oracle": (
        "executor registry: the NumPy stable-sort oracle rung "
        "(the ladder's one rung)"
    ),
    "engine.native": (
        "executor registry: the compiled counting-scatter rung "
        "(degrades to the oracle whether or not the extension exists)"
    ),
    "engine.library": (
        "executor registry: the np.sort library rung (every layout "
        "but 64-bit-key pairs where the kernel is built; degrades to "
        "the oracle)"
    ),
}


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: *at this site, on these hits, fail so*.

    Parameters
    ----------
    site:
        A key of :data:`SITES`.
    kind:
        One of :data:`FAULT_KINDS` (see the module table).
    after:
        Zero-based hit index the fault starts firing at (``after=2``
        lets the first two hits through — "the third run write fails").
    times:
        How many firings before the fault burns out (``-1`` = every
        eligible hit forever).  A burned-out fault lets hits through,
        which is what makes "fails once, then the retry succeeds"
        schedules expressible.
    delay:
        Seconds for ``slow``; the *maximum* block for ``hang`` (a
        bounded hang keeps an un-released test from deadlocking
        forever — the watchdog under test must fire well before it).
    message:
        Overrides the default exception message.
    exc_factory:
        For ``kind="error"``: zero-argument callable returning the
        exception to raise (default builds a
        :class:`~repro.errors.TransientError`).
    """

    site: str
    kind: str = "error"
    after: int = 0
    times: int = 1
    delay: float = 30.0
    message: str | None = None
    exc_factory: object = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; known sites: "
                + ", ".join(sorted(SITES))
            )
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; choose from "
                + ", ".join(FAULT_KINDS)
            )
        if self.after < 0:
            raise ConfigurationError("after must be >= 0")
        if self.delay < 0:
            raise ConfigurationError("delay must be >= 0")

    def build_error(self) -> BaseException:
        text = self.message or f"injected {self.kind} at {self.site}"
        if self.exc_factory is not None:
            return self.exc_factory()
        if self.kind == "enospc":
            return OSError(errno.ENOSPC, f"{text} (no space left on device)")
        if self.kind == "partial":
            return OSError(errno.EIO, text)
        return TransientError(text)


@dataclass
class _Armed:
    """Mutable firing state for one spec inside a plan."""

    spec: FaultSpec
    fired: int = 0

    def eligible(self, hit: int) -> bool:
        if hit < self.spec.after:
            return False
        return self.spec.times < 0 or self.fired < self.spec.times


@dataclass
class FaultPlan:
    """A deterministic schedule of faults across sites.

    Thread-safe: hit counting and firing decisions happen under one
    lock, so a plan driving parallel run production or the service
    thread pool fires each spec exactly ``times`` times no matter how
    hits interleave.  ``fired`` is the audit log — ``(site, kind,
    hit_index)`` tuples in firing order — which chaos tests assert on
    to prove the schedule actually executed.
    """

    specs: list[FaultSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._armed = [_Armed(s) for s in self.specs]
        self._hits: dict[str, int] = {}
        self._lock = threading.Lock()
        self._release = threading.Event()
        self.fired: list[tuple[str, str, int]] = []

    # -- construction ---------------------------------------------------
    @classmethod
    def single(cls, site: str, kind: str = "error", **kwargs) -> "FaultPlan":
        """A plan with exactly one fault — the chaos suite's unit."""
        return cls([FaultSpec(site=site, kind=kind, **kwargs)])

    # -- introspection --------------------------------------------------
    def hits(self, site: str) -> int:
        with self._lock:
            return self._hits.get(site, 0)

    def fire_count(self, site: str | None = None) -> int:
        with self._lock:
            if site is None:
                return len(self.fired)
            return sum(1 for s, _, _ in self.fired if s == site)

    # -- firing ---------------------------------------------------------
    def on_trip(self, site: str) -> FaultSpec | None:
        """Count one hit; return the spec that fires, if any."""
        with self._lock:
            hit = self._hits.get(site, 0)
            self._hits[site] = hit + 1
            for armed in self._armed:
                if armed.spec.site == site and armed.eligible(hit):
                    armed.fired += 1
                    self.fired.append((site, armed.spec.kind, hit))
                    return armed.spec
        return None

    def wait_release(self, timeout: float) -> None:
        self._release.wait(timeout)

    def release_hangs(self) -> None:
        """Unblock every ``hang`` fault (test teardown calls this)."""
        self._release.set()


_ACTIVE: FaultPlan | None = None
_ACTIVE_LOCK = threading.Lock()


def install(plan: FaultPlan) -> FaultPlan:
    """Activate ``plan`` process-wide (replacing any previous plan)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous, _ACTIVE = _ACTIVE, plan
    if previous is not None:
        previous.release_hangs()
    return plan


def uninstall() -> None:
    """Deactivate fault injection and release any hanging sites."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        plan, _ACTIVE = _ACTIVE, None
    if plan is not None:
        plan.release_hangs()


def active_plan() -> FaultPlan | None:
    return _ACTIVE


@contextmanager
def inject(plan_or_specs):
    """``with inject(plan): ...`` — scoped activation, always cleaned up."""
    plan = (
        plan_or_specs
        if isinstance(plan_or_specs, FaultPlan)
        else FaultPlan(list(plan_or_specs))
    )
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


def trip(site: str, *, writes: bool = False) -> FaultSpec | None:
    """The one call every fault site makes before its real operation.

    No active plan: returns ``None`` immediately (the production fast
    path).  Otherwise the plan decides; ``error``/``enospc`` raise
    here, ``slow``/``hang`` block here then return the spec, and
    ``partial`` returns the spec for a write site (``writes=True``) to
    enact — a non-write site receiving ``partial`` raises it as a
    plain I/O error, so a mis-targeted spec is loud, never silent.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    spec = plan.on_trip(site)
    if spec is None:
        return None
    if spec.kind in ("error", "enospc"):
        raise spec.build_error()
    if spec.kind == "slow":
        time.sleep(spec.delay)
        return spec
    if spec.kind == "hang":
        plan.wait_release(spec.delay)
        return spec
    if not writes:  # "partial" at a site that cannot tear a write
        raise spec.build_error()
    return spec  # "partial": enacted by the write caller


def faulted_write(site: str, fh, payload) -> None:
    """Write ``payload`` to ``fh``, honouring faults at ``site``.

    The ``partial`` kind writes the first half of the payload, flushes
    it (so the torn bytes really reach the file), and raises ``EIO`` —
    exactly the state a crashed writer leaves behind.
    """
    spec = trip(site, writes=True)
    data = (
        payload
        if isinstance(payload, (bytes, memoryview))
        else memoryview(payload)
    )
    if spec is not None and spec.kind == "partial":
        fh.write(data[: len(data) // 2])
        fh.flush()
        raise spec.build_error()
    fh.write(data)
