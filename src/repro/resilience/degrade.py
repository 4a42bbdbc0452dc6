"""Graceful engine degradation: fall down a ladder, never fall over.

A planned engine raising mid-flight should cost the caller *speed*,
not *the answer*.  :func:`resilient_execute` wraps the executor
registry with a declared **engine ladder** — by default

    hybrid  →  fallback (LSD)  →  oracle (NumPy stable sort)

— and walks a failing plan down it.  Every rung is a registered
executor producing bit-identical output for in-memory inputs (each
layer's oracle property tests pin that), so degradation is invisible
in the bytes; it is visible, deliberately, in
``result.meta["resilience"]``:

    {"requested": "hybrid", "executed": "oracle",
     "retries": 1,
     "downgrades": [{"engine": "hybrid", "error": "TransientError: ..."},
                    {"engine": "fallback", "error": "..."}]}

Per-rung, a :class:`~repro.resilience.policy.RetryPolicy` may retry
transient failures before the rung is abandoned — "retry the fast
engine, then degrade" composes both recovery modes.  Errors that would
deterministically recur on every rung (:data:`NON_DEGRADABLE`:
configuration mistakes, unsupported dtypes, expired deadlines) are
re-raised immediately — degrading cannot fix a caller bug, it would
only bury it.  ``external`` plans have a one-rung ladder: their
recovery story is crash-safe spills and
:meth:`~repro.external.ExternalSorter.resume`, not a different engine.

When the whole ladder fails, the caller gets one
:class:`~repro.errors.EngineFailedError` carrying the per-rung trail,
with the final underlying exception as ``__cause__``.
"""

from __future__ import annotations

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    EngineFailedError,
    UnsupportedDtypeError,
)
from repro.resilience import faults
from repro.resilience.policy import Deadline, RetryPolicy

__all__ = [
    "DEFAULT_LADDER",
    "NON_DEGRADABLE",
    "fallback_chain",
    "resilient_execute",
]

#: The declared degradation order for in-memory work: the paper's
#: hybrid engine, then the LSD fallback (the §6.1 small-input engine),
#: then the pure-NumPy stable-sort oracle that can always answer.
DEFAULT_LADDER = ("hybrid", "fallback", "oracle")

#: Failures no ladder rung can fix: deterministic caller errors and
#: expired deadlines re-raise immediately instead of degrading.
NON_DEGRADABLE = (
    ConfigurationError,
    UnsupportedDtypeError,
    DeadlineExceededError,
)


def fallback_chain(
    strategy: str, ladder: tuple[str, ...] = DEFAULT_LADDER
) -> tuple[str, ...]:
    """The rungs to try, in order, for a plan of ``strategy``.

    The planned strategy always runs first; in-memory strategies then
    append the declared ladder (minus rungs already tried) — a
    ``"native"`` (or ``"library"``) plan therefore walks native →
    hybrid → fallback → oracle without the ladder itself naming the
    compiled tier (a *hybrid* plan must never escalate upward to it).
    ``external`` plans never change engine — a file sort's fallback is
    resume-from-manifest, not a different executor.
    """
    if strategy == "external":
        return (strategy,)
    chain = [strategy]
    for rung in ladder:
        if rung not in chain:
            chain.append(rung)
    return tuple(chain)


def resilient_execute(
    plan,
    *,
    registry=None,
    ladder: tuple[str, ...] = DEFAULT_LADDER,
    retry_policy: RetryPolicy | None = None,
    deadline: Deadline | None = None,
    report: dict | None = None,
    **io,
):
    """Execute ``plan`` with per-rung retries and ladder degradation.

    Parameters
    ----------
    plan / io:
        As :func:`repro.plan.executors.execute_plan`.
    registry:
        Executor registry (default registry when omitted).  Rungs the
        registry does not know are skipped — except the planned
        strategy itself, whose absence is a configuration error.
    ladder:
        Degradation order (see :func:`fallback_chain`).
    retry_policy:
        Applied *within* each rung to retryable failures; ``None``
        means one attempt per rung.
    deadline:
        Checked before each rung and between retries; expiry raises
        :class:`~repro.errors.DeadlineExceededError`.
    report:
        Mutable dict the call fills with ``retries`` (int) and
        ``downgrades`` (list) — how the service harvests counters from
        an execution that ran on a worker thread.  The same facts land
        in ``result.meta["resilience"]`` whenever a downgrade (or
        retry) happened.
    """
    from repro.plan.executors import DEFAULT_REGISTRY

    reg = registry or DEFAULT_REGISTRY
    chain = fallback_chain(plan.strategy, ladder)
    downgrades: list[dict] = []
    retries = 0
    if report is None:
        report = {}
    report["retries"] = 0
    report["downgrades"] = downgrades
    last: BaseException | None = None

    def count_retry(attempt, exc) -> None:
        nonlocal retries
        retries += 1
        report["retries"] = retries

    for rung in chain:
        if deadline is not None:
            deadline.check(f"engine dispatch ({rung})")
        try:
            executor = reg.executor_for(rung)
        except ConfigurationError:
            if rung == chain[0]:
                raise  # the *planned* engine must exist
            continue  # an optional rung this registry does not offer

        def attempt(executor=executor, rung=rung):
            faults.trip(f"engine.{rung}")
            return executor(plan, **io)

        try:
            if retry_policy is not None:
                result = retry_policy.call(
                    attempt, deadline=deadline, on_retry=count_retry
                )
            else:
                result = attempt()
        except NON_DEGRADABLE:
            raise
        except Exception as exc:  # noqa: BLE001 - every other failure degrades
            downgrades.append(
                {"engine": rung, "error": f"{type(exc).__name__}: {exc}"}
            )
            last = exc
            continue
        meta = getattr(result, "meta", None)
        if meta is not None and (downgrades or retries):
            meta["resilience"] = {
                "requested": plan.strategy,
                "executed": rung,
                "retries": retries,
                "downgrades": list(downgrades),
            }
        return result

    if len(chain) == 1 and last is not None:
        # A one-rung chain (external) had nothing to degrade to; the
        # original error is more actionable than a wrapper.
        raise last
    raise EngineFailedError(
        f"every engine rung failed for strategy {plan.strategy!r}: "
        + "; ".join(f"{d['engine']}: {d['error']}" for d in downgrades)
    ) from last
