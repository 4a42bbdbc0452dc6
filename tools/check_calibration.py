#!/usr/bin/env python3
"""Calibration gate: a host profile must actually predict this host.

Run after ``repro calibrate`` on the *same* machine, with the profile
installed where the planner looks for it::

    PYTHONPATH=src python -m repro calibrate --quick \
        --output /tmp/host-profile.json
    REPRO_HOST_PROFILE=/tmp/host-profile.json PYTHONPATH=src \
        python tools/check_calibration.py --profile /tmp/host-profile.json

The gate times the production calls itself: ``repro.sort`` on uint32
keys and ``repro.sort_pairs`` on uint32 pairs, 2^21 records each,
one warm-up call and then the median of five.  Three checks, each of
which has failed silently at least once in the history of cost models
like this one:

1. **The profile loads and round-trips.**  ``load_host_profile`` must
   return a usable profile (not the forgiving ``None`` fallback), and a
   planner built on it must brand its plans ``cost_source:
   "host-profile"`` with the profile's own fingerprint.
2. **The calls used it.**  The plan each timed call executed must
   carry the profile's fingerprint — a gate comparing predictions a
   *different* calibration made proves nothing.
3. **Predictions are honest.**  For every call,
   ``plan.predicted_seconds / measured seconds`` must lie within
   ``[1/max_ratio, max_ratio]``.  The default 5× is deliberately loose:
   micro-probes extrapolate across sizes and CI machines are noisy —
   the gate exists to catch order-of-magnitude nonsense (the paper
   constants are ~300× off on NumPy hosts), not to certify precision.

Exit code 0 when every check passes; non-zero prints each failure.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

import repro
from repro.cost.hostprofile import load_host_profile
from repro.plan import InputDescriptor, Planner

#: Records per timed call.
N = 1 << 21

#: Timed calls per case, after one warm-up call.
REPEATS = 5


def check_profile_roundtrip(path: str, failures: list[str]):
    """Check 1: the profile loads and prices plans under its own name."""
    profile = load_host_profile(path)
    if profile is None:
        failures.append(f"profile at {path} did not load (missing/corrupt)")
        return None
    if not profile.fingerprint:
        failures.append(f"profile at {path} carries no fingerprint")
        return None
    planner = Planner(profile=profile)
    plan = planner.plan(InputDescriptor(n=1 << 22, key_dtype=np.uint32))
    if plan.cost_source != "host-profile":
        failures.append(
            f"planner with an explicit profile priced a plan as "
            f"{plan.cost_source!r}, not 'host-profile'"
        )
    if plan.profile_fingerprint != profile.fingerprint:
        failures.append(
            f"plan cites fingerprint {plan.profile_fingerprint!r} but the "
            f"profile is {profile.fingerprint!r}"
        )
    return profile


def check_fingerprint(name: str, plan, profile, failures: list[str]) -> None:
    """Check 2: the call's plan was priced by the checked profile."""
    if plan.profile_fingerprint == profile.fingerprint:
        return
    failures.append(
        f"{name}: plan priced by {plan.profile_fingerprint!r} "
        f"({plan.cost_source}), not the checked profile "
        f"{profile.fingerprint!r} — is REPRO_HOST_PROFILE set to it?"
    )


def check_ratio(name: str, predicted: float, measured: float,
                max_ratio: float, failures: list[str]) -> None:
    """Check 3: predicted/measured lies within ``max_ratio`` either way."""
    ratio = predicted / measured
    ok = 1.0 / max_ratio <= ratio <= max_ratio
    print(f"{name:10s} predicted/measured = {ratio:8.3f}  "
          f"({predicted * 1e3:.3f} / {measured * 1e3:.3f} ms) "
          f"{'ok' if ok else 'FAIL'}")
    if not ok:
        failures.append(
            f"{name}: prediction off by more than {max_ratio}x "
            f"(ratio {ratio:.3f})"
        )


def time_call(call):
    """One warm-up call, then the median seconds of ``REPEATS`` calls."""
    result = call()
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = call()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), result


def production_calls(n: int) -> dict:
    """The gated calls: name -> a zero-argument production call."""
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1 << 32, n, dtype=np.uint64).astype(np.uint32)
    values = rng.integers(0, 1 << 32, n, dtype=np.uint64).astype(np.uint32)
    return {
        "keys32": lambda: repro.sort(keys),
        "pairs32": lambda: repro.sort_pairs(keys, values),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", required=True,
                        help="host profile JSON written by `repro calibrate`")
    parser.add_argument("--max-ratio", type=float, default=5.0,
                        help="allowed predicted/measured factor, either way "
                        "(default 5)")
    args = parser.parse_args(argv)

    failures: list[str] = []
    profile = check_profile_roundtrip(args.profile, failures)
    calls = production_calls(N) if profile is not None else {}
    for name, call in calls.items():
        measured, result = time_call(call)
        plan = result.meta["plan"]
        check_fingerprint(name, plan, profile, failures)
        check_ratio(name, plan.predicted_seconds, measured,
                    args.max_ratio, failures)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"calibration gate: {len(calls)} call(s) within "
              f"{args.max_ratio}x of measured")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
