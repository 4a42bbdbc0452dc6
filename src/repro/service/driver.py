"""The ``repro serve`` driver: a JSON-lines front-end for scripting.

One request per input line, one JSON response per completed request,
in completion order (correlate with ``id``).  Three request shapes:

inline data (the response echoes the sorted columns)::

    {"id": 1, "keys": [3, 1, 2], "dtype": "uint32"}
    {"id": 2, "keys": [5, 5, 1], "values": [0, 1, 2], "dtype": "uint32"}

generated workloads (the response carries a verification verdict and a
checksum instead of the data)::

    {"id": 3, "n": 100000, "dtype": "uint64", "distribution": "zipf",
     "seed": 7, "pairs": true}

file sorts (out-of-core; the response reports the run/merge phases)::

    {"id": 4, "input": "data.bin", "output": "sorted.bin",
     "dtype": "uint32", "memory_budget": "64M"}

Any shape may add ``memory_budget`` and ``deadline``; a key outside
:data:`REQUEST_KEYS` fails its line instead of being dropped.

At EOF the driver drains the service and emits one final
``{"event": "stats", ...}`` record with the aggregate
:class:`~repro.service.stats.ServiceStats`.  Everything is line-
buffered JSON, so ``repro serve`` composes with shell pipelines::

    printf '%s\\n' '{"id": 1, "keys": [3, 1, 2], "dtype": "uint32"}' \\
        | python -m repro serve
"""

from __future__ import annotations

import asyncio
import hashlib
import json

import numpy as np

from repro.errors import ConfigurationError
from repro.service.service import SortService
from repro.workloads import generate_pairs, typed_keys

__all__ = ["serve_stream", "request_kwargs"]

#: Every key a request record may carry; anything else is a typo or an
#: option this driver does not have, and is refused rather than dropped.
REQUEST_KEYS = frozenset({
    "id", "keys", "values", "dtype", "value_dtype", "input", "output",
    "pairs", "n", "seed", "distribution", "memory_budget", "deadline",
})


def _parse_size(value) -> int | None:
    """Accept raw ints or the CLI's K/M/G-suffixed strings."""
    if value is None or isinstance(value, int):
        return value
    from repro.cli import _parse_size as parse

    return parse(str(value))


def request_kwargs(record: dict, default_seed: int = 0) -> dict:
    """Translate one JSON request record into ``submit()`` kwargs.

    Returns ``{"data": ..., "values": ..., **submit_options}``; raises
    ``ValueError``/:class:`~repro.errors.ReproError` on malformed
    records (the driver reports those per line, it never dies) — among
    them :class:`~repro.errors.ConfigurationError` for any key outside
    :data:`REQUEST_KEYS`.
    """
    unknown = sorted(str(key) for key in record if key not in REQUEST_KEYS)
    if unknown:
        raise ConfigurationError(
            f"unknown request key(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(REQUEST_KEYS))}"
        )
    if "keys" in record:
        dtype = np.dtype(record.get("dtype", "uint32"))
        keys = np.asarray(record["keys"], dtype=dtype)
        values = None
        if record.get("values") is not None:
            values = np.asarray(
                record["values"],
                dtype=np.dtype(record.get("value_dtype", "uint32")),
            )
        source = {"data": keys, "values": values}
    elif "input" in record:
        if "output" not in record:
            raise ValueError("file requests need an output path")
        dtype = record.get("dtype", "uint32")
        source = {
            "data": record["input"],
            "output": record["output"],
            "dtype": dtype,
            # Pairs files default the payload to the key dtype — the
            # same rule as the sort-file CLI.  Never silently keys-only.
            "value_dtype": record.get("value_dtype", dtype)
            if record.get("pairs")
            else None,
        }
    elif "n" in record:
        dtype = np.dtype(record.get("dtype", "uint32"))
        rng = np.random.default_rng(record.get("seed", default_seed))
        keys = typed_keys(
            int(record["n"]), dtype, record.get("distribution", "uniform"), rng
        )
        values = None
        if record.get("pairs"):
            keys, values = generate_pairs(keys, dtype.itemsize * 8)
        source = {"data": keys, "values": values}
    else:
        raise ValueError(
            "request needs 'keys' (inline), 'n' (generated), or "
            "'input' (file)"
        )
    if record.get("memory_budget") is not None:
        source["memory_budget"] = _parse_size(record["memory_budget"])
    if record.get("deadline") is not None:
        # Seconds from submission; expired requests come back as typed
        # DeadlineExceededError responses instead of running late.
        source["deadline"] = float(record["deadline"])
    return source


def _checksum(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        if array is not None:
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


def _jsonable(array: np.ndarray) -> list:
    """A strictly-JSON echo of an array (bare NaN/Inf are not JSON).

    Non-finite floats become the strings ``"NaN"``/``"Infinity"``/
    ``"-Infinity"`` so every emitted line parses under strict JSON
    (jq, ``JSON.parse``), keeping the pipeline contract.
    """
    if array.dtype.kind == "f" and not np.isfinite(array).all():
        return [
            float(x) if np.isfinite(x) else ("NaN" if np.isnan(x) else (
                "Infinity" if x > 0 else "-Infinity"))
            for x in array
        ]
    return array.tolist()


def _response(record: dict, result, echo: bool) -> dict:
    """Build the JSON response for one completed request."""
    rid = record.get("id")
    if hasattr(result, "n_runs"):  # ExternalSortReport
        return {
            "id": rid,
            "ok": True,
            "kind": "file",
            "n": result.n_records,
            "runs": result.n_runs,
            "run_seconds": result.run_seconds,
            "merge_seconds": result.merge_seconds,
            "strategy": result.plan.strategy if result.plan else None,
        }
    keys = result.keys
    # Order is checked in bits space — the engines' total order — so
    # correctly sorted float output containing NaNs is not a failure.
    from repro.core.keys import to_sortable_bits

    bits = to_sortable_bits(keys)
    sorted_ok = bool(bits.size < 2 or np.all(bits[:-1] <= bits[1:]))
    out = {
        "id": rid,
        "ok": sorted_ok,
        "kind": "array",
        "n": int(keys.size),
        "checksum": _checksum(keys, result.values),
    }
    plan = result.meta.get("plan")
    if plan is not None:
        out["strategy"] = plan.strategy
    resilience = result.meta.get("resilience")
    if resilience is not None:
        out["degraded_to"] = resilience["executed"]
        out["retries"] = resilience["retries"]
    timing = result.meta.get("service")
    if timing is not None:
        out["queue_wait_ms"] = round(timing["queue_wait"] * 1e3, 3)
        out["plan_ms"] = round(timing["plan_seconds"] * 1e3, 3)
        out["execute_ms"] = round(timing["execute_seconds"] * 1e3, 3)
        out["batch_size"] = timing["batch_size"]
        out["cache_hit"] = timing["cache_hit"]
    if echo:
        out["keys"] = _jsonable(keys)
        if result.values is not None:
            out["values"] = _jsonable(result.values)
    return out


async def serve_stream(
    stream,
    write,
    *,
    seed: int = 0,
    echo_limit: int = 10_000,
    **service_kwargs,
) -> int:
    """Drive a :class:`SortService` from a line stream; returns exit code.

    ``stream`` is any object with a blocking ``readline`` (stdin, an
    open file); ``write`` receives one serialized JSON line per event.
    Requests are submitted as soon as their line parses — concurrent
    in-flight requests are what gives the scheduler bursts to batch —
    and responses stream out as they complete.
    """
    loop = asyncio.get_running_loop()
    failures = 0
    pending: set[asyncio.Task] = set()

    def emit(payload: dict) -> None:
        write(json.dumps(payload) + "\n")

    async with SortService(**service_kwargs) as service:

        async def run_one(record: dict) -> None:
            nonlocal failures
            try:
                kwargs = request_kwargs(record, default_seed=seed)
                inline = "keys" in record
                data = kwargs.pop("data")
                values = kwargs.pop("values", None)
                result = await service.submit(data, values, **kwargs)
                echo = inline and getattr(result, "n", 0) <= echo_limit
                response = _response(record, result, echo)
                failures += 0 if response["ok"] else 1
                emit(response)
            except Exception as exc:
                # Broad by design: one-response-per-request is the
                # driver's contract — whatever a malformed record or a
                # buggy payload raises (OverflowError from a value that
                # does not fit the dtype, for example) must become that
                # line's error response, never a swallowed task
                # exception with exit code 0.
                failures += 1
                payload = {
                    "id": record.get("id"),
                    "ok": False,
                    "error": str(exc),
                    "error_type": type(exc).__name__,
                }
                retry_after = getattr(exc, "retry_after", None)
                if retry_after is not None:
                    # Shed under overload: tell the caller when to come
                    # back instead of just turning them away.
                    payload["retry_after"] = retry_after
                emit(payload)

        line_no = 0
        while True:
            line = await loop.run_in_executor(None, stream.readline)
            if not line:
                break
            line_no += 1
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                failures += 1
                emit({"line": line_no, "ok": False, "error": f"bad JSON: {exc}"})
                continue
            task = asyncio.create_task(run_one(record))
            pending.add(task)
            task.add_done_callback(pending.discard)
        while pending:
            await asyncio.gather(*list(pending))
    emit({"event": "stats", **service.stats.to_dict()})
    return 1 if failures else 0
