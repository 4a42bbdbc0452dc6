"""Outside-in layer tracing for the benchmark's traced runs.

A :class:`Tracer` wraps the public functions of each layer of the
program — resolved by dotted name when the traced run starts — with a
recorder that keeps one :class:`Span` per call in memory: its name,
start, end, parent span and operation id.  Nothing under ``src/``
changes; the wrappers are installed only for a traced run and removed
afterwards, and an untraced run never constructs a tracer at all.

Each function is patched where its callers look it up.  A name that a
module imported from elsewhere (``from repro.core.keys import
to_sortable_bits``) is patched in the importing module's namespace
too, which is why one layer lists several targets.  A target that no
longer exists is recorded as absent and skipped; it never raises.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import time

import numpy as np

_BIJECTION_HOMES = (
    "repro.core.keys",
    "repro.core.hybrid_sort",
    "repro.native.engine",
    "repro.service.batching",
)
_PACKING_HOMES = (
    "repro.core.pairs",
    "repro.core.hybrid_sort",
    "repro.native.engine",
)
_PACKERS = ("pack_key_index", "unpack_key_index", "pack_key_value", "unpack_key_value")


def _records(args, kwargs, result):
    return int(np.asarray(args[1]).size), 0


def _runs(args, kwargs, result):
    return len(result), sum(os.path.getsize(path) for path in result)


#: Span name → dotted targets (and an optional count extractor that
#: returns ``(n, bytes)`` for the call).
TARGETS: dict[str, tuple[tuple[str, ...], object]] = {
    "plan.facade": (("repro.sort", "repro.sort_pairs"), None),
    "plan.plan": (("repro.plan.planner.Planner.plan",), None),
    "plan.execute": (("repro.plan.executors.ExecutorRegistry.execute",), None),
    "native.sort": (("repro.native.engine.NativeRadixEngine.sort",), _records),
    "core.hybrid": (("repro.core.hybrid_sort.HybridRadixSorter.sort",), None),
    "core.counting_pass": (("repro.core.hybrid_sort.counting_sort_pass",), None),
    "core.partition": (("repro.core.hybrid_sort.partition_subbuckets",), None),
    "core.local_sort": (("repro.core.local_sort.LocalSortEngine.execute",), None),
    "core.bijection": (
        tuple(
            f"{home}.{fn}"
            for home in _BIJECTION_HOMES
            for fn in ("to_sortable_bits", "from_sortable_bits")
        )
        + ("repro.external.merge.to_sortable_bits",),
        None,
    ),
    "core.packing": (
        tuple(f"{home}.{fn}" for home in _PACKING_HOMES for fn in _PACKERS)
        + ("repro.external.merge.pack_key_value",),
        None,
    ),
    "cost.price": (("repro.cost.model.CostModel.price_hybrid",), None),
    "external.spill": (("repro.external.runs.RunWriter.write_runs",), _runs),
    "external.merge": (
        ("repro.external.sorter.merge_runs", "repro.external.merge.merge_runs"),
        None,
    ),
}

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
_OP: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default=None)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "child", "n", "nbytes")

    def __init__(self, span_id: int, name: str, parent, op) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.child = 0.0  # seconds covered by direct child spans
        self.n = 0
        self.nbytes = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.end - self.start - self.child

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": None if self.parent is None else self.parent.id,
            "op": self.op,
            "n": self.n,
            "bytes": self.nbytes,
        }


def resolve(dotted: str):
    """``(owner, attribute)`` for a dotted name, or ``None`` if absent.

    The longest importable module prefix is imported; the rest is an
    attribute chain (``module.Class.method`` or ``module.function``).
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            getattr(owner, parts[-1])
        except AttributeError:
            return None
        return owner, parts[-1]
    return None


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, targets=None) -> None:
        self.targets = TARGETS if targets is None else targets
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._ids = itertools.count()

    @staticmethod
    def set_op(op_id) -> None:
        """Tag spans opened from this context with an operation id."""
        _OP.set(op_id)

    def install(self) -> "Tracer":
        # Resolve (and so import) every target before patching any: a
        # module first imported mid-way would bind an earlier wrapper
        # by ``from ... import`` and keep it after uninstall.
        resolved = []
        for name, (dotted_names, counter) in self.targets.items():
            for dotted in dotted_names:
                found = resolve(dotted)
                if found is None:
                    self.absent.append(dotted)
                else:
                    resolved.append((name, counter, *found))
        for name, counter, owner, attr in resolved:
            original = getattr(owner, attr)
            if callable(original) and not hasattr(original, "__perfbench__"):
                setattr(owner, attr, self._wrap(name, original, counter))
                self._patches.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn, counter):
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _CURRENT.get()
            span = Span(next(ids), name, parent, _OP.get())
            token = _CURRENT.set(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                _CURRENT.reset(token)
                if parent is not None:
                    parent.child += span.end - span.start
                spans.append(span)
            if counter is not None:
                span.n, span.nbytes = counter(args, kwargs, result)
            return result

        wrapper.__perfbench__ = fn
        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-operation layer figures from one traced phase's spans."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def group(name):
        return by_name.get(name, [])

    def total(name, attr="seconds"):
        return sum(getattr(s, attr) for s in group(name))

    def mean_ms(name, attr):
        members = group(name)
        return 1e3 * total(name, attr) / len(members) if members else 0.0

    per_op = 1.0 / max(ops, 1)
    spills = group("external.spill")
    return {
        "plan.plan_ms": mean_ms("plan.plan", "seconds"),
        "plan.facade_self_ms": mean_ms("plan.facade", "self_seconds"),
        "native.self_s": total("native.sort", "self_seconds") * per_op,
        "native.calls": len(group("native.sort")) * per_op,
        "native.records": total("native.sort", "n") * per_op,
        "core.hybrid.self_s": total("core.hybrid", "self_seconds") * per_op,
        "core.counting_pass.s": total("core.counting_pass") * per_op,
        "core.counting_pass.calls": len(group("core.counting_pass")) * per_op,
        "core.partition.s": total("core.partition") * per_op,
        "core.local_sort.s": total("core.local_sort") * per_op,
        "core.local_sort.calls": len(group("core.local_sort")) * per_op,
        "core.bijection.s": total("core.bijection") * per_op,
        "core.packing.s": total("core.packing") * per_op,
        "cost.price.s": total("cost.price") * per_op,
        "cost.price.calls": len(group("cost.price")) * per_op,
        "external.spill.s": total("external.spill") * per_op,
        "external.merge.s": total("external.merge") * per_op,
        "external.runs": (
            total("external.spill", "n") / len(spills) if spills else 0.0
        ),
    }
