"""What is being sorted: the planner's input description.

Planning before sorting — the paper's §3 analytical model and §5
chunk/pipeline schedule pick a strategy from input size, layout, and
memory geometry *before any data moves*.  :class:`InputDescriptor` is
the record of exactly those facts: how many records, what layout, where
the bytes live (an in-memory array or an on-disk file), and how much
memory the sort may use.  It deliberately holds no data —
a descriptor for a 64 GB file is a few dozen bytes — so planning is
always cheap, side-effect free, and serialisable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.keys import bits_dtype_for
from repro.errors import ConfigurationError
from repro.gpu.spec import GPUSpec, TITAN_X_PASCAL

__all__ = ["InputDescriptor"]


@dataclass(frozen=True)
class InputDescriptor:
    """Everything the planner needs to know about one sort's input.

    Parameters
    ----------
    n:
        Number of records.
    key_dtype / value_dtype:
        Column dtypes; ``value_dtype=None`` describes a keys-only sort.
    source:
        ``"array"`` for in-memory NumPy inputs, ``"file"`` for flat
        binary files sorted out of core.
    path:
        The input file for ``source="file"`` (``None`` for arrays).
    memory_budget:
        Optional resident-byte budget.  ``None`` means "the whole
        input fits comfortably"; a budget the input does not fit under
        selects a chunked or spill-to-disk plan.
    pair_packing:
        A file sort's pair packing policy (``"auto"``, ``"index"``,
        ``"fused"`` or ``"off"``), which decides how its run sorts
        order equal keys; ``None`` leaves it to the planner's
        configuration (how in-memory sorts set it).
    spec:
        The simulated device the cost annotations are priced against.
    """

    n: int
    key_dtype: np.dtype
    value_dtype: np.dtype | None = None
    source: str = "array"
    path: str | None = None
    memory_budget: int | None = None
    pair_packing: str | None = None
    spec: GPUSpec = field(default=TITAN_X_PASCAL, repr=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ConfigurationError("n must be non-negative")
        if self.source not in ("array", "file"):
            raise ConfigurationError("source must be 'array' or 'file'")
        if self.source == "file" and self.path is None:
            raise ConfigurationError("file descriptors need a path")
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ConfigurationError("memory_budget must be positive")
        if self.pair_packing not in (None, "auto", "index", "fused", "off"):
            raise ConfigurationError(
                "pair_packing must be 'auto', 'index', 'fused', or 'off'"
            )
        object.__setattr__(self, "key_dtype", np.dtype(self.key_dtype))
        if self.value_dtype is not None:
            object.__setattr__(
                self, "value_dtype", np.dtype(self.value_dtype)
            )

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def has_values(self) -> bool:
        return self.value_dtype is not None

    @property
    def key_bits(self) -> int:
        return bits_dtype_for(self.key_dtype).itemsize * 8

    @property
    def value_bits(self) -> int:
        return 0 if self.value_dtype is None else self.value_dtype.itemsize * 8

    @property
    def record_bytes(self) -> int:
        return self.key_dtype.itemsize + (
            0 if self.value_dtype is None else self.value_dtype.itemsize
        )

    @property
    def total_bytes(self) -> int:
        return self.n * self.record_bytes

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_array(
        cls,
        keys: np.ndarray,
        values: np.ndarray | None = None,
        memory_budget: int | None = None,
        spec: GPUSpec = TITAN_X_PASCAL,
    ) -> "InputDescriptor":
        """Describe an in-memory (keys[, values]) input without copying it."""
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise ConfigurationError("keys must be one-dimensional")
        if values is not None:
            values = np.asarray(values)
            if values.shape != keys.shape:
                raise ConfigurationError("values must parallel keys")
        return cls(
            n=int(keys.size),
            key_dtype=keys.dtype,
            value_dtype=None if values is None else values.dtype,
            source="array",
            memory_budget=memory_budget,
            spec=spec,
        )

    @classmethod
    def for_file(
        cls,
        path: str | os.PathLike,
        layout,
        memory_budget: int | None = None,
        spec: GPUSpec = TITAN_X_PASCAL,
        pair_packing: str | None = None,
    ) -> "InputDescriptor":
        """Describe a flat binary file (``repro.external.FileLayout``)."""
        path = os.fspath(path)
        return cls(
            n=layout.records_in(path),
            key_dtype=layout.key_dtype,
            value_dtype=layout.value_dtype,
            source="file",
            path=path,
            memory_budget=memory_budget,
            pair_packing=pair_packing,
            spec=spec,
        )

    def with_budget(self, memory_budget: int | None) -> "InputDescriptor":
        return replace(self, memory_budget=memory_budget)

    def signature(self) -> tuple:
        """The hashable identity planning depends on.

        Everything :meth:`Planner.plan` reads from the descriptor is
        in here; two descriptors with equal signatures always plan
        identically.  The plan cache keys on it.
        """
        return (
            self.n,
            self.key_dtype.str,
            None if self.value_dtype is None else self.value_dtype.str,
            self.source,
            self.path,
            self.memory_budget,
            self.pair_packing,
            self.spec.name,
        )

    def describe(self) -> str:
        layout = (
            f"{self.key_dtype} keys"
            if self.value_dtype is None
            else f"{self.key_dtype}/{self.value_dtype} pairs"
        )
        where = self.path if self.source == "file" else "in-memory array"
        return f"{self.n:,} {layout} ({where})"

    def to_dict(self) -> dict:
        """JSON-ready summary (dtypes as names, spec as its label)."""
        return {
            "n": self.n,
            "key_dtype": str(self.key_dtype),
            "value_dtype": (
                None if self.value_dtype is None else str(self.value_dtype)
            ),
            "source": self.source,
            "path": self.path,
            "memory_budget": self.memory_budget,
            "pair_packing": self.pair_packing,
            "spec": self.spec.name,
            "total_bytes": self.total_bytes,
        }
