"""The library rung: NumPy's own sort over the §4.6 bits.

The strongest sort on a CPU host is usually the one the array library
ships: NumPy's ``np.sort`` dispatches ``uint32``/``uint64`` arrays to
vectorised (SIMD) sorting networks.  Measured on the 2-CPU reference
host it beats the compiled counting-scatter on keys-only arrays and on
pairs of at most 32-bit keys at every size from 2^8 to 2^21
(``docs/performance.md``, "Routing"), so the planner sends those
layouts here:

* **keys only** — :func:`~repro.core.keys.to_sortable_bits`, one
  in-place ``np.sort``, and the inverse bijection in place on the
  sorted bits (a free view for unsigned dtypes).
* **pairs of at most 32-bit keys** — key bits and row index pack into
  one ``uint64`` word (:func:`~repro.core.pairs.pack_key_index`), the
  words sort, and the unpacked index gathers the values once.  Every
  packed word is unique, so the unstable sort is exactly a stable sort
  of the keys: the order of ``"auto"``, ``"index"`` and ``"off"``
  packing alike.  Under ``"fused"`` packing, key bits and raw value
  bits fuse into one word instead
  (:func:`~repro.core.pairs.pack_key_value`), which orders ties by
  value bits; equal fused words are identical records, so the
  unstable sort is byte-exact there too.

Both are byte-identical to every other engine by construction.  Pairs
with 64-bit keys do not index-pack; NumPy's only stable choice for
them is an argsort, which the compiled tier beats, so they stay off
this rung (:func:`library_serves`).

The out-of-core sorter uses the same moves on file records: its run
sorts (:class:`~repro.external.runs.RunWriter`) and its merge rounds
(:func:`~repro.external.merge.drain_cursors`) order by
:func:`stable_argsort`, the ``key|position`` form of NumPy's stable
argsort, or by fused words.
"""

from __future__ import annotations

import numpy as np

from repro.core.keys import bits_dtype_for, from_sortable_bits, to_sortable_bits
from repro.core.pairs import (
    index_packable,
    pack_key_index,
    pack_key_value,
    unpack_key_index,
    unpack_key_value,
)
from repro.errors import ConfigurationError
from repro.types import SortResult

__all__ = ["library_serves", "library_sort", "stable_argsort"]


def library_serves(
    key_bits: int,
    n: int,
    has_values: bool,
    pair_packing: str = "auto",
    narrow_keys: bool = False,
) -> bool:
    """Whether the library rung sorts this layout byte-identically.

    32- and 64-bit keys qualify, and 8/16-bit keys with
    ``narrow_keys`` (a file's runs).  In memory every engine refuses
    narrow keys, and a rung must not change which inputs succeed.
    Pairs qualify when their keys are at most 32 bits wide: under
    ``"fused"`` packing as key|value words, under any other packing as
    key|position words, which need the keys to index-pack.

    >>> library_serves(64, 1 << 20, has_values=False)
    True
    >>> library_serves(16, 1 << 20, has_values=False)
    False
    >>> library_serves(16, 1 << 20, has_values=False, narrow_keys=True)
    True
    >>> library_serves(32, 1 << 20, True, pair_packing="fused")
    True
    >>> library_serves(64, 1 << 20, has_values=True)
    False
    """
    if key_bits not in ((8, 16, 32, 64) if narrow_keys else (32, 64)):
        return False
    if not has_values:
        return True
    if pair_packing == "fused":
        return key_bits <= 32
    return index_packable(key_bits, n)


def library_sort(
    keys: np.ndarray, values: np.ndarray | None = None, config=None
) -> SortResult:
    """Sort ``keys`` (with optional parallel ``values``) with ``np.sort``.

    ``config`` only has to describe the input's layout, as for every
    engine, and its ``pair_packing`` picks the pairs' word; a mismatch
    is a :class:`~repro.errors.ConfigurationError`.  So are pairs the
    rung cannot serve (64-bit keys, which the planner never routes
    here) and, as on every engine, ``"fused"`` packing of two or more
    records too wide to fuse (fewer need no tie order).
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ConfigurationError("keys must be one-dimensional")
    if values is not None:
        values = np.asarray(values)
        if values.shape != keys.shape:
            raise ConfigurationError("values must parallel keys")
    key_bits = bits_dtype_for(keys.dtype).itemsize * 8
    value_bits = 0 if values is None else values.dtype.itemsize * 8
    if config is not None and (
        config.key_bits != key_bits or config.value_bits != value_bits
    ):
        raise ConfigurationError(
            f"config is for {config.key_bits}/{config.value_bits}-bit "
            f"records; got {key_bits}/{value_bits}-bit input"
        )
    bits = to_sortable_bits(keys)  # a fresh array: safe to sort in place
    n = bits.size
    if values is None:
        bits.sort()
        sorted_values = None
    elif config is not None and config.pair_packing == "fused" and n > 1:
        packed = pack_key_value(bits, values, key_bits)
        packed.sort()
        bits, sorted_values = unpack_key_value(packed, key_bits, values.dtype)
    else:
        if not index_packable(key_bits, n):
            raise ConfigurationError(
                f"the library rung sorts pairs of at most 32-bit keys; "
                f"got {key_bits}-bit keys"
            )
        packed = pack_key_index(bits, key_bits)
        packed.sort()
        bits, perm = unpack_key_index(packed, key_bits)
        sorted_values = values[perm]
    out_keys = from_sortable_bits(bits, keys.dtype, out=bits)
    return SortResult(
        keys=out_keys, values=sorted_values, meta={"engine": "library"}
    )


def stable_argsort(bits: np.ndarray) -> np.ndarray:
    """``np.argsort(bits, kind="stable")``, through ``np.sort`` where it can.

    ``bits`` are unsigned §4.6 bit patterns.  When they index-pack (at
    most 32 bits wide), each one and its position fuse into a unique
    ``uint64`` word (:func:`~repro.core.pairs.pack_key_index`), so
    sorting the words with NumPy's vectorised ``np.sort`` is a stable
    sort of the bits, and the words' low bits are the permutation
    (masked in place and reinterpreted as ``int64``, no copy).  Wider
    bits take the stable argsort itself.

    >>> bits = np.array([3, 1, 3, 0, 1], dtype=np.uint32)
    >>> stable_argsort(bits).tolist()
    [3, 1, 4, 0, 2]
    """
    bits = np.asarray(bits)
    key_bits = bits.dtype.itemsize * 8
    if not index_packable(key_bits, bits.size):
        return np.argsort(bits, kind="stable")
    packed = pack_key_index(bits, key_bits)
    packed.sort()
    packed &= np.uint64((1 << (64 - key_bits)) - 1)
    return packed.view(np.int64)
