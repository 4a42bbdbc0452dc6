"""The library rung: NumPy's own sort over the §4.6 bits.

The strongest sort on a CPU host is usually the one the array library
ships: NumPy's ``np.sort`` dispatches ``uint32``/``uint64`` arrays to
vectorised (SIMD) sorting networks.  Measured on the 2-CPU reference
host it beats the compiled counting-scatter on keys-only arrays and on
pairs of at most 32-bit keys at every size from 2^8 to 2^21
(``docs/performance.md``, "Routing"), so the planner sends every
layout here except 64-bit-key pairs where the compiled tier is built:

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
* **pairs of 64-bit keys** — the key bits sort in two 32-bit
  ``key|position`` passes, least significant half first
  (:func:`stable_argsort`); the passes' words rebuild the sorted bits,
  and the permutation gathers the values once.

All are byte-identical to every other engine by construction.  The
rung sorts 32- and 64-bit keys; 8/16-bit keys sort only as a file's
runs (:func:`~repro.external.runs._library_sort_records`).

The out-of-core sorter uses the same moves on file records: its run
sorts (:class:`~repro.external.runs.RunWriter`) and its merge rounds
(:func:`~repro.external.merge.drain_cursors`) order by
:func:`stable_argsort` or by fused words, except merge rounds of
64-bit keys, whose sorted runs NumPy's timsort merges faster.
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

__all__ = ["library_sort", "stable_argsort"]


def library_sort(
    keys: np.ndarray, values: np.ndarray | None = None, config=None
) -> SortResult:
    """Sort ``keys`` (with optional parallel ``values``) with ``np.sort``.

    ``config`` only has to describe the input's layout, as for every
    engine, and its ``pair_packing`` picks the pairs' word; a mismatch
    is a :class:`~repro.errors.ConfigurationError`.  So are, as on every
    in-memory engine, 8/16-bit keys without a ``config`` that describes
    them (a file's run sorts pass one) and ``"fused"`` packing of two or
    more records too wide to fuse (fewer need no tie order), and, as on
    the compiled tier, an explicit ``sort_bits``.
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
    if config is None and key_bits not in (32, 64):
        raise ConfigurationError("key_bits must be 32 or 64")
    if config is not None and (
        config.key_bits != key_bits or config.value_bits != value_bits
    ):
        raise ConfigurationError(
            f"config is for {config.key_bits}/{config.value_bits}-bit "
            f"records; got {key_bits}/{value_bits}-bit input"
        )
    if config is not None and config.sort_bits is not None:
        raise ConfigurationError(
            "the library rung does not support explicit sort_bits"
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
    elif index_packable(key_bits, n):
        packed = pack_key_index(bits, key_bits)
        packed.sort()
        bits, perm = unpack_key_index(packed, key_bits)
        sorted_values = values[perm]
    else:
        first, second = _two_passes(bits)
        del bits
        # Each record's first word, in the final order: its low half's
        # bits above its input position.  The second words hold the
        # high halves, so the sorted bits need no gather of their own.
        bits = first[(second & _LOW).view(np.int64)]
        del first
        perm = (bits & _LOW).view(np.int64)
        bits >>= _HALF
        second &= ~_LOW
        bits |= second
        del second
        sorted_values = values[perm]
    out_keys = from_sortable_bits(bits, keys.dtype, out=bits)
    return SortResult(
        keys=out_keys, values=sorted_values, meta={"engine": "library"}
    )


def stable_argsort(bits: np.ndarray) -> np.ndarray:
    """``np.argsort(bits, kind="stable")``, through ``np.sort``.

    ``bits`` are unsigned §4.6 bit patterns.  Bits at most 32 wide fuse
    with their positions into unique ``uint64`` words
    (:func:`~repro.core.pairs.pack_key_index`), so sorting the words
    with NumPy's vectorised ``np.sort`` is a stable sort of the bits,
    and the words' low bits are the permutation (masked in place and
    reinterpreted as ``int64``, no copy).  Wider bits take two such
    passes, least significant digit first, as a CPU LSD radix sort
    does: the low halves, then the high halves gathered through that
    order, whose stable order composed with the first is the stable
    order of the whole bits.  Past 2^32 records, whose positions fill
    a half, it is NumPy's stable argsort.

    >>> bits = np.array([3, 1, 3, 0, 1], dtype=np.uint32)
    >>> stable_argsort(bits).tolist()
    [3, 1, 4, 0, 2]
    >>> low = np.arange(5, 0, -1, dtype=np.uint64)
    >>> stable_argsort((bits.astype(np.uint64) << 32) + low).tolist()
    [3, 4, 1, 2, 0]
    """
    bits = np.asarray(bits)
    key_bits = bits.dtype.itemsize * 8
    if not index_packable(min(key_bits, 32), bits.size):
        return np.argsort(bits, kind="stable")
    if key_bits > 32:
        first, second = _two_passes(bits)
        second &= _LOW
        order = first[second.view(np.int64)]
        order &= _LOW
        return order.view(np.int64)
    packed = pack_key_index(bits, key_bits)
    packed.sort()
    packed &= np.uint64((1 << (64 - key_bits)) - 1)
    return packed.view(np.int64)


#: The position half of a ``key|position`` word of a 32-bit key, and
#: the key half's shift.
_LOW = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)


def _two_passes(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort 64-bit ``bits`` stably in two ``key|position`` passes.

    Least significant digit first: ``first`` is the sorted words of the
    low halves and their input positions, ``second`` the sorted words
    of the high halves, gathered in ``first``'s order, and their
    positions in it.  Record ``i`` of the stable order is input record
    ``first[second[i] & _LOW] & _LOW``.  Both passes are ``np.sort``s
    of unique words; beside ``bits`` they hold 24 bytes a record.
    """
    first = bits << _HALF  # the low halves, above their positions
    first |= np.arange(bits.size, dtype=np.uint64)
    first.sort()
    # The high halves gather as 4-byte words: half the random reads.
    high = (bits >> _HALF).astype(np.uint32)[(first & _LOW).view(np.int64)]
    second = high.astype(np.uint64)
    del high
    second <<= _HALF
    second |= np.arange(bits.size, dtype=np.uint64)
    second.sort()
    return first, second
