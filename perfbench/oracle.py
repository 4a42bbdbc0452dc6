"""The same-run NumPy reference: the benchmark's oracle and baseline.

Every output the program produces is compared byte for byte with the
output of this module on the same input, and the time this module
takes is the ``vs_numpy`` baseline.  The order is the §4.6 one: keys
are mapped to unsigned bit patterns (signed integers flip the sign
bit; floats flip every bit when the sign is set, else only the sign),
sorted as unsigned integers, and mapped back.  Pairs keep input order
among equal keys.

The bijection is written out here rather than imported from the
program, so a fault in the program's own bijection cannot hide by
appearing on both sides of the comparison.
"""

from __future__ import annotations

import hashlib

import numpy as np


def to_bits(keys: np.ndarray) -> np.ndarray:
    """Order-preserving unsigned bit patterns of ``keys`` (a new array)."""
    udtype = np.dtype(f"u{keys.dtype.itemsize}")
    raw = keys.view(udtype)
    if keys.dtype.kind == "u":
        return raw.copy()
    sign = udtype.type(1 << (keys.dtype.itemsize * 8 - 1))
    if keys.dtype.kind == "i":
        return raw ^ sign
    negative = (raw & sign) != 0
    return np.where(negative, ~raw, raw ^ sign)


def from_bits(bits: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Invert :func:`to_bits`."""
    dtype = np.dtype(dtype)
    if dtype.kind == "u":
        return bits.view(dtype)
    sign = bits.dtype.type(1 << (dtype.itemsize * 8 - 1))
    if dtype.kind == "i":
        return (bits ^ sign).view(dtype)
    was_negative = (bits & sign) == 0
    return np.where(was_negative, ~bits, bits ^ sign).view(dtype)


def sort_keys(keys: np.ndarray) -> np.ndarray:
    """``np.sort`` on the bits, then invert."""
    bits = to_bits(keys)
    bits.sort()
    return from_bits(bits, keys.dtype)


def stable_order(keys: np.ndarray) -> np.ndarray:
    """The stable sorting permutation of ``keys`` in bits order.

    Keys of at most 32 bits pack ``key << 32 | row`` into one ``uint64``
    and sort that (every word is unique, so the unstable sort is
    stable); wider keys take NumPy's stable ``argsort``.
    """
    bits = to_bits(keys)
    if bits.dtype.itemsize <= 4:
        packed = bits.astype(np.uint64)
        packed <<= np.uint64(32)
        packed |= np.arange(bits.size, dtype=np.uint64)
        packed.sort()
        return (packed & np.uint64(0xFFFFFFFF)).astype(np.intp)
    return np.argsort(bits, kind="stable")


def sort_pairs(keys: np.ndarray, values: np.ndarray):
    order = stable_order(keys)
    return keys[order], values[order]


def sort_records(records: np.ndarray) -> np.ndarray:
    """Interleaved ``(key, value)`` records, stably sorted by key."""
    return records[stable_order(np.ascontiguousarray(records["key"]))]


def digest(*arrays: np.ndarray) -> bytes:
    """BLAKE2b digest of the arrays' bytes, dtype and length included."""
    h = hashlib.blake2b(digest_size=32)
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}:{array.size};".encode())
        h.update(array.reshape(-1).view(np.uint8))
    return h.digest()
