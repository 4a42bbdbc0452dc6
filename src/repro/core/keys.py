"""Order-preserving key bijections (§4.6).

The sorting engines work on unsigned integer bit patterns.  Signed
integers and IEEE-754 floats are supported through bijective maps onto
order-preserving bit strings, applied "during the scattering step of the
first counting sort" and inverted "either during a local sort or the last
counting sort pass" (§4.6, citing Herf's radix tricks [19]):

* signed integers — flip the sign bit;
* floats — flip *all* bits if the sign bit is set, otherwise flip only
  the sign bit.

``-0.0`` sorts before ``+0.0``.  A NaN sorts by its sign bit: one with
the sign bit clear (NumPy's ``np.nan``) maps above ``+inf`` and sorts
after every number, but one with the sign bit set is fully flipped like
any negative float, maps below ``-inf`` and sorts *first*:

>>> keys = np.array([1.0, -np.inf, np.nan, 0.0, -0.0, 0.0, np.inf])
>>> keys.view(np.uint64)[3] = 0xFFF8000000000001   # a NaN, sign bit set
>>> order = np.argsort(to_sortable_bits(keys), kind="stable")
>>> keys[order].tolist()
[nan, -inf, -0.0, 0.0, 1.0, inf, nan]
>>> np.signbit(keys[order]).tolist()
[True, True, True, False, False, False, False]
"""

from __future__ import annotations

import numpy as np

from repro.errors import UnsupportedDtypeError

__all__ = [
    "SUPPORTED_DTYPES",
    "bits_dtype_for",
    "to_sortable_bits",
    "from_sortable_bits",
]

#: Dtypes with a registered order-preserving bijection.  The narrow
#: unsigned types exist for pedagogical inputs such as the paper's
#: Table 2 worked example (4-bit keys embedded in a byte).
SUPPORTED_DTYPES = (
    np.dtype(np.uint8),
    np.dtype(np.uint16),
    np.dtype(np.uint32),
    np.dtype(np.uint64),
    np.dtype(np.int32),
    np.dtype(np.int64),
    np.dtype(np.float32),
    np.dtype(np.float64),
)

_BITS_DTYPES = {
    1: np.dtype(np.uint8),
    2: np.dtype(np.uint16),
    4: np.dtype(np.uint32),
    8: np.dtype(np.uint64),
}


def bits_dtype_for(dtype: np.dtype) -> np.dtype:
    """The unsigned dtype whose bit patterns carry ``dtype``'s order."""
    dtype = np.dtype(dtype)
    if dtype not in SUPPORTED_DTYPES:
        raise UnsupportedDtypeError(
            f"no order-preserving bijection for dtype {dtype}"
        )
    return _BITS_DTYPES[dtype.itemsize]


def _sign_bit(width_bytes: int) -> int:
    return 1 << (width_bytes * 8 - 1)


def to_sortable_bits(
    keys: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Map ``keys`` to unsigned bit patterns with the same order.

    The result compares with unsigned integer comparison exactly as the
    inputs compare under their native ordering.  By default it is a
    freshly allocated array that shares no memory with ``keys`` —
    callers (the hybrid sorter's double buffering) rely on being able
    to mutate it.

    ``out`` mirrors :func:`from_sortable_bits`: an array of the keys'
    dtype or of their bits dtype, shaped like ``keys``, that receives
    the bits and is returned viewed as the bits dtype.  ``out`` may be
    ``keys`` itself, so a sort that owns its keys maps them in place;
    the float map then holds one bool per key.

    >>> keys = np.array([1.5, -2.0, 0.0])
    >>> bits = to_sortable_bits(keys, out=keys)
    >>> bits.dtype, np.shares_memory(bits, keys), np.argsort(bits).tolist()
    (dtype('uint64'), True, [1, 2, 0])
    """
    keys = np.asarray(keys)
    dtype = keys.dtype
    if dtype not in SUPPORTED_DTYPES:
        raise UnsupportedDtypeError(
            f"no order-preserving bijection for dtype {dtype}"
        )
    udtype = bits_dtype_for(dtype)
    raw = keys.view(udtype)
    if out is not None:
        return _map_into(keys, raw, out.view(udtype), out is keys)
    if dtype.kind == "u":
        return raw.copy()
    sign = udtype.type(_sign_bit(dtype.itemsize))
    if dtype.kind == "i":
        return raw ^ sign
    # Floats, branch-free: an arithmetic shift smears the sign bit into
    # a mask of all ones (negative) or zeros, ``| sign`` adds the sign
    # bit, and one xor flips all bits or only the sign.
    width = dtype.itemsize * 8
    mask = np.right_shift(keys.view(f"i{dtype.itemsize}"), width - 1)
    mask = mask.view(udtype)
    mask |= sign
    mask ^= raw
    return mask


def _map_into(
    keys: np.ndarray, raw: np.ndarray, target: np.ndarray, in_place: bool
) -> np.ndarray:
    """:func:`to_sortable_bits` into ``target`` (``raw`` is the keys'
    bits view; ``in_place`` when ``target`` is the keys themselves)."""
    dtype = keys.dtype
    if dtype.kind == "u":
        if not in_place:
            np.copyto(target, raw)
        return target
    sign = target.dtype.type(_sign_bit(dtype.itemsize))
    if dtype.kind == "i":
        np.bitwise_xor(raw, sign, out=target)
        return target
    # Floats: read the signs before ``target`` (perhaps the keys)
    # changes, flip the sign bit of every key, then the other bits of
    # the negative ones.
    negative = keys.view(f"i{dtype.itemsize}") < 0
    np.bitwise_xor(raw, sign, out=target)
    np.bitwise_xor(target, ~sign, out=target, where=negative)
    return target


def from_sortable_bits(
    bits: np.ndarray, dtype: np.dtype, out: np.ndarray | None = None
) -> np.ndarray:
    """Invert :func:`to_sortable_bits` back to ``dtype``.

    Returns a fresh array, unless ``out`` is given: an array of
    ``dtype`` or of its bits dtype, shaped like ``bits``, that receives
    the keys and is returned viewed as ``dtype``.  ``out`` may be
    ``bits`` itself, so an engine that owns its sorted bits inverts
    them in place (for unsigned keys that is a free view).
    """
    dtype = np.dtype(dtype)
    if dtype not in SUPPORTED_DTYPES:
        raise UnsupportedDtypeError(
            f"no order-preserving bijection for dtype {dtype}"
        )
    udtype = bits_dtype_for(dtype)
    bits = np.asarray(bits, dtype=udtype)
    if out is None:
        out = np.empty_like(bits)
    target = out.view(udtype)
    if dtype.kind == "u":
        if out is not bits:
            np.copyto(target, bits)
        return out.view(dtype)
    sign = udtype.type(_sign_bit(dtype.itemsize))
    if dtype.kind == "i":
        np.bitwise_xor(bits, sign, out=target)
        return out.view(dtype)
    # Floats: flip the sign bit back.  A key whose top bit is then set
    # was negative and had every bit flipped, so flip its other bits
    # too; ``where=`` keeps the only temporary to one bool per key.
    np.bitwise_xor(bits, sign, out=target)
    negative = target.view(f"i{dtype.itemsize}") < 0
    np.bitwise_xor(target, ~sign, out=target, where=negative)
    return out.view(dtype)
