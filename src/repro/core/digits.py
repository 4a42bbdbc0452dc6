"""Radix/digit geometry (§2.1).

A k-bit key is reinterpreted as a sequence of d-bit digits.  The hybrid
sort walks digits from the most significant (digit index 0) towards the
least significant; LSD baselines walk the other way.  When ``d`` does not
divide ``k`` the *least significant* digit is the narrow remainder, so
the MSD-first hybrid sort always partitions on full-width digits until
the final pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import as_uint, narrow_uint_dtype
from repro.errors import ConfigurationError

__all__ = [
    "DigitGeometry",
    "extract_digit",
    "extract_digit_compact",
    "extract_digit_lsd",
    "NATIVE_MSD_BITS",
    "NATIVE_INNER_BITS",
    "NATIVE_LOCAL_SORT_MAX",
    "native_finish_widths",
    "native_pass_plan",
    "native_traffic",
]


@dataclass(frozen=True)
class DigitGeometry:
    """Digit layout of a ``key_bits``-bit key with ``digit_bits`` digits.

    ``num_digits = ceil(sort_bits / digit_bits)``; the last MSD digit
    (the least-significant one) may be narrower than ``digit_bits`` when
    the division is not exact.

    ``sort_bits`` (default: the full ``key_bits``) restricts the digit
    sequence to the *top* ``sort_bits`` bits of the word.  The packed
    pair fast paths rely on this: a 64-bit word carrying a 32-bit key in
    its high half and a payload (value or row index) in its low half is
    partitioned on the key's four digits only — the payload rides along
    untouched, exactly like a value in the paper's decomposed layout.
    """

    key_bits: int
    digit_bits: int
    sort_bits: int | None = None

    def __post_init__(self) -> None:
        if self.key_bits not in (8, 16, 32, 64):
            raise ConfigurationError("key_bits must be 8, 16, 32, or 64")
        if not 1 <= self.digit_bits <= 16:
            raise ConfigurationError("digit_bits must be in [1, 16]")
        if self.sort_bits is not None and not (
            1 <= self.sort_bits <= self.key_bits
        ):
            raise ConfigurationError(
                "sort_bits must be in [1, key_bits]"
            )

    @property
    def effective_sort_bits(self) -> int:
        return self.key_bits if self.sort_bits is None else self.sort_bits

    @property
    def num_digits(self) -> int:
        return -(-self.effective_sort_bits // self.digit_bits)

    @property
    def radix(self) -> int:
        return 1 << self.digit_bits

    def shift_for(self, msd_index: int) -> int:
        """Right-shift that brings MSD digit ``msd_index`` to the bottom."""
        if not 0 <= msd_index < self.num_digits:
            raise ConfigurationError(
                f"digit index {msd_index} out of range "
                f"[0, {self.num_digits})"
            )
        consumed = min(
            self.effective_sort_bits, self.digit_bits * (msd_index + 1)
        )
        return self.key_bits - consumed

    def width_for(self, msd_index: int) -> int:
        """Bit width of MSD digit ``msd_index`` (the last may be narrow)."""
        shift = self.shift_for(msd_index)
        upper = self.key_bits - self.digit_bits * msd_index
        return upper - shift

    def mask_for(self, msd_index: int) -> int:
        return (1 << self.width_for(msd_index)) - 1

    def remaining_digits(self, from_msd_index: int) -> int:
        """Digits still unsorted when digits [0, from_msd_index) are done."""
        return self.num_digits - from_msd_index

    def remaining_bits(self, from_msd_index: int) -> int:
        """Bits still unsorted when digits [0, from_msd_index) are done.

        Leading digits are full width; only the final digit may be the
        narrow remainder.
        """
        if from_msd_index >= self.num_digits:
            return 0
        return self.effective_sort_bits - self.digit_bits * from_msd_index


#: The native C kernel's compile-time schedule constants (``MSD_BITS``,
#: ``INNER_BITS`` and ``LOCAL_SORT_MAX`` in
#: :data:`repro.native.build.C_SOURCE`; a test keeps them equal).
NATIVE_MSD_BITS = 11
NATIVE_INNER_BITS = 11
NATIVE_LOCAL_SORT_MAX = 32


def native_finish_widths(n: int, bits: int) -> tuple[int, ...]:
    """How the native kernel finishes ``bits`` low bits of ``n`` keys.

    ``()`` means one stable insertion sort (``n`` at most
    :data:`NATIVE_LOCAL_SORT_MAX`).  Otherwise the LSD digit widths,
    least significant first: ``p`` passes of ``w = ceil(bits / p) <=``
    :data:`NATIVE_INNER_BITS` bits (the last one takes the remainder),
    for the ``p`` minimising ``p * (2n + 2**w / 10)`` — the C side's
    ``finish_width``, step for step.

    >>> native_finish_widths(32, 21)
    ()
    >>> native_finish_widths(37, 21)
    (7, 7, 7)
    >>> native_finish_widths(1 << 11, 21)
    (11, 10)
    """
    if n <= NATIVE_LOCAL_SORT_MAX or bits <= 0:
        return ()
    p = -(-bits // NATIVE_INNER_BITS)
    width, best_cost = -(-bits // p), None
    while p <= bits and (best_cost is None or p * 20 * n < best_cost):
        w = -(-bits // p)
        cost = p * (20 * n + (1 << w))
        if best_cost is None or cost < best_cost:
            width, best_cost = w, cost
        p += 1
    widths = [width] * (bits // width)
    if bits % width:
        widths.append(bits % width)
    return tuple(widths)


def native_pass_plan(sort_bits: int, n: int) -> tuple[int, tuple[int, ...]]:
    """Digit schedule of the native C kernel for ``n`` keys, in Python.

    Returns ``(msd_width, inner_widths)``: the width of the MSD
    partition digit (0 when the kernel skips the partition because the
    whole range fits in ``NATIVE_MSD_BITS + NATIVE_INNER_BITS`` bits,
    or the input is no larger than one insertion sort) and
    :func:`native_finish_widths` of a bucket — the whole input without
    a partition, else one of ``2**msd_width`` buckets of uniform keys.
    Keeping the schedule here lets plans and docs state exactly which
    passes the compiled side will run without parsing C.

    >>> native_pass_plan(32, 1 << 24)
    (11, (11, 10))
    >>> native_pass_plan(32, 1 << 12)   # 2-key buckets: insertion sorts
    (11, ())
    >>> native_pass_plan(16, 1 << 20)
    (0, (8, 8))
    """
    if not 1 <= sort_bits <= 64:
        raise ConfigurationError("sort_bits must be in [1, 64]")
    if n < 0:
        raise ConfigurationError("n must be non-negative")
    partition = (
        sort_bits > NATIVE_MSD_BITS + NATIVE_INNER_BITS
        and n > NATIVE_LOCAL_SORT_MAX
    )
    msd_width = NATIVE_MSD_BITS if partition else 0
    bucket = -(-n >> msd_width)
    return msd_width, native_finish_widths(bucket, sort_bits - msd_width)


def native_traffic(
    sort_bits: int, n: int, record_bytes: int
) -> tuple[int, int]:
    """``(counting passes, bytes moved)`` of one native sort.

    Each counting pass reads the records for its histogram and reads
    and writes them for its scatter (3x traffic); buckets that finish
    in an insertion sort read and write them once more.  The planner
    prices native steps with it and the host profile's native probe
    divides by it, so the two agree by construction.
    """
    msd_width, inner = native_pass_plan(sort_bits, n)
    passes = (1 if msd_width else 0) + len(inner)
    per_record = 3 * passes + (0 if inner else 2)
    return passes, per_record * n * record_bytes


def extract_digit(
    keys: np.ndarray, geometry: DigitGeometry, msd_index: int
) -> np.ndarray:
    """Extract MSD digit ``msd_index`` from unsigned ``keys``.

    Returns an ``int64`` array of digit values in ``[0, radix)`` (a wide
    type so callers can combine digits with segment ids safely).
    """
    shift = geometry.shift_for(msd_index)
    mask = geometry.mask_for(msd_index)
    work = keys.astype(np.uint64, copy=False)
    return ((work >> np.uint64(shift)) & np.uint64(mask)).astype(np.int64)


def extract_digit_compact(
    keys: np.ndarray, geometry: DigitGeometry, msd_index: int
) -> np.ndarray:
    """Extract MSD digit ``msd_index`` into the narrowest unsigned dtype.

    Same digit values as :func:`extract_digit`, but the shift/mask runs
    in the key's native width (no widening to uint64) and the result is
    uint8/uint16 — the representation the fast counting-sort engine
    feeds straight into NumPy's radix-path stable sort.
    """
    shift = geometry.shift_for(msd_index)
    mask = geometry.mask_for(msd_index)
    work = as_uint(keys)
    w = work.dtype.type
    digits = (work >> w(shift)) & w(mask)
    return digits.astype(narrow_uint_dtype(mask), copy=False)


def extract_digit_lsd(
    keys: np.ndarray, geometry: DigitGeometry, lsd_index: int
) -> np.ndarray:
    """Extract LSD digit ``lsd_index`` (0 = least significant).

    The LSD view is just the MSD view indexed from the other end.
    """
    msd_index = geometry.num_digits - 1 - lsd_index
    return extract_digit(keys, geometry, msd_index)
