"""``NativeRadixEngine`` — full sorts driven through the compiled tier.

The engine mirrors :class:`repro.core.hybrid_sort.HybridRadixSorter`'s
public surface (``sort(keys, values)`` → :class:`SortResult`) and its
pair-layout dispatch exactly, but executes every counting pass in the
one compiled kernel of :mod:`repro.native.build`,
``repro_native_sort_pairs``: a stable sort of 64-bit keys beside a
64-bit payload lane.  Each layout becomes a word sort or a key sort
for it:

``keys only``
    Bit patterns (via the §4.6 bijection) sort as words at the top of
    the key lane, so the kernel sorts only their significant bits
    (8/16/32-bit keys shift up, 64-bit keys fill it).
``index`` packing
    Keys ≤ 32 bits pack with their row index into one u64 word
    (:func:`repro.core.pairs.pack_key_index`); the kernel stably sorts
    the key field only, the unique index payload rides in the low bits,
    and the unpacked permutation is bit-identical to the stable argsort
    pipeline — the same proof the NumPy packed engine rests on.
``split`` layout (64-bit keys)
    The hybrid engine's two-stage split composes to a full 64-bit
    stable sort, so the native side hands the raw key and value lanes
    to the kernel, which applies the §4.6 bijection for the key kind
    inside its own passes and fills two fresh output lanes.  Values
    narrower than 8 bytes widen into its payload lane.
``fused`` packing
    The fused word (key high, value low) sorts whole, matching the
    hybrid engine's by-value tie-break.
``decomposed``
    A row-index payload rides beside the shifted keys — the paper's
    §2.3 decomposed layout, stable by construction — and the
    permutation gathers both lanes.

A word sort hands the kernel the words as their own payload lane (it
only reads its inputs), and drops the sorted payload.  Every mode is
property-tested byte-identical to the hybrid oracle
(``tests/native/``).  The engine raises
:class:`repro.errors.NativeUnavailableError` when the tier is not
usable; planner/executors catch that and degrade to the NumPy tier.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SortConfig
from repro.core.keys import (
    bits_dtype_for,
    from_sortable_bits,
    to_sortable_bits,
)
from repro.core.pairs import (
    fused_packable,
    index_packable,
    pack_key_index,
    pack_key_value,
    unpack_key_index,
    unpack_key_value,
)
from repro.errors import ConfigurationError, NativeExecutionError
from repro.native.build import load_native
from repro.types import SortResult

__all__ = ["NativeRadixEngine"]

#: ``dtype.kind`` → the pairs kernel's key kind (``KEY_UNSIGNED``,
#: ``KEY_SIGNED``, ``KEY_FLOAT`` in :data:`repro.native.build.C_SOURCE`).
_KEY_KINDS = {"u": 0, "i": 1, "f": 2}


class NativeRadixEngine:
    """Drives multi-pass sorts through the compiled counting-scatter.

    Parameters
    ----------
    config:
        Same :class:`~repro.core.config.SortConfig` the hybrid sorter
        takes; only ``key_bits``/``value_bits``/``sort_bits``/
        ``pair_packing`` influence the native execution (the GPU-shape
        knobs describe hardware this tier does not simulate).  Defaults
        to the layout preset at :meth:`sort` time.
    """

    def __init__(self, config: SortConfig | None = None) -> None:
        self.config = config
        # Probe at construction: an engine object either works or
        # raises here, so executors can treat instantiation as the
        # availability check.
        self._ffi, self._lib = load_native()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def sort(
        self, keys: np.ndarray, values: np.ndarray | None = None
    ) -> SortResult:
        """Sort ``keys`` (with optional parallel ``values``) ascending.

        Byte-identical to ``HybridRadixSorter.sort`` for every
        supported dtype, layout, and ``pair_packing`` policy.
        """
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise ConfigurationError("keys must be one-dimensional")
        if values is not None:
            values = np.asarray(values)
            if values.shape != keys.shape:
                raise ConfigurationError("values must parallel keys")
        config = self._resolve_config(keys, values)
        if config.sort_bits is not None:
            # The hybrid engine's partial-range semantics depend on
            # which buckets happen to take a (whole-key-comparing)
            # local sort — not a contract a stable partial radix sort
            # can reproduce.  The planner never routes such configs
            # here; direct callers get a typed refusal.
            raise ConfigurationError(
                "the native tier does not support explicit sort_bits"
            )
        mode = self._packing_mode(config, keys.size, values)
        if keys.size <= 1:
            return self._result(
                keys.copy(),
                None if values is None else values.copy(),
                config,
                mode,
            )
        if mode == "split":
            # The hybrid split (high-word packed sort + low-word
            # refinement) composes to the full 64-bit stable sort,
            # whatever sort_bits says.  The kernel maps the raw keys
            # itself, so only values narrower than its 8-byte payload
            # lane are copied (widened) here.
            raw = values.view(f"u{values.dtype.itemsize}")
            payload = raw if raw.itemsize == 8 else raw.astype(np.uint64)
            out_keys, out_payload = self._pairs_kernel(keys, payload, 0)
            if raw.itemsize != 8:
                out_payload = out_payload.astype(raw.dtype)
            return self._result(
                out_keys, out_payload.view(values.dtype), config, mode
            )

        bits = to_sortable_bits(keys)
        key_bits = config.key_bits
        if values is None:
            sorted_bits = self._sort_words(bits, key_bits)
            sorted_values = None
        elif mode == "index":
            packed = pack_key_index(bits, key_bits)
            sorted_bits, perm = unpack_key_index(
                self._sort_words(packed, key_bits), key_bits
            )
            sorted_values = values[perm]
        elif mode == "fused":
            packed = pack_key_value(bits, values, key_bits)
            sorted_bits, sorted_values = unpack_key_value(
                self._sort_words(packed, packed.dtype.itemsize * 8),
                key_bits,
                values.dtype,
            )
        else:  # mode == "decomposed" with values present
            shifted = bits.astype(np.uint64)
            shifted <<= np.uint64(64 - key_bits)
            _, perm = self._pairs_kernel(
                shifted,
                np.arange(shifted.size, dtype=np.int64),
                64 - key_bits,
            )
            sorted_bits = bits[perm]
            sorted_values = values[perm]
        # ``sorted_bits`` is always a fresh engine-owned buffer: invert
        # it in place (a free view for unsigned keys).
        out_keys = from_sortable_bits(sorted_bits, keys.dtype, out=sorted_bits)
        return self._result(out_keys, sorted_values, config, mode)

    # ------------------------------------------------------------------
    # Layout dispatch (mirrors HybridRadixSorter)
    # ------------------------------------------------------------------
    def _resolve_config(
        self, keys: np.ndarray, values: np.ndarray | None
    ) -> SortConfig:
        key_bits = bits_dtype_for(keys.dtype).itemsize * 8
        value_bits = 0 if values is None else values.dtype.itemsize * 8
        if self.config is None:
            return SortConfig.for_layout(key_bits, value_bits)
        if self.config.key_bits != key_bits:
            raise ConfigurationError(
                f"config is for {self.config.key_bits}-bit keys; "
                f"got {key_bits}-bit input"
            )
        if self.config.value_bits != value_bits:
            raise ConfigurationError(
                f"config is for {self.config.value_bits}-bit values; "
                f"got {value_bits}-bit input"
            )
        return self.config

    def _packing_mode(
        self, config: SortConfig, n: int, values: np.ndarray | None
    ) -> str:
        if values is None or n <= 1 or config.pair_packing == "off":
            return "decomposed"
        if config.pair_packing == "fused":
            if not fused_packable(config.key_bits, config.value_bits):
                raise ConfigurationError(
                    "pair_packing='fused' requires "
                    "key_bits + value_bits <= 64"
                )
            return "fused"
        if index_packable(config.key_bits, n):
            return "index"
        if config.key_bits == 64:
            return "split"
        return "decomposed"

    def _result(
        self,
        out_keys: np.ndarray,
        out_values: np.ndarray | None,
        config: SortConfig,
        mode: str,
    ) -> SortResult:
        return SortResult(
            keys=out_keys,
            values=out_values,
            trace=None,
            meta={
                "config": config,
                "packing": mode,
                "engine": "native",
            },
        )

    # ------------------------------------------------------------------
    # Kernel drivers
    # ------------------------------------------------------------------
    def _sort_words(self, words: np.ndarray, sort_bits: int) -> np.ndarray:
        """Stable sort of unsigned ``words`` on their top ``sort_bits``
        bits, into a fresh array of their dtype.

        Words narrower than the kernel's 64-bit key lane widen into its
        top (and narrow back), so the sort range stays the words'
        significant bits; the lane is also the payload, which the
        kernel only reads.
        """
        word_bits = words.dtype.itemsize * 8
        lane = words.astype(np.uint64, copy=word_bits < 64)
        if word_bits < 64:
            lane <<= np.uint64(64 - word_bits)
        out, _ = self._pairs_kernel(lane, lane, 64 - sort_bits)
        if word_bits < 64:
            out >>= np.uint64(64 - word_bits)
            return out.astype(words.dtype)
        return out

    def _pairs_kernel(
        self, keys: np.ndarray, payload: np.ndarray, lo_bit: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stable sort of 64-bit ``keys`` on bits ``[lo_bit, 64)`` of
        their §4.6 bits, the 8-byte ``payload`` riding along.

        The kernel only reads both lanes and writes fresh sorted ones
        of the same dtypes, the keys as raw words again.
        """
        keys = np.ascontiguousarray(keys)
        payload = np.ascontiguousarray(payload)
        out_keys = np.empty_like(keys)
        out_payload = np.empty_like(payload)
        rc = self._lib.repro_native_sort_pairs(
            self._ffi.cast("const uint64_t *", keys.ctypes.data),
            self._ffi.cast("const uint64_t *", payload.ctypes.data),
            self._ffi.cast("uint64_t *", out_keys.ctypes.data),
            self._ffi.cast("uint64_t *", out_payload.ctypes.data),
            keys.size,
            _KEY_KINDS[keys.dtype.kind],
            lo_bit,
        )
        if rc < 0:
            raise NativeExecutionError(
                f"repro_native_sort_pairs returned {rc}"
            )
        return out_keys, out_payload
