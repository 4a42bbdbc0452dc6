"""``NativeRadixEngine`` — full sorts driven through the compiled tier.

The engine mirrors :class:`repro.core.hybrid_sort.HybridRadixSorter`'s
public surface (``sort(keys, values)`` → :class:`SortResult`) and its
pair-layout dispatch exactly, but executes every counting pass in the
compiled C kernels of :mod:`repro.native.build`:

``keys only``
    Bit patterns (via the §4.6 bijection) sort in place through the
    u32/u64 kernel; 8/16-bit keys widen into the top of a u32 word so
    the kernel sorts only their significant bits.
``index`` packing
    Keys ≤ 32 bits pack with their row index into one u64 word
    (:func:`repro.core.pairs.pack_key_index`); the kernel stably sorts
    the key field only, the unique index payload rides in the low bits,
    and the unpacked permutation is bit-identical to the stable argsort
    pipeline — the same proof the NumPy packed engine rests on.
``split`` layout (64-bit keys)
    The hybrid engine's two-stage split composes to a full 64-bit
    stable sort, so the native side hands the raw key and value lanes
    to the pairs kernel, which applies the §4.6 bijection for the key
    kind inside its own passes and fills two fresh output lanes.
    Values narrower than 8 bytes widen into its payload lane.
``fused`` packing
    The fused word (key high, value low) sorts whole, matching the
    hybrid engine's by-value tie-break.
``decomposed``
    The pairs kernel scatters a row-index payload alongside the keys —
    the paper's §2.3 decomposed layout, stable by construction — and
    the permutation gathers both lanes.

Every mode is property-tested byte-identical to the hybrid oracle
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
        sort_bits = config.key_bits
        if values is None:
            sorted_bits = self._sort_keys_only(bits, sort_bits)
            sorted_values = None
        elif mode == "index":
            packed = pack_key_index(bits, config.key_bits)
            sorted_packed = self._run_u64(packed, 64 - sort_bits)
            sorted_bits, perm = unpack_key_index(
                sorted_packed, config.key_bits
            )
            sorted_values = values[perm]
        elif mode == "fused":
            packed = pack_key_value(bits, values, config.key_bits)
            word_bits = packed.dtype.itemsize * 8
            if word_bits == 32:
                sorted_packed = self._run_u32(packed, 0)
            else:
                sorted_packed = self._run_u64(packed, 0)
            sorted_bits, sorted_values = unpack_key_value(
                sorted_packed, config.key_bits, values.dtype
            )
        else:  # mode == "decomposed" with values present
            shifted = bits.astype(np.uint64)
            shifted <<= np.uint64(64 - config.key_bits)
            perm = self._stable_argsort(
                shifted, 64 - sort_bits
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
    def _sort_keys_only(
        self, bits: np.ndarray, sort_bits: int
    ) -> np.ndarray:
        word_bits = bits.dtype.itemsize * 8
        if word_bits == 64:
            return self._run_u64(bits, 64 - sort_bits)
        if word_bits == 32:
            return self._run_u32(bits, 32 - sort_bits)
        # 8/16-bit keys: widen into the *top* of a u32 word so the
        # kernel's [lo_bit, 32) range covers exactly the key's digits.
        widened = bits.astype(np.uint32)
        widened <<= np.uint32(32 - word_bits)
        sorted_w = self._run_u32(widened, 32 - sort_bits)
        sorted_w >>= np.uint32(32 - word_bits)
        return sorted_w.astype(bits.dtype)

    def _run_u32(self, words: np.ndarray, lo_bit: int) -> np.ndarray:
        # Callers hand over freshly-owned arrays (bijection output or
        # packed words), so the kernel may ping-pong in place.
        a = np.ascontiguousarray(words, dtype=np.uint32)
        b = np.empty_like(a)
        rc = self._lib.repro_native_sort_u32(
            self._ffi.cast("uint32_t *", a.ctypes.data),
            self._ffi.cast("uint32_t *", b.ctypes.data),
            a.size,
            lo_bit,
        )
        if rc < 0:
            raise NativeExecutionError(
                f"repro_native_sort_u32 returned {rc}"
            )
        return a if rc == 0 else b

    def _run_u64(self, words: np.ndarray, lo_bit: int) -> np.ndarray:
        a = np.ascontiguousarray(words, dtype=np.uint64)
        b = np.empty_like(a)
        rc = self._lib.repro_native_sort_u64(
            self._ffi.cast("uint64_t *", a.ctypes.data),
            self._ffi.cast("uint64_t *", b.ctypes.data),
            a.size,
            lo_bit,
        )
        if rc < 0:
            raise NativeExecutionError(
                f"repro_native_sort_u64 returned {rc}"
            )
        return a if rc == 0 else b

    def _stable_argsort(
        self, key_words: np.ndarray, lo_bit: int
    ) -> np.ndarray:
        """Stable argsort of u64 ``key_words`` via the pairs kernel.

        The payload lane carries 0..n-1; because the kernel is stable,
        the sorted payload *is* the stable sorting permutation.
        """
        _, perm = self._pairs_kernel(
            key_words, np.arange(key_words.size, dtype=np.int64), lo_bit
        )
        return perm

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
