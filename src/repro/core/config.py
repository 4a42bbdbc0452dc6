"""Sort configurations and the Table 3 presets.

Table 3 of the paper lists the default tuning for each key/value size:

====================  =====  =======  ===  =====
key/value size        KPB    threads  KPT  ∂̂
====================  =====  =======  ===  =====
32-bit keys           6 912  384      18   9 216
64-bit keys           3 456  384       9   4 224
32-bit/32-bit pairs   3 456  384      18   5 760
64-bit/64-bit pairs   2 304  256       9   3 840
====================  =====  =======  ===  =====

The parameters were "determined ... based on the amount of shared memory
and the number of registers being required by the kernels" (§6); the
``derive_table3`` helper replays that feasibility reasoning through the
occupancy model — every preset must fit on the device and keep at least
two blocks resident per SM for the scatter kernel.

The merge threshold ∂ defaults to the §4.5 example value (3 000 for
32-bit keys) scaled with ∂̂ for the other layouts; rule R3 requires
∂ ≤ ∂̂ and the constructor enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.digits import DigitGeometry
from repro.errors import ConfigurationError
from repro.gpu.occupancy import BlockResources, occupancy
from repro.gpu.spec import GPUSpec, TITAN_X_PASCAL

__all__ = ["SortConfig", "derive_table3", "TABLE3_PRESETS"]


def _default_local_configs(local_threshold: int) -> tuple[int, ...]:
    """The local-sort configuration ladder (§4.2).

    Bucket-size subintervals [1, 128], (128, 256], (256, 512], …,
    (…, ∂̂]: powers of two starting at 128, capped by ∂̂ itself.
    """
    sizes: list[int] = []
    size = 128
    while size < local_threshold:
        sizes.append(size)
        size *= 2
    sizes.append(local_threshold)
    return tuple(sizes)


@dataclass(frozen=True)
class SortConfig:
    """Complete configuration of one hybrid radix sort.

    Attributes
    ----------
    key_bits / value_bits:
        Bit widths of keys and (optional, 0 = keys only) values.
    digit_bits:
        Bits per digit; the paper settles on 8 (§4.4).
    kpb:
        Keys per block (KPB) — the fixed-size unit of scheduling (§4.2).
    threads:
        Threads per block for the counting-sort kernels.
    kpt:
        Keys (32-bit words for the pair layouts, matching the paper's
        table) each thread handles.
    local_threshold:
        ∂̂ — buckets at most this size are sorted in shared memory (R1).
    merge_threshold:
        ∂ — adjacent sub-buckets merge while their total stays below
        this (R3); must not exceed ``local_threshold``.
    local_sort_configs:
        Ascending bucket-size capacities of the local-sort kernels; the
        last entry must equal ``local_threshold``.
    use_bucket_merging / use_multi_config / use_lookahead /
    use_thread_reduction:
        The ablation switches of Figures 11–14.  All on by default.
    lookahead_skew_threshold:
        Fraction of a block's keys that must share one digit value before
        the scatter kernel turns on the look-ahead (§4.4: "only consider
        the look-ahead for highly skewed distributions").
    lookahead_depth:
        How many following keys each thread inspects (the paper uses 2,
        i.e. writes of up to three keys combine).
    sort_bits:
        Restrict the digit sequence to the top ``sort_bits`` bits of the
        key word (default: all of them).  Internal lever of the packed
        pair fast paths, where a payload occupies the low bits of the
        word and must not be partitioned on.
    pair_packing:
        Key-value fast-path policy (§4.6 in host terms): ``"auto"``
        packs whenever a bit-identical packed layout exists, ``"index"``
        forces the key+row-index packing, ``"fused"`` additionally fuses
        narrow values into the key word (ties between equal keys then
        order by value bits instead of input order), ``"off"`` keeps the
        decomposed argsort pipeline (the oracle path).
    """

    key_bits: int = 32
    value_bits: int = 0
    digit_bits: int = 8
    kpb: int = 6912
    threads: int = 384
    kpt: int = 18
    local_threshold: int = 9216
    merge_threshold: int = 3000
    local_sort_configs: tuple[int, ...] = ()
    use_bucket_merging: bool = True
    use_multi_config: bool = True
    use_lookahead: bool = True
    use_thread_reduction: bool = True
    lookahead_skew_threshold: float = 0.3
    lookahead_depth: int = 2
    sort_bits: int | None = None
    pair_packing: str = "auto"

    def __post_init__(self) -> None:
        if self.key_bits not in (8, 16, 32, 64):
            raise ConfigurationError("key_bits must be 8, 16, 32, or 64")
        if self.value_bits not in (0, 8, 16, 32, 64):
            raise ConfigurationError(
                "value_bits must be 0, 8, 16, 32, or 64"
            )
        if self.kpb <= 0 or self.threads <= 0 or self.kpt <= 0:
            raise ConfigurationError("kpb, threads, kpt must be positive")
        if self.local_threshold <= 0:
            raise ConfigurationError("local_threshold must be positive")
        if self.merge_threshold > self.local_threshold:
            raise ConfigurationError(
                "rule R3 requires merge_threshold <= local_threshold"
            )
        if self.merge_threshold < 1:
            raise ConfigurationError("merge_threshold must be >= 1")
        # Materialise the default ladder once so every consumer sees it.
        if not self.local_sort_configs:
            object.__setattr__(
                self,
                "local_sort_configs",
                _default_local_configs(self.local_threshold),
            )
        ladder = self.local_sort_configs
        if list(ladder) != sorted(ladder):
            raise ConfigurationError("local_sort_configs must be ascending")
        if ladder[-1] != self.local_threshold:
            raise ConfigurationError(
                "the largest local-sort configuration must equal ∂̂"
            )
        if self.lookahead_depth < 0:
            raise ConfigurationError("lookahead_depth must be >= 0")
        if not 0.0 <= self.lookahead_skew_threshold <= 1.0:
            raise ConfigurationError(
                "lookahead_skew_threshold must be in [0, 1]"
            )
        if self.sort_bits is not None and not (
            1 <= self.sort_bits <= self.key_bits
        ):
            raise ConfigurationError("sort_bits must be in [1, key_bits]")
        if self.pair_packing not in ("auto", "index", "fused", "off"):
            raise ConfigurationError(
                "pair_packing must be 'auto', 'index', 'fused', or 'off'"
            )

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def geometry(self) -> DigitGeometry:
        return DigitGeometry(
            key_bits=self.key_bits,
            digit_bits=self.digit_bits,
            sort_bits=self.sort_bits,
        )

    @property
    def radix(self) -> int:
        return 1 << self.digit_bits

    @property
    def num_digits(self) -> int:
        return self.geometry.num_digits

    @property
    def key_bytes(self) -> int:
        return self.key_bits // 8

    @property
    def value_bytes(self) -> int:
        return self.value_bits // 8

    @property
    def record_bytes(self) -> int:
        return self.key_bytes + self.value_bytes

    @property
    def has_values(self) -> bool:
        return self.value_bits > 0

    @property
    def effective_configs(self) -> tuple[int, ...]:
        """Local-sort ladder honouring the multi-config ablation switch."""
        if self.use_multi_config:
            return self.local_sort_configs
        return (self.local_threshold,)

    def with_ablations(
        self,
        *,
        bucket_merging: bool | None = None,
        multi_config: bool | None = None,
        lookahead: bool | None = None,
        thread_reduction: bool | None = None,
    ) -> "SortConfig":
        """A copy with the given optimisations toggled (Figures 11–14)."""
        changes: dict = {}
        if bucket_merging is not None:
            changes["use_bucket_merging"] = bucket_merging
        if multi_config is not None:
            changes["use_multi_config"] = multi_config
        if lookahead is not None:
            changes["use_lookahead"] = lookahead
        if thread_reduction is not None:
            changes["use_thread_reduction"] = thread_reduction
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Table 3 presets
    # ------------------------------------------------------------------
    @classmethod
    def for_keys(cls, key_bits: int = 32) -> "SortConfig":
        """The Table 3 preset for keys-only sorting."""
        if key_bits == 32:
            return cls(
                key_bits=32, value_bits=0,
                kpb=6912, threads=384, kpt=18,
                local_threshold=9216, merge_threshold=3000,
            )
        if key_bits == 64:
            return cls(
                key_bits=64, value_bits=0,
                kpb=3456, threads=384, kpt=9,
                local_threshold=4224, merge_threshold=1400,
            )
        raise ConfigurationError("key_bits must be 32 or 64")

    @classmethod
    def for_pairs(cls, key_bits: int = 32, value_bits: int | None = None) -> "SortConfig":
        """The Table 3 preset for key-value sorting.

        The paper evaluates symmetric layouts (32/32 and 64/64); those are
        the tuned presets.  Asymmetric layouts reuse the preset of the
        wider side.
        """
        value_bits = key_bits if value_bits is None else value_bits
        wide = max(key_bits, value_bits)
        if key_bits == 32 and wide == 32:
            return cls(
                key_bits=32, value_bits=32,
                kpb=3456, threads=384, kpt=18,
                local_threshold=5760, merge_threshold=1920,
            )
        if key_bits == 64 or wide == 64:
            return cls(
                key_bits=key_bits, value_bits=value_bits,
                kpb=2304, threads=256, kpt=9,
                local_threshold=3840, merge_threshold=1280,
            )
        raise ConfigurationError("unsupported key/value bit combination")

    @classmethod
    def for_layout(cls, key_bits: int, value_bits: int = 0) -> "SortConfig":
        """Dispatch to the matching Table 3 preset."""
        if value_bits == 0:
            return cls.for_keys(key_bits)
        return cls.for_pairs(key_bits, value_bits)

    # ------------------------------------------------------------------
    # Resource feasibility
    # ------------------------------------------------------------------
    def scatter_block_resources(self) -> BlockResources:
        """Shared memory and registers of the scatter kernel's block.

        The scatter kernel stages a block's KPB keys in shared memory
        (§4.4, Figure 3) next to the radix write counters; values reuse
        the key staging area afterwards (§4.6), so only the wider of the
        two matters.
        """
        staging = self.kpb * max(self.key_bytes, max(self.value_bytes, 1))
        counters = self.radix * 4
        return BlockResources(
            threads=self.threads,
            shared_memory_bytes=staging + counters,
            registers_per_thread=32,
        )

    def local_sort_block_resources(self, capacity: int) -> BlockResources:
        """Resources of the local-sort kernel for one config capacity."""
        staging = capacity * self.record_bytes if self.has_values else capacity * self.key_bytes
        threads = min(self.threads, max(32, capacity))
        return BlockResources(
            threads=threads,
            shared_memory_bytes=staging,
            registers_per_thread=40,
        )


#: The four rows of Table 3, keyed by (key_bits, value_bits).
TABLE3_PRESETS: dict[tuple[int, int], SortConfig] = {
    (32, 0): SortConfig.for_keys(32),
    (64, 0): SortConfig.for_keys(64),
    (32, 32): SortConfig.for_pairs(32, 32),
    (64, 64): SortConfig.for_pairs(64, 64),
}


def derive_table3(
    spec: GPUSpec = TITAN_X_PASCAL,
) -> list[dict]:
    """Replay Table 3 with the occupancy consequences of each preset.

    Returns one row per layout with the preset parameters plus the
    occupancy results that justify them: the scatter kernel keeps
    multiple blocks per SM resident, and the largest local-sort
    configuration still fits the shared memory of an SM (the binding
    constraint on ∂̂ per §6).
    """
    rows = []
    for (key_bits, value_bits), config in TABLE3_PRESETS.items():
        scatter_occ = occupancy(spec, config.scatter_block_resources())
        local_block = config.local_sort_block_resources(config.local_threshold)
        if local_block.shared_memory_bytes > spec.shared_memory_per_sm:
            raise ConfigurationError(
                f"∂̂={config.local_threshold} does not fit the SM for "
                f"layout {key_bits}/{value_bits}"
            )
        rows.append(
            {
                "layout": f"{key_bits}-bit keys"
                if value_bits == 0
                else f"{key_bits}-bit/{value_bits}-bit pairs",
                "kpb": config.kpb,
                "threads": config.threads,
                "kpt": config.kpt,
                "local_threshold": config.local_threshold,
                "merge_threshold": config.merge_threshold,
                "scatter_blocks_per_sm": scatter_occ.blocks_per_sm,
                "scatter_occupancy": scatter_occ.occupancy_fraction,
                "local_sort_shared_bytes": local_block.shared_memory_bytes,
            }
        )
    return rows
