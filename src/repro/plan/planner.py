"""The planner: one strategy decision for every engine in the repo.

:class:`Planner` maps an :class:`~repro.plan.descriptor.InputDescriptor`
to a :class:`~repro.plan.ir.SortPlan` in one code path:

* **file inputs** spill memory-budgeted runs, sized by what each run
  sort holds (:func:`run_footprint`), and k-way merge them (the
  out-of-core realisation of §5, executed by ``ExternalSorter``);
* **budgeted arrays whose sort would hold more than chunking** sort
  chunks cut as a file's runs are, on the engine a file's runs would
  use, and merge them in memory with the file merge's
  :func:`~repro.external.merge.drain_cursors`;
* **small arrays under an adaptive policy** fall back to the LSD
  baseline (§6.1's case distinction — the crossover constants live
  here and ``AdaptiveSorter`` delegates to them);
* **every other array** sorts on one host rung, chosen by layout and
  tier alone (:meth:`Planner.run_engine`): 64-bit-key pairs on the
  compiled counting-scatter (:mod:`repro.native`) wherever it is
  built, and everything else on the library rung, ``np.sort`` over the
  §4.6 bits (:mod:`repro.core.library`);
* **the simulator** — the hybrid MSD sort (§4), planned as a single
  ``local-sort`` step when the whole input fits one on-chip sort — is
  reached only by ``native="never"`` (what a ``device=`` asks for)
  and an explicit ``sort_bits``.

Planning never touches input data: every decision is a function of the
descriptor alone, so plans are deterministic, cheap, and serialisable.
What a plan holds comes from the host's one memory model: the bytes
each rung's sort was measured to hold (:func:`run_footprint`,
:func:`array_footprint`), read off a layout's two dtypes alone and
summed by :func:`plan_resident_bytes`.  §5's three-buffer rule
(Figure 5) is the device's and stays in :mod:`repro.hetero.chunking`.

Every plan is priced by the paper-anchored models
(:class:`~repro.core.analytical.AnalyticalModel` pass counts, the LSD
baseline's :class:`~repro.cost.model.LSDCostPreset` pricing,
:class:`~repro.hetero.merge.CpuMergeModel`) in the §6 device's
seconds, ``cost_source="paper-analytical"``; the sort service re-prices
plans from its own measured executions
(:class:`~repro.cost.feedback.CostFeedback`).  Prices never change a
route.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro.core.analytical import AnalyticalModel
from repro.core.config import SortConfig
from repro.core.pairs import fused_packable
from repro.errors import ConfigurationError
from repro.hetero.merge import CpuMergeModel
from repro.plan.descriptor import InputDescriptor
from repro.plan.ir import PlanStep, SortPlan

__all__ = [
    "Planner",
    "run_footprint",
    "array_footprint",
    "plan_resident_bytes",
    "array_resident_bytes",
    "SORT_OVERHEAD_BYTES",
    "CHUNK_OVERHEAD_BYTES",
    "PAPER_CROSSOVER_KEYS",
    "PAPER_CROSSOVER_PAIRS",
    "HOST_DISK_BANDWIDTH",
]

#: §6.1: the hybrid sort wins beyond 1.9 M keys on any distribution.
PAPER_CROSSOVER_KEYS = 1_900_000

#: §6.1: ... and beyond 1.6 M key-value pairs.
PAPER_CROSSOVER_PAIRS = 1_600_000

#: Nominal host storage bandwidth (bytes/s) used to annotate the I/O
#: halves of spill/merge steps.  A round SSD-class figure — the
#: annotation exists so ``repro plan`` can rank strategies, not to
#: predict a specific machine's wall-clock.
HOST_DISK_BANDWIDTH = 1.0e9


def layout_preset(key_bits: int, value_bits: int) -> SortConfig:
    """The Table 3 preset for a layout, widened for narrow dtypes.

    Narrow pedagogical key dtypes (uint8/uint16 files) borrow the
    32-bit preset's geometry with their true bit width — the same
    widening :class:`repro.external.runs.RunWriter` applies.  One
    definition, shared by the planner's pricing config and the
    executors' engine config, so the two can never disagree.
    """
    preset = SortConfig.for_layout(
        32 if key_bits <= 32 else 64,
        0 if value_bits == 0 else (32 if value_bits <= 32 else 64),
    )
    if preset.key_bits == key_bits and preset.value_bits == value_bits:
        return preset
    return replace(preset, key_bits=key_bits, value_bits=value_bits)


#: Bytes a sort holds whatever its size (result, metadata, array
#: headers; the simulated engines' traces take up to about 11 KiB).
SORT_OVERHEAD_BYTES = 16 << 10

#: Bytes a budgeted array's chunked sort holds per chunk beside its
#: budget: the chunk's merge cursor and bounds (measured 0.4-0.9 KiB).
CHUNK_OVERHEAD_BYTES = 1 << 10


def run_footprint(layout, engine: str, pair_packing: str = "auto") -> int:
    """Bytes per record a run sort of ``layout``'s dtypes holds on ``engine``.

    What :func:`~repro.external.runs.plan_runs` cuts runs by, so that a
    run and its sort's temporaries fit the budget.  On the library rung
    (:func:`~repro.external.runs._library_sort_records`; measured with
    ``tracemalloc``, plus the stable sort's buffer, which NumPy
    allocates outside its view):

    * keys sort in place over their bits: the record, plus one bool per
      float key for the map and one byte per 8-bit key for the stable
      sort's buffer;
    * fused pairs hold the record, the fused words and one more word
      and record while they pack and unpack;
    * other 8-byte pairs sort in place as ``key|position`` words: the
      record and its 4-byte value, 1.5 records;
    * other pairs hold the record and their ``key|position`` words,
      then the larger of the key bits with the packing's 8-byte
      temporary — for 64-bit keys, their bits and the second pass's
      words, 24 bytes — and the gathered records.

    The radix engines, measured the same way at 2^11 to 2^18 records,
    plus the compiled kernel's scratch, which it mallocs outside
    ``tracemalloc``'s view (16 bytes a record at worst):

    * keys: the record and 48 bytes (the native kernel's key and
      payload lanes and its scratch; the hybrid engine's bits and
      buffers);
    * pairs on the native kernel: two records (the input and the
      rebuilt output) and 48 bytes of lanes and scratch, 64 under
      ``"off"`` packing, whose permutation gathers the columns;
    * pairs on the hybrid engine: two records and 80 bytes, or six
      records and 72 bytes under ``"off"`` packing.

    >>> run_footprint(InputDescriptor(0, "f8"), "library")
    9
    >>> run_footprint(InputDescriptor(0, "u1"), "library")
    2
    >>> run_footprint(InputDescriptor(0, "u4", "u4"), "library")
    12
    >>> run_footprint(InputDescriptor(0, "u4", "u4"), "library", "fused")
    32
    >>> run_footprint(InputDescriptor(0, "u2", "u4"), "library")
    24
    >>> run_footprint(InputDescriptor(0, "i8", "u4"), "library")
    44
    >>> run_footprint(InputDescriptor(0, "i8", "u4"), "native")
    72
    >>> run_footprint(InputDescriptor(0, "u8", "u8"), "hybrid")
    112
    """
    key, record = layout.key_dtype.itemsize, layout.record_bytes
    value = None if layout.value_dtype is None else record - key
    if engine != "library":
        if value is None:
            return record + 48
        off = pair_packing == "off"
        if engine == "native":
            return 2 * record + (64 if off else 48)
        return 6 * record + 72 if off else 2 * record + 80
    if value is None:
        return record + (layout.key_dtype.kind == "f") + (key == 1)
    if pair_packing == "fused" and fused_packable(8 * key, 8 * value):
        return 2 * (record + (4 if record <= 4 else 8))
    # 8-byte records sort in place as words (runs._word_pairs).
    if sys.byteorder == "little" and key == value == 4:
        return record + value
    return record + 8 + max(key + 8 if key < 8 else 24, record)


def array_footprint(layout, engine: str, pair_packing: str = "auto") -> int:
    """Bytes per record a whole in-memory array's sort holds on ``engine``.

    Beside the caller's input, output included, plus
    :data:`SORT_OVERHEAD_BYTES`; measured with ``tracemalloc`` at 2^14
    and 2^18 records (docs/performance.md, "Budgeted arrays"):

    * ``"library"``: keys hold their bits, plus a bool per float key for
      the map; pairs their bits, the ``key|position`` words, the
      permutation and the gathered values (at least 4 bytes), or fused,
      the words and their unpacked keys and values; 64-bit-key pairs
      their bits and two passes of ``key|position`` words, 32 bytes
      (the gathered keys and values of up to 16 bytes fit in them).
    * ``"native"``: the kernel's two 8-byte output lanes and 16 bytes of
      scratch it mallocs outside ``tracemalloc``'s view, and what each
      packing builds around them: key bits, widened to a lane and
      narrowed back when narrower; a 64-bit key's narrow value, widened
      to the payload lane; a packed word; or under ``"off"`` a position
      lane and the gathered keys and values.
    * ``"hybrid"``: its run footprint, which bounds the array sort too:
      what the engine holds depends on the buckets the data makes (up to
      40 bytes a record for uint32 keys, 85 for 64-bit-key pairs and 132
      under ``"off"``, over uniform, Zipf and few-distinct keys).
    * ``"fallback"`` (the §6.1 LSD baseline): the record and 40 bytes.
    * ``"batch"`` (:func:`~repro.service.batching.execute_batch`): three
      records for keys, eight and 40 bytes for pairs, whose rows pad to
      a power of two.

    >>> array_footprint(InputDescriptor(0, "u4", "u4"), "library")
    24
    >>> array_footprint(InputDescriptor(0, "i8", "u8"), "native")
    32
    >>> array_footprint(InputDescriptor(0, "i8", "u8"), "library")
    32
    """
    if engine == "hybrid":
        return run_footprint(layout, engine, pair_packing)
    key, record = layout.key_dtype.itemsize, layout.record_bytes
    value = None if layout.value_dtype is None else record - key
    float_map, fused = layout.key_dtype.kind == "f", pair_packing == "fused"
    if engine == "fallback":
        return record + 40
    if engine == "batch":
        return 3 * record if value is None else 8 * record + 40
    if engine == "library":
        if value is None:
            return record + float_map
        if key == 8 and not fused:
            return max(32, 16 + value)
        return key + 16 + (key + value if fused else max(value, 4)) + float_map
    lanes = 32  # two output lanes and the kernel's scratch
    if value is None:
        return lanes + key + (8 + key if key < 8 else 0)
    if pair_packing == "off":
        return lanes + max(16 + key, 8 + 2 * key + value) + float_map
    if key == 8:
        return lanes + (8 + value if value < 8 else 0)
    return lanes + 2 * key + 8 + (value if fused else float_map)


def plan_resident_bytes(plan: SortPlan) -> int:
    """The bytes executing ``plan`` holds beside its input.

    An unchunked array holds its rung's measured footprint
    (:func:`array_resident_bytes`); a chunked one, the staged copy of
    its records, the output, the budget its chunk sorts and merge
    rounds fit, its sort's overhead (twice on a radix rung, whose chunk
    sorts have their own) and :data:`CHUNK_OVERHEAD_BYTES` a chunk; a
    file sort, its budget.  The planner chunks only when that holds
    less, and the sort service admits by it.
    """
    desc = plan.descriptor
    params = plan.steps[0].params
    if plan.strategy == "external":
        return params["memory_budget"]
    if plan.strategy == "hetero":
        sorts = 1 if params["engine"] == "library" else 2
        return (
            2 * desc.total_bytes + params["memory_budget"]
            + params["n_chunks"] * CHUNK_OVERHEAD_BYTES
            + sorts * SORT_OVERHEAD_BYTES
        )
    return array_resident_bytes(desc, plan.strategy, params.get("packing", "auto"))


def array_resident_bytes(
    descriptor: InputDescriptor, rung: str, pair_packing: str = "auto"
) -> int:
    """One unchunked sort on ``rung``: the footprint per record
    (:func:`array_footprint`) times the records, and the per-sort
    overhead; the sort service charges a micro-batch member this on the
    ``"batch"`` rung."""
    footprint = array_footprint(descriptor, rung, pair_packing)
    return descriptor.n * footprint + SORT_OVERHEAD_BYTES


class Planner:
    """Maps an :class:`InputDescriptor` to an executable :class:`SortPlan`.

    Parameters
    ----------
    config:
        Optional :class:`~repro.core.config.SortConfig` override for
        the in-memory engine; the Table 3 preset for the layout
        otherwise.
    adaptive:
        Apply the §6.1 small-input case distinction (what
        :class:`~repro.core.adaptive.AdaptiveSorter` enables).  Off by
        default so the plain facade reproduces the classic hybrid
        behaviour bit for bit.
    key_crossover / pair_crossover:
        The adaptive thresholds; defaults are the paper's measured
        worst-case crossovers.
    native:
        Engine policy for in-memory inputs, a budgeted array's chunks
        and a file's run sorts alike.  ``"auto"`` (default) sends
        64-bit-key pairs to the compiled counting-scatter wherever the
        once-per-process availability probe succeeds, at any size, and
        everything else to the library rung, ``np.sort`` over the §4.6
        bits (:meth:`run_engine`); ``"never"`` keeps every plan on the
        simulated NumPy engines; ``"always"`` plans the native tier for
        any in-memory input or run regardless of the probe (the
        executor degrades inline to the library rung when the tier is
        missing — what ``repro sort --engine native`` relies on).
    """

    def __init__(
        self,
        config: SortConfig | None = None,
        adaptive: bool = False,
        key_crossover: int = PAPER_CROSSOVER_KEYS,
        pair_crossover: int = PAPER_CROSSOVER_PAIRS,
        native: str = "auto",
    ) -> None:
        if key_crossover < 0 or pair_crossover < 0:
            raise ConfigurationError("crossovers must be non-negative")
        if native not in ("auto", "never", "always"):
            raise ConfigurationError(
                "native must be 'auto', 'never', or 'always'"
            )
        self.config = config
        self.adaptive = adaptive
        self.key_crossover = key_crossover
        self.pair_crossover = pair_crossover
        self.native = native

    # ------------------------------------------------------------------
    # The strategy decision
    # ------------------------------------------------------------------
    def chooses_hybrid(self, n: int, has_values: bool) -> bool:
        """§6.1's case distinction (the logic AdaptiveSorter delegates to)."""
        threshold = self.pair_crossover if has_values else self.key_crossover
        return n >= threshold

    def plan(self, descriptor: InputDescriptor) -> SortPlan:
        """Choose the strategy and lay out the steps for one input.

        A budgeted array sorts whole unless chunking it holds fewer
        bytes (:func:`plan_resident_bytes`).  Chunks sort in a staged
        copy of the records, as bytes, which object references cannot
        be; such arrays sort whole.
        """
        if descriptor.source == "file":
            return self.plan_external(descriptor)
        plan = self._plan_whole(descriptor)
        value = descriptor.value_dtype
        if (
            descriptor.memory_budget is not None
            and descriptor.n
            and not (value is not None and value.hasobject)
        ):
            chunked = self.plan_chunked(descriptor)
            if plan_resident_bytes(chunked) < plan_resident_bytes(plan):
                return chunked
        return plan

    def _plan_whole(self, descriptor: InputDescriptor) -> SortPlan:
        """The in-memory plan of the whole array."""
        if self.adaptive and not self.chooses_hybrid(
            descriptor.n, descriptor.has_values
        ):
            return self._plan_fallback(descriptor)
        engine, note = self.run_engine(descriptor)
        plan = {"library": self._plan_library, "native": self._plan_native,
                "hybrid": self._plan_hybrid}[engine]
        return plan(descriptor, note)

    def run_engine(self, descriptor: InputDescriptor) -> tuple[str, str]:
        """The engine of an in-memory sort — a whole array, a budgeted
        array's chunks or a file's runs — and why.

        Returns ``("library" | "native" | "hybrid", note)``; the note
        rides on the plan, so ``repro plan`` explains the choice.  Under
        ``native="auto"`` it depends on layout and tier, never on size:
        64-bit-key pairs take the compiled kernel wherever it is built,
        and everything else the library rung, which beats the hybrid
        engine at every size measured (docs/performance.md).  An
        explicit ``sort_bits`` and ``native="never"`` keep the hybrid
        engine; ``native="always"`` plans the compiled tier.
        """
        from repro.native.build import native_status

        if self.native == "never":
            return "hybrid", "native tier disabled for this planner"
        if self.native == "always":
            status = native_status()
            detail = (
                status.reason
                if status.available
                else f"requested; {status.reason}"
            )
            return "native", f"native tier forced: {detail}"
        if self._config_for(descriptor).sort_bits is not None:
            return "hybrid", (
                "native tier skipped: explicit sort_bits is a NumPy-"
                "tier-only lever"
            )
        if descriptor.has_values and descriptor.key_bits == 64:
            status = native_status()
            if status.available:
                return "native", f"native tier selected: {status.reason}"
            return "library", (
                f"library rung selected: native tier unavailable: "
                f"{status.reason}"
            )
        return "library", (
            "library rung selected: np.sort outruns the compiled tier "
            "on this layout"
        )

    # ------------------------------------------------------------------
    # Strategy planners
    # ------------------------------------------------------------------
    def _plan_hybrid(self, descriptor: InputDescriptor, note: str) -> SortPlan:
        config = self._config_for(descriptor)
        n = descriptor.n
        total = descriptor.total_bytes
        if n <= config.local_threshold:
            step = PlanStep(
                kind="local-sort",
                params={
                    "n": n, "capacity": config.local_threshold,
                    **self._packing(descriptor),
                },
                predicted_seconds=self._stream_seconds(descriptor, 2 * total),
                bytes_moved=2 * total,
            )
            reason = (
                f"{n:,} records fit one local sort "
                f"(∂̂ = {config.local_threshold:,})"
            )
        else:
            step = self._msd_step(descriptor, config, n)
            reason = (
                f"{n:,} records exceed the local-sort threshold; "
                f"in-memory hybrid MSD sort"
            )
        return SortPlan(
            descriptor=descriptor,
            strategy="hybrid",
            engine="HybridRadixSorter",
            steps=(step,),
            reason=reason,
            notes=(note,),
        )

    def _plan_native(
        self, descriptor: InputDescriptor, note: str
    ) -> SortPlan:
        """One in-memory sort through the compiled counting-scatter."""
        return SortPlan(
            descriptor=descriptor,
            strategy="native",
            engine="NativeRadixEngine",
            steps=(self._native_step(descriptor, descriptor.n),),
            reason=(
                f"{descriptor.n:,} in-memory records; compiled "
                f"counting-scatter with write-combined MSD partition"
            ),
            notes=(note,),
        )

    def _plan_library(self, descriptor: InputDescriptor, note: str) -> SortPlan:
        """``np.sort`` over the §4.6 bits (packed words for pairs)."""
        n = descriptor.n
        bytes_moved = 2 * descriptor.total_bytes
        if not descriptor.has_values:
            packing, words = "keys", "key bits"
        elif self._config_for(descriptor).pair_packing == "fused":
            packing, words = "fused", "key|value words"
        else:
            packing, words = "index", "key|row-index words"
        step = PlanStep(
            kind="library-sort",
            params={"n": n, "packing": packing},
            predicted_seconds=self._stream_seconds(descriptor, bytes_moved),
            bytes_moved=bytes_moved,
        )
        return SortPlan(
            descriptor=descriptor,
            strategy="library",
            engine="numpy.sort",
            steps=(step,),
            reason=(
                f"{n:,} in-memory records; np.sort over the §4.6 "
                f"{words}"
            ),
            notes=(note,),
        )

    def _plan_fallback(self, descriptor: InputDescriptor) -> SortPlan:
        from repro.baselines.cub import CubRadixSort

        fallback = CubRadixSort("1.5.1", spec=descriptor.spec)
        key_bytes = descriptor.key_dtype.itemsize
        value_bytes = (
            0
            if descriptor.value_dtype is None
            else descriptor.value_dtype.itemsize
        )
        passes = fallback.preset.passes_for(descriptor.key_bits)
        step = PlanStep(
            kind="lsd-fallback",
            params={"n": descriptor.n, "passes": passes,
                    "baseline": fallback.preset.name},
            predicted_seconds=fallback.simulated_seconds(
                descriptor.n, key_bytes, value_bytes
            ),
            bytes_moved=3 * passes * descriptor.total_bytes,
        )
        threshold = (
            self.pair_crossover
            if descriptor.has_values
            else self.key_crossover
        )
        return SortPlan(
            descriptor=descriptor,
            strategy="fallback",
            engine="CubRadixSort",
            steps=(step,),
            reason=(
                f"{descriptor.n:,} records fall short of the §6.1 "
                f"crossover ({threshold:,}); LSD baseline wins"
            ),
        )

    def plan_chunked(self, descriptor: InputDescriptor) -> SortPlan:
        """The §5 chunked strategy for a budgeted array.

        The chunks are cut as a file's runs of the layout and budget
        (:meth:`_cut`), one sorting at a time, each in place in a
        staged copy of the records; the sorted chunks merge in memory
        through :func:`repro.external.merge.drain_cursors`.
        """
        if descriptor.n == 0:
            raise ConfigurationError("cannot plan chunks for an empty input")
        budget = descriptor.memory_budget
        if budget is None:
            raise ConfigurationError("the chunked strategy needs a memory_budget")
        engine, note, footprint, run_plan, sort_seconds = self._cut(
            descriptor, budget
        )
        k, total = run_plan.n_runs, descriptor.total_bytes
        chunks = PlanStep(
            "chunked-pipeline",
            {"n_chunks": k, "chunk_records": run_plan.run_records,
             "memory_budget": budget,
             "packing": self._config_for(descriptor).pair_packing,
             "engine": engine, "engine_note": note,
             "footprint_bytes": footprint, "run_plan": run_plan},
            sort_seconds, 2 * total,
        )
        merge = PlanStep(
            "kway-merge", {"n_runs": k, "where": "host"},
            self._merge_seconds(descriptor, k), 2 * total,
        )
        return SortPlan(
            descriptor, "hetero", f"{engine} chunks + drain_cursors",
            (chunks, merge),
            f"chunking holds less than the whole sort under the memory "
            f"budget; {k} chunks sorted by the {engine} engine, then an "
            f"in-memory k-way merge",
        )

    def plan_external(self, descriptor: InputDescriptor) -> SortPlan:
        """The spill-to-disk strategy for file inputs: runs cut by
        :meth:`_cut`, then a streaming merge."""
        from repro.external.sorter import DEFAULT_MEMORY_BUDGET

        budget = descriptor.memory_budget or DEFAULT_MEMORY_BUDGET
        engine, note, footprint, run_plan, sort_seconds = self._cut(
            descriptor, budget
        )
        k, total = run_plan.n_runs, descriptor.total_bytes
        io_seconds = 2 * total / HOST_DISK_BANDWIDTH
        runs = PlanStep(
            "spill-runs",
            {"n_runs": k, "run_records": run_plan.run_records,
             "memory_budget": budget,
             "engine": engine, "engine_note": note,
             "footprint_bytes": footprint, "run_plan": run_plan},
            io_seconds + sort_seconds, 2 * total,
        )
        merge = PlanStep(
            "kway-merge", {"n_runs": k, "where": "streaming disk"},
            io_seconds + self._merge_seconds(descriptor, k), 2 * total,
        )
        return SortPlan(
            descriptor, "external", "ExternalSorter", (runs, merge),
            f"on-disk input; {k} memory-budgeted run(s) of "
            f"≤ {run_plan.run_records:,} records sorted by the {engine} "
            f"engine, then a streaming merge",
        )

    def _cut(self, descriptor: InputDescriptor, budget: int):
        """Size a file's runs, or an array's chunks, under ``budget``.

        The runs sort on :meth:`run_engine`'s choice and are cut by its
        :func:`run_footprint`; a file's 8-byte word pairs also leave
        room for their word sort's chunk temporaries
        (:data:`~repro.external.runs.WORD_SORT_SCRATCH`), which a
        budgeted array's chunks sort in the space its output will fill.
        Returns ``(engine, note, footprint, run_plan, sort_seconds)``.
        """
        from repro.external.runs import plan_runs, word_sort_scratch

        n = descriptor.n
        packing = self._config_for(descriptor).pair_packing
        engine, note = self.run_engine(descriptor)
        footprint = run_footprint(descriptor, engine, packing)
        scratch = 0
        if engine == "library" and descriptor.source == "file":
            scratch = word_sort_scratch(descriptor, packing)
        run_plan = plan_runs(n, budget, footprint, scratch)
        k, longest = run_plan.n_runs, run_plan.run_records
        # Runs are cut evenly: each holds `longest` records or one fewer.
        long_runs = n - k * (longest - 1)
        sort_seconds = long_runs * self._run_sort_seconds(
            descriptor, engine, longest
        )
        if long_runs < k:
            sort_seconds += (k - long_runs) * self._run_sort_seconds(
                descriptor, engine, longest - 1
            )
        return engine, note, footprint, run_plan, sort_seconds

    def _merge_seconds(self, descriptor: InputDescriptor, n_runs: int) -> float:
        """The CPU k-way merge of ``n_runs`` sorted runs."""
        return CpuMergeModel().merge_seconds(
            total_bytes=descriptor.total_bytes,
            n_runs=max(1, n_runs),
            record_bytes=descriptor.record_bytes,
        )

    def _run_sort_seconds(
        self, descriptor: InputDescriptor, engine: str, n: int
    ) -> float:
        """Price of one ``n``-record run or chunk sort on ``engine``."""
        n = max(1, n)
        if engine == "library":
            return self._stream_seconds(
                descriptor, 2 * n * descriptor.record_bytes
            )
        if engine == "native":
            return self._native_step(descriptor, n).predicted_seconds
        return self._msd_step(
            descriptor, self._config_for(descriptor), n
        ).predicted_seconds

    # ------------------------------------------------------------------
    # Pricing helpers
    # ------------------------------------------------------------------
    def _config_for(self, descriptor: InputDescriptor) -> SortConfig:
        """Resolve the sizing/pricing configuration for a layout.

        A file sort's ``pair_packing`` rides on its descriptor and
        overrides the configuration's, since it decides the run sorts'
        engine.
        """
        config = self.config
        if config is None:
            config = layout_preset(descriptor.key_bits, descriptor.value_bits)
        packing = descriptor.pair_packing
        if packing is not None and packing != config.pair_packing:
            config = replace(config, pair_packing=packing)
        return config

    def _packing(self, descriptor: InputDescriptor) -> dict:
        """A pairs step's ``packing``: what its sort holds depends on it."""
        if not descriptor.has_values:
            return {}
        return {"packing": self._config_for(descriptor).pair_packing}

    def _stream_seconds(
        self, descriptor: InputDescriptor, bytes_moved: int
    ) -> float:
        """Seconds for streaming ``bytes_moved`` of engine traffic at
        the paper spec's effective bandwidth."""
        return bytes_moved / descriptor.spec.effective_bandwidth

    def _native_step(self, descriptor: InputDescriptor, n: int) -> PlanStep:
        """Price ``n`` records through the compiled counting-scatter.

        Pass counts and traffic come from
        :func:`repro.core.digits.native_traffic`, the Python mirror of
        the kernel's size-adapted schedule.
        """
        from repro.core.digits import native_pairs_pass_plan, native_traffic

        # The engine sorts the key field of whichever word layout the
        # pair packing selects; the schedule over the key bits is the
        # same either way, so price that.
        key_bits = self._config_for(descriptor).key_bits
        msd_width, splits, inner = native_pairs_pass_plan(key_bits, n)
        passes, bytes_moved = native_traffic(key_bits, n)
        return PlanStep(
            kind="native-lsd",
            params={
                "n": n,
                "expected_passes": passes,
                "msd_bits": msd_width,
                "split_widths": "+".join(map(str, splits)) or "none",
                "inner_widths": "+".join(map(str, inner)) or "insertion",
                **self._packing(descriptor),
            },
            predicted_seconds=self._stream_seconds(descriptor, bytes_moved),
            bytes_moved=bytes_moved,
        )

    def _msd_step(
        self, descriptor: InputDescriptor, config: SortConfig, n: int
    ) -> PlanStep:
        """Price ``n`` records through the hybrid MSD engine.

        Pass counts come from the §4.5 analytical model's uniform
        estimate; each counting pass reads the input for the histogram
        and reads + writes it for the scatter (3× traffic), and the
        finishing local sorts read and write it once more.
        """
        model = AnalyticalModel(config)
        passes = max(1, model.expected_counting_passes_uniform(max(1, n)))
        record_bytes = descriptor.record_bytes
        bytes_moved = (3 * passes + 2) * n * record_bytes
        return PlanStep(
            kind="hybrid-msd",
            params={
                "n": n,
                "expected_passes": passes,
                "local_threshold": config.local_threshold,
                "merge_threshold": config.merge_threshold,
                **self._packing(descriptor),
            },
            predicted_seconds=self._stream_seconds(descriptor, bytes_moved),
            bytes_moved=bytes_moved,
        )
