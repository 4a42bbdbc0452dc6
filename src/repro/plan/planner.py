"""The planner: one strategy decision for every engine in the repo.

Before this layer existed, each engine re-derived the paper's
plan-before-sorting decision privately: ``AdaptiveSorter`` owned the
§6.1 small-input crossover, ``HeterogeneousSorter`` and
``ExternalSorter`` each invoked the §5 budget accounting
(:func:`repro.hetero.chunking.plan_chunks` /
:func:`repro.external.runs.plan_runs`) on their own, and the
``repro.sort()`` facade knew exactly one engine.  :class:`Planner`
absorbs all of those decisions into a single code path that maps an
:class:`~repro.plan.descriptor.InputDescriptor` to a
:class:`~repro.plan.ir.SortPlan`:

* **file inputs** spill memory-budgeted runs and k-way merge them
  (the out-of-core realisation of §5, executed by ``ExternalSorter``);
* **arrays that exceed the memory budget** sort budget-sized chunks
  (three-buffer in-place replacement accounting, Figure 5) on the
  engine a file's runs would use, and merge them in memory with the
  file merge's :func:`~repro.external.merge.drain_cursors`;
* **small arrays under an adaptive policy** fall back to the LSD
  baseline (§6.1's case distinction — the crossover constants live
  here and ``AdaptiveSorter`` delegates to them);
* **keys, and pairs whose keys index-pack,** run the library rung:
  one ``np.sort`` over the §4.6 bits (:mod:`repro.core.library`);
* **everything else** is one in-memory radix sort: the compiled
  counting-scatter (:mod:`repro.native`) when it is built, else the
  hybrid MSD sort (§4), planned as a single ``local-sort`` step when
  the whole input fits one on-chip sort.

Planning never touches input data: every decision is a function of the
descriptor alone, so plans are deterministic, cheap, and serialisable.
Cost annotations come from three tiers, best available wins — the
paper-anchored models (:class:`~repro.core.analytical.AnalyticalModel`
pass counts, the LSD baseline's
:class:`~repro.cost.model.LSDCostPreset` pricing,
:class:`~repro.hetero.merge.CpuMergeModel`), a measured
:class:`~repro.cost.hostprofile.HostProfile` from ``repro calibrate``
when one exists, and per-signature measured-execute feedback
(:class:`~repro.cost.feedback.CostFeedback`) when a service supplies
it.  Every plan records which tier priced it in ``cost_source``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.analytical import AnalyticalModel
from repro.core.config import SortConfig
from repro.cost.hostmodel import HostCostModel
from repro.cost.hostprofile import HostProfile, load_host_profile
from repro.errors import ConfigurationError
from repro.hetero.chunking import max_chunk_bytes, plan_chunks
from repro.hetero.merge import CpuMergeModel
from repro.plan.descriptor import InputDescriptor
from repro.plan.ir import PlanStep, SortPlan

__all__ = [
    "Planner",
    "PAPER_CROSSOVER_KEYS",
    "PAPER_CROSSOVER_PAIRS",
    "HOST_DISK_BANDWIDTH",
    "NATIVE_MIN_KEYS",
]

#: §6.1: the hybrid sort wins beyond 1.9 M keys on any distribution.
PAPER_CROSSOVER_KEYS = 1_900_000

#: §6.1: ... and beyond 1.6 M key-value pairs.
PAPER_CROSSOVER_PAIRS = 1_600_000

#: Smallest record count the planner sends to the native tier.  With
#: the kernel finishing small buckets by size, native beat or tied the
#: hybrid engine at every size measured, 2^8 to 2^16, for all four
#: layouts (docs/performance.md, "The native floor"), so the floor sits
#: at the smallest size measured.
NATIVE_MIN_KEYS = 1 << 8

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
    in_place_replacement:
        Chunk-buffer accounting for budgeted plans: three buffers with
        the Figure 5 layout, four without.
    native:
        Engine policy for in-memory inputs.  ``"auto"`` (default)
        sends every layout the library rung serves (keys, and pairs
        whose keys index-pack) to ``np.sort`` over the §4.6 bits — in
        memory and as a file's run sorts alike — and prefers the
        compiled counting-scatter for the rest (64-bit-key pairs,
        ``"fused"``/``"off"`` packing, a file's 8/16-bit keys) from
        :data:`NATIVE_MIN_KEYS` records up, when the once-per-process
        availability probe succeeds and the configuration is one the
        tier supports; ``"never"`` keeps every plan on the simulated
        NumPy engines; ``"always"`` plans the native tier for any
        in-memory input or run regardless of the probe (the executor
        degrades typed when the tier is missing — what
        ``repro sort --engine native`` relies on).
    profile:
        Host-calibration policy.  ``"auto"`` (default) loads the
        calibrated :class:`~repro.cost.hostprofile.HostProfile` from
        its configured path when one exists (missing file = paper
        constants, silently); a :class:`HostProfile` instance or a
        path string pins a specific profile; ``None`` disables
        calibration so plans are priced exactly as before this layer
        existed.  Profiles change predicted seconds, never a plan's
        structure.
    feedback:
        Optional :class:`~repro.cost.feedback.CostFeedback` — measured
        execute times per descriptor signature, blended into
        predictions by :meth:`plan`.  The service wires one up; plain
        planners run without.
    """

    def __init__(
        self,
        config: SortConfig | None = None,
        adaptive: bool = False,
        key_crossover: int = PAPER_CROSSOVER_KEYS,
        pair_crossover: int = PAPER_CROSSOVER_PAIRS,
        in_place_replacement: bool = True,
        native: str = "auto",
        profile: HostProfile | str | None = "auto",
        feedback=None,
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
        self.in_place_replacement = in_place_replacement
        self.native = native
        if profile == "auto":
            profile = load_host_profile()
        elif isinstance(profile, str):
            profile = load_host_profile(profile)
        self.profile = profile
        self.host = None if profile is None else HostCostModel(profile)
        self.feedback = feedback
        self._cost_source = (
            "paper-analytical" if self.host is None else "host-profile"
        )
        self._fingerprint = (
            None if self.host is None else self.host.fingerprint or None
        )

    # ------------------------------------------------------------------
    # The strategy decision
    # ------------------------------------------------------------------
    def chooses_hybrid(self, n: int, has_values: bool) -> bool:
        """§6.1's case distinction (the logic AdaptiveSorter delegates to)."""
        threshold = self.pair_crossover if has_values else self.key_crossover
        return n >= threshold

    def fits_in_memory(self, descriptor: InputDescriptor) -> bool:
        """Whether the input plus its double buffer fits the budget.

        Uses the same three-buffer accounting the chunk planner applies
        (:func:`repro.hetero.chunking.max_chunk_bytes`), so "fits" here
        and "one chunk" there are the same statement.
        """
        if descriptor.memory_budget is None:
            return True
        limit = max_chunk_bytes(
            in_place_replacement=self.in_place_replacement,
            budget_bytes=descriptor.memory_budget,
        )
        return descriptor.total_bytes <= limit

    def plan(self, descriptor: InputDescriptor) -> SortPlan:
        """Choose the strategy and lay out the steps for one input.

        When a :class:`~repro.cost.feedback.CostFeedback` is attached
        and has observed this signature, the plan's predicted seconds
        are re-blended toward the measured history (structure and
        strategy are untouched — feedback re-prices, it never re-routes).
        """
        plan = self._choose(descriptor)
        if self.feedback is not None:
            plan = self.feedback.apply(plan, descriptor.signature())
        return plan

    def _choose(self, descriptor: InputDescriptor) -> SortPlan:
        if descriptor.source == "file":
            return self.plan_external(descriptor)
        if not self.fits_in_memory(descriptor):
            return self.plan_chunked(descriptor)
        if self.adaptive and not self.chooses_hybrid(
            descriptor.n, descriptor.has_values
        ):
            return self._plan_fallback(descriptor)
        if self._library_choice(descriptor):
            return self._plan_library(descriptor)
        use_native, note = self._native_choice(descriptor)
        if use_native:
            return self._plan_native(descriptor, note)
        return self._plan_hybrid(descriptor, note)

    def _library_choice(self, descriptor: InputDescriptor) -> bool:
        """Whether an in-memory plan runs on the library rung.

        Under ``native="auto"`` every layout the rung serves
        byte-identically goes there (keys, and pairs whose keys
        index-pack under ``"auto"``/``"index"`` packing), compiled
        tier built or not: ``np.sort`` outran the native kernel on
        those layouts at every size measured (docs/performance.md,
        "Routing").  An explicit ``sort_bits`` and a pinned ``native=``
        policy keep today's engines.
        """
        from repro.core.library import library_serves

        if self.native != "auto":
            return False
        config = self._config_for(descriptor)
        return config.sort_bits is None and library_serves(
            descriptor.key_bits,
            descriptor.n,
            descriptor.has_values,
            config.pair_packing,
        )

    def _native_choice(
        self, descriptor: InputDescriptor
    ) -> tuple[bool, str]:
        """Decide whether the in-memory plan runs the compiled tier.

        Returns ``(use_native, note)`` — the note explains the choice
        either way and is attached to the resulting plan, so
        ``repro plan`` and ``SortResult.meta["plan"]`` are always
        self-explaining about the tier decision.
        """
        from repro.native.build import native_status

        if self.native == "never":
            return False, "native tier disabled for this planner"
        if self.native == "always":
            status = native_status()
            detail = (
                status.reason
                if status.available
                else f"requested; {status.reason}"
            )
            return True, f"native tier forced: {detail}"
        config = self._config_for(descriptor)
        if config.sort_bits is not None:
            return False, (
                "native tier skipped: explicit sort_bits is a NumPy-"
                "tier-only lever"
            )
        if descriptor.n < NATIVE_MIN_KEYS:
            return False, (
                f"native tier skipped: {descriptor.n:,} records fall "
                f"short of the {NATIVE_MIN_KEYS:,}-record floor"
            )
        status = native_status()
        if not status.available:
            return False, f"native tier unavailable: {status.reason}"
        return True, f"native tier selected: {status.reason}"

    # ------------------------------------------------------------------
    # Strategy planners
    # ------------------------------------------------------------------
    def _plan_hybrid(
        self, descriptor: InputDescriptor, native_note: str | None = None
    ) -> SortPlan:
        config = self._config_for(descriptor)
        n = descriptor.n
        total = descriptor.total_bytes
        if n <= config.local_threshold:
            if self.host is not None:
                local_seconds = self.host.local_sort_seconds(n)
            else:
                local_seconds = self._stream_seconds(descriptor, 2 * total)
            step = PlanStep(
                kind="local-sort",
                params={"n": n, "capacity": config.local_threshold},
                predicted_seconds=local_seconds,
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
            notes=() if native_note is None else (native_note,),
            cost_source=self._cost_source,
            profile_fingerprint=self._fingerprint,
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
            cost_source=self._cost_source,
            profile_fingerprint=self._fingerprint,
        )

    def _plan_library(self, descriptor: InputDescriptor) -> SortPlan:
        """One ``np.sort`` over the §4.6 bits (index-packed for pairs)."""
        n = descriptor.n
        bytes_moved = 2 * descriptor.total_bytes
        if self.host is not None:
            seconds = self.host.library_seconds(descriptor, bytes_moved)
        else:
            seconds = bytes_moved / descriptor.spec.effective_bandwidth
        packing = "index" if descriptor.has_values else "keys"
        step = PlanStep(
            kind="library-sort",
            params={"n": n, "packing": packing},
            predicted_seconds=seconds,
            bytes_moved=bytes_moved,
        )
        words = (
            "key|row-index words" if descriptor.has_values else "key bits"
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
            notes=(
                "library rung selected: np.sort outruns the compiled "
                "tier on this layout",
            ),
            cost_source=self._cost_source,
            profile_fingerprint=self._fingerprint,
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
        if self.host is not None:
            # The executed fallback is one stable NumPy sort on this
            # host, not a simulated GPU LSD — price it as such.
            fallback_seconds = self.host.local_sort_seconds(descriptor.n)
        else:
            fallback_seconds = fallback.simulated_seconds(
                descriptor.n, key_bytes, value_bytes
            )
        step = PlanStep(
            kind="lsd-fallback",
            params={"n": descriptor.n, "passes": passes,
                    "baseline": fallback.preset.name},
            predicted_seconds=fallback_seconds,
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
            cost_source=self._cost_source,
            profile_fingerprint=self._fingerprint,
        )

    def plan_chunked(self, descriptor: InputDescriptor) -> SortPlan:
        """The §5 chunked strategy for an array over its memory budget.

        :func:`repro.hetero.chunking.plan_chunks` sizes the chunks
        against ``memory_budget``.  Every chunk sorts on the engine
        :meth:`run_engine` picks for the chunk size (recorded with its
        note, as ``spill-runs`` records a file's), and the sorted
        chunks merge in memory through
        :func:`repro.external.merge.drain_cursors`.
        """
        if descriptor.n == 0:
            raise ConfigurationError("cannot plan chunks for an empty input")
        if descriptor.memory_budget is None:
            raise ConfigurationError(
                "the chunked strategy needs a memory_budget"
            )
        chunk_plan = plan_chunks(
            descriptor.total_bytes,
            in_place_replacement=self.in_place_replacement,
            budget_bytes=descriptor.memory_budget,
        )
        n_chunks = chunk_plan.n_chunks
        # The executor cuts even chunks, none over this many records.
        chunk_records = -(-descriptor.n // n_chunks)
        engine, engine_note = self.run_engine(descriptor, chunk_records)
        total = descriptor.total_bytes
        chunks_step = PlanStep(
            kind="chunked-pipeline",
            params={
                "n_chunks": n_chunks,
                "chunk_bytes": chunk_plan.chunk_bytes,
                "memory_budget": descriptor.memory_budget,
                "in_place_replacement": chunk_plan.in_place_replacement,
                "engine": engine,
                "engine_note": engine_note,
                "chunk_plan": chunk_plan,
            },
            predicted_seconds=n_chunks * self._run_sort_seconds(
                descriptor, engine, chunk_records
            ),
            bytes_moved=2 * total,
        )
        merge_step = PlanStep(
            kind="kway-merge",
            params={"n_runs": n_chunks, "where": "host"},
            predicted_seconds=self._merge_seconds(
                total, n_chunks, descriptor.record_bytes
            ),
            bytes_moved=2 * total,
        )
        return SortPlan(
            descriptor=descriptor,
            strategy="hetero",
            engine=f"{engine} chunks + drain_cursors",
            steps=(chunks_step, merge_step),
            reason=(
                f"input exceeds the memory budget; {n_chunks} chunks "
                f"sorted by the {engine} engine, then an in-memory "
                f"k-way merge"
            ),
            cost_source=self._cost_source,
            profile_fingerprint=self._fingerprint,
        )

    def plan_external(self, descriptor: InputDescriptor) -> SortPlan:
        """The spill-to-disk strategy for file inputs.

        Run sizing delegates to :func:`repro.external.runs.plan_runs`
        — which itself prices the three-buffer accounting through
        :func:`repro.hetero.chunking.plan_chunks` — so the external and
        chunked strategies share one budget code path.  The in-memory
        engine every run sort uses is chosen once, for the run size and
        the descriptor's ``pair_packing``, by :meth:`run_engine`; the
        ``spill-runs`` step records it and why.
        """
        from repro.external.runs import plan_runs
        from repro.external.sorter import DEFAULT_MEMORY_BUDGET

        budget = descriptor.memory_budget or DEFAULT_MEMORY_BUDGET
        run_plan = plan_runs(descriptor.n, descriptor.record_bytes, budget)
        engine, engine_note = self.run_engine(
            descriptor, run_plan.run_records
        )
        total = descriptor.total_bytes
        if self.host is not None:
            # The spill probe folds sort cost into the measured
            # read+sort+write rate; the merge probe measured the
            # single streaming k-way pass the executor actually runs.
            spill_seconds = self.host.spill_seconds(total)
            merge_seconds = self.host.external_merge_seconds(total)
        else:
            disk_seconds = 2 * total / HOST_DISK_BANDWIDTH
            # Runs are cut evenly: each holds run_records or one record
            # fewer, so price the two sizes instead of every run.
            n_runs, longest = run_plan.n_runs, run_plan.run_records
            long_runs = descriptor.n - n_runs * (longest - 1)
            sort_seconds = long_runs * self._run_sort_seconds(
                descriptor, engine, longest
            )
            if long_runs < n_runs:
                sort_seconds += (n_runs - long_runs) * self._run_sort_seconds(
                    descriptor, engine, longest - 1
                )
            spill_seconds = disk_seconds + sort_seconds
            merge_seconds = (
                2 * total / HOST_DISK_BANDWIDTH
                + CpuMergeModel().merge_seconds(
                    total_bytes=total,
                    n_runs=max(1, run_plan.n_runs),
                    record_bytes=descriptor.record_bytes,
                )
            )
        runs_step = PlanStep(
            kind="spill-runs",
            params={
                "n_runs": run_plan.n_runs,
                "run_records": run_plan.run_records,
                "memory_budget": budget,
                "workers": descriptor.workers,
                "engine": engine,
                "engine_note": engine_note,
                "run_plan": run_plan,
            },
            predicted_seconds=spill_seconds,
            bytes_moved=2 * total,
        )
        merge_step = PlanStep(
            kind="kway-merge",
            params={"n_runs": run_plan.n_runs, "where": "streaming disk"},
            predicted_seconds=merge_seconds,
            bytes_moved=2 * total,
        )
        return SortPlan(
            descriptor=descriptor,
            strategy="external",
            engine="ExternalSorter",
            steps=(runs_step, merge_step),
            reason=(
                f"on-disk input; {run_plan.n_runs} memory-budgeted "
                f"run(s) of ≤ {run_plan.run_records:,} records sorted "
                f"by the {engine} engine, then a streaming merge"
            ),
            cost_source=self._cost_source,
            profile_fingerprint=self._fingerprint,
        )

    def run_engine(
        self, descriptor: InputDescriptor, run_records: int
    ) -> tuple[str, str]:
        """The in-memory engine for every run of a file sort, and why.

        Returns ``("library" | "native" | "hybrid", note)``: the
        choice an in-memory array of ``run_records`` records of the
        file's layout would get.  The library rung takes every layout
        :func:`~repro.core.library.library_serves` accepts under the
        sort's ``pair_packing`` (``descriptor.pair_packing``);
        ``"fused"``/``"off"`` packing, 64-bit-key pairs and 8/16-bit
        keys get :meth:`_native_choice`.
        ``RunWriter`` carries the choice out, with the native
        executor's inline fallback to the hybrid engine;
        :meth:`ExternalSorter.resume` asks again for the run size its
        manifest recorded.
        """
        run = InputDescriptor(
            n=run_records,
            key_dtype=descriptor.key_dtype,
            value_dtype=descriptor.value_dtype,
            pair_packing=descriptor.pair_packing,
            spec=descriptor.spec,
        )
        if self._library_choice(run):
            return "library", (
                "library rung selected: np.sort outruns the compiled "
                "tier at this run size"
            )
        use_native, note = self._native_choice(run)
        return ("native" if use_native else "hybrid"), note

    def _run_sort_seconds(
        self, descriptor: InputDescriptor, engine: str, n: int
    ) -> float:
        """Price of one ``n``-record run or chunk sort on ``engine``."""
        n = max(1, n)
        if engine == "library":
            bytes_moved = 2 * n * descriptor.record_bytes
            if self.host is not None:
                return self.host.library_seconds(
                    replace(descriptor, n=n), bytes_moved
                )
            return bytes_moved / descriptor.spec.effective_bandwidth
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

    def _stream_seconds(
        self, descriptor: InputDescriptor, bytes_moved: int
    ) -> float:
        """Seconds for streaming ``bytes_moved`` of engine traffic.

        Calibrated hosts use the measured counting-scatter bandwidth
        for the layout (worker speedup applied); uncalibrated planning
        divides by the paper spec's effective bandwidth, exactly as
        before the host-profile layer existed.
        """
        if self.host is not None:
            return self.host.counting_seconds(descriptor, bytes_moved)
        return bytes_moved / descriptor.spec.effective_bandwidth

    def _merge_seconds(
        self, total_bytes: int, n_runs: int, record_bytes: int
    ) -> float:
        """Host k-way reduce pricing (profile rate or CpuMergeModel)."""
        if self.host is not None:
            return self.host.merge_seconds(total_bytes, n_runs, record_bytes)
        return CpuMergeModel().merge_seconds(
            total_bytes=total_bytes,
            n_runs=n_runs,
            record_bytes=record_bytes,
        )

    def _native_step(self, descriptor: InputDescriptor, n: int) -> PlanStep:
        """Price ``n`` records through the compiled counting-scatter.

        Pass counts and traffic come from
        :func:`repro.core.digits.native_traffic`, the Python mirror of
        the kernel's size-adapted schedule.
        """
        from repro.core.digits import (
            native_pairs_pass_plan,
            native_pass_plan,
            native_runs_pairs_kernel,
            native_traffic,
        )

        # The engine sorts the key field of whichever word layout the
        # pair packing selects; the schedule over the key bits is the
        # same either way, so price that — with the pairs kernel's
        # further bucket splits when the layout runs it.
        config = self._config_for(descriptor)
        key_bits = config.key_bits
        pairs = native_runs_pairs_kernel(
            key_bits, n, descriptor.has_values, config.pair_packing
        )
        if pairs:
            msd_width, splits, inner = native_pairs_pass_plan(key_bits, n)
        else:
            msd_width, inner = native_pass_plan(key_bits, n)
        passes, bytes_moved = native_traffic(
            key_bits, n, descriptor.record_bytes, pairs=pairs
        )
        if self.host is not None:
            seconds = self.host.native_seconds(descriptor, bytes_moved)
        else:
            seconds = self._stream_seconds(descriptor, bytes_moved)
        params = {
            "n": n,
            "expected_passes": passes,
            "msd_bits": msd_width,
            "inner_widths": "+".join(str(w) for w in inner) or "insertion",
        }
        if pairs:
            params["split_widths"] = "+".join(str(w) for w in splits) or "none"
        return PlanStep(
            kind="native-lsd",
            params=params,
            predicted_seconds=seconds,
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
            },
            predicted_seconds=self._stream_seconds(descriptor, bytes_moved),
            bytes_moved=bytes_moved,
        )
