"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``sort``
    Generate a workload, sort it with a chosen engine, verify, and
    print the trace/timing summary.
``plan``
    Explain the sort plan the planner would choose — strategy, steps,
    predicted cost — without generating or sorting any data.
``info``
    Show the simulated device, the Table 3 presets, and the §4.5
    analytical bounds for a given input size.
``sweep``
    A quick Figure 6-style entropy sweep at a chosen sample size.
``calibrate``
    Time micro-probes on this host and write the host profile the
    planner prices plans with.
``gen-file``
    Write a flat binary workload file (keys-only or interleaved
    key-value records) for the out-of-core sorter.
``sort-file``
    Spill-to-disk external sort of a flat binary file under an explicit
    host memory budget (``repro.external.ExternalSorter``).
``serve``
    Async sort service (``repro.service.SortService``) driven by JSON
    lines on stdin: inline arrays, generated workloads, or file sorts,
    with micro-batching, admission control, and per-request telemetry.
``chaos``
    Deterministic fault-injection sweep: every named fault site, one
    fault at a time, each scenario proven to end in byte-identical
    recovered output or a typed error — never silent corruption.

Examples::

    python -m repro sort --n 1000000 --distribution zipf --pairs
    python -m repro plan --n 500000000 --pairs --memory-budget 2G
    python -m repro plan --input data.bin --dtype uint32 --memory-budget 8M
    python -m repro info --n 500000000
    python -m repro sweep --key-bits 64 --target 250000000
    python -m repro gen-file --output data.bin --n 8000000 --dtype uint32
    python -m repro sort-file --input data.bin --output sorted.bin \
        --dtype uint32 --memory-budget 8M --workers 2 --verify
    python -m repro sort-file --input data.bin --output sorted.bin \
        --dtype uint32 --spool-dir spool --resume
    printf '%s\n' '{"id": 1, "keys": [3, 1, 2], "dtype": "uint32"}' \
        | python -m repro serve
    python -m repro chaos --quick
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.baselines import (
    CubRadixSort,
    MergeSortBaseline,
    ThrustRadixSort,
)
from repro.bench.reporting import format_table
from repro.bench.scaling import simulate_sort_at_scale
from repro.core.adaptive import AdaptiveSorter
from repro.core.analytical import AnalyticalModel
from repro.core.config import SortConfig, derive_table3
from repro.core.hybrid_sort import HybridRadixSorter
from repro.gpu.spec import TITAN_X_PASCAL
from repro.workloads import (
    ENTROPY_LADDER_32,
    ENTROPY_LADDER_64,
    generate_entropy_keys,
    generate_pairs,
    typed_keys,
)

GB = 1e9

ENGINES = {
    "hybrid": lambda: HybridRadixSorter(),
    "native": None,  # planner-routed: special-cased in cmd_sort
    "adaptive": lambda: AdaptiveSorter(),
    "cub": lambda: CubRadixSort("1.5.1"),
    "cub164": lambda: CubRadixSort("1.6.4"),
    "thrust": lambda: ThrustRadixSort(),
    "mgpu": lambda: MergeSortBaseline(),
}


def _make_keys(args) -> np.ndarray:
    rng = np.random.default_rng(args.seed)
    layout = layout_from_args(args)
    return typed_keys(args.n, layout.key_dtype, args.distribution, rng)


def cmd_sort(args) -> int:
    from dataclasses import replace

    from repro.errors import ConfigurationError

    keys = _make_keys(args)
    values = None
    if args.pairs:
        keys, values = generate_pairs(keys, args.key_bits)
    tuned = args.workers != 1 or args.packing != "auto"
    if tuned and args.engine != "hybrid":
        print(
            f"warning: --workers/--packing only apply to the hybrid "
            f"engine; ignored for {args.engine!r}",
            file=sys.stderr,
        )
    try:
        if args.engine in ("hybrid", "adaptive", "native"):
            # The planner-routed engines: plan, then execute.
            import repro

            config = None
            if args.engine == "hybrid" and tuned:
                config = replace(
                    SortConfig.for_layout(
                        args.key_bits, args.key_bits if args.pairs else 0
                    ),
                    workers=args.workers,
                    pair_packing=args.packing,
                )
            if args.engine == "adaptive":
                result = AdaptiveSorter().sort(keys, values)
            elif args.engine == "native":
                from repro.plan import InputDescriptor, Planner
                from repro.plan.executors import execute_plan

                descriptor = InputDescriptor.for_array(keys, values=values)
                plan = Planner(native="always").plan(descriptor)
                result = execute_plan(plan, keys=keys, values=values)
            elif args.pairs:
                # --engine hybrid is an explicit request for the
                # simulated engine; never auto-upgrade it to native.
                result = repro.sort_pairs(
                    keys, values, config=config, native="never"
                )
            else:
                result = repro.sort(keys, config=config, native="never")
        else:
            sorter = ENGINES[args.engine]()
            result = (
                sorter.sort(keys, values) if args.pairs else sorter.sort(keys)
            )
    except ConfigurationError as exc:
        raise SystemExit(f"error: {exc}")
    ok = bool(np.all(result.keys[:-1] <= result.keys[1:]))
    print(f"engine          : {args.engine}")
    executed = result.meta.get("engine")
    if executed is not None and executed != args.engine:
        print(f"executed as     : {executed}")
    resilience = result.meta.get("resilience")
    if resilience is not None:
        for downgrade in resilience.get("downgrades", ()):
            print(
                f"degraded        : {downgrade['engine']} -> "
                f"{downgrade['error']}"
            )
    plan = result.meta.get("plan")
    if plan is not None:
        print(f"plan            : {plan.summary()}")
        for note in getattr(plan, "notes", ()):
            print(f"note            : {note}")
    print(f"records         : {keys.size:,} ({args.distribution})")
    print(f"sorted          : {'yes' if ok else 'NO'}")
    if result.trace is not None:
        print(f"counting passes : {result.trace.num_counting_passes}")
        print(f"finished early  : {result.trace.finished_early}")
        print(f"local-sorted    : {result.trace.total_local_keys:,} keys")
    if result.trace is None and result.simulated_seconds == 0:
        # Nothing was simulated: a host rung ran the sort.  (The
        # baselines price their runs on the device without a trace.)
        engine = executed or args.engine
        print(f"simulated time  : n/a ({engine} runs on the host)")
    else:
        print(f"simulated time  : {result.simulated_seconds * 1e3:.3f} ms")
        if result.simulated_seconds > 0:
            rate = result.sorting_rate() / GB
            print(f"simulated rate  : {rate:.2f} GB/s ({TITAN_X_PASCAL.name})")
    return 0 if ok else 1


def cmd_info(args) -> int:
    spec = TITAN_X_PASCAL
    print(f"device: {spec.name}")
    print(f"  SMs x cores      : {spec.sm_count} x {spec.cores_per_sm}")
    print(f"  effective BW     : {spec.effective_bandwidth / GB:.2f} GB/s")
    print(f"  device memory    : {spec.device_memory_bytes / 2**30:.0f} GiB")
    print(f"  PCIe per dir     : {spec.pcie_bandwidth / GB:.2f} GB/s")
    print("\nTable 3 presets:")
    print(
        format_table(
            ["layout", "KPB", "threads", "KPT", "local ∂̂", "merge ∂"],
            [
                [r["layout"], r["kpb"], r["threads"], r["kpt"],
                 r["local_threshold"], r["merge_threshold"]]
                for r in derive_table3()
            ],
        )
    )
    model = AnalyticalModel(SortConfig.for_keys(args.key_bits))
    req = model.memory_requirements(args.n)
    print(f"\nanalytical model for n = {args.n:,} ({args.key_bits}-bit keys):")
    print(f"  max buckets (I3) : {model.max_buckets(args.n):,}")
    print(f"  max blocks (I4)  : {model.max_blocks(args.n):,}")
    print(f"  memory M1        : {req.input_and_aux / 2**30:.2f} GiB")
    print(f"  overhead M2-M5   : {100 * req.overhead_fraction:.2f} %")
    return 0


def cmd_sweep(args) -> int:
    ladder = ENTROPY_LADDER_32 if args.key_bits == 32 else ENTROPY_LADDER_64
    rng = np.random.default_rng(args.seed)
    cub = CubRadixSort("1.5.1")
    key_bytes = args.key_bits // 8
    cub_rate = args.target * key_bytes / cub.simulated_seconds(
        args.target, key_bytes
    )
    rows = []
    for level in ladder:
        keys = generate_entropy_keys(args.n, args.key_bits, level.and_depth, rng)
        out = simulate_sort_at_scale(keys, args.target)
        rows.append(
            [
                level.label,
                out.trace.num_counting_passes,
                f"{out.sorting_rate / GB:.2f}",
                f"{cub_rate / GB:.2f}",
                f"{out.sorting_rate / cub_rate:.2f}x",
            ]
        )
    print(
        format_table(
            ["entropy (bits)", "passes", "hybrid GB/s", "CUB GB/s", "speed-up"],
            rows,
        )
    )
    return 0


#: Dtype names the data-handling verbs accept (one definition; every
#: verb registers its flags through :func:`add_layout_args`).
DTYPE_CHOICES = (
    "uint8", "uint16", "uint32", "uint64",
    "int32", "int64", "float32", "float64",
)


def add_layout_args(
    parser, *, bits_style: bool = False, value_dtype: bool = True
) -> None:
    """Register the dtype/layout flags shared by the data verbs.

    One definition for ``sort`` (``--key-bits`` style), ``gen-file``,
    ``sort-file``, and ``plan`` (``--dtype`` style) — previously each
    verb copy-pasted its own set.
    """
    if bits_style:
        parser.add_argument(
            "--key-bits", type=int, choices=(32, 64), default=32
        )
    else:
        parser.add_argument(
            "--dtype", choices=DTYPE_CHOICES, default="uint32",
            help="key dtype of the record layout",
        )
    parser.add_argument(
        "--pairs",
        action="store_true",
        help="key-value records instead of keys only",
    )
    if value_dtype:
        parser.add_argument(
            "--value-dtype",
            choices=DTYPE_CHOICES,
            default="uint32",
            help="payload dtype of the pairs layout",
        )


def layout_from_args(args):
    """Resolve the FileLayout an invocation's flags describe.

    Handles both flag styles :func:`add_layout_args` registers: the
    file verbs' ``--dtype``/``--value-dtype`` names and the ``sort``
    verb's ``--key-bits`` (pairs there carry key-width values).
    """
    from repro.errors import UnsupportedDtypeError
    from repro.external import FileLayout, parse_dtype

    key_name = getattr(args, "dtype", None)
    if key_name is None:
        key_name = "uint32" if args.key_bits == 32 else "uint64"
    value_name = getattr(args, "value_dtype", key_name)
    try:
        key_dtype = parse_dtype(key_name)
        value_dtype = (
            parse_dtype(value_name, value=True)
            if getattr(args, "pairs", False)
            else None
        )
    except UnsupportedDtypeError as exc:
        raise SystemExit(f"error: {exc}")
    return FileLayout(key_dtype, value_dtype)


def _parse_size(text: str) -> int:
    """Parse a byte count with optional binary suffix (``64M``, ``2G``)."""
    text = text.strip()
    multiplier = 1
    suffixes = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1].upper() in suffixes:
        multiplier = suffixes[text[-1].upper()]
        text = text[:-1]
    try:
        value = int(text)
    except ValueError:
        raise SystemExit(
            f"error: invalid size {text!r}; use an integer with an "
            f"optional K/M/G suffix"
        )
    if value <= 0:
        raise SystemExit("error: size must be positive")
    return value * multiplier


def cmd_gen_file(args) -> int:
    from repro.errors import ConfigurationError
    from repro.external import write_records
    from repro.workloads import generate_pairs, typed_keys

    layout = layout_from_args(args)
    rng = np.random.default_rng(args.seed)
    try:
        keys = typed_keys(args.n, layout.key_dtype, args.distribution, rng)
    except ConfigurationError as exc:
        raise SystemExit(f"error: {exc}")
    values = None
    if args.pairs:
        # One source of truth for payload rules; narrowed to the
        # requested value dtype afterwards.
        _, wide = generate_pairs(keys, 64, rng, payload=args.payload)
        values = wide.astype(layout.value_dtype)
    write_records(args.output, layout.to_records(keys, values))
    total = args.n * layout.record_bytes
    print(
        f"wrote {args.output}: {args.n:,} {layout.describe()} "
        f"({args.distribution}), {total / 1e6:.1f} MB"
    )
    return 0


def _verify_sorted_file(input_path, output_path, layout) -> bool:
    """Check the output file really is a sorted permutation of the input.

    Loads both files (verification is opt-in and meant for files that
    fit RAM — the property tests carry the guarantee beyond that).
    Order is checked in bits space, the engines' total order, so float
    files with NaNs verify correctly.
    """
    from repro.core.keys import bits_dtype_for, to_sortable_bits
    from repro.external import read_records

    def canonical(records):
        """(key bits, value bits) rows in lexicographic order.

        Bits space gives floats (NaNs included) a deterministic total
        order, so two files hold the same multiset of records iff their
        canonical forms are equal byte for byte.
        """
        if layout.is_pairs:
            key_bits = to_sortable_bits(records["key"].copy())
            value_bits = records["value"].copy().view(
                bits_dtype_for(layout.value_dtype)
            )
            order = np.lexsort((value_bits, key_bits))
            return key_bits, key_bits[order].tobytes() + value_bits[order].tobytes()
        bits = to_sortable_bits(records)
        return bits, np.sort(bits).tobytes()

    src = read_records(input_path, layout)
    dst = read_records(output_path, layout)
    if src.size != dst.size:
        return False
    out_bits, dst_canon = canonical(dst)
    if out_bits.size > 1 and not bool(np.all(out_bits[:-1] <= out_bits[1:])):
        return False
    return canonical(src)[1] == dst_canon


def cmd_sort_file(args) -> int:
    from repro.errors import ReproError
    from repro.external import ExternalSorter

    layout = layout_from_args(args)
    budget = _parse_size(args.memory_budget)
    if args.resume and args.spool_dir is None:
        raise SystemExit(
            "error: --resume needs the --spool-dir the interrupted "
            "sort used"
        )
    try:
        sorter = ExternalSorter(
            memory_budget=budget,
            workers=args.workers,
            pair_packing=args.packing,
            spool_dir=args.spool_dir,
        )
        n_records = layout.records_in(args.input)
        if args.resume:
            report = sorter.resume(args.input, args.output, layout)
        else:
            report = sorter.sort_file(args.input, args.output, layout)
    except FileNotFoundError as exc:
        raise SystemExit(f"error: {exc}")
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    total = n_records * layout.record_bytes
    print(f"input           : {args.input} ({layout.describe()})")
    if report.plan is not None:
        print(f"plan            : {report.plan.summary()}")
    print(f"records         : {report.n_records:,} ({total / 1e6:.1f} MB)")
    print(f"memory budget   : {budget:,} B")
    print(
        f"runs            : {report.n_runs} x <= {report.run_records:,} "
        f"records (workers={report.workers})"
    )
    if report.reused_runs:
        print(f"resumed         : reused {report.reused_runs} run(s)")
    print(f"merge blocks    : {report.block_records:,} records/run")
    print(
        f"wall time       : runs {report.run_seconds:.3f} s + "
        f"merge {report.merge_seconds:.3f} s = {report.total_seconds:.3f} s"
    )
    rate = report.n_records / max(report.total_seconds, 1e-12) / 1e6
    print(f"throughput      : {rate:.2f} Mrec/s")
    if args.verify:
        ok = _verify_sorted_file(args.input, args.output, layout)
        print(f"verified        : {'yes' if ok else 'NO'}")
        return 0 if ok else 1
    return 0


def cmd_plan(args) -> int:
    """Explain the planner's choice without generating or sorting data."""
    from repro.errors import ReproError
    from repro.plan import InputDescriptor, Planner

    budget = (
        _parse_size(args.memory_budget) if args.memory_budget else None
    )
    layout = layout_from_args(args)
    try:
        if args.input is not None:
            descriptor = InputDescriptor.for_file(
                args.input,
                layout,
                memory_budget=budget,
                workers=args.workers,
            )
        else:
            descriptor = InputDescriptor(
                n=args.n,
                key_dtype=layout.key_dtype,
                value_dtype=layout.value_dtype,
                source="array",
                memory_budget=budget,
                workers=args.workers,
            )
        plan = Planner(adaptive=args.adaptive).plan(descriptor)
    except FileNotFoundError as exc:
        raise SystemExit(f"error: {exc}")
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    print(plan.explain())
    return 0


def cmd_calibrate(args) -> int:
    """Measure host micro-probes and write the host profile."""
    import time as _time

    from repro.cost.hostprofile import (
        default_profile_path,
        run_probes,
        save_profile,
    )

    path = args.output or default_profile_path()
    profile = run_probes(
        args.n,
        args.repeats,
        quick=args.quick,
        seed=args.seed,
        timestamp=_time.time(),
    )

    def rate(bytes_per_s: float) -> str:
        return f"{bytes_per_s / 1e6:,.1f} MB/s"

    for layout, bandwidth in sorted(profile["counting_bandwidth"].items()):
        print(f"counting-scatter {layout:7s}: {rate(bandwidth)}")
    native = profile["native_bandwidth"]
    if native:
        for layout, bandwidth in sorted(native.items()):
            print(f"native tier {layout:12s}: {rate(bandwidth)}")
    else:
        print("native tier            : unavailable (probe skipped)")
    for layout, bandwidth in sorted(profile["library_bandwidth"].items()):
        print(f"library rung {layout:11s}: {rate(bandwidth)}")
    print(
        f"stable argsort         : "
        f"{profile['local_sort_keys_per_s'] / 1e6:.2f} Mkeys/s"
    )
    print(f"pair pack/unpack       : {rate(profile['pack_bandwidth'])}")
    print(f"external spill         : {rate(profile['spill_bandwidth'])}")
    print(f"external merge         : {rate(profile['merge_bandwidth'])}")
    print(
        f"thread speedup x2      : "
        f"{profile['thread_speedup']['2']:.2f}"
    )
    fingerprint = save_profile(profile, path)
    print(f"wrote {path} (fingerprint {fingerprint})")
    return 0


def cmd_serve(args) -> int:
    """Run the async sort service over JSON lines (stdin or --input)."""
    import asyncio

    from repro.service.driver import serve_stream

    stream = sys.stdin if args.input is None else open(args.input)
    try:
        return asyncio.run(
            serve_stream(
                stream,
                sys.stdout.write,
                seed=args.seed,
                echo_limit=args.echo_limit,
                memory_budget=_parse_size(args.memory_budget),
                micro_batching=not args.no_batching,
                batch_window=args.batch_window / 1e3,
                executor_threads=args.executor_threads,
            )
        )
    finally:
        if args.input is not None:
            stream.close()


def cmd_chaos(args) -> int:
    from repro.resilience.chaos import execute

    return execute(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid GPU radix sort (SIGMOD'17) on a simulated device",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sort = sub.add_parser("sort", help="sort a generated workload")
    p_sort.add_argument("--n", type=int, default=1 << 20)
    add_layout_args(p_sort, bits_style=True, value_dtype=False)
    p_sort.add_argument(
        "--distribution",
        default="uniform",
        choices=["uniform", "zipf", "constant"]
        + [f"and{i}" for i in range(1, 11)],
    )
    p_sort.add_argument("--engine", choices=sorted(ENGINES), default="hybrid")
    p_sort.add_argument("--seed", type=int, default=0)
    p_sort.add_argument(
        "--workers",
        type=int,
        default=1,
        help="host threads for the hybrid engine (default 1)",
    )
    p_sort.add_argument(
        "--packing",
        choices=("auto", "index", "fused", "off"),
        default="auto",
        help="key-value packing policy of the hybrid engine",
    )
    p_sort.set_defaults(func=cmd_sort)

    p_info = sub.add_parser("info", help="device, presets, and bounds")
    p_info.add_argument("--n", type=int, default=500_000_000)
    p_info.add_argument("--key-bits", type=int, choices=(32, 64), default=32)
    p_info.set_defaults(func=cmd_info)

    p_sweep = sub.add_parser("sweep", help="entropy sweep vs CUB")
    p_sweep.add_argument("--n", type=int, default=1 << 19)
    p_sweep.add_argument("--key-bits", type=int, choices=(32, 64), default=32)
    p_sweep.add_argument("--target", type=int, default=500_000_000)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.set_defaults(func=cmd_sweep)

    p_plan = sub.add_parser(
        "plan",
        help="explain the chosen sort plan without executing it",
    )
    p_plan.add_argument(
        "--input",
        default=None,
        help="flat binary file to plan for "
        "(omit to describe an in-memory array of --n records)",
    )
    p_plan.add_argument(
        "--n",
        type=int,
        default=1 << 23,
        help="record count of the in-memory array (ignored with --input)",
    )
    add_layout_args(p_plan)
    p_plan.add_argument(
        "--memory-budget",
        default=None,
        help="resident-byte budget (K/M/G suffixes; default: unlimited "
        "for arrays, 256M for files)",
    )
    p_plan.add_argument(
        "--workers",
        type=int,
        default=1,
        help="host threads the plan may fan work across",
    )
    p_plan.add_argument(
        "--adaptive",
        action="store_true",
        help="apply the §6.1 small-input fallback policy",
    )
    p_plan.set_defaults(func=cmd_plan)

    p_cal = sub.add_parser(
        "calibrate",
        help="measure host micro-probes and write the host profile "
        "the planner prices plans with",
    )
    p_cal.add_argument(
        "--output",
        default=None,
        help="profile path (default: $REPRO_HOST_PROFILE or "
        "~/.cache/repro-host-profile.json)",
    )
    p_cal.add_argument(
        "--n",
        type=int,
        default=None,
        help="records per probe (default 2^21, or 2^17 with --quick)",
    )
    p_cal.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing repeats per probe, best-of (default 3, 1 with --quick)",
    )
    p_cal.add_argument(
        "--quick",
        action="store_true",
        help="small probes for CI and smoke runs (seconds, not minutes)",
    )
    p_cal.add_argument(
        "--seed",
        type=int,
        default=20170514,
        help="probe data seed (probes are deterministic given the seed)",
    )
    p_cal.set_defaults(func=cmd_calibrate)

    p_gen = sub.add_parser(
        "gen-file", help="write a flat binary workload file"
    )
    p_gen.add_argument("--output", required=True, help="file to write")
    p_gen.add_argument("--n", type=int, default=1 << 22)
    add_layout_args(p_gen)
    p_gen.add_argument(
        "--distribution",
        default="uniform",
        choices=["uniform", "zipf", "constant", "presorted", "reverse",
                 "staircase"] + [f"and{i}" for i in range(1, 11)],
    )
    p_gen.add_argument(
        "--payload",
        choices=("index", "random"),
        default="index",
        help="values: input row index (default) or random bits",
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen_file)

    p_sf = sub.add_parser(
        "sort-file",
        help="out-of-core external sort of a flat binary file",
    )
    p_sf.add_argument("--input", required=True)
    p_sf.add_argument("--output", required=True)
    add_layout_args(p_sf)
    p_sf.add_argument(
        "--memory-budget",
        default="256M",
        help="host RAM working-set budget (bytes, K/M/G suffixes)",
    )
    p_sf.add_argument(
        "--workers",
        type=int,
        default=1,
        help="host threads producing runs (default 1)",
    )
    p_sf.add_argument(
        "--packing",
        choices=("auto", "index", "fused", "off"),
        default="auto",
        help="pair engine for the in-RAM slice sorts",
    )
    p_sf.add_argument(
        "--spool-dir",
        default=None,
        help="directory for run files (default: temp dir next to output)",
    )
    p_sf.add_argument(
        "--verify",
        action="store_true",
        help="re-read both files and verify the sorted permutation "
        "(loads the file into RAM)",
    )
    p_sf.add_argument(
        "--resume",
        action="store_true",
        help="finish an interrupted sort from the manifest in "
        "--spool-dir (verifies surviving runs, re-produces the rest)",
    )
    p_sf.set_defaults(func=cmd_sort_file)

    p_serve = sub.add_parser(
        "serve",
        help="async sort service driven by JSON lines on stdin",
    )
    p_serve.add_argument(
        "--input",
        default=None,
        help="read request lines from a file instead of stdin",
    )
    p_serve.add_argument(
        "--memory-budget",
        default="1G",
        help="bound on in-flight working-set bytes (K/M/G suffixes)",
    )
    p_serve.add_argument(
        "--no-batching",
        action="store_true",
        help="disable micro-batching of compatible small requests",
    )
    p_serve.add_argument(
        "--batch-window",
        type=float,
        default=0.0,
        help="milliseconds to linger for a lone batchable request "
        "(default 0: coalesce only what has already queued)",
    )
    p_serve.add_argument(
        "--executor-threads",
        type=int,
        default=4,
        help="thread-pool width engine dispatches run on",
    )
    p_serve.add_argument(
        "--echo-limit",
        type=int,
        default=10_000,
        help="echo sorted data for inline requests up to this size",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.set_defaults(func=cmd_serve)

    p_chaos = sub.add_parser(
        "chaos",
        help="deterministic fault-injection sweep over every fault site",
    )
    from repro.resilience.chaos import add_chaos_args

    add_chaos_args(p_chaos)
    p_chaos.set_defaults(func=cmd_chaos)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
