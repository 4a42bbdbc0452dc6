#!/usr/bin/env python3
"""Out-of-core sorting: a real spill-to-disk run, then the paper model.

Three parts:

1. An *external* run: writes a flat binary file of key-value records
   that is four times larger than the sorter's memory budget, sorts it
   end-to-end with :class:`repro.external.ExternalSorter` (budgeted
   run production fanned across two workers + streaming k-way merge),
   and verifies the output file byte-for-byte against one in-memory
   sort of the same data.
2. A *functional* budgeted run: sorts an in-memory array under a
   memory budget that splits it into four chunks (chunk sorts on the
   host rungs, then the in-memory merge), checks the bytes against the
   unbudgeted sort and prints the measured wall time.
3. A *model* run at the paper's scale: prices a 64 GB key-value sort on
   the simulated Titan X + six-core host, printing the chunked-sort /
   CPU-merge decomposition and the comparison against PARADIS's
   reported numbers (Figure 9).

Usage::

    python examples/out_of_core_sort.py
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

import repro
from repro.baselines import paradis_reported_seconds
from repro.core.hybrid_sort import HybridRadixSorter
from repro.external import ExternalSorter, FileLayout, read_records, write_records
from repro.hetero import HeterogeneousSorter
from repro.workloads import generate_pairs, uniform_keys, zipf_keys

GB = 10**9


def external_demo(n: int = 1_000_000) -> None:
    """Sort a file 4x larger than the memory budget, then verify."""
    print("== external: spill-to-disk sort of a larger-than-budget file ==")
    rng = np.random.default_rng(7)
    keys = zipf_keys(n, 32, theta=0.75, rng=rng)
    keys, values = generate_pairs(keys, 32)
    layout = FileLayout(np.uint32, np.uint32)
    total_bytes = n * layout.record_bytes
    budget = total_bytes // 4

    with tempfile.TemporaryDirectory(prefix="repro-example-") as tmp:
        input_path = os.path.join(tmp, "input.bin")
        output_path = os.path.join(tmp, "sorted.bin")
        write_records(input_path, layout.to_records(keys, values))
        sorter = ExternalSorter(memory_budget=budget, workers=2)
        report = sorter.sort_file(input_path, output_path, layout)
        print(
            f"file {total_bytes / 1e6:.1f} MB, budget {budget / 1e6:.1f} MB "
            f"-> {report.n_runs} spilled runs of <= {report.run_records:,} "
            f"records, merge blocks of {report.block_records:,}"
        )
        print(report.summary())

        # The external sort must be indistinguishable from sorting the
        # whole file in RAM: same stable order, byte for byte.
        in_memory = HybridRadixSorter().sort(keys, values)
        expected = layout.to_records(in_memory.keys, in_memory.values)
        got = read_records(output_path, layout)
        assert got.tobytes() == expected.tobytes()
        print("verified: output byte-identical to one in-memory sort")


def functional_demo() -> None:
    print("\n== functional: 200k 64/64 pairs under a 4-chunk budget ==")
    rng = np.random.default_rng(5)
    keys = zipf_keys(200_000, 64, theta=0.75, rng=rng)
    keys, values = generate_pairs(keys, 64)
    # Three chunk-sized buffers must fit the budget (§5's in-place
    # replacement accounting), so this budget cuts the input in four.
    budget = 3 * -(-(keys.nbytes + values.nbytes) // 4)
    start = time.perf_counter()
    out = repro.sort_pairs(keys, values, memory_budget=budget)
    elapsed = time.perf_counter() - start
    direct = repro.sort_pairs(keys, values)
    assert out.keys.tobytes() == direct.keys.tobytes()
    assert out.values.tobytes() == direct.values.tobytes()
    step = out.meta["plan"].step("chunked-pipeline")
    print(
        f"sorted {keys.size:,} pairs in {step.params['n_chunks']} chunks "
        f"on the {step.params['engine']} engine + in-memory merge: "
        f"{elapsed * 1e3:.1f} ms measured; byte-identical to the "
        f"unbudgeted sort"
    )


def model_demo() -> None:
    print("\n== model: 64 GB of 64/64 pairs on Titan X + six-core host ==")
    rng = np.random.default_rng(6)
    sorter = HeterogeneousSorter()
    for name, keys in (
        ("uniform", uniform_keys(1 << 20, 64, rng)),
        ("zipf 0.75", zipf_keys(1 << 20, 64, theta=0.75, rng=rng)),
    ):
        keys, values = generate_pairs(keys, 64)
        out = sorter.simulate(64 * GB, keys, values, n_chunks=16)
        dist = "uniform" if name == "uniform" else "zipf"
        paradis = paradis_reported_seconds(64, dist, threads=16)
        print(
            f"{name:10s}: chunks={out.plan.n_chunks} "
            f"(chunk {out.plan.chunk_bytes / GB:.1f} GB), "
            f"chunked sort {out.chunked_sort_seconds:.2f} s, "
            f"CPU merge {out.merge_seconds:.2f} s, "
            f"total {out.total_seconds:.2f} s "
            f"-> {paradis / out.total_seconds:.2f}x over PARADIS "
            f"({paradis:.1f} s)"
        )
    # The in-place replacement strategy (Figure 5) is what allows 4 GB
    # chunks; the four-buffer layout would need 22 chunks and an extra
    # merge pass.
    four_buffer = HeterogeneousSorter(in_place_replacement=False)
    out = four_buffer.simulate(
        64 * GB,
        *generate_pairs(uniform_keys(1 << 20, 64, np.random.default_rng(6)), 64),
    )
    print(
        f"\nwithout in-place replacement: {out.plan.n_chunks} chunks of "
        f"{out.plan.chunk_bytes / GB:.1f} GB, total {out.total_seconds:.2f} s"
    )


if __name__ == "__main__":
    external_demo()
    functional_demo()
    model_demo()
