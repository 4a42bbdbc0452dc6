"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestSortCommand:
    def test_uniform_sort(self, capsys):
        rc = main(["sort", "--n", "50000", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sorted          : yes" in out
        assert "counting passes" in out

    def test_zipf_pairs(self, capsys):
        rc = main(
            ["sort", "--n", "30000", "--distribution", "zipf", "--pairs"]
        )
        assert rc == 0
        assert "GB/s" in capsys.readouterr().out

    def test_and_depth_distribution(self, capsys):
        rc = main(["sort", "--n", "20000", "--distribution", "and2"])
        assert rc == 0

    def test_baseline_engine(self, capsys):
        rc = main(["sort", "--n", "20000", "--engine", "cub"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "engine          : cub" in out

    def test_adaptive_engine(self, capsys):
        rc = main(["sort", "--n", "20000", "--engine", "adaptive"])
        assert rc == 0

    def test_constant_64bit(self, capsys):
        rc = main(
            ["sort", "--n", "20000", "--key-bits", "64",
             "--distribution", "constant"]
        )
        assert rc == 0

    def test_workers_flag(self, capsys):
        rc = main(["sort", "--n", "30000", "--pairs", "--workers", "2"])
        assert rc == 0
        assert "sorted          : yes" in capsys.readouterr().out

    def test_zero_simulated_time_is_not_blamed_on_the_host(self, capsys):
        # One record runs the simulated hybrid engine (native="never"):
        # it carries a trace whose simulated time is zero.
        rc = main(["sort", "--n", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "simulated time  : 0.000 ms" in out
        assert "runs on the host" not in out
        assert "GB/s" not in out

    def test_host_engine_reports_no_simulated_time(self, capsys):
        from repro.native.build import native_status

        rc = main(["sort", "--n", "2000", "--engine", "native"])
        out = capsys.readouterr().out
        assert rc == 0
        if native_status(warn=False).available:
            assert "simulated time  : n/a (native runs on the host)" in out
        else:  # the hybrid engine stands in and simulates the sort
            assert "simulated rate" in out

    def test_packing_flag(self, capsys):
        for packing in ("index", "fused", "off"):
            rc = main(
                ["sort", "--n", "20000", "--pairs", "--packing", packing]
            )
            assert rc == 0
            assert "sorted          : yes" in capsys.readouterr().out


class TestPlanCommand:
    def test_array_plan_explains_without_executing(self, capsys):
        from repro.native.build import native_status

        rc = main(["plan", "--n", "1000000"])
        out = capsys.readouterr().out
        assert rc == 0
        # Keys take the library rung on every host.
        assert "strategy        : library" in out
        assert "library-sort" in out
        assert "note            : library rung selected" in out
        rc = main(["plan", "--n", "1000000", "--dtype", "int64", "--pairs",
                   "--value-dtype", "uint64"])
        out = capsys.readouterr().out
        assert rc == 0
        # 64-bit-key pairs take the compiled tier when this host built
        # it; either way the plan says which and why.
        if native_status(warn=False).available:
            assert "strategy        : native" in out
            assert "native-lsd" in out
        else:
            assert "strategy        : hybrid" in out
            assert "hybrid-msd" in out
        assert "note            : native tier" in out
        assert "predicted total" in out

    def test_budgeted_plan_chooses_chunked_pipeline(self, capsys):
        rc = main(["plan", "--n", "8000000", "--memory-budget", "4M"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "strategy        : hetero" in out
        assert "chunked-pipeline" in out

    def test_adaptive_plan_falls_back_below_crossover(self, capsys):
        rc = main(["plan", "--n", "100000", "--adaptive"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "strategy        : fallback" in out

    def test_file_plan(self, tmp_path, capsys):
        data = str(tmp_path / "data.bin")
        assert main(
            ["gen-file", "--output", data, "--n", "20000",
             "--dtype", "uint32"]
        ) == 0
        capsys.readouterr()
        rc = main(
            ["plan", "--input", data, "--dtype", "uint32",
             "--memory-budget", "20K", "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "strategy        : external" in out
        assert "spill-runs" in out
        assert "engine_note=" in out  # which engine sorts the runs, why
        assert "kway-merge" in out

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["plan", "--input", str(tmp_path / "nope.bin")])

    def test_plan_line_in_sort_output(self, capsys):
        rc = main(["sort", "--n", "20000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "plan            : hybrid" in out

    def test_plan_line_in_sort_file_output(self, tmp_path, capsys):
        data = str(tmp_path / "d.bin")
        out_path = str(tmp_path / "s.bin")
        assert main(["gen-file", "--output", data, "--n", "9000"]) == 0
        rc = main(
            ["sort-file", "--input", data, "--output", out_path,
             "--memory-budget", "12K"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "plan            : external (spill-runs, kway-merge)" in out

    def test_plan_reports_cost_source(self, capsys):
        rc = main(["plan", "--n", "1000000"])
        out = capsys.readouterr().out
        assert rc == 0
        # The test suite pins an uncalibrated environment (conftest).
        assert "cost source     : paper-analytical" in out


class TestCalibrateCommand:
    def test_calibrate_writes_profile_and_plan_uses_it(
        self, tmp_path, capsys
    ):
        import json
        import os

        # The conftest autouse fixture points REPRO_HOST_PROFILE at a
        # (nonexistent) per-test path; calibrating into that exact path
        # is what a user's `repro calibrate` + `repro plan` does.
        path = os.environ["REPRO_HOST_PROFILE"]
        rc = main(
            ["calibrate", "--quick", "--n", "2048", "--output", path]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "counting-scatter 32/0" in out
        assert "stable argsort" in out
        assert "external spill" in out
        assert f"wrote {path}" in out
        assert "fingerprint hp-" in out
        doc = json.loads(open(path).read())
        assert doc["probes"] == {
            "n": 2048, "repeats": 1, "quick": True, "seed": 20170514,
        }
        rc = main(["plan", "--n", "1000000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"cost source     : host-profile ({doc['fingerprint']})" in out

    def test_calibrate_default_output_honours_env(self, capsys):
        import os

        path = os.environ["REPRO_HOST_PROFILE"]
        rc = main(["calibrate", "--quick", "--n", "1024"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"wrote {path}" in out
        assert os.path.exists(path)


class TestInfoCommand:
    def test_info_output(self, capsys):
        rc = main(["info", "--n", "1000000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Titan X" in out
        assert "Table 3 presets" in out
        assert "max buckets (I3)" in out


class TestSweepCommand:
    def test_small_sweep(self, capsys):
        rc = main(
            ["sweep", "--n", "65536", "--target", "10000000", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "speed-up" in out
        # Twelve entropy rows plus the header lines.
        assert len(out.strip().splitlines()) == 14


def _registered_verbs() -> list[str]:
    parser = build_parser()
    (subparsers,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return sorted(subparsers.choices)


class TestParser:
    def test_docstring_lists_every_verb(self):
        import repro.cli

        doc = repro.cli.__doc__
        section = doc[doc.index("Commands\n"):doc.index("Examples::")]
        listed = re.findall(r"^``([a-z-]+)``$", section, flags=re.MULTILINE)
        assert sorted(listed) == _registered_verbs()

    def test_readme_table_lists_every_verb(self):
        readme = (REPO_ROOT / "README.md").read_text()
        listed = re.findall(
            r"^\| `repro ([a-z-]+)` \|", readme, flags=re.MULTILINE
        )
        assert sorted(listed) == _registered_verbs()

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--engine", "bogus"])


class TestGenAndSortFile:
    def test_roundtrip_keys(self, tmp_path, capsys):
        data = str(tmp_path / "data.bin")
        out = str(tmp_path / "sorted.bin")
        rc = main(
            ["gen-file", "--output", data, "--n", "20000",
             "--dtype", "uint32", "--distribution", "zipf"]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        rc = main(
            ["sort-file", "--input", data, "--output", out,
             "--dtype", "uint32", "--memory-budget", "20K", "--verify"]
        )
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "verified        : yes" in stdout
        assert "runs            :" in stdout

    def test_roundtrip_pairs_with_workers(self, tmp_path, capsys):
        data = str(tmp_path / "pairs.bin")
        out = str(tmp_path / "sorted.bin")
        assert main(
            ["gen-file", "--output", data, "--n", "15000", "--pairs",
             "--dtype", "uint32", "--value-dtype", "uint32"]
        ) == 0
        rc = main(
            ["sort-file", "--input", data, "--output", out, "--pairs",
             "--dtype", "uint32", "--value-dtype", "uint32",
             "--memory-budget", "30K", "--workers", "2", "--verify"]
        )
        assert rc == 0
        assert "verified        : yes" in capsys.readouterr().out

    def test_float_keys(self, tmp_path, capsys):
        data = str(tmp_path / "f.bin")
        out = str(tmp_path / "fs.bin")
        assert main(
            ["gen-file", "--output", data, "--n", "10000",
             "--dtype", "float32"]
        ) == 0
        rc = main(
            ["sort-file", "--input", data, "--output", out,
             "--dtype", "float32", "--memory-budget", "10K", "--verify"]
        )
        assert rc == 0
        assert "verified        : yes" in capsys.readouterr().out

    def test_memory_budget_suffixes(self):
        from repro.cli import _parse_size

        assert _parse_size("64") == 64
        assert _parse_size("4K") == 4096
        assert _parse_size("2M") == 2 << 20
        assert _parse_size("1G") == 1 << 30
        with pytest.raises(SystemExit):
            _parse_size("lots")
        with pytest.raises(SystemExit):
            _parse_size("-5")

    def test_missing_input_errors(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                ["sort-file", "--input", str(tmp_path / "nope.bin"),
                 "--output", str(tmp_path / "out.bin")]
            )
        assert "error" in str(exc.value)

    def test_torn_input_errors(self, tmp_path):
        data = tmp_path / "torn.bin"
        data.write_bytes(b"\x00" * 6)  # not a multiple of 4
        with pytest.raises(SystemExit) as exc:
            main(
                ["sort-file", "--input", str(data),
                 "--output", str(tmp_path / "out.bin"), "--dtype", "uint32"]
            )
        assert "multiple" in str(exc.value)


class TestChaosCommand:
    def test_list_prints_the_site_table(self, capsys):
        rc = main(["chaos", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        from repro.resilience.faults import SITES

        for site in SITES:
            assert site in out

    def test_single_site_sweep_is_contained(self, capsys):
        rc = main(["chaos", "--site", "engine.hybrid", "--n", "3000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 scenario(s), 1 contained, 0 failed" in out

    def test_unknown_site_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--site", "engine.imaginary"])


class TestSortFileResume:
    def test_resume_without_spool_dir_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="--spool-dir"):
            main(
                ["sort-file", "--input", str(tmp_path / "in.bin"),
                 "--output", str(tmp_path / "out.bin"), "--resume"]
            )

    def test_interrupt_then_resume_via_cli(self, tmp_path, capsys):
        import numpy as np

        from repro.external import ExternalSorter, FileLayout, write_records
        from repro.resilience.faults import FaultPlan, inject

        layout = FileLayout("uint32")
        rng = np.random.default_rng(9)
        keys = rng.integers(0, 1 << 32, 20_000, dtype=np.uint64).astype(
            np.uint32
        )
        inp = str(tmp_path / "in.bin")
        out = str(tmp_path / "out.bin")
        spool = str(tmp_path / "spool")
        write_records(inp, keys)
        sorter = ExternalSorter(
            memory_budget=keys.nbytes // 4, spool_dir=spool,
            retry_policy=None,
        )
        with inject(FaultPlan.single("external.merge_read")):
            with pytest.raises(Exception):
                sorter.sort_file(inp, out, layout)
        rc = main(
            ["sort-file", "--input", inp, "--output", out,
             "--dtype", "uint32", "--spool-dir", spool, "--resume",
             "--memory-budget", str(keys.nbytes // 4), "--verify"]
        )
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "resumed         : reused" in stdout
        assert "verified        : yes" in stdout
        got = np.fromfile(out, dtype=np.uint32)
        assert np.array_equal(got, np.sort(keys))
