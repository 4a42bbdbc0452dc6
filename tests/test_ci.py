"""The CI gates: every benchmark workload is gated, and every command
a step runs exists.

``ci.yml`` is read as plain text (no YAML dependency).  Each workload
in ``BENCHMARK.json`` must have an untraced perfbench run whose last
stdout line feeds a ``vs_numpy`` floor and a traced run whose last line
feeds a route check, both through ``jq -e`` and both requiring
``.failed == 0``; the route check also requires that every tracer
target was found.  The gate tests feed each of those ``jq -e`` filters,
exactly as ``ci.yml`` writes it, a last perfbench line that must pass
and lines that must fail.  No step, and no command of the verify
recipe that copies them, may outlive what it runs: every
``python -m repro <verb>`` names a subcommand of the CLI, and every
``tools/`` or ``perfbench/`` script exists.  Those commands, and the
ones in the README's code blocks, must also parse: a flag deleted
from the CLI cannot outlive it in a step or a document.
"""

from __future__ import annotations

import argparse
import json
import re
import shlex
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[1]
CI = REPO_ROOT / ".github" / "workflows" / "ci.yml"
VERIFY = REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
README = REPO_ROOT / "README.md"

#: One job of the workflow: its header line up to the next line
#: indented like a job key.
_JOB = r"^  {name}:\n(?P<body>.*?)(?=^  \S|\Z)"

#: One gated perfbench run: the command, its last stdout line, and the
#: single-quoted ``jq -e`` filter it must satisfy.
_GATED_RUN = re.compile(
    r"python3 perfbench/run\.py --workload (?P<workload>\S+)(?P<args>[^|]*)"
    r"\|\s*tail -n 1\s*\|\s*jq -e '(?P<filter>[^']*)'"
)


def _job(name: str) -> str:
    match = re.search(
        _JOB.format(name=name), CI.read_text(), re.MULTILINE | re.DOTALL
    )
    assert match, f"ci.yml has no {name} job"
    return match["body"]


def _gated_runs(workload: str) -> list[tuple[str, str]]:
    """(arguments, jq filter) of every gated run of ``workload``."""
    return [
        (m["args"], " ".join(m["filter"].split()))
        for m in _GATED_RUN.finditer(_job("perfbench"))
        if m["workload"] == workload
    ]


def _workloads() -> list[str]:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return [workload["name"] for workload in spec["workloads"]]


class TestPerfbenchGates:
    @pytest.mark.parametrize("workload", _workloads())
    def test_every_workload_is_gated(self, workload):
        runs = _gated_runs(workload)
        untraced = [jq for args, jq in runs if "--trace 0" in args]
        traced = [jq for args, jq in runs if "--trace 1" in args]
        assert any("vs_numpy.value >=" in jq for jq in untraced), (
            f"no untraced {workload} run gates a vs_numpy floor"
        )
        assert any(
            "plan.route." in jq or "native.calls" in jq for jq in traced
        ), f"no traced {workload} run checks its routes"
        for jq in traced:
            # A tracer target that moved reads as zero calls, not as a
            # missing metric.
            assert '.metrics["trace.absent_targets"].value == 0' in jq, jq
        for _, jq in runs:
            assert jq.startswith(".failed == 0 and "), jq

    def test_pipes_keep_perfbench_exit_status(self):
        # Only an explicit `shell: bash` runs with -o pipefail; the
        # default shell would let jq's status hide perfbench's exit 1.
        assert re.search(
            r"^    defaults:\n      run:\n(\s+#.*\n)*\s+shell: bash$",
            _job("perfbench"),
            re.MULTILINE,
        )


def _gate(workload: str, trace: int) -> str:
    """The one ``jq -e`` filter of ``workload``'s run at ``--trace``."""
    (jq,) = [
        jq for args, jq in _gated_runs(workload) if f"--trace {trace}" in args
    ]
    return jq


def _gate_passes(jq: str, values: dict[str, float], failed: int = 0) -> bool:
    """Whether ``jq -e`` accepts a last perfbench line with ``values``."""
    line = json.dumps({
        "correct": failed == 0,
        "attempted": 64,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": ""} for name, value in values.items()
        },
    })
    done = subprocess.run(
        ["jq", "-e", jq], input=line, capture_output=True, text=True,
        timeout=60,
    )
    # 0 and 1 are jq's verdicts; anything else is a broken filter.
    assert done.returncode in (0, 1), done.stderr
    return done.returncode == 0


#: A healthy last line for each gated run: the README's same-run
#: ``vs_numpy`` medians, and the routes of today's planner (only
#: ``pairs-i64``, one of six bulk cases, runs native; out-of-core runs
#: and merges never call the compiled tier, and a file sort makes 5
#: runs; 15 of 16 service requests batch), with every tracer target
#: found.
_HEALTHY = {
    ("bulk", 0): {"vs_numpy": 2.53},
    ("bulk", 1): {
        "plan.route.hybrid": 0.0,
        "plan.route.native": 1 / 6,
        "trace.absent_targets": 0.0,
    },
    ("outofcore", 0): {"vs_numpy": 0.315},
    ("outofcore", 1): {
        "native.calls": 0.0,
        "external.runs": 5.0,
        "trace.absent_targets": 0.0,
    },
    ("service", 0): {"vs_numpy": 0.316},
    ("service", 1): {
        "plan.route.hybrid": 0.0,
        "plan.route.batch": 0.9375,
        "trace.absent_targets": 0.0,
    },
}
_RUNS = pytest.mark.parametrize(
    "workload,trace",
    list(_HEALTHY),
    ids=[f"{w}-{'routes' if t else 'floor'}" for w, t in _HEALTHY],
)


@pytest.mark.skipif(
    shutil.which("jq") is None, reason="the perfbench gates run through jq"
)
class TestPerfbenchGateFilters:
    def test_healthy_runs_cover_every_gated_run(self):
        assert sorted(_HEALTHY) == sorted(
            (workload, trace) for workload in _workloads() for trace in (0, 1)
        )

    @_RUNS
    def test_healthy_line_passes(self, workload, trace):
        assert _gate_passes(_gate(workload, trace), _HEALTHY[workload, trace])

    @_RUNS
    def test_byte_mismatch_fails(self, workload, trace):
        assert not _gate_passes(
            _gate(workload, trace), _HEALTHY[workload, trace], failed=1
        )

    @_RUNS
    def test_missing_metric_fails(self, workload, trace):
        # A renamed or untraced metric must not leave a gate that
        # checks nothing.
        assert not _gate_passes(_gate(workload, trace), {})

    @pytest.mark.parametrize("workload", ["bulk", "outofcore", "service"])
    def test_rate_under_half_the_median_fails(self, workload):
        (median,) = _HEALTHY[workload, 0].values()
        assert not _gate_passes(
            _gate(workload, 0), {"vs_numpy": 0.45 * median}
        )

    @pytest.mark.parametrize(
        "workload,values",
        [
            ("bulk", {"plan.route.hybrid": 0.0, "plan.route.native": 1.0}),
            ("outofcore", {"native.calls": 14.0}),
        ],
        ids=["bulk", "outofcore"],
    )
    def test_library_rung_off_fails_the_route_gate(self, workload, values):
        # The routes measured with the planner's library choice turned
        # off: every bulk case goes native, and each out-of-core
        # operation makes 14 compiled-tier calls.
        values = dict(values, **{"trace.absent_targets": 0.0})
        assert not _gate_passes(_gate(workload, 1), values)

    @pytest.mark.parametrize("workload", ["bulk", "outofcore", "service"])
    def test_absent_trace_target_fails_the_route_gate(self, workload):
        # A renamed tracer target (say NativeRadixEngine.sort) records
        # no calls, so its routes look healthy; only the absent count
        # shows the tracer went blind.
        values = dict(_HEALTHY[workload, 1], **{"trace.absent_targets": 1.0})
        assert not _gate_passes(_gate(workload, 1), values)

    def test_three_buffer_runs_fail_the_outofcore_gate(self):
        # Library-rung runs cut by the three-buffer rule, as radix runs
        # are: 13 runs per file sort instead of 5.
        values = dict(_HEALTHY["outofcore", 1], **{"external.runs": 13.0})
        assert not _gate_passes(_gate("outofcore", 1), values)

    def test_hybrid_route_fails_the_service_gate(self):
        values = dict(_HEALTHY["service", 1], **{"plan.route.hybrid": 0.0625})
        assert not _gate_passes(_gate("service", 1), values)


class TestNoCompiledTierGate:
    """The perfbench job on a host where the compiled tier cannot exist:
    numpy only, and a bulk route check that no operation runs native or
    on the simulated hybrid engine."""

    JOB = "perfbench-numpy"

    def _gate(self) -> str:
        (match,) = _GATED_RUN.finditer(_job(self.JOB))
        assert match["workload"] == "bulk" and "--trace 1" in match["args"]
        return " ".join(match["filter"].split())

    def test_installs_numpy_only(self):
        installs = re.findall(r"pip install (.+)$", _job(self.JOB), re.MULTILINE)
        assert installs == ["numpy"]

    def test_pipes_keep_perfbench_exit_status(self):
        assert re.search(
            r"^    defaults:\n      run:\n\s+shell: bash$",
            _job(self.JOB),
            re.MULTILINE,
        )

    @pytest.mark.skipif(
        shutil.which("jq") is None, reason="the perfbench gates run through jq"
    )
    def test_gate_passes_library_routes_only(self):
        healthy = {
            "plan.route.hybrid": 0.0,
            "plan.route.native": 0.0,
            "trace.absent_targets": 0.0,
        }
        jq = self._gate()
        assert jq.startswith(".failed == 0 and ")
        assert _gate_passes(jq, healthy)
        assert not _gate_passes(jq, healthy, failed=1)
        assert not _gate_passes(jq, {})
        # pairs-i64, 1 of 6 bulk cases, on the hybrid engine: the route
        # a host without the compiled tier took before the library rung
        # sorted 64-bit-key pairs.
        assert not _gate_passes(jq, dict(healthy, **{"plan.route.hybrid": 1 / 6}))
        assert not _gate_passes(jq, dict(healthy, **{"plan.route.native": 1 / 6}))
        assert not _gate_passes(
            jq, dict(healthy, **{"trace.absent_targets": 1.0})
        )


def _job_step(job: str, name: str) -> str:
    """The text of ``job``'s step named ``name``, up to the next step."""
    step = re.search(
        rf"^      - name: {re.escape(name)}\n(?P<body>.*?)(?=^      - |\Z)",
        _job(job),
        re.MULTILINE | re.DOTALL,
    )
    assert step, f"the {job} job has no step {name!r}"
    return step["body"]


class TestNativeBuildStep:
    STEP = "Build the native extension (fails loudly, not via fallback)"

    def test_fails_unless_runs_checksum_by_carry_less_multiply(self):
        body = _job_step("native", self.STEP)
        build = re.search(
            r"^\s*PYTHONPATH=src python -m repro\.native\.build(?P<rest>.*)$",
            body,
            re.MULTILINE,
        )
        assert build, body
        # Without pipefail a pipe would report grep's status, not the
        # build's: the output must go to a file.
        assert "|" not in build["rest"], build["rest"]
        out = re.fullmatch(r"\s*>\s*(\S+)\s*", build["rest"])
        assert out, build["rest"]
        assert re.search(
            rf'^\s*grep -q "\^crc32 \*: carry-less multiply\$" '
            rf"{re.escape(out[1])}\s*$",
            body,
            re.MULTILINE,
        ), body

    def test_the_checked_line_is_what_the_build_prints(self, capsys):
        from repro.native import build

        pattern = re.compile(r"^crc32 *: carry-less multiply$", re.MULTILINE)
        build._main()
        printed = capsys.readouterr().out
        assert re.search(r"^crc32 *: (carry-less multiply|zlib)$", printed,
                         re.MULTILINE), printed
        assert bool(pattern.search(printed)) == (
            build.crc32_kernel() is not None
        )


def _subcommands() -> set[str]:
    (verbs,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return set(verbs.choices)


def _fenced(text: str) -> str:
    """The contents of ``text``'s fenced code blocks."""
    return "\n".join(re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S))


def _repro_argvs(text: str) -> list[list[str]]:
    """The arguments of every ``python -m repro <verb>`` in ``text``,
    backslash-continued lines joined, each cut at a pipe; a ``--help``
    command is skipped."""
    argvs = []
    for line in text.replace("\\\n", " ").splitlines():
        match = re.search(r"python3? -m repro (\S.*)", line)
        if match:
            argv = shlex.split(match.group(1).split("|")[0], comments=True)
            if "--help" not in argv:
                argvs.append(argv)
    return argvs


#: Where documented commands live: CI steps and the verify recipe as
#: written, and the README's code blocks (its prose names commands
#: inline, without their arguments).
DOCUMENTED = {
    "ci.yml": lambda: CI.read_text(),
    "verify": lambda: VERIFY.read_text(),
    "README": lambda: _fenced(README.read_text()),
}


class TestStepCommands:
    @pytest.mark.parametrize(
        "path", [CI, VERIFY], ids=["ci.yml", "verify"]
    )
    def test_every_command_names_what_exists(self, path):
        text = path.read_text()
        verbs = set(re.findall(r"python3? -m repro (\S+)", text))
        assert verbs, "no `python -m repro <verb>` found"
        assert verbs <= _subcommands(), verbs - _subcommands()
        scripts = set(re.findall(r"\b(?:tools|perfbench)/\w+\.py\b", text))
        missing = {s for s in scripts if not (REPO_ROOT / s).is_file()}
        assert not missing, missing

    @pytest.mark.parametrize("doc", sorted(DOCUMENTED))
    def test_every_command_parses(self, doc, capsys):
        argvs = _repro_argvs(DOCUMENTED[doc]())
        assert argvs, "no `python -m repro <verb>` found"
        parser = build_parser()
        for argv in argvs:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{shlex.join(argv)}: {capsys.readouterr().err}")
