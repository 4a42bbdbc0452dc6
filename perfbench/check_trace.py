"""Checks of the benchmark's own machinery.

Run from the repository root with::

    python3 -m pytest -q perfbench/check_trace.py

The file is named so that the repository's default test run does not
collect it: it pins the process environment the way ``run.py`` does.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.pin_environment()

import inputs  # noqa: E402
import oracle  # noqa: E402
import repro  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _layout(kind: str, rng, n: int):
    if kind == "u32":
        return inputs.uniform_u32(rng, n), None
    if kind == "i64":
        return inputs.uniform_i64(rng, n), None
    if kind == "f32":
        return inputs.float_with_edges(rng, n, np.float32), None
    if kind == "f64":
        return inputs.float_with_edges(rng, n, np.float64), None
    return inputs.uniform_u32(rng, n), inputs.row_ids(n, np.uint32)


def _cases() -> list:
    """A few of every in-memory layout, across the native floor."""
    cases = []
    for k, kind in enumerate(("u32", "i64", "f32", "f64", "pairs-u32")):
        for n in (300, 5000, 1 << 16):
            keys, values = _layout(kind, inputs.stream(7, k, n), n)
            cases.append(workloads.array_case(f"{kind}-{n}", keys, values))
    return cases


def _file_case(tmp_path):
    ooc = workloads.OutOfCore(str(tmp_path))
    label, records, kwargs = list(workloads.ooc_files(7, 1 << 15))[1]
    return ooc.file_case(label, records, kwargs, "check")


def test_outofcore_check_reads_only_its_own_output(tmp_path):
    case = _file_case(tmp_path)
    report = case.call()
    assert case.check(report)
    case.settle()
    assert not case.check(report)


def _target_state() -> dict:
    state = {}
    for dotted_names, _ in tracing.TARGETS.values():
        for dotted in dotted_names:
            found = tracing.resolve(dotted)
            if found is not None:
                state[dotted] = getattr(*found)
    return state


def _outputs(cases) -> list:
    outs = []
    for case in cases:
        out = case.call()
        assert case.check(out), case.label
        if hasattr(out, "keys"):
            values = () if out.values is None else (out.values,)
            outs.append(oracle.digest(out.keys, *values))
    return outs


def test_traced_outputs_are_byte_identical_to_untraced(tmp_path):
    cases = _cases() + [_file_case(tmp_path)]
    plain = _outputs(cases)
    tracer = tracing.Tracer().install()
    try:
        traced = _outputs(cases)
    finally:
        tracer.uninstall()
    assert traced == plain
    names = {span.name for span in tracer.spans}
    assert {"plan.facade", "plan.plan", "native.sort", "core.hybrid",
            "external.spill", "external.merge"} <= names
    assert tracer.absent == []


def test_untraced_run_installs_nothing():
    before = _target_state()
    m = workloads.run_sequential(_cases()[:3], 0.0)
    assert m.failed == 0 and m.attempted == 3
    after = _target_state()
    assert after.keys() == before.keys()
    assert all(after[name] is before[name] for name in before)
    assert not any(hasattr(fn, "__perfbench__") for fn in after.values())


def test_uninstall_restores_every_target():
    before = _target_state()
    tracing.Tracer().install().uninstall()
    after = _target_state()
    assert all(after[name] is before[name] for name in before)


def test_absent_targets_are_reported_not_raised():
    targets = {
        "x": (("repro.no_such_module.fn", "repro.plan.planner.NoSuch.plan",
               "repro.sort"), None),
    }
    tracer = tracing.Tracer(targets).install()
    try:
        assert tracer.absent == [
            "repro.no_such_module.fn", "repro.plan.planner.NoSuch.plan"
        ]
        repro.sort(np.arange(10, dtype=np.uint32)[::-1].copy())
    finally:
        tracer.uninstall()
    assert [span.name for span in tracer.spans] == ["x"]


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer().install()
    try:
        repro.sort(inputs.uniform_u32(inputs.stream(3), 1 << 16))
    finally:
        tracer.uninstall()
    facade = next(s for s in tracer.spans if s.name == "plan.facade")
    children = [s for s in tracer.spans if s.parent is facade]
    assert children
    assert abs(facade.child - sum(s.seconds for s in children)) < 1e-9
    assert 0 <= facade.self_seconds <= facade.seconds


def test_oracle_order_matches_program_on_float_edges():
    keys = inputs.float_with_edges(inputs.stream(5), 4096)
    want = oracle.sort_keys(keys)
    got = repro.sort(keys).keys
    assert workloads.same_bytes(got, want)
    bits = oracle.to_bits(want)
    assert (bits[:-1] <= bits[1:]).all()
    assert workloads.same_bytes(oracle.from_bits(oracle.to_bits(keys), keys.dtype), keys)


def test_inputs_depend_only_on_the_seed():
    a = inputs.zipf_u32(inputs.stream(9, 2), 1000)
    b = inputs.zipf_u32(inputs.stream(9, 2), 1000)
    c = inputs.zipf_u32(inputs.stream(10, 2), 1000)
    assert workloads.same_bytes(a, b)
    assert not workloads.same_bytes(a, c)
    for dtype in (np.float32, np.float64):
        inputs.check_float_edges(inputs.float_with_edges(inputs.stream(1), 256, dtype))
