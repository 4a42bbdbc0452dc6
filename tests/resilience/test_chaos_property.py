"""The containment contract, as a property over the fault matrix.

For *any* single-fault schedule drawn from the declared (site, kind)
matrix, a sort must end in byte-identical output — possibly after
retries, degradation, or resume — or a typed error.  Never silently
corrupted bytes, never an unexercised fault, never a hang (the suite's
``SIGALRM`` guard turns a hang into a failure).

The scenarios themselves are the same deterministic ones the
``repro chaos`` CLI sweeps; hypothesis supplies the schedule and the
data seed, shrinking any violation to a minimal (site, kind, seed).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.resilience.chaos import (
    EXTERNAL_RUNGS,
    WRITE_SITES,
    _external_scenario,
    _rung_scenario,
    _service_scenario,
    default_schedule,
)
from repro.resilience.faults import SITES


FULL_MATRIX = default_schedule()
EXTERNAL_MATRIX = [
    pair for pair in FULL_MATRIX if pair[0].startswith("external.")
]
# The rungs above hybrid (native, library) need plans that put them at
# the head of the ladder; their scenario runner supplies those (and
# works without the extension).
RUNG_SITES = ("engine.native", "engine.library")
NATIVE_MATRIX = [pair for pair in FULL_MATRIX if pair[0] in RUNG_SITES]
SERVICE_MATRIX = [
    pair
    for pair in FULL_MATRIX
    if not pair[0].startswith("external.")
    and pair[0] not in RUNG_SITES
]

# Each draw runs a complete (small) sort through real engines and real
# spill files; generous per-example deadline, modest example counts.
SCENARIO_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestScheduleShape:
    def test_every_site_appears(self):
        assert {site for site, _ in FULL_MATRIX} == set(SITES)

    def test_partial_only_at_write_sites(self):
        partial_sites = {
            site for site, kind in FULL_MATRIX if kind == "partial"
        }
        assert partial_sites == set(WRITE_SITES)

    def test_hang_only_where_the_watchdog_guards(self):
        hang_sites = {
            site for site, kind in FULL_MATRIX if kind == "hang"
        }
        assert hang_sites == {"service.execute"}

    def test_site_filter(self):
        only = default_schedule(["engine.hybrid"])
        assert only == [("engine.hybrid", "error")]


def assert_contained(result: dict) -> None:
    assert result["ok"], (
        f"containment violated at {result['site']}/{result['kind']}: "
        f"{result['outcome']} — {result['detail']}"
    )
    assert result["outcome"] not in ("corrupt-output", "not-reached")


class TestSingleFaultContainment:
    @settings(max_examples=12, **SCENARIO_SETTINGS)
    @given(
        scenario=st.sampled_from(EXTERNAL_MATRIX),
        rung=st.sampled_from(EXTERNAL_RUNGS),
        seed=st.integers(0, 2**16),
    )
    def test_external_faults_recover_or_fail_typed(
        self, scenario, rung, seed
    ):
        site, kind = scenario
        assert_contained(
            _external_scenario(site, kind, n=3_000, seed=seed, rung=rung)
        )

    @settings(max_examples=8, **SCENARIO_SETTINGS)
    @given(
        scenario=st.sampled_from(
            [p for p in SERVICE_MATRIX if p[1] != "hang"]
        ),
        seed=st.integers(0, 2**16),
    )
    def test_service_faults_absorbed_or_fail_typed(self, scenario, seed):
        site, kind = scenario
        assert_contained(_service_scenario(site, kind, n=3_000, seed=seed))

    @settings(max_examples=6, **SCENARIO_SETTINGS)
    @given(
        scenario=st.sampled_from(NATIVE_MATRIX),
        seed=st.integers(0, 2**16),
    )
    def test_native_faults_absorbed_or_fail_typed(self, scenario, seed):
        site, kind = scenario
        assert_contained(_rung_scenario(site, kind, n=3_000, seed=seed))

    def test_watchdog_cuts_the_hang_short(self):
        # The hang scenario is deterministic and slow-ish (it waits for
        # the watchdog), so it runs once rather than under hypothesis.
        result = _service_scenario("service.execute", "hang", n=2_000, seed=0)
        assert_contained(result)
        assert result["outcome"] == "typed-error"
        assert "DeadlineExceededError" in result["detail"]


class TestHeteroChunkRung:
    def test_hetero_scenario_plans_chunks_on_the_library_rung(self):
        result = _service_scenario("engine.hetero", "error", n=3_000, seed=0)
        assert_contained(result)
        assert result["outcome"] == "recovered"  # the retry re-ran it

    def test_a_moved_chunk_rung_fails_the_scenario(self, monkeypatch):
        from repro.resilience import chaos

        monkeypatch.setattr(chaos, "HETERO_CHUNK_RUNG", "native")
        result = _service_scenario("engine.hetero", "error", n=3_000, seed=0)
        assert not result["ok"]
        assert result["outcome"] == "wrong-rung"
        assert "'library'" in result["detail"]
