"""Tests for host profiles: probes, persistence, and the forgiving loader."""

from __future__ import annotations

import json
import os
import warnings

import numpy as np
import pytest

from repro.cost.hostprofile import (
    PROBE_LAYOUTS,
    PROFILE_SCHEMA,
    HostProfile,
    ProfileError,
    default_profile_path,
    layout_key,
    load_host_profile,
    probe_counting_scatter,
    probe_external,
    probe_library,
    probe_local_sort,
    probe_native,
    probe_pack,
    probe_thread_scaling,
    profile_fingerprint,
    run_probes,
    save_profile,
)
from repro.plan import InputDescriptor, Planner


def profile_doc(**overrides) -> dict:
    """A small, valid, fully synthetic profile document.

    It keeps the ``shard_speedup`` table that calibration wrote before
    the process-shard tier was removed, as older profiles on disk do.
    """
    doc = {
        "schema": PROFILE_SCHEMA,
        "created": 123.0,
        "host": {
            "platform": "test-host",
            "machine": "test",
            "python": "3.12",
            "numpy": "2.0",
            "cpu_count": 8,
        },
        "probes": {"n": 1024, "repeats": 1, "quick": True, "seed": 1},
        "counting_bandwidth": {
            "32/0": 1.0e8, "64/0": 8.0e7, "32/32": 6.0e7, "64/64": 5.0e7,
        },
        "native_bandwidth": {"32/0": 4.0e8},
        "local_sort_keys_per_s": 1.0e7,
        "pack_bandwidth": 1.0e9,
        "spill_bandwidth": 5.0e7,
        "merge_bandwidth": 1.0e8,
        "thread_speedup": {"1": 1.0, "2": 1.6},
        "shard_speedup": {"1": 1.0, "2": 1.2},
    }
    doc.update(overrides)
    return doc


class TestProfileObject:
    def test_round_trip_from_dict_to_dict(self):
        doc = profile_doc()
        profile = HostProfile.from_dict(doc)
        assert profile.cpu_count == 8
        assert profile.counting_bandwidth["32/0"] == 1.0e8
        assert HostProfile.from_dict(profile.to_dict()) == profile

    def test_wrong_schema_rejected(self):
        with pytest.raises(ProfileError, match="schema"):
            HostProfile.from_dict(profile_doc(schema=99))

    def test_missing_field_rejected(self):
        doc = profile_doc()
        del doc["merge_bandwidth"]
        with pytest.raises(ProfileError, match="merge_bandwidth"):
            HostProfile.from_dict(doc)

    def test_non_positive_rates_rejected(self):
        with pytest.raises(ProfileError):
            HostProfile.from_dict(profile_doc(local_sort_keys_per_s=0))
        with pytest.raises(ProfileError):
            HostProfile.from_dict(
                profile_doc(counting_bandwidth={"32/0": -1.0})
            )

    def test_empty_counting_table_rejected(self):
        with pytest.raises(ProfileError, match="counting_bandwidth"):
            HostProfile.from_dict(profile_doc(counting_bandwidth={}))

    def test_not_an_object_rejected(self):
        with pytest.raises(ProfileError):
            HostProfile.from_dict(["not", "a", "mapping"])

    def test_unknown_fields_survive_as_extras(self):
        profile = HostProfile.from_dict(profile_doc(future_field=42))
        assert profile.extras["future_field"] == 42
        assert profile.to_dict()["future_field"] == 42

    def test_layout_key(self):
        assert layout_key(32, 0) == "32/0"

    def test_retired_field_loads_as_extra_and_round_trips(self):
        old_doc = profile_doc()
        old = HostProfile.from_dict(old_doc)
        assert old.extras == {"shard_speedup": old_doc["shard_speedup"]}
        assert HostProfile.from_dict(old.to_dict()) == old
        del old_doc["shard_speedup"]
        assert HostProfile.from_dict(old_doc).extras == {}

    @pytest.mark.parametrize(
        "desc",
        [
            InputDescriptor(n=1 << 20, key_dtype=np.uint32),
            InputDescriptor(n=1 << 20, key_dtype=np.uint32, workers=2),
            InputDescriptor(
                n=1 << 20, key_dtype=np.int64, value_dtype=np.uint64
            ),
            InputDescriptor(
                n=1 << 20, key_dtype=np.uint32, memory_budget=1 << 20
            ),
        ],
        ids=["keys", "workers", "pairs64", "budget"],
    )
    def test_retired_field_prices_alike(self, desc):
        old_doc = profile_doc()
        new_doc = dict(old_doc)
        del new_doc["shard_speedup"]
        plans = [
            Planner(native="never", profile=HostProfile.from_dict(doc)).plan(
                desc
            )
            for doc in (old_doc, new_doc)
        ]
        assert [p.cost_source for p in plans] == ["host-profile"] * 2
        assert plans[0].steps == plans[1].steps

    def test_library_table_is_optional(self):
        # Profiles written before the library probe still load.
        assert HostProfile.from_dict(profile_doc()).library_bandwidth == {}
        profile = HostProfile.from_dict(
            profile_doc(library_bandwidth={"32/0": 9.0e8})
        )
        assert profile.library_bandwidth == {"32/0": 9.0e8}
        assert "library_bandwidth" not in profile.extras
        assert HostProfile.from_dict(profile.to_dict()) == profile
        with pytest.raises(ProfileError, match="library_bandwidth"):
            HostProfile.from_dict(
                profile_doc(library_bandwidth={"32/0": 0.0})
            )
        assert layout_key(64, 32) == "64/32"


class TestFingerprint:
    def test_stable_and_order_independent(self):
        doc = profile_doc()
        reordered = dict(reversed(list(doc.items())))
        assert profile_fingerprint(doc) == profile_fingerprint(reordered)
        assert profile_fingerprint(doc).startswith("hp-")

    def test_ignores_embedded_fingerprint(self):
        doc = profile_doc()
        stamped = profile_doc(fingerprint="hp-whatever")
        assert profile_fingerprint(doc) == profile_fingerprint(stamped)

    def test_content_sensitive(self):
        assert profile_fingerprint(profile_doc()) != profile_fingerprint(
            profile_doc(pack_bandwidth=2.0e9)
        )


class TestPersistence:
    def test_save_then_load_round_trips(self, tmp_path):
        path = tmp_path / "profile.json"
        fingerprint = save_profile(profile_doc(), path)
        profile = load_host_profile(path)
        assert profile is not None
        assert profile.fingerprint == fingerprint
        assert profile.pack_bandwidth == 1.0e9
        # The file itself embeds the same fingerprint.
        on_disk = json.loads(path.read_text())
        assert on_disk["fingerprint"] == fingerprint

    def test_save_refuses_invalid_document(self, tmp_path):
        path = tmp_path / "profile.json"
        with pytest.raises(ProfileError):
            save_profile(profile_doc(merge_bandwidth=0), path)
        assert not path.exists()

    def test_save_leaves_no_temp_droppings(self, tmp_path):
        save_profile(profile_doc(), tmp_path / "profile.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.json"]

    def test_missing_file_is_silent_none(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_host_profile(tmp_path / "nope.json") is None

    def test_corrupt_file_warns_once_then_falls_back(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{ this is not json")
        with pytest.warns(UserWarning, match="falling back"):
            assert load_host_profile(path) is None
        # Second load of the same path: still None, but no second warning.
        path.write_text("{ still not json!! ")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_host_profile(path) is None

    def test_partial_file_warns_and_falls_back(self, tmp_path):
        doc = profile_doc()
        del doc["counting_bandwidth"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="paper-anchored"):
            assert load_host_profile(path) is None

    def test_env_var_overrides_default_path(self, monkeypatch, tmp_path):
        target = tmp_path / "elsewhere" / "profile.json"
        monkeypatch.setenv("REPRO_HOST_PROFILE", str(target))
        assert default_profile_path() == str(target)
        save_profile(profile_doc(), default_profile_path())
        assert load_host_profile() is not None

    def test_default_path_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_HOST_PROFILE", raising=False)
        path = default_profile_path()
        assert path.endswith(os.path.join(".cache", "repro-host-profile.json"))

    def test_rewrite_invalidates_load_cache(self, tmp_path):
        path = tmp_path / "profile.json"
        save_profile(profile_doc(), path)
        first = load_host_profile(path)
        save_profile(profile_doc(pack_bandwidth=2.0e9), path)
        second = load_host_profile(path)
        assert first.pack_bandwidth == 1.0e9
        assert second.pack_bandwidth == 2.0e9
        assert first.fingerprint != second.fingerprint


class TestProbes:
    """Each probe's output schema, at tiny sizes (speed over precision)."""

    N = 1024

    def test_counting_scatter_covers_every_layout(self, rng):
        out = probe_counting_scatter(self.N, 1, rng)
        table = out["counting_bandwidth"]
        assert set(table) == {layout_key(k, v) for k, v in PROBE_LAYOUTS}
        assert all(bw > 0 for bw in table.values())

    def test_native_probe_schema(self, rng):
        from repro.native.build import native_status

        out = probe_native(self.N, 1, rng)
        table = out["native_bandwidth"]
        if native_status(warn=False).available:
            assert set(table) == {
                layout_key(k, v) for k, v in PROBE_LAYOUTS
            }
            assert all(bw > 0 for bw in table.values())
        else:
            assert table == {}

    def test_library_probe_covers_the_layouts_it_serves(self, rng):
        table = probe_library(self.N, 1, rng)["library_bandwidth"]
        # 64-bit-key pairs never take the library rung.
        assert set(table) == {"32/0", "64/0", "32/32"}
        assert all(bw > 0 for bw in table.values())

    def test_local_sort_probe(self, rng):
        out = probe_local_sort(self.N, 1, rng)
        assert out["local_sort_keys_per_s"] > 0

    def test_pack_probe(self, rng):
        out = probe_pack(self.N, 1, rng)
        assert out["pack_bandwidth"] > 0

    def test_external_probe(self, rng):
        out = probe_external(self.N, 1, rng)
        assert out["spill_bandwidth"] > 0
        assert out["merge_bandwidth"] > 0

    def test_thread_probe(self, rng):
        out = probe_thread_scaling(self.N, 1, rng)
        assert out["thread_speedup"]["1"] == 1.0
        assert out["thread_speedup"]["2"] > 0


class TestRunProbes:
    def test_document_validates_and_persists(self, tmp_path):
        doc = run_probes(1024, 1, quick=True, seed=7, timestamp=42.0)
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["created"] == 42.0
        assert doc["probes"] == {
            "n": 1024, "repeats": 1, "quick": True, "seed": 7,
        }
        assert doc["host"]["cpu_count"] >= 1
        assert HostProfile.from_dict(doc).extras == {}
        fingerprint = save_profile(doc, tmp_path / "p.json")
        profile = load_host_profile(tmp_path / "p.json")
        assert profile is not None and profile.fingerprint == fingerprint

    def test_tiny_n_clamped(self):
        doc = run_probes(3, 1, quick=True, timestamp=0.0)
        assert doc["probes"]["n"] == 1024

    def test_probe_arrays_deterministic_per_seed(self):
        from repro.cost.hostprofile import _probe_arrays

        a, _ = _probe_arrays(np.random.default_rng(5), 256, 32, 0)
        b, _ = _probe_arrays(np.random.default_rng(5), 256, 32, 0)
        assert np.array_equal(a, b)
        assert a.dtype == np.uint32
