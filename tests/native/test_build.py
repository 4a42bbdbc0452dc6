"""Build/probe machinery: caching, disabling, warnings, import safety."""

from __future__ import annotations

import ctypes
import importlib.util
import os
import shutil
import subprocess
import sys
import warnings
import zlib

import numpy as np
import pytest

from repro.core.keys import to_sortable_bits
from repro.errors import NativeUnavailableError
from repro.native import build

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


class TestProbeCache:
    def test_status_is_probed_once_per_process(self, fresh_probe, monkeypatch):
        first = build.native_status(warn=False)
        # A second call must not re-probe: replace the probe with a
        # tripwire and ask again.
        def boom():
            raise AssertionError("probe ran twice")

        monkeypatch.setattr(build, "_probe", boom)
        assert build.native_status(warn=False) is first

    def test_reset_forces_reprobe(self, fresh_probe, monkeypatch):
        build.native_status(warn=False)
        sentinel = build.NativeStatus(False, "sentinel probe")
        monkeypatch.setattr(build, "_probe", lambda: sentinel)
        build._reset_status_cache()
        assert build.native_status(warn=False) is sentinel

    def test_env_kill_switch(self, fresh_probe, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        status = build.native_status()
        assert not status.available
        assert "REPRO_NATIVE=0" in status.reason

    def test_env_kill_switch_does_not_warn(self, fresh_probe, monkeypatch):
        # Disabling is a choice, not a failure: no RuntimeWarning.
        monkeypatch.setenv("REPRO_NATIVE", "0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build.native_status(warn=True)


class TestUnavailableBehaviour:
    def test_failed_probe_warns_exactly_once(self, fresh_probe, monkeypatch):
        broken = build.NativeStatus(False, "compile/load failed: boom")
        monkeypatch.setattr(build, "_probe", lambda: broken)
        with pytest.warns(RuntimeWarning, match="falls? back to the NumPy"):
            build.native_status()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build.native_status()  # second call: silent

    def test_load_native_raises_typed_error(self, fresh_probe, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        with pytest.raises(NativeUnavailableError, match="REPRO_NATIVE=0"):
            build.load_native()


class _StubFFI:
    """Casts leave the address as it is, for :class:`_StubLib`."""

    @staticmethod
    def cast(ctype, address):
        return address


class _StubLib:
    """The compiled functions the self-test calls, in NumPy and zlib
    over raw addresses; ``swap`` exchanges the first and last records
    the pairs kernel writes."""

    def __init__(self, swap: bool) -> None:
        self.swap = swap

    def repro_native_sort_pairs(self, k, v, ok, ov, n, kind, lo_bit):
        keys, payload, out_keys, out_payload = (
            np.ctypeslib.as_array((ctypes.c_uint64 * n).from_address(a))
            for a in (k, v, ok, ov)
        )
        dtype = (np.uint64, np.int64, np.float64)[kind]
        bits = to_sortable_bits(keys.view(dtype)) >> np.uint64(lo_bit)
        order = np.argsort(bits, kind="stable")
        out_keys[:], out_payload[:] = keys[order], payload[order]
        if self.swap:
            out_keys[[0, -1]] = out_keys[[-1, 0]]
            out_payload[[0, -1]] = out_payload[[-1, 0]]
        return 0

    def repro_native_crc32(self, buf, n, crc):
        return zlib.crc32(ctypes.string_at(buf, n), crc)


class TestSelfTest:
    """The probe's self-test sorts through the kernel the tier runs."""

    def test_a_correct_kernel_passes(self):
        build._self_test(_StubFFI(), _StubLib(swap=False))

    def test_two_swapped_records_keep_the_tier_off(self):
        with pytest.raises(RuntimeError, match="bits-space stable order"):
            build._self_test(_StubFFI(), _StubLib(swap=True))


class TestModuleNaming:
    def test_digest_is_stable_and_names_the_module(self):
        digest = build.source_digest()
        assert digest == build.source_digest()
        assert len(digest) == 12
        int(digest, 16)  # hex
        assert build._module_name() == f"_repro_native_{digest}"

    def test_cache_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        assert build._cache_dir() == tmp_path / "cache"


#: cffi compiles through setuptools (distutils before Python 3.12).
needs_build_chain = pytest.mark.skipif(
    importlib.util.find_spec("cffi") is None
    or importlib.util.find_spec("setuptools") is None,
    reason="cffi or setuptools not installed",
)


@needs_build_chain
class TestChildBuild:
    """A cold probe compiles in a child interpreter: cffi's build chain
    never loads into the caller."""

    def _probe(self, tmp_path, code: str, **env_extra):
        env = dict(
            os.environ,
            PYTHONPATH=REPO_SRC,
            REPRO_NATIVE="1",
            REPRO_NATIVE_CACHE=str(tmp_path / "cache"),
        )
        env.update(env_extra)
        subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from repro.native import build;"
                "status = build.native_status(warn=False);" + code,
            ],
            env=env,
            check=True,
            timeout=300,
        )

    def test_cold_probe_keeps_the_build_chain_out(self, tmp_path):
        if shutil.which("gcc") is None:
            pytest.skip("gcc not installed")
        self._probe(
            tmp_path,
            "assert status.available, status.reason;"
            "assert 'setuptools' not in sys.modules;"
            "assert 'distutils' not in sys.modules;"
            "assert build.crc32_kernel() is None"
            "    or build.load_native()[1].repro_native_crc32_fast()",
        )

    def test_a_fresh_build_removes_stale_modules(self, tmp_path):
        if shutil.which("gcc") is None:
            pytest.skip("gcc not installed")
        cache = tmp_path / "cache"
        cache.mkdir()
        suffix = build._ext_suffix()
        stale = cache / f"_repro_native_000000000000{suffix}"
        stale.write_bytes(b"a module of another source digest")
        other_python = cache / f"{build._module_name()}.cpython-3x-other.so"
        other_python.write_bytes(b"this digest, another interpreter")
        self._probe(tmp_path, "assert status.available, status.reason")
        assert not stale.exists()
        assert other_python.exists()
        assert (cache / f"{build._module_name()}{suffix}").exists()
        # A warm load compiles nothing and removes nothing.
        stale.write_bytes(b"a module of another source digest")
        self._probe(tmp_path, "assert status.available, status.reason")
        assert stale.exists()

    def test_a_failed_compile_reports_the_childs_error(self, tmp_path):
        # The build chain honours CC; a compiler that fails at once.
        self._probe(
            tmp_path,
            "assert not status.available;"
            "assert 'compile failed' in status.reason, status.reason;"
            "assert '/bin/false' in status.reason, status.reason;"
            "assert build.crc32_kernel() is None",
            CC="/bin/false",
        )


class TestImportSafety:
    """``import repro`` must never fail for native-tier reasons."""

    def _run(self, code: str, env_extra: dict[str, str]) -> None:
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        env.update(env_extra)
        subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, timeout=120
        )

    #: Keys take the library rung, which needs no compiled tier;
    #: without the tier, so do 64-bit-key pairs.
    SORTS = (
        "k = np.arange(200_000, dtype=np.uint64)[::-1].copy();"
        "r = repro.sort(k.astype(np.uint32));"
        "assert r.meta['engine'] == 'library';"
        "assert (r.keys[:-1] <= r.keys[1:]).all();"
        "p = repro.sort_pairs(k, k);"
        "assert p.meta['engine'] == 'library';"
        "assert (p.keys[:-1] <= p.keys[1:]).all();"
        "assert (p.values == p.keys).all();"
    )

    def test_import_and_sort_with_tier_disabled(self):
        self._run(
            "import numpy as np, repro;" + self.SORTS,
            {"REPRO_NATIVE": "0"},
        )

    def test_import_and_sort_without_cffi(self, tmp_path):
        # A cffi that fails to import = a host that never installed it.
        (tmp_path / "cffi.py").write_text("raise ImportError('no cffi')\n")
        self._run(
            "import warnings, numpy as np;"
            "warnings.simplefilter('always');"
            "import repro;" + self.SORTS
            + "assert repro.native_status(warn=False).reason"
            "       == 'cffi not installed'",
            {
                "PYTHONPATH": f"{tmp_path}{os.pathsep}{REPO_SRC}",
                # Make the probe reach the cffi import even when the
                # outer test run disabled the tier via the env switch.
                "REPRO_NATIVE": "1",
            },
        )
