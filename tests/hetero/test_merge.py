"""Tests for the CPU multiway merge's cost model (Figures 8 and 9).

The merge itself is :func:`repro.external.merge.drain_cursors`, tested
in ``tests/external/test_run_merge.py``.
"""

from __future__ import annotations

import pytest

from repro.cost.calibration import Calibration
from repro.errors import ConfigurationError
from repro.hetero.merge import CpuMergeModel


class TestCpuMergeModel:
    def test_single_run_is_free(self):
        model = CpuMergeModel()
        assert model.merge_seconds(10**9, 1) == 0.0

    def test_one_pass_up_to_width_four(self):
        # §6.2: the six-core host merges up to four chunks in one pass.
        model = CpuMergeModel()
        assert model.merge_passes(2) == 1
        assert model.merge_passes(4) == 1
        assert model.merge_passes(5) == 2
        assert model.merge_passes(16) == 2

    def test_64gb_merge_anchor(self):
        # Figure 9: ~9.3 s to merge 64 GB of 16 runs.
        model = CpuMergeModel()
        t = model.merge_seconds(64 * 10**9, 16, record_bytes=16)
        assert t == pytest.approx(9.3, rel=0.1)

    def test_wider_host_needs_fewer_passes(self):
        wide = CpuMergeModel(Calibration(cpu_merge_width=16))
        assert wide.merge_passes(16) == 1

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuMergeModel().merge_seconds(-1, 4)
