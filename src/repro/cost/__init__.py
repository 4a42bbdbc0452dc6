"""Cost models: paper constants and measured feedback.

Two sources of predicted seconds:

* :mod:`repro.cost.calibration` holds every tunable constant with the
  paper anchor it was fitted against; :mod:`repro.cost.model` applies
  them to hybrid-sort traces and to the baseline sorters' pass
  structures.  Every plan the planner builds is priced this way
  (``"paper-analytical"``, the §6 Titan X).
* :mod:`repro.cost.feedback` learns this host's rates from measured
  executions: seconds per byte for each strategy, layout and size
  class, which the sort service prices its time budget with
  (``"measured-feedback"``).
"""

from repro.cost.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cost.feedback import CostFeedback
from repro.cost.model import CostModel, LSDCostPreset, MergeSortCostPreset

__all__ = [
    "Calibration",
    "CostFeedback",
    "CostModel",
    "DEFAULT_CALIBRATION",
    "LSDCostPreset",
    "MergeSortCostPreset",
]
