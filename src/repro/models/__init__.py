"""Model descriptions and analytical models calibrated to the paper.

Contents:

* :mod:`repro.models.llm` — static descriptions of the LLMs evaluated in the
  paper (Llama2-70B and BLOOM-176B, Table III) plus KV-cache geometry.
* :mod:`repro.models.memory` — GPU memory accounting for weights and KV-cache
  (Fig. 7), including the maximum batch capacity of a machine.
* :mod:`repro.models.performance` — the analytical latency model for the
  prompt and token phases (Figs. 5, 6; Table IV).
* :mod:`repro.models.power` — power-draw and power-capping models
  (Figs. 8, 9).
"""

from repro.models.llm import BLOOM_176B, LLAMA2_70B, ModelSpec, get_model
from repro.models.memory import MemoryModel, MemoryUsage
from repro.models.performance import AnalyticalPerformanceModel, PerformanceModel
from repro.models.power import PowerModel

__all__ = [
    "ModelSpec",
    "LLAMA2_70B",
    "BLOOM_176B",
    "get_model",
    "MemoryModel",
    "MemoryUsage",
    "PerformanceModel",
    "AnalyticalPerformanceModel",
    "PowerModel",
]
