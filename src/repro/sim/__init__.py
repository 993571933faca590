"""Execution substrate: memory, VLIW timing simulation, DBT runtime.

* :mod:`repro.sim.memory` — flat little-endian guest memory, held as one
  list of unsigned 64-bit words that every replay tier reads, writes and
  rolls back the same way.
* :mod:`repro.sim.schemes` — alias-detection scheme descriptors binding an
  optimizer policy to a hardware adapter (smarq / smarq16 / itanium / none).
* :mod:`repro.sim.vliw` — bundle-level in-order VLIW timing simulator that
  executes optimized regions functionally while accounting cycles, driving
  the alias hardware, and enforcing atomic-region semantics.
* :mod:`repro.sim.runtime` — the dynamic-optimization runtime: dispatch,
  alias-exception handling, rollback, conservative re-optimization.
* :mod:`repro.sim.dbt` — the end-to-end dynamic binary translator tying
  interpret -> profile -> form region -> optimize -> execute together.
"""

from repro.sim.memory import Memory, MemoryFault
from repro.sim.schemes import Scheme, make_scheme, SCHEME_NAMES
from repro.sim.vliw import RegionOutcome, VliwSimulator
from repro.sim.runtime import DynamicOptimizationRuntime, RuntimeConfig
from repro.sim.dbt import DbtSystem, DbtReport
from repro.sim.visualize import render_bundles, render_region_summary

__all__ = [
    "DbtReport",
    "DbtSystem",
    "DynamicOptimizationRuntime",
    "Memory",
    "MemoryFault",
    "RegionOutcome",
    "RuntimeConfig",
    "SCHEME_NAMES",
    "Scheme",
    "VliwSimulator",
    "make_scheme",
    "render_bundles",
    "render_region_summary",
]
