"""VLIW instruction scheduling.

* :mod:`repro.sched.machine` — the in-order VLIW resource/latency model
  (the reproduction's stand-in for the paper's Table 2 parameters).
* :mod:`repro.sched.ddg` — data-dependence graph over a superblock
  (register flow/anti/output edges, control edges to side exits, and the
  memory dependences from :mod:`repro.analysis.dependence`), stored as
  position-indexed edge tuples.
* :mod:`repro.sched.list_scheduler` — cycle-driven list scheduler that the
  SMARQ allocator (:mod:`repro.smarq.allocator`) hooks into. It honours
  memory dependences in non-speculative mode and may break MAY-alias
  dependences in speculative mode (that breakage is exactly what the alias
  hardware then guards).
"""

from repro.sched.machine import FunctionalUnit, MachineModel, VLIW_DEFAULT
from repro.sched.ddg import DataDependenceGraph, DdgEdge, EdgeKind
from repro.sched.list_scheduler import ListScheduler, ScheduleResult, SchedulerConfig
from repro.sched.modulo import (
    ModuloSchedule,
    ModuloSchedulingError,
    alias_register_requirement,
    modulo_schedule,
)

__all__ = [
    "DataDependenceGraph",
    "DdgEdge",
    "EdgeKind",
    "FunctionalUnit",
    "ListScheduler",
    "MachineModel",
    "ModuloSchedule",
    "ModuloSchedulingError",
    "ScheduleResult",
    "SchedulerConfig",
    "VLIW_DEFAULT",
    "alias_register_requirement",
    "modulo_schedule",
]
