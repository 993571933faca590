"""Hardware alias-detection models.

Executable models of the alias-detection hardware the paper compares
(Table 1):

* :class:`~repro.hw.queue_model.AliasRegisterQueue` — the order-based queue
  SMARQ manages (P/C bits, rotation, AMOV). No false positives, detects
  store-store aliases, scales to any register count.
* :class:`~repro.hw.itanium.AlatModel` — Itanium-like ALAT: stores check all
  live entries (false positives possible), store-store aliases undetectable.
* :class:`~repro.hw.efficeon.BitmaskAliasFile` — Efficeon-like bit-mask file:
  precise but capped at 15 registers by instruction encoding.

The scheme without detection has no model: its adapter
(:class:`~repro.sim.schemes.NullAdapter`) ignores every callback, and
the optimizer does not speculate for it. Atomic-region checkpoint and
rollback live in the simulator (:mod:`repro.sim.vliw`), not here.

All models raise :class:`~repro.hw.exceptions.AliasException` when a runtime
alias is detected, which the runtime turns into an atomic-region rollback.
"""

from repro.hw.exceptions import (
    AliasException,
    AliasRegisterOverflow,
    HardwareError,
)
from repro.hw.ranges import AccessRange
from repro.hw.queue_model import AliasRegisterQueue
from repro.hw.itanium import AlatModel
from repro.hw.efficeon import BitmaskAliasFile, EFFICEON_MAX_REGISTERS

__all__ = [
    "AccessRange",
    "AlatModel",
    "AliasException",
    "AliasRegisterOverflow",
    "AliasRegisterQueue",
    "BitmaskAliasFile",
    "EFFICEON_MAX_REGISTERS",
    "HardwareError",
]
