"""Alias-detection scheme descriptors.

A :class:`Scheme` binds together everything that varies between the
configurations the paper's Figure 15 compares:

* ``smarq``   — order-based queue, 64 registers, full speculation;
* ``smarq16`` — same, 16 registers (the Efficeon-scale configuration);
* ``itanium`` — ALAT-like hardware: loads-only speculation, no store
  reordering, load-sourced forwarding only, store elimination off,
  detection with false positives;
* ``none``    — no alias hardware: conservative scheduling, check-free
  eliminations only.

Each scheme supplies the optimizer configuration and a hardware *adapter*
the VLIW simulator drives during region execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Set

from repro.hw.efficeon import EFFICEON_MAX_REGISTERS, BitmaskAliasFile
from repro.hw.exceptions import AliasException
from repro.hw.itanium import AlatModel
from repro.hw.queue_model import AliasRegisterQueue
from repro.ir.instruction import Instruction, Opcode
from repro.opt.pipeline import OptimizerConfig
from repro.sched.machine import MachineModel

SCHEME_NAMES = (
    "smarq",
    "smarq16",
    "itanium",
    "none",
    "efficeon",
    "plainorder",
    "smarq-cert",
)

#: shared empty required-target set (avoids one allocation per store check)
_EMPTY_SET: Set[int] = frozenset()


class HardwareAdapter:
    """Drives one region execution's alias hardware. Stateful per region.

    The two ``skip_unannotated_*`` class attributes are a fast-path
    contract for the VLIW trace compiler: when True, :meth:`on_mem_op` is
    promised to be a no-op (no state change, no stats, no exception) for
    loads/stores carrying neither a P nor a C bit, so the simulator may
    elide those calls entirely. Subclasses default to False (always
    called) unless they opt in.

    ``timing_transparent`` is the timing-plan contract
    (``docs/PERF.md``): when True, the adapter promises its callbacks
    never influence the simulator's issue/scoreboard timing — they only
    mutate alias-hardware state and may raise :class:`AliasException`.
    The simulator may then replay a region functionally and account
    cycles from a memoized per-trace timing plan. Subclasses default to
    False (full interpreted loop) unless they opt in; adapters that opt
    in should also implement :meth:`event_fingerprint` from their
    hardware model's ``event_signature()`` counters.
    """

    skip_unannotated_loads = False
    skip_unannotated_stores = False
    timing_transparent = False

    def on_region_enter(self, region) -> None:
        """Reset hardware state; ``region`` is the OptimizedRegion."""

    def on_mem_op(self, inst: Instruction, addr: int) -> None:
        """Called for every executed memory operation. May raise
        :class:`AliasException`."""

    def on_rotate(self, inst: Instruction) -> None:
        pass

    def on_amov(self, inst: Instruction) -> None:
        pass

    def on_region_exit(self) -> None:
        pass

    def event_fingerprint(self):
        """Hashable summary of the events fired since region entry.

        Part of the timing-plan replay signature: two executions of the
        same trace that exit at the same point with equal fingerprints
        are charged the same memoized cycle count. Adapters without
        per-region event tracking return 0 (no events to distinguish).
        """
        return 0

    # ------------------------------------------------------------------
    # Structured replay-lowering protocol (consumed by
    # :func:`repro.sim.replay_ir.lower_trace`). Each hook lowers ONE
    # compiled instruction's hardware interaction into numeric IR event
    # tuples (see the ``E_*`` constants in :mod:`repro.sim.replay_ir`);
    # every replay backend then services the same lowered form. Returning
    # ``None`` means the interaction cannot be expressed statically — the
    # lowering records a dynamic escape and backends call the
    # ``on_mem_op``/``on_rotate``/``on_amov`` callbacks above instead
    # (correct for any adapter, but unavailable to the vectorized tier).
    # An empty tuple means the op provably never touches the hardware
    # (backends elide it entirely). Any static lowering MUST produce
    # byte-identical state changes, stats, and exceptions.
    # ------------------------------------------------------------------
    @classmethod
    def lower_mem_event(cls, inst: Instruction):
        """IR events equivalent to ``on_mem_op(inst, addr)``."""
        return None

    @classmethod
    def lower_rotate_event(cls, inst: Instruction):
        """IR events equivalent to ``on_rotate(inst)``."""
        return None

    @classmethod
    def lower_amov_event(cls, inst: Instruction):
        """IR events equivalent to ``on_amov(inst)``."""
        return None

    def replay_config_key(self):
        """Hashable identity of this adapter's hardware configuration.

        Keys the process-wide replay artifact cache (together with the
        region's translation key and the adapter class), so lowered IR
        and compiled backends are shared only between executions whose
        hardware would behave identically. ``None`` (the base default)
        opts out of cross-region sharing entirely — safe for unknown
        subclasses with un-modeled configuration.
        """
        return None


class NullAdapter(HardwareAdapter):
    """No alias hardware (and queue pseudo-ops must not appear)."""

    skip_unannotated_loads = True
    skip_unannotated_stores = True
    # No callbacks ever fire state changes, so replay is trivially
    # timing-transparent and the fingerprint is the base class's 0.
    timing_transparent = True

    # every callback is a no-op, so replay lowers to no events at all
    @classmethod
    def lower_mem_event(cls, inst):
        return ()

    @classmethod
    def lower_rotate_event(cls, inst):
        return ()

    @classmethod
    def lower_amov_event(cls, inst):
        return ()

    def replay_config_key(self):
        return ("null",)


class SmarqAdapter(HardwareAdapter):
    """Order-based queue driven by P/C bits, offsets, ROTATE and AMOV."""

    # on_mem_op returns immediately without P or C bit
    skip_unannotated_loads = True
    skip_unannotated_stores = True
    # queue operations only mutate queue state / raise AliasException
    timing_transparent = True

    def __init__(self, num_registers: int) -> None:
        self.queue = AliasRegisterQueue(num_registers)
        self._entry_events = self.queue.event_signature()

    def on_region_enter(self, region) -> None:
        self.queue.reset()
        self._entry_events = self.queue.event_signature()

    def on_mem_op(self, inst: Instruction, addr: int) -> None:
        # scalar queue entry points: skip the AccessRange allocation on
        # every annotated memory op (this is the hottest adapter path)
        if not (inst.p_bit or inst.c_bit):
            return
        if inst.p_bit and inst.c_bit:
            self.queue.check_then_set_range(
                inst.ar_offset, addr, inst.size, inst.is_load, inst.mem_index
            )
        elif inst.p_bit:
            self.queue.set_range(
                inst.ar_offset, addr, inst.size, inst.is_load, inst.mem_index
            )
        else:
            self.queue.check_range(
                inst.ar_offset, addr, inst.size, inst.is_load, inst.mem_index
            )

    def on_rotate(self, inst: Instruction) -> None:
        self.queue.rotate(inst.rotate_by)

    def on_amov(self, inst: Instruction) -> None:
        self.queue.amov(inst.amov_src, inst.amov_dst)

    def on_region_exit(self) -> None:
        self.queue.clear()

    def event_fingerprint(self):
        # direct componentwise delta (one fingerprint per region
        # execution — avoids building the "now" signature tuple)
        s = self.queue.stats
        e = self._entry_events
        return (
            s.sets - e[0],
            s.checks - e[1],
            s.rotations - e[2],
            s.rotated_registers - e[3],
            s.amovs - e[4],
            s.exceptions - e[5],
        )

    # static lowering: the queue's scalar entry points with the P/C
    # dispatch and every static operand folded into the event tuples
    @classmethod
    def lower_mem_event(cls, inst):
        from repro.sim.replay_ir import E_QCHK, E_QSET

        if not (inst.p_bit or inst.c_bit):
            return ()
        args = (inst.ar_offset, inst.size, int(inst.is_load), inst.mem_index)
        events = []
        if inst.c_bit:  # check-before-set, exactly like check_then_set
            events.append((E_QCHK,) + args)
        if inst.p_bit:
            events.append((E_QSET,) + args)
        return tuple(events)

    @classmethod
    def lower_rotate_event(cls, inst):
        from repro.sim.replay_ir import E_ROT

        return ((E_ROT, inst.rotate_by),)

    @classmethod
    def lower_amov_event(cls, inst):
        from repro.sim.replay_ir import E_AMOV

        return ((E_AMOV, inst.amov_src, inst.amov_dst),)

    def replay_config_key(self):
        return ("smarq", self.queue.num_registers)


class ItaniumAdapter(HardwareAdapter):
    """ALAT-like: P-bit loads insert entries; every store checks them all.

    ``required_targets`` per checker lets the model flag false positives
    (detections SMARQ's precise constraints would not have performed).
    """

    # a load without a P bit never inserts an ALAT entry; stores always
    # check, annotated or not
    skip_unannotated_loads = True
    skip_unannotated_stores = False
    # ALAT inserts/checks only mutate table state / raise AliasException
    timing_transparent = True

    def __init__(self, num_entries: int = 32) -> None:
        self.alat = AlatModel(num_entries)
        self._required: Dict[int, Set[int]] = {}
        self._entry_events = self.alat.event_signature()

    def on_region_enter(self, region) -> None:
        self.alat.reset()
        self._entry_events = self.alat.event_signature()
        # The required-target map is a pure function of the region's
        # allocation; regions re-enter thousands of times, so it is built
        # once and cached on the region object (a re-optimized schedule is
        # a fresh region and recomputes).
        cached = getattr(region, "_alat_required", None)
        if cached is None:
            cached = {}
            if region.allocation is not None:
                for checker, target in region.allocation.check_pairs or ():
                    if checker.mem_index is None:
                        continue
                    if target.opcode is Opcode.AMOV:
                        continue
                    cached.setdefault(checker.mem_index, set()).add(
                        target.mem_index
                    )
            try:
                region._alat_required = cached
            except AttributeError:  # slotted region: rebuild per entry
                pass
        self._required = cached

    def on_mem_op(self, inst: Instruction, addr: int) -> None:
        # scalar ALAT entry points: no AccessRange allocation per op
        if inst.is_store:
            self.alat.store_check_range(
                addr,
                inst.size,
                inst.is_load,
                checker_mem_index=inst.mem_index,
                required_targets=self._required.get(inst.mem_index, _EMPTY_SET),
            )
        elif inst.p_bit:
            self.alat.advanced_load_range(
                inst.mem_index, addr, inst.size, inst.is_load
            )

    def on_rotate(self, inst: Instruction) -> None:
        pass  # ALAT has no rotation; SMARQ annotations are ignored

    def on_amov(self, inst: Instruction) -> None:
        pass

    def on_region_exit(self) -> None:
        self.alat.clear()

    def event_fingerprint(self):
        s = self.alat.stats
        e = self._entry_events
        return (
            s.inserts - e[0],
            s.store_checks - e[1],
            s.exceptions - e[2],
            s.false_positives - e[3],
        )

    # static lowering: direct scalar ALAT events. The required-target
    # map is per-region runtime state (``ad._required``, rebound by
    # on_region_enter), so the event only carries the checker's index —
    # backends resolve the set at call time.
    @classmethod
    def lower_mem_event(cls, inst):
        from repro.sim.replay_ir import E_ACHK, E_AINS

        if inst.is_store:
            return ((E_ACHK, inst.size, int(inst.is_load), inst.mem_index),)
        if inst.p_bit:
            return ((E_AINS, inst.mem_index, inst.size, int(inst.is_load)),)
        return ()

    @classmethod
    def lower_rotate_event(cls, inst):
        return ()  # ALAT has no rotation (on_rotate is a no-op)

    @classmethod
    def lower_amov_event(cls, inst):
        return ()

    def replay_config_key(self):
        return ("alat", self.alat.num_entries)


class EfficeonAdapter(HardwareAdapter):
    """Bit-mask file driven by direct register indexes and check masks.

    P-bit operations set the register named by their (direct, never
    rotated) ``ar_offset``; C-bit operations check exactly the registers
    named by their ``ar_mask``. Precise, store-store capable, but the
    file is capped at 15 registers by the mask encoding.
    """

    # without a C bit there is no mask to check and without a P bit no
    # register to set: unannotated memory ops never touch the file
    skip_unannotated_loads = True
    skip_unannotated_stores = True
    # bit-mask file operations only mutate file state / raise
    timing_transparent = True

    def __init__(self, num_registers: int = EFFICEON_MAX_REGISTERS) -> None:
        self.file = BitmaskAliasFile(num_registers)
        self._entry_events = self.file.event_signature()

    def on_region_enter(self, region) -> None:
        self.file.reset()
        self._entry_events = self.file.event_signature()

    def on_mem_op(self, inst: Instruction, addr: int) -> None:
        # scalar bit-mask entry points: no AccessRange allocation per op
        if inst.c_bit and inst.ar_mask:
            self.file.check_range(
                inst.ar_mask,
                addr,
                inst.size,
                inst.is_load,
                checker_mem_index=inst.mem_index,
            )
        if inst.p_bit and inst.ar_offset is not None:
            self.file.set_range(
                inst.ar_offset,
                addr,
                inst.size,
                inst.is_load,
                setter_mem_index=inst.mem_index,
            )

    def on_region_exit(self) -> None:
        self.file.clear()

    def event_fingerprint(self):
        s = self.file.stats
        e = self._entry_events
        return (s.sets - e[0], s.checks - e[1], s.exceptions - e[2])

    # static lowering: direct scalar bit-mask file events
    @classmethod
    def lower_mem_event(cls, inst):
        from repro.sim.replay_ir import E_BCHK, E_BSET

        events = []
        if inst.c_bit and inst.ar_mask:
            events.append(
                (E_BCHK, inst.ar_mask, inst.size, int(inst.is_load),
                 inst.mem_index)
            )
        if inst.p_bit and inst.ar_offset is not None:
            events.append(
                (E_BSET, inst.ar_offset, inst.size, int(inst.is_load),
                 inst.mem_index)
            )
        return tuple(events)

    @classmethod
    def lower_rotate_event(cls, inst):
        return ()  # bit-mask file has no rotation (on_rotate is a no-op)

    @classmethod
    def lower_amov_event(cls, inst):
        return ()

    def replay_config_key(self):
        return ("bitmask", self.file.num_registers)


@dataclass
class Scheme:
    """A complete alias-detection configuration.

    ``adapter_factory`` should be a picklable callable (a class or a
    :func:`functools.partial` over one, not a lambda) so the scheme can
    ship to process-pool workers; unpicklable schemes still work but
    force the engine's per-job serial fallback.
    """

    name: str
    machine: MachineModel
    optimizer_config: OptimizerConfig
    adapter_factory: Callable[[], HardwareAdapter]

    def make_adapter(self) -> HardwareAdapter:
        return self.adapter_factory()


def make_scheme(name: str, machine: Optional[MachineModel] = None) -> Scheme:
    """Build one of the named schemes over ``machine`` (default VLIW)."""
    base = machine or MachineModel()
    if name == "smarq":
        m = base.with_alias_registers(base.alias_registers or 64)
        return Scheme(
            name=name,
            machine=m,
            optimizer_config=OptimizerConfig(speculate=True),
            adapter_factory=partial(SmarqAdapter, m.alias_registers),
        )
    if name == "smarq-cert":
        # SMARQ plus the static alias certifier: provably disjoint pairs
        # lose their check constraints entirely (best-case bound when
        # everything provable is dropped). Hardware is unchanged.
        m = base.with_alias_registers(base.alias_registers or 64)
        return Scheme(
            name=name,
            machine=m,
            optimizer_config=OptimizerConfig(speculate=True, certify=True),
            adapter_factory=partial(SmarqAdapter, m.alias_registers),
        )
    if name == "smarq16":
        m = base.with_alias_registers(16)
        return Scheme(
            name=name,
            machine=m,
            optimizer_config=OptimizerConfig(speculate=True),
            adapter_factory=partial(SmarqAdapter, 16),
        )
    if name == "itanium":
        m = base.with_alias_registers(base.alias_registers or 64)
        return Scheme(
            name=name,
            machine=m,
            optimizer_config=OptimizerConfig(
                speculate=True,
                allow_store_reorder=False,
                speculation_policy="loads_only",
                enable_store_elimination=False,
                load_elim_sources="loads",
            ),
            adapter_factory=partial(ItaniumAdapter, num_entries=32),
        )
    if name == "efficeon":
        m = base.with_alias_registers(EFFICEON_MAX_REGISTERS)
        return Scheme(
            name=name,
            machine=m,
            optimizer_config=OptimizerConfig(speculate=True, allocator="bitmask"),
            adapter_factory=partial(EfficeonAdapter, EFFICEON_MAX_REGISTERS),
        )
    if name == "plainorder":
        # Section 2.4's baseline: order-based hardware, software allocates
        # one register per memory op in program order, everything checks
        # everything later. Eliminations are unsupported by construction.
        m = base.with_alias_registers(base.alias_registers or 64)
        return Scheme(
            name=name,
            machine=m,
            optimizer_config=OptimizerConfig(
                speculate=True,
                allocator="plainorder",
                enable_load_elimination=False,
                enable_store_elimination=False,
            ),
            adapter_factory=partial(SmarqAdapter, m.alias_registers),
        )
    if name == "none":
        return Scheme(
            name=name,
            machine=base,
            optimizer_config=OptimizerConfig(speculate=False),
            adapter_factory=NullAdapter,
        )
    raise ValueError(f"unknown scheme {name!r}; choose from {SCHEME_NAMES}")
