"""The fourteen SPECFP2000 stand-in benchmarks.

Each benchmark is a :class:`~repro.workloads.synthetic.WorkloadTraits`
instance. Trait choices encode what the paper reports or what the codes
are known for:

* **ammp** — molecular dynamics over pointer-linked atoms: by far the
  largest superblocks (paper Figure 14) and the strongest alias-register
  pressure (the 16-register gap, 30%) plus occasional real store aliasing
  (slight loss from store reordering, Figure 16) and heavy ALAT false
  positives (47% Itanium gap).
* **mesa** — software 3D rasterization: store-heavy with late-computed
  pixel values; the strongest store-reorder sensitivity (13%, Figure 16)
  and dead-store overdraw.
* **art** — neural-net image matcher: small loop re-scanning weight
  arrays; redundant-load heavy.
* **equake** — sparse FEM over indexed meshes: indirect loads/stores.
* **swim/mgrid/applu** — dense Fortran stencil/solver kernels: streaming
  accesses through parameter-block bases (statically opaque, runtime
  disjoint) — pure reorder benefit, no rollbacks.
* the rest — mixtures in the same vocabulary, sized per their rough
  superblock sizes in Figure 14.

Dynamic sizes are kept small enough for a pure-Python cycle-level model;
``scale`` multiplies iteration counts when benchmarks want longer runs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

from repro.frontend.program import GuestProgram
from repro.workloads.synthetic import WorkloadTraits, build_from_traits

#: canonical SPECFP2000 ordering used by every figure
SPECFP_BENCHMARKS: List[str] = [
    "wupwise",
    "swim",
    "mgrid",
    "applu",
    "mesa",
    "galgel",
    "art",
    "equake",
    "facerec",
    "ammp",
    "lucas",
    "fma3d",
    "sixtrack",
    "apsi",
]

_TRAITS: Dict[str, WorkloadTraits] = {
    "wupwise": WorkloadTraits(
        name="wupwise", streams=7, known_streams=2, rmws=4, indirect_stores=2,
        unknown_arrays=3, known_arrays=1, fp_chain=3,
    ),
    "swim": WorkloadTraits(
        name="swim", streams=6, known_streams=3, indirect_stores=1,
        unknown_arrays=4, known_arrays=2, fp_chain=2,
    ),
    "mgrid": WorkloadTraits(
        name="mgrid", streams=5, known_streams=3, indirect_stores=1, phases=2,
        unknown_arrays=3, known_arrays=1, fp_chain=3,
    ),
    "applu": WorkloadTraits(
        name="applu", streams=8, known_streams=2, rmws=4, indirect_stores=2,
        phases=2,
        unknown_arrays=3, known_arrays=1, fp_chain=2,
    ),
    "mesa": WorkloadTraits(
        name="mesa", streams=2, slow_stores=4, slow_store_followers=8,
        dead_stores=2, indirect_stores=2, unknown_arrays=3, known_arrays=1,
        fp_chain=2,
    ),
    "galgel": WorkloadTraits(
        name="galgel", streams=4, known_streams=2, rmws=1, indirect_loads=1,
        indirect_stores=1, unknown_arrays=2, known_arrays=1, fp_chain=3,
    ),
    "art": WorkloadTraits(
        name="art", streams=1, redundant_loads=3, indirect_stores=1,
        chained_forwardings=1,
        unknown_arrays=2, known_arrays=1, fp_chain=1,
    ),
    "equake": WorkloadTraits(
        name="equake", streams=3, indirect_loads=5, indirect_stores=3,
        rmws=3, chained_forwardings=1, unknown_arrays=2, known_arrays=1, fp_chain=2,
    ),
    "facerec": WorkloadTraits(
        name="facerec", streams=4, known_streams=2, redundant_loads=1,
        indirect_stores=1, unknown_arrays=3, known_arrays=1, fp_chain=2,
    ),
    "ammp": WorkloadTraits(
        name="ammp", streams=10, rmws=8, indirect_loads=8, indirect_stores=6,
        redundant_loads=3, chained_forwardings=2, unknown_arrays=4, known_arrays=1, fp_chain=2,
        collision_period=24,
    ),
    "lucas": WorkloadTraits(
        name="lucas", streams=9, known_streams=2, rmws=6, unknown_arrays=3,
        known_arrays=1, fp_chain=3,
    ),
    "fma3d": WorkloadTraits(
        name="fma3d", streams=7, known_streams=1, rmws=5, indirect_loads=3,
        phases=2,
        indirect_stores=2, unknown_arrays=3, known_arrays=1, fp_chain=2,
    ),
    "sixtrack": WorkloadTraits(
        name="sixtrack", streams=10, known_streams=2, rmws=6, indirect_stores=2,
        unknown_arrays=3, known_arrays=1, fp_chain=4,
    ),
    "apsi": WorkloadTraits(
        name="apsi", streams=3, known_streams=2, rmws=1, indirect_loads=1,
        indirect_stores=1, redundant_loads=1, chained_forwardings=1, unknown_arrays=2,
        known_arrays=1, fp_chain=2,
    ),
    # Pointer-walk benchmarks for the alias certifier (outside the
    # canonical SPECFP list so the default figure suites are unchanged):
    # every speculative pair is provably disjoint, so ``smarq-cert``
    # should drop essentially all runtime checks while plain ``smarq``
    # pays for each one.
    "pwalk": WorkloadTraits(
        name="pwalk", streams=1, pointer_walks=4, unknown_arrays=3,
        known_arrays=1, fp_chain=2,
    ),
    "pchase": WorkloadTraits(
        name="pchase", streams=1, pointer_walks=1, pointer_chases=3,
        unknown_arrays=2, known_arrays=1, fp_chain=2,
    ),
}

#: certifier-focused pointer-walk benchmarks (not part of the canonical
#: figure suites; see ``smarq-cert`` in :mod:`repro.sim.schemes`)
CERT_BENCHMARKS: List[str] = ["pwalk", "pchase"]

#: the process-wide program memo, an LRU of at most ``_PROGRAM_ENTRIES``
#: builds keyed by ``(name, scale)``. Bounded because ``serve`` accepts
#: any scale a client sends; programs are immutable, so every run in the
#: process shares one build. Like the DBT's warm-up memo, it assumes one
#: simulating thread per process.
_PROGRAM_ENTRIES = 32
_PROGRAMS: "OrderedDict[Tuple[str, float], GuestProgram]" = OrderedDict()


def reset_program_memo() -> None:
    """Drop every memoized program build (tests)."""
    _PROGRAMS.clear()


def benchmark_traits(name: str) -> WorkloadTraits:
    """The trait description of one benchmark (a copy safe to tweak)."""
    try:
        traits = _TRAITS[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from {SPECFP_BENCHMARKS}"
        )
    return WorkloadTraits(**vars(traits))


def make_benchmark(name: str, scale: float = 1.0) -> GuestProgram:
    """Build one benchmark's guest program; ``scale`` multiplies the
    iteration count (1.0 -> the default calibrated size).

    Besides the SPECFP stand-ins, two self-describing name forms are
    accepted so fuzz programs can travel through the execution engine's
    process-pool workers (which rebuild programs from the benchmark
    name): ``fuzz:<seed>`` regenerates the fuzzer's case for that seed,
    and ``fuzzcase:<packed>`` decodes a fully serialized (e.g.
    minimized) case. Both ignore ``scale`` — a fuzz case's iteration
    count is part of its identity.

    The SPECFP and certifier benchmarks are built once per ``(name,
    scale)`` and process (``_PROGRAMS``); fuzz and fault names are built
    on every call (a fault build depends on ``SMARQ_FAULT_BENCHMARKS``,
    which a memo would outlive).
    """
    if name.startswith(("fuzz:", "fuzzcase:")):
        # Imported lazily: repro.fuzz pulls in the scheduler/allocator
        # stack, which workloads must not depend on at import time.
        from repro.fuzz.generator import benchmark_program

        return benchmark_program(name)
    if name.startswith("fault:"):
        # Fault-injection benchmarks for the serve failure-path tests;
        # rejected unless SMARQ_FAULT_BENCHMARKS=1 (see repro.serve.faults).
        from repro.serve.faults import make_fault_benchmark

        return make_fault_benchmark(name, scale)
    key = (name, scale)
    program = _PROGRAMS.get(key)
    if program is not None:
        _PROGRAMS.move_to_end(key)
        return program
    traits = benchmark_traits(name)
    traits.iterations = max(100, int(traits.iterations * scale))
    program = build_from_traits(traits)
    _PROGRAMS[key] = program
    while len(_PROGRAMS) > _PROGRAM_ENTRIES:
        _PROGRAMS.popitem(last=False)
    return program
