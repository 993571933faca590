"""Golden-report regression corpus.

Byte-level lock on the observable output of the simulation core: for a
small (benchmark x scheme) grid the full :class:`~repro.sim.dbt.DbtReport`
is serialized to canonical JSON and compared against a committed golden
file. Any change to cycle accounting, scheduling order, allocation,
alias-exception behaviour or report layout fails here first — this is the
proof obligation behind every hot-path optimization: *faster, but
byte-identical*.

Regenerating (only when an intentional behaviour change lands):

    SMARQ_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/test_golden_reports.py -q

and commit the rewritten files under ``tests/goldens/``.

The same goldens must hold under every output-neutral knob leg of
:mod:`repro.knobs` (timing plans off, translation cache off, each forced
replay tier). Each (leg, cell) starts from empty process-wide caches, as
a fresh process would.
"""

import json
import os
import pathlib

import pytest

from repro import knobs
from repro.frontend.profiler import ProfilerConfig
from repro.opt.translation_cache import reset_translation_cache
from repro.sim.dbt import DbtSystem, reset_prefix_memo
from repro.workloads import make_benchmark

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"

#: the locked grid: small, fast, and covering the three hardware families
#: (precise queue, imprecise ALAT, no alias hardware)
GOLDEN_BENCHMARKS = ("swim", "art", "equake")
GOLDEN_SCHEMES = ("smarq", "itanium", "none")
GOLDEN_SCALE = 0.05
GOLDEN_HOT_THRESHOLD = 20

#: each cell is (benchmark, scheme, scale). The 3x3 grid at scale 0.05 is
#: the fast core lock; the equake row is additionally locked at scale 0.1
#: so timing-plan signature reuse across the much longer
#: pointer-chasing run is pinned byte-for-byte too. The
#: smarq-cert row locks the static certifier's observable effect: the
#: core grid plus the pointer-walk benchmarks where certification
#: actually drops checks.
GOLDEN_CELLS = (
    [
        (bench, scheme, GOLDEN_SCALE)
        for bench in GOLDEN_BENCHMARKS
        for scheme in GOLDEN_SCHEMES
    ]
    + [("equake", scheme, 0.1) for scheme in GOLDEN_SCHEMES]
    + [
        (bench, "smarq-cert", GOLDEN_SCALE)
        for bench in GOLDEN_BENCHMARKS + ("pwalk", "pchase")
    ]
)


def golden_path(bench: str, scheme: str, scale: float = GOLDEN_SCALE) -> pathlib.Path:
    return GOLDEN_DIR / f"{bench}_{scheme}_s{int(round(scale * 100)):03d}.json"


def run_cell(bench: str, scheme: str, scale: float = GOLDEN_SCALE):
    """Run one cell; returns its :class:`~repro.sim.dbt.DbtReport`."""
    program = make_benchmark(bench, scale=scale)
    system = DbtSystem(
        program,
        scheme,
        profiler_config=ProfilerConfig(hot_threshold=GOLDEN_HOT_THRESHOLD),
    )
    return system.run()


def render_report(bench: str, scheme: str, scale: float = GOLDEN_SCALE) -> str:
    """Run one cell and serialize its report canonically."""
    report = run_cell(bench, scheme, scale)
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("bench,scheme,scale", GOLDEN_CELLS)
def test_report_matches_golden(bench, scheme, scale):
    path = golden_path(bench, scheme, scale)
    rendered = render_report(bench, scheme, scale)
    if os.environ.get("SMARQ_REGEN_GOLDENS") == "1":
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(rendered)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden {path.name}; regenerate with SMARQ_REGEN_GOLDENS=1"
    )
    expected = path.read_text()
    assert rendered == expected, (
        f"DbtReport for ({bench}, {scheme}) diverged from the committed "
        f"golden — the simulation core's observable output changed. If "
        f"intentional, regenerate with SMARQ_REGEN_GOLDENS=1."
    )


def reset_process_caches() -> None:
    """Empty the process-wide caches a run fills, as in a fresh process."""
    reset_translation_cache()
    reset_prefix_memo()


#: every golden cell under every neutral knob leg; the id carries the
#: scheme, so ``-k "not cert"`` drops the smarq-cert cells here too
KNOB_CELLS = [
    pytest.param(leg, cell, id="-".join(("=".join(leg),) + tuple(map(str, cell))))
    for leg in knobs.legs()
    for cell in GOLDEN_CELLS
]


@pytest.mark.parametrize("leg,cell", KNOB_CELLS)
def test_golden_holds_under_neutral_knob(leg, cell):
    reset_process_caches()
    try:
        with knobs.overridden(*leg):
            rendered = render_report(*cell)
    finally:
        reset_process_caches()
    assert rendered == golden_path(*cell).read_text(), (
        f"{'='.join(leg)} changed the report of {cell}"
    )


def test_goldens_are_canonical_json():
    """Each committed golden must be canonical (sorted keys, 2-space
    indent, trailing newline) so byte-diffs equal semantic diffs."""
    for bench, scheme, scale in GOLDEN_CELLS:
        path = golden_path(bench, scheme, scale)
        if not path.exists():
            pytest.skip("goldens not generated yet")
        raw = path.read_text()
        data = json.loads(raw)
        assert raw == json.dumps(data, sort_keys=True, indent=2) + "\n"
