"""Differential fuzzing subsystem (see ``docs/TESTING.md``).

Adversarial guest programs generated from explicit RNG seeds are run
across every configured pair of independent implementations that must
agree (schemes vs interpreter, three allocators vs the replay oracle,
production queue vs a brute-force reference, every output-neutral knob
leg vs the default run, parallel vs serial engine); disagreements are
delta-debugged to minimal repros and persisted as corpus entries.

Entry points: ``python -m repro fuzz`` (CLI) or
:func:`repro.fuzz.runner.run_fuzz` (programmatic).
"""

from repro.fuzz.generator import (
    CaseConfig,
    FuzzCase,
    benchmark_program,
    case_benchmark_name,
    generate_case,
)
from repro.fuzz.minimize import MinimizationResult, minimize_case
from repro.fuzz.oracles import ORACLE_NAMES, ORACLES, CaseRun, Disagreement
from repro.fuzz.reference import ReferenceQueue
from repro.fuzz.runner import (
    FuzzConfig,
    FuzzFailure,
    FuzzRunner,
    FuzzStats,
    render_stats,
    run_fuzz,
)
from repro.fuzz.corpus import (
    corpus_entry,
    load_corpus,
    replay_case_dict,
    write_corpus_entry,
    write_repro_file,
)

__all__ = [
    "CaseConfig",
    "CaseRun",
    "Disagreement",
    "FuzzCase",
    "FuzzConfig",
    "FuzzFailure",
    "FuzzRunner",
    "FuzzStats",
    "MinimizationResult",
    "ORACLES",
    "ORACLE_NAMES",
    "ReferenceQueue",
    "benchmark_program",
    "case_benchmark_name",
    "corpus_entry",
    "generate_case",
    "load_corpus",
    "minimize_case",
    "render_stats",
    "replay_case_dict",
    "run_fuzz",
    "write_corpus_entry",
    "write_repro_file",
]
