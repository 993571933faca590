"""Replay every committed fuzz corpus entry on every test run.

Entries under ``tests/corpus/`` are cases the fuzzer once flagged as
interesting — past disagreements (minimized and fixed) or deliberately
adversarial passing cases (alias-exception-heavy, near-overflow register
files). Each entry names the oracle it stresses; replaying it must find
zero disagreements, so a once-understood behaviour can never silently
regress. Each entry replays from a few fixed uid offsets, each from
empty process-wide caches (``tests/uid_offsets.py``), so a fault that
depends on uid values cannot pass by the chance of where the process's
uid counter stands. Promotion workflow: ``docs/TESTING.md``.
"""

from pathlib import Path

import pytest

from repro.fuzz import ORACLE_NAMES, load_corpus, replay_case_dict

from tests.uid_offsets import FEW_UID_OFFSETS, report_from_uid_offset

CORPUS_DIR = Path(__file__).parent / "corpus"

ENTRIES = load_corpus(CORPUS_DIR)


def test_corpus_is_seeded():
    """The repo ships a non-empty corpus (guards against a bad glob)."""
    assert len(ENTRIES) >= 6


@pytest.mark.parametrize(
    "path,entry", ENTRIES, ids=[p.stem for p, _ in ENTRIES]
)
def test_corpus_entry_replays_clean(path, entry):
    assert entry.get("oracle") in ORACLE_NAMES, (
        f"{path.name}: entry must name a valid oracle"
    )
    for offset in FEW_UID_OFFSETS:
        disagreements = report_from_uid_offset(
            offset, lambda: replay_case_dict(entry)
        )
        assert not disagreements, "\n".join(
            f"{path.name} at uid offset {offset}: {d}" for d in disagreements
        )
