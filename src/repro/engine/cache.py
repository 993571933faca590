"""Persistent, content-addressed report cache.

Reports are stored one JSON file per job fingerprint under a cache root
(default ``~/.cache/repro``, overridable via the ``REPRO_CACHE_DIR``
environment variable or the constructor). Because the fingerprint hashes
the full job configuration plus the repro version, the report schema and
the package's source (see :func:`repro.engine.jobs.job_fingerprint`), a
hit is always safe to serve verbatim.

Corrupted or unreadable cache files are treated as misses (and removed
best-effort), so a damaged cache degrades to a fresh run, never a crash.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional

from repro.sim.dbt import DbtReport

_ENV_VAR = "REPRO_CACHE_DIR"
_DEFAULT_ROOT = "~/.cache/repro"


class ReportCache:
    """Filesystem-backed DbtReport store keyed by job fingerprint."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        if root is None:
            root = os.environ.get(_ENV_VAR, _DEFAULT_ROOT)
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0
        self._warned_unwritable = False

    def _path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[DbtReport]:
        """The cached report, or None on a miss or a corrupt entry."""
        path = self._path(fingerprint)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            report = DbtReport.from_dict(payload["report"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt entry: drop it and fall back to a fresh run.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return report

    def put(self, fingerprint: str, report: DbtReport) -> None:
        """Store a report atomically (write-to-temp, then rename).

        Best-effort: an unwritable cache root degrades to uncached
        operation (with a one-time stderr warning), never a failed run.
        """
        payload = {"fingerprint": fingerprint, "report": report.to_dict()}
        tmp = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, self._path(fingerprint))
        except OSError as exc:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            if not self._warned_unwritable:
                self._warned_unwritable = True
                print(
                    f"repro: report cache at {self.root} is unwritable "
                    f"({exc}); continuing without persistence",
                    file=sys.stderr,
                )

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


class NullCache:
    """Cache that stores nothing; every lookup is a miss."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def get(self, fingerprint: str) -> Optional[DbtReport]:
        self.misses += 1
        return None

    def put(self, fingerprint: str, report: DbtReport) -> None:
        pass

    def clear(self) -> int:
        return 0
