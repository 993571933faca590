"""Content-keyed region translation cache with stage memoization.

Translating the same region twice is pure waste: the optimization
pipeline is deterministic in its inputs — the region's instruction
content, the optimizer/machine configuration, the guest data layout, and
the per-region profile state (alias hints + speculation bans). This
module fingerprints exactly those inputs and serves repeat translations
from memory:

* **full tier** — a fingerprint-keyed store of pickled
  :class:`~repro.opt.pipeline.OptimizedRegion` blobs. A hit deserializes
  a private clone of the whole translation object graph (block, schedule,
  allocation summary, elimination results — internal identity preserved,
  nothing shared with other consumers), which is several times cheaper
  than re-optimizing. Blobs are serialized *at translation time*, before
  the VLIW simulator attaches its unpicklable compiled-trace closures.
* **stage tiers** — when the full tier misses (a new scheme, a new hint
  set), scheme-independent intermediate products are still reusable:
  the post-elimination block (``elim``), the base memory dependences
  (``deps``, stored as index triples), the DDG's positional edge tuple
  (``ddg``, see :meth:`~repro.sched.ddg.DataDependenceGraph.structural`;
  a hit adopts it as the graph) and the scheduler's priority tables
  (``prep``, :class:`~repro.sched.list_scheduler.SchedulePrep`). Each
  tier's key covers precisely the inputs that stage reads — e.g. alias
  hints are excluded from ``deps``/``ddg`` keys because classification
  ignores them, which is what lets an alias-exception re-optimization
  reuse the DDG while recomputing constraints and allocation.
* **persistent tier** (opt-in, full translations only) — blobs under
  ``$REPRO_CACHE_DIR``/``~/.cache/repro`` in ``translations/``, enabled
  with ``SMARQ_TRANSLATION_CACHE_PERSIST=1``. Corrupt entries degrade to
  misses (and are unlinked best-effort), mirroring the report cache, and
  entries of another :data:`~repro.opt.pipeline.TRANSLATION_FORMAT` are
  never found: the format is part of every full-tier key.
  Loads reserve the blob's uid range
  (:func:`repro.ir.instruction.reserve_uids`) so deserialized
  instructions never collide with freshly allocated ones.

Kill switch: ``SMARQ_NO_TRANSLATION_CACHE=1`` disables every tier —
checked per translation, mirroring ``SMARQ_NO_TIMING_PLANS``. Both paths
are byte-identical by construction and by lock
(``tests/test_translation_cache.py``, fuzz oracle ``translate``).

Counters (via the engine tracer): ``translate.cache_hits`` /
``cache_misses`` / ``cache_stores`` for the full tier,
``translate.<stage>_hits`` / ``_misses`` per stage tier, and
``translate.persist_hits`` / ``persist_misses`` / ``persist_stores`` for
the persistent tier.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.ir.instruction import reserve_uids, uid_watermark

_KILL_ENV = "SMARQ_NO_TRANSLATION_CACHE"
_PERSIST_ENV = "SMARQ_TRANSLATION_CACHE_PERSIST"
_CACHE_DIR_ENV = "REPRO_CACHE_DIR"
_DEFAULT_ROOT = "~/.cache/repro"
#: entries kept per in-process LRU tier
_DEFAULT_ENTRIES = 512

#: stage tier names (each an independent LRU)
STAGES = ("elim", "deps", "ddg", "prep", "certify")


def region_content_key(block) -> Tuple:
    """Identity-free content of a superblock.

    Everything the optimizer reads from an instruction, *except* the
    process-local ``uid`` — two blocks with equal keys optimize to
    byte-identical translations under equal pipeline state.
    """
    return (
        block.entry_pc,
        tuple(
            (
                inst.opcode.name,
                inst.dest,
                inst.srcs,
                inst.imm,
                inst.base,
                inst.disp,
                inst.size,
                inst.target,
                inst.mem_index,
                inst.guest_pc,
                inst.p_bit,
                inst.c_bit,
                inst.ar_offset,
                inst.ar_order,
                inst.ar_mask,
                inst.rotate_by,
                inst.amov_src,
                inst.amov_dst,
                inst.speculative,
            )
            for inst in block
        ),
    )


class TranslationCache:
    """In-process LRU tiers + optional persistent full-translation tier."""

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is None:
            max_entries = _DEFAULT_ENTRIES
        self.max_entries = max(1, max_entries)
        self._full: "OrderedDict[Any, bytes]" = OrderedDict()
        self._stages: Dict[str, "OrderedDict[Any, Any]"] = {
            name: OrderedDict() for name in STAGES
        }
        self._warned_unwritable = False

    # -- policy --------------------------------------------------------
    @staticmethod
    def enabled() -> bool:
        """Kill switch, read per translation so tests/bisection can flip
        it mid-process."""
        return os.environ.get(_KILL_ENV, "") != "1"

    @staticmethod
    def persist_enabled() -> bool:
        return os.environ.get(_PERSIST_ENV, "") == "1"

    def clear(self) -> None:
        self._full.clear()
        for tier in self._stages.values():
            tier.clear()

    # -- LRU plumbing --------------------------------------------------
    def _lookup(self, tier: "OrderedDict", key: Any) -> Any:
        value = tier.get(key)
        if value is not None:
            tier.move_to_end(key)
        return value

    def _insert(self, tier: "OrderedDict", key: Any, value: Any) -> None:
        tier[key] = value
        tier.move_to_end(key)
        while len(tier) > self.max_entries:
            tier.popitem(last=False)

    # -- full tier -----------------------------------------------------
    def get_translation(self, key: Any, tracer) -> Optional[Any]:
        """A private clone of the cached translation, or None."""
        payload = self._lookup(self._full, key)
        if payload is None and self.persist_enabled():
            payload = self._persist_load(key, tracer)
            if payload is not None:
                self._insert(self._full, key, payload)
        if payload is None:
            tracer.count("translate.cache_misses")
            return None
        max_uid, region = pickle.loads(payload)
        reserve_uids(max_uid)
        tracer.count("translate.cache_hits")
        return region

    def store_translation(self, key: Any, region, tracer) -> None:
        try:
            # The watermark (not a scan of the region) bounds every uid the
            # blob can reference, including eliminated-but-recorded ops.
            payload = pickle.dumps(
                (uid_watermark(), region), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            # A translation carrying unpicklable state (an already-attached
            # simulator trace, a test double) is simply not cached.
            tracer.count("translate.store_errors")
            return
        self._insert(self._full, key, payload)
        tracer.count("translate.cache_stores")
        if self.persist_enabled():
            self._persist_store(key, payload, tracer)

    # -- stage tiers ---------------------------------------------------
    def get_stage(self, stage: str, key: Any, tracer) -> Any:
        """Stage-memo lookup; ``elim`` entries deserialize to a private
        clone, the other stages return shared immutable tuples."""
        value = self._lookup(self._stages[stage], key)
        if value is None:
            tracer.count(f"translate.{stage}_misses")
            return None
        tracer.count(f"translate.{stage}_hits")
        if stage == "elim":
            max_uid, product = pickle.loads(value)
            reserve_uids(max_uid)
            return product
        return value

    def put_stage(self, stage: str, key: Any, value: Any, tracer) -> None:
        self._insert(self._stages[stage], key, value)

    def put_stage_pickled(
        self, stage: str, key: Any, product: Any, max_uid: int, tracer
    ) -> None:
        """Store a stage product that contains live instructions (the
        ``elim`` tier) as a pickle blob cloned on every hit."""
        try:
            payload = pickle.dumps(
                (max_uid, product), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            tracer.count("translate.store_errors")
            return
        self._insert(self._stages[stage], key, payload)

    # -- persistent tier -----------------------------------------------
    def _persist_root(self) -> Path:
        root = os.environ.get(_CACHE_DIR_ENV, _DEFAULT_ROOT)
        return Path(root).expanduser() / "translations"

    def _persist_path(self, key: Any) -> Path:
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
        return self._persist_root() / f"{digest}.pkl"

    def _persist_load(self, key: Any, tracer) -> Optional[bytes]:
        path = self._persist_path(key)
        try:
            payload = path.read_bytes()
            # Validate eagerly so a truncated/corrupt blob is dropped here
            # (miss + unlink) instead of crashing the caller.
            pickle.loads(payload)
        except FileNotFoundError:
            tracer.count("translate.persist_misses")
            return None
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            tracer.count("translate.persist_misses")
            return None
        tracer.count("translate.persist_hits")
        return payload

    def _persist_store(self, key: Any, payload: bytes, tracer) -> None:
        root = self._persist_root()
        tmp = None
        try:
            root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(root), suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, self._persist_path(key))
            tracer.count("translate.persist_stores")
        except OSError:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            if not self._warned_unwritable:
                self._warned_unwritable = True
                import sys

                print(
                    f"repro: translation cache at {root} is unwritable; "
                    f"continuing without persistence",
                    file=sys.stderr,
                )


#: process-wide instance — the pipeline is constructed per DbtSystem but
#: translations are content-keyed, so sharing across systems is the point
_CACHE: Optional[TranslationCache] = None


def get_translation_cache() -> TranslationCache:
    global _CACHE
    if _CACHE is None:
        _CACHE = TranslationCache()
    return _CACHE


def reset_translation_cache() -> None:
    """Drop the process-wide cache (tests, memory pressure)."""
    global _CACHE
    _CACHE = None
