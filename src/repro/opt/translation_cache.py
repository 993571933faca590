"""Content-keyed region translation cache with a dependence stage memo.

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
  Beside its blob, an entry owns the replay artifacts
  (:class:`~repro.sim.replay_backends.ReplayArtifact`: lowered IR and
  compiled kernels) of every region cloned from it, one per adapter
  class and hardware config, in a dict the store attaches to the
  translation it pickled and every hit attaches to its clone
  (``region._artifact_map``). The clones of one key thus share
  their kernels, the blob never holds one, and an evicted entry takes
  its kernels with it once no live region uses them. A region that has
  no entry (the cache is off, or the region was built outside the
  pipeline) gets private artifacts from the simulator.
* **stage tier** ``deps`` — when the full tier misses (a new scheme, a
  new hint set), the base memory dependences of the transformed block,
  stored as an immutable tuple of index triples shared by every hit,
  are still reusable. Its key covers precisely the inputs that stage
  reads — alias hints and speculation bans are excluded because
  classification ignores them, which is what lets an alias-exception
  re-optimization reuse the dependences while recomputing constraints,
  the DDG and allocation. The other stage products (eliminations, the
  DDG, scheduler priority tables) are recomputed on every miss: their
  memos cost more memory than their hits saved CPU time. The ``ddg``
  memo held ~4.3 MB of edge tuples on cold ``figures`` for no measurable
  time (``docs/PERF.md``, "Translation caches keyed by digest").

**Keys.** Each tier is keyed by :func:`key_digest` — 16 bytes of
BLAKE2b over the canonical pickle of the tuple the pipeline builds (the
key builders are in :mod:`repro.opt.pipeline`), never by the tuple
itself: a full-tier tuple holds one 19-field tuple per instruction, ~19
KB that every tier would keep alive and rehash on every lookup. The
pickler keeps no memo, so equal tuples give equal bytes whichever of
their strings and tuples happen to be shared objects; key components are
tuples of scalars, never sets or dicts, whose order could split equal
keys. The full-tier digest keys a translation's replay artifacts too.

Blobs live in this process only, so every one was pickled by the running
code. A hit reserves the blob's uid range
(:func:`repro.ir.instruction.reserve_uids`) so deserialized instructions
never collide with freshly allocated ones.

Kill switch: the neutral ``SMARQ_NO_TRANSLATION_CACHE`` knob
(:mod:`repro.knobs`) disables every tier, read per translation, and with
the full tier the sharing of replay kernels: each region then compiles
its own. Both paths are byte-identical by construction and by lock
(``tests/test_translation_cache.py``, fuzz oracle ``knobs``).

Counters (via the engine tracer): ``translate.cache_hits`` /
``cache_misses`` / ``cache_stores`` for the full tier,
``translate.cache_store_bytes`` for the bytes of the blobs it stored,
and ``translate.<stage>_hits`` / ``_misses`` per stage tier.
"""

from __future__ import annotations

import hashlib
import io
import pickle
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro import knobs
from repro.ir.instruction import reserve_uids, uid_watermark

#: entries kept per in-process LRU tier
_DEFAULT_ENTRIES = 512

#: stage tier names (each an independent LRU)
STAGES = ("deps",)

#: bytes of a tier key (:func:`key_digest`)
KEY_DIGEST_SIZE = 16


def key_digest(key: Tuple) -> bytes:
    """The tier key of ``key``: BLAKE2b of its canonical pickle.

    The pickler runs in fast mode, which keeps no memo: the default one
    writes a second reference to a shared string or tuple as a back
    reference, so two equal keys would pickle to different bytes when
    one shares objects the other does not. Keys hold no cycles, which
    fast mode cannot pickle.
    """
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(key)
    return hashlib.blake2b(
        buf.getvalue(), digest_size=KEY_DIGEST_SIZE
    ).digest()


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
    """In-process LRU tiers: full translations and stage products."""

    def __init__(self) -> None:
        #: digest -> (blob, replay artifacts of the blob's clones)
        self._full: "OrderedDict[bytes, Tuple[bytes, Dict]]" = OrderedDict()
        self._stages: Dict[str, "OrderedDict[bytes, Any]"] = {
            name: OrderedDict() for name in STAGES
        }

    # -- policy --------------------------------------------------------
    @staticmethod
    def enabled() -> bool:
        """Kill switch, read per translation so tests/bisection can flip
        it mid-process."""
        return knobs.value(knobs.NO_TRANSLATION_CACHE) != "1"

    def clear(self) -> None:
        self._full.clear()
        for tier in self._stages.values():
            tier.clear()

    # -- LRU plumbing --------------------------------------------------
    def _lookup(self, tier: "OrderedDict", key: bytes) -> Any:
        value = tier.get(key)
        if value is not None:
            tier.move_to_end(key)
        return value

    def _insert(self, tier: "OrderedDict", key: bytes, value: Any) -> None:
        tier[key] = value
        tier.move_to_end(key)
        while len(tier) > _DEFAULT_ENTRIES:
            tier.popitem(last=False)

    # -- full tier -----------------------------------------------------
    def get_translation(self, key: bytes, tracer) -> Optional[Any]:
        """A private clone of the cached translation, sharing the
        entry's replay artifacts, or None."""
        entry = self._lookup(self._full, key)
        if entry is None:
            tracer.count("translate.cache_misses")
            return None
        payload, artifacts = entry
        max_uid, region = pickle.loads(payload)
        reserve_uids(max_uid)
        region._artifact_map = artifacts
        tracer.count("translate.cache_hits")
        return region

    def store_translation(self, key: bytes, region, tracer) -> None:
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
        artifacts: Dict = {}
        self._insert(self._full, key, (payload, artifacts))
        region._artifact_map = artifacts
        tracer.count("translate.cache_stores")
        tracer.count("translate.cache_store_bytes", len(payload))

    # -- stage tiers ---------------------------------------------------
    def get_stage(self, stage: str, key: bytes, tracer) -> Any:
        """Stage-memo lookup: the shared immutable tuple, or None."""
        value = self._lookup(self._stages[stage], key)
        if value is None:
            tracer.count(f"translate.{stage}_misses")
            return None
        tracer.count(f"translate.{stage}_hits")
        return value

    def put_stage(self, stage: str, key: bytes, value: Any, tracer) -> None:
        self._insert(self._stages[stage], key, value)


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
