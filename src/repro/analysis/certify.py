"""Static alias certification: prove speculative pairs can never alias.

SMARQ pays a runtime alias-register check for every speculatively
reordered memory pair the optimizer cannot prove safe. Following the
"certifying machine code safe from hardware aliasing" line of work, many
of those pairs *are* provable with a slightly richer abstract domain
than :mod:`repro.analysis.aliasinfo` uses: this pass runs after base
dependence classification and attempts, per MAY load/store pair, a
machine-checkable proof of non-aliasing. Certified pairs are dropped
from the constraint set handed to the allocators — no check constraint,
no alias register, no runtime check — which is exactly the best-case
bound the ``smarq-cert`` scheme row reports.

Proof rules (prover side, :class:`LinearAliasProver`)
-----------------------------------------------------

The prover runs a forward *linear-form* pass over the block: every
register value is an affine integer expression ``c0 + Σ ci·sym_i`` over
opaque symbols — ``entry:<reg>`` for registers live-in to the region and
``load:<pos>`` for the value produced by the load at block position
``pos`` (sound within one region execution: straight-line code reads
each loaded value exactly once per execution, so it is one fixed
unknown). Anything outside the modelled transfer functions (``MOVI``,
``MOV``, ``ADD``/``SUB`` immediate and register-register, ``LD``)
poisons the destination.

* **R1 const-separation** — both addresses are affine with *identical*
  linear parts; their difference is the compile-time constant
  ``delta = dst.const - src.const`` and the pair is disjoint iff
  ``delta >= src.size or -delta >= dst.size``. This certifies pointer
  walks (``p1 = p + 64``) including walks through *loaded* pointers,
  which plain aliasinfo cannot track.
* **R2 disjoint-objects** — both addresses are exactly
  ``entry:<reg> + disp`` with the two registers bound to *distinct*
  guest data regions and each ``[disp, disp+size)`` within its region's
  bounds. Mostly defense-in-depth: aliasinfo already proves
  distinct-region pairs NO so they rarely survive into the dep set.

Refusals (``must-alias``, ``hinted``, ``banned``) keep the certifier
subordinate to runtime profile feedback: a pair the hardware has *seen*
alias is never certified, whatever the static proof says.

The independent checker (:func:`check_certificate`)
---------------------------------------------------

The checker shares **no proof logic** with the prover — an unsound
prover is caught, not trusted. It evaluates the block *concretely*
(plain integer arithmetic over the same opcode whitelist) under a base
symbol assignment plus one finite-difference run per symbol, bumping
that symbol by ``delta = 1 << 20``. Because addresses are affine in the
symbols, the observed shift vector of an address equals its linear part
exactly — so "identical shifts in every run + base-run interval
disjointness" re-establishes R1 without ever constructing a linear
form, and "shifts only under its own entry symbol" re-establishes R2's
shape condition. The checker additionally re-verifies every refusal
condition and the block digest, so stale or hint-blind certificates are
rejected even when their arithmetic is right. Pipeline policy on any
checker complaint is fail-safe: the certificate is discarded and no
dependence is dropped.

Kill switch: the keyed ``SMARQ_NO_CERTIFY`` knob (:mod:`repro.knobs`),
read per translation. Mutation tests inject unsound provers via
:func:`prover_overridden`; the token folded into the cache keys keeps
mutant certificates out of the shared translation cache.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro import knobs
from repro.analysis.dependence import Dependence
from repro.ir.instruction import Instruction, Opcode

#: serialization schema for :meth:`Certificate.to_dict`
CERT_SCHEMA_VERSION = 1

#: finite-difference step used by the checker; far larger than any
#: region or displacement so a shifted interval can never be confused
#: with an unshifted one.
_CHECK_DELTA = 1 << 20

# Verdicts
CERTIFIED = "certified"
REFUSED = "refused"
UNPROVED = "unproved"


def certify_enabled() -> bool:
    """Kill switch, read per translation so tests can flip it mid-process."""
    return knobs.value(knobs.NO_CERTIFY) != "1"


# ----------------------------------------------------------------------
# Linear forms (prover-side abstract domain)
# ----------------------------------------------------------------------
# A form is (const, coeffs) with coeffs a sorted tuple of
# ((kind, index), coefficient) pairs; symbols are ("entry", reg) and
# ("load", pos). None is poison.

_Form = Tuple[int, Tuple[Tuple[Tuple[str, int], int], ...]]


def _form_entry(reg: int) -> _Form:
    return (0, ((("entry", reg), 1),))


def _form_load(pos: int) -> _Form:
    return (0, ((("load", pos), 1),))


def _form_shift(form: _Form, delta: int) -> _Form:
    return (form[0] + delta, form[1])


def _form_combine(a: _Form, b: _Form, sign: int) -> _Form:
    coeffs: Dict[Tuple[str, int], int] = dict(a[1])
    for sym, c in b[1]:
        coeffs[sym] = coeffs.get(sym, 0) + sign * c
    return (
        a[0] + sign * b[0],
        tuple(sorted((s, c) for s, c in coeffs.items() if c != 0)),
    )


def linear_address_forms(block) -> Dict[int, Optional[_Form]]:
    """Affine address form of every memory op, keyed by block position."""
    env: Dict[int, Optional[_Form]] = {}
    addrs: Dict[int, Optional[_Form]] = {}

    def read(reg: int) -> Optional[_Form]:
        if reg not in env:
            env[reg] = _form_entry(reg)
        return env[reg]

    for pos, inst in enumerate(block):
        if inst.is_mem:
            base = read(inst.base)
            addrs[pos] = None if base is None else _form_shift(base, inst.disp)
        if inst.is_load:
            if inst.dest is not None:
                env[inst.dest] = _form_load(pos)
        elif inst.opcode is Opcode.MOVI and inst.dest is not None:
            env[inst.dest] = (inst.imm or 0, ())
        elif inst.opcode is Opcode.MOV and inst.dest is not None:
            env[inst.dest] = read(inst.srcs[0])
        elif (
            inst.opcode in (Opcode.ADD, Opcode.SUB)
            and inst.dest is not None
        ):
            sign = 1 if inst.opcode is Opcode.ADD else -1
            if len(inst.srcs) == 1 and inst.imm is not None:
                v = read(inst.srcs[0])
                env[inst.dest] = (
                    None if v is None else _form_shift(v, sign * inst.imm)
                )
            elif len(inst.srcs) == 2 and inst.imm is None:
                a = read(inst.srcs[0])
                b = read(inst.srcs[1])
                env[inst.dest] = (
                    None
                    if a is None or b is None
                    else _form_combine(a, b, sign)
                )
            else:
                env[inst.dest] = None
        elif inst.dest is not None:
            env[inst.dest] = None
    return addrs


def _pure_entry(form: _Form) -> Optional[Tuple[int, int]]:
    """``(reg, disp)`` when the form is exactly ``entry:<reg> + disp``."""
    if len(form[1]) == 1:
        (kind, reg), coeff = form[1][0]
        if kind == "entry" and coeff == 1:
            return (reg, form[0])
    return None


# ----------------------------------------------------------------------
# Prover
# ----------------------------------------------------------------------
class LinearAliasProver:
    """The sound reference prover. Mutation tests subclass this and break
    one predicate at a time; everything routed through ``separated`` /
    ``refuses`` is therefore deliberately overridable."""

    name = "linear"

    def separated(self, delta: int, size_src: int, size_dst: int) -> bool:
        """Is ``[delta, delta+size_dst)`` disjoint from ``[0, size_src)``?"""
        return delta >= size_src or -delta >= size_dst

    def refuses(
        self,
        dep: Dependence,
        src: Instruction,
        dst: Instruction,
        alias_hints: Mapping[Tuple[int, int], float],
        banned,
    ) -> Optional[str]:
        """Reason the pair must not be certified regardless of any proof,
        or None. Profile feedback outranks static reasoning."""
        if dep.must:
            return "must-alias"
        if src.mem_index is not None and dst.mem_index is not None:
            lo, hi = sorted((src.mem_index, dst.mem_index))
            if alias_hints.get((lo, hi), 0.0) > 0.0:
                return "hinted"
        for inst in (src, dst):
            if inst.mem_index is not None and inst.mem_index in banned:
                return "banned"
        return None


_DEFAULT_PROVER = LinearAliasProver()
_PROVER: LinearAliasProver = _DEFAULT_PROVER
_PROVER_TOKEN = 0


def active_prover() -> LinearAliasProver:
    return _PROVER


def prover_token() -> int:
    """Monotonic token folded into cache keys while a prover override is
    active, so mutant certificates never cross-contaminate memoized
    translations."""
    return _PROVER_TOKEN


@contextmanager
def prover_overridden(prover: LinearAliasProver):
    """Install ``prover`` for the dynamic extent (mutation tests)."""
    global _PROVER, _PROVER_TOKEN
    previous = _PROVER
    _PROVER = prover
    _PROVER_TOKEN += 1
    try:
        yield prover
    finally:
        _PROVER = previous
        _PROVER_TOKEN += 1


# ----------------------------------------------------------------------
# Certificates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CertEntry:
    """Verdict for one base dependence, identified by block positions
    (uid-free, so certificates are content-keyed like the cache)."""

    src_pos: int
    dst_pos: int
    verdict: str  # certified | refused | unproved
    reason: str


@dataclass(frozen=True)
class Certificate:
    """Serializable, immutable proof object for one region's dep set."""

    block_digest: str
    prover: str
    entries: Tuple[CertEntry, ...]

    def certified_pairs(self) -> frozenset:
        return frozenset(
            (e.src_pos, e.dst_pos)
            for e in self.entries
            if e.verdict == CERTIFIED
        )

    @property
    def num_certified(self) -> int:
        return sum(1 for e in self.entries if e.verdict == CERTIFIED)

    def to_dict(self) -> dict:
        return {
            "schema": CERT_SCHEMA_VERSION,
            "block_digest": self.block_digest,
            "prover": self.prover,
            "entries": [
                [e.src_pos, e.dst_pos, e.verdict, e.reason]
                for e in self.entries
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        if data.get("schema") != CERT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported certificate schema {data.get('schema')!r}"
            )
        return cls(
            block_digest=data["block_digest"],
            prover=data["prover"],
            entries=tuple(
                CertEntry(int(s), int(d), str(v), str(r))
                for s, d, v, r in data["entries"]
            ),
        )


def block_digest(block) -> str:
    """Content digest binding a certificate to one region body."""
    from repro.opt.translation_cache import region_content_key

    blob = repr(region_content_key(block)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------
# Certification pass (prover side)
# ----------------------------------------------------------------------
def certify_region(
    block,
    deps: Iterable[Dependence],
    *,
    region_map: Optional[Mapping[str, Tuple[int, int]]] = None,
    initial_regions: Optional[Mapping[int, str]] = None,
    alias_hints: Optional[Mapping[Tuple[int, int], float]] = None,
    banned=None,
    prover: Optional[LinearAliasProver] = None,
) -> Certificate:
    """Attempt a non-aliasing proof for every base dependence of ``block``.

    ``deps`` must be the *base* dependences (extended dependences encode
    elimination bookkeeping, not reorderable pairs, and are never
    certified). The returned certificate is pure data; nothing is
    dropped until :func:`check_certificate` has revalidated it.
    """
    region_map = dict(region_map or {})
    initial_regions = dict(initial_regions or {})
    alias_hints = dict(alias_hints or {})
    banned = set(banned or ())
    if prover is None:
        prover = active_prover()

    positions = {inst.uid: idx for idx, inst in enumerate(block)}
    addrs = linear_address_forms(block)

    entries: List[CertEntry] = []
    for dep in deps:
        if dep.extended:
            continue
        src, dst = dep.src, dep.dst
        src_pos, dst_pos = positions[src.uid], positions[dst.uid]
        refusal = prover.refuses(dep, src, dst, alias_hints, banned)
        if refusal is not None:
            entries.append(CertEntry(src_pos, dst_pos, REFUSED, refusal))
            continue
        src_form = addrs.get(src_pos)
        dst_form = addrs.get(dst_pos)
        if src_form is None or dst_form is None:
            entries.append(
                CertEntry(src_pos, dst_pos, UNPROVED, "unknown-address")
            )
            continue
        if src_form[1] == dst_form[1]:
            # R1: identical linear parts, constant separation.
            delta = dst_form[0] - src_form[0]
            if prover.separated(delta, src.size, dst.size):
                entries.append(
                    CertEntry(src_pos, dst_pos, CERTIFIED, "const-separation")
                )
            else:
                entries.append(
                    CertEntry(src_pos, dst_pos, UNPROVED, "overlap")
                )
            continue
        src_obj = _pure_entry(src_form)
        dst_obj = _pure_entry(dst_form)
        if src_obj is not None and dst_obj is not None:
            # R2: distinct live-in base objects, accesses in bounds.
            (src_reg, src_off), (dst_reg, dst_off) = src_obj, dst_obj
            src_region = initial_regions.get(src_reg)
            dst_region = initial_regions.get(dst_reg)
            if (
                src_region is not None
                and dst_region is not None
                and src_region != dst_region
                and src_region in region_map
                and dst_region in region_map
                and 0 <= src_off
                and src_off + src.size <= region_map[src_region][1]
                and 0 <= dst_off
                and dst_off + dst.size <= region_map[dst_region][1]
            ):
                entries.append(
                    CertEntry(src_pos, dst_pos, CERTIFIED, "disjoint-objects")
                )
                continue
        entries.append(CertEntry(src_pos, dst_pos, UNPROVED, "no-rule"))

    return Certificate(
        block_digest=block_digest(block),
        prover=prover.name,
        entries=tuple(entries),
    )


# ----------------------------------------------------------------------
# Independent checker (finite-difference concrete evaluation)
# ----------------------------------------------------------------------
def _concrete_addresses(
    block, entry_bump: Optional[int], load_bump: Optional[int]
) -> Dict[int, Optional[int]]:
    """One concrete evaluation of the block's addresses.

    Entry register ``r`` is seeded ``0x1000000 + r * 0x10007`` (plus
    ``_CHECK_DELTA`` when ``r == entry_bump``); the load at position
    ``p`` yields ``0x9000000 + p * 0x8009`` (plus the delta when
    ``p == load_bump``). The seeds are pairwise-incommensurate odd
    strides so unrelated values never collide by accident.
    """
    env: Dict[int, Optional[int]] = {}
    addrs: Dict[int, Optional[int]] = {}

    def read(reg: int) -> Optional[int]:
        if reg not in env:
            value = 0x1000000 + reg * 0x10007
            if reg == entry_bump:
                value += _CHECK_DELTA
            env[reg] = value
        return env[reg]

    for pos, inst in enumerate(block):
        if inst.is_mem:
            base = read(inst.base)
            addrs[pos] = None if base is None else base + inst.disp
        if inst.is_load:
            if inst.dest is not None:
                value = 0x9000000 + pos * 0x8009
                if pos == load_bump:
                    value += _CHECK_DELTA
                env[inst.dest] = value
        elif inst.opcode is Opcode.MOVI and inst.dest is not None:
            env[inst.dest] = inst.imm or 0
        elif inst.opcode is Opcode.MOV and inst.dest is not None:
            env[inst.dest] = read(inst.srcs[0])
        elif (
            inst.opcode in (Opcode.ADD, Opcode.SUB)
            and inst.dest is not None
        ):
            sign = 1 if inst.opcode is Opcode.ADD else -1
            if len(inst.srcs) == 1 and inst.imm is not None:
                v = read(inst.srcs[0])
                env[inst.dest] = (
                    None if v is None else v + sign * inst.imm
                )
            elif len(inst.srcs) == 2 and inst.imm is None:
                a = read(inst.srcs[0])
                b = read(inst.srcs[1])
                env[inst.dest] = (
                    None if a is None or b is None else a + sign * b
                )
            else:
                env[inst.dest] = None
        elif inst.dest is not None:
            env[inst.dest] = None
    return addrs


def check_certificate(
    cert: Certificate,
    block,
    deps: Iterable[Dependence],
    *,
    region_map: Optional[Mapping[str, Tuple[int, int]]] = None,
    initial_regions: Optional[Mapping[int, str]] = None,
    alias_hints: Optional[Mapping[Tuple[int, int], float]] = None,
    banned=None,
) -> List[str]:
    """Revalidate a certificate against the region it claims to cover.

    Returns a list of human-readable problems (empty = certificate
    accepted). Shares *no* proof logic with the prover: verdicts are
    checked by concrete finite-difference evaluation, refusal conditions
    are re-derived from the raw inputs, and the digest binds the
    certificate to this exact block content.
    """
    region_map = dict(region_map or {})
    initial_regions = dict(initial_regions or {})
    alias_hints = dict(alias_hints or {})
    banned = set(banned or ())
    problems: List[str] = []

    if cert.block_digest != block_digest(block):
        problems.append("certificate digest does not match region content")
        return problems

    insts = list(block)
    positions = {inst.uid: idx for idx, inst in enumerate(block)}
    dep_by_pos: Dict[Tuple[int, int], Dependence] = {}
    for dep in deps:
        if not dep.extended:
            dep_by_pos[(positions[dep.src.uid], positions[dep.dst.uid])] = dep

    certified = [e for e in cert.entries if e.verdict == CERTIFIED]
    if not certified:
        return problems

    # Base run + one finite-difference run per symbol the block reads.
    base = _concrete_addresses(block, None, None)
    entry_regs: List[int] = []
    seen = set()
    defined = set()
    for inst in insts:
        reads = list(inst.srcs)
        if inst.is_mem:
            reads.append(inst.base)
        for reg in reads:
            if reg not in defined and reg not in seen:
                seen.add(reg)
                entry_regs.append(reg)
        if inst.dest is not None:
            defined.add(inst.dest)
    load_positions = [
        pos for pos, inst in enumerate(insts) if inst.is_load
    ]
    runs: List[Tuple[Tuple[str, int], Dict[int, Optional[int]]]] = []
    for reg in entry_regs:
        runs.append((("entry", reg), _concrete_addresses(block, reg, None)))
    for pos in load_positions:
        runs.append((("load", pos), _concrete_addresses(block, None, pos)))

    def shifts(pos: int) -> Optional[Tuple[int, ...]]:
        b = base.get(pos)
        if b is None:
            return None
        out = []
        for _sym, run in runs:
            v = run.get(pos)
            if v is None:
                return None
            out.append(v - b)
        return tuple(out)

    for entry in certified:
        tag = f"pair ({entry.src_pos}, {entry.dst_pos})"
        dep = dep_by_pos.get((entry.src_pos, entry.dst_pos))
        if dep is None:
            problems.append(f"{tag}: certified but not a base dependence")
            continue
        src, dst = insts[entry.src_pos], insts[entry.dst_pos]

        # Refusal conditions re-derived independently of the prover.
        if dep.must:
            problems.append(f"{tag}: certified despite MUST alias")
        if src.mem_index is not None and dst.mem_index is not None:
            lo, hi = sorted((src.mem_index, dst.mem_index))
            if alias_hints.get((lo, hi), 0.0) > 0.0:
                problems.append(
                    f"{tag}: certified despite runtime alias hint"
                )
        if any(
            i.mem_index is not None and i.mem_index in banned
            for i in (src, dst)
        ):
            problems.append(
                f"{tag}: certified despite speculation ban"
            )

        src_shifts = shifts(entry.src_pos)
        dst_shifts = shifts(entry.dst_pos)
        if src_shifts is None or dst_shifts is None:
            problems.append(f"{tag}: address not concretely evaluable")
            continue

        if entry.reason == "const-separation":
            if src_shifts != dst_shifts:
                problems.append(
                    f"{tag}: addresses respond differently to inputs"
                )
                continue
            delta = base[entry.dst_pos] - base[entry.src_pos]
            if not (delta >= src.size or -delta >= dst.size):
                problems.append(
                    f"{tag}: base-run intervals overlap (delta={delta}, "
                    f"sizes={src.size}/{dst.size})"
                )
        elif entry.reason == "disjoint-objects":
            ok = True
            offs = {}
            for role, pos, inst in (
                ("src", entry.src_pos, src),
                ("dst", entry.dst_pos, dst),
            ):
                sh = shifts(pos)
                hot = [k for k, s in enumerate(sh) if s != 0]
                if (
                    len(hot) != 1
                    or runs[hot[0]][0][0] != "entry"
                    or sh[hot[0]] != _CHECK_DELTA
                ):
                    problems.append(
                        f"{tag}: {role} address is not a single live-in "
                        f"base plus a constant"
                    )
                    ok = False
                    break
                reg = runs[hot[0]][0][1]
                region = initial_regions.get(reg)
                if region is None or region not in region_map:
                    problems.append(
                        f"{tag}: {role} base register {reg} has no known "
                        f"region"
                    )
                    ok = False
                    break
                off = base[pos] - (0x1000000 + reg * 0x10007)
                if not (0 <= off and off + inst.size <= region_map[region][1]):
                    problems.append(
                        f"{tag}: {role} access [{off}, {off + inst.size}) "
                        f"exceeds region {region!r}"
                    )
                    ok = False
                    break
                offs[role] = (reg, region)
            if ok and offs["src"][1] == offs["dst"][1]:
                problems.append(f"{tag}: base objects share a region")
            if ok and offs["src"][0] == offs["dst"][0]:
                problems.append(f"{tag}: base objects share a register")
        else:
            problems.append(
                f"{tag}: unknown certification reason {entry.reason!r}"
            )

    return problems
