"""Memory dependences: the paper's DEPENDENCE and EXTENDED-DEPENDENCE rules.

Base rule (Section 4.1): ``X ->dep Y`` when X precedes Y in original program
order, X and Y may (or must) access the same location, and at least one is a
store.

EXTENDED-DEPENDENCE 1 (speculative load elimination): when a load Z is
eliminated by forwarding from an earlier access X, every *store* S strictly
between X and Z that may alias X gains ``S ->dep X`` — note the *backward*
direction relative to program order, which is what makes constraint-graph
cycles possible. (An aliasing store between the forwarding source and the
eliminated load makes the forwarded value stale; intervening loads cannot.
The paper's Figure 8/10 worked example — ``st [r1]`` must check the
forwarding source ``ld [r0+4]`` — fixes the rule's intent where the
source text is garbled.)

EXTENDED-DEPENDENCE 2 (speculative store elimination): when a store X is
eliminated because a later store Z overwrites it, every load Y strictly
between X and Z that may alias Z gains ``Z ->dep Y`` — again backward.

Extended dependences are recorded by the optimization passes that create
them (:mod:`repro.opt.load_elim`, :mod:`repro.opt.store_elim`) using the
helpers here, as ``(src, dst)`` instruction pairs.

The optimizer keeps base dependences in one positional form: a tuple of
``(src_position, dst_position, must)`` triples (:data:`DepTriple`),
positions indexing the block in program order. That tuple is the
translation cache's ``deps`` memo, adopted as is on a hit; the DDG reads
it, and the allocators read the per-destination source table
(:class:`DependenceSources`) built from it plus the extended pairs.
:class:`Dependence` objects exist only as on-demand views for tests,
tools and the certifier (:func:`dependence_views`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple, Union

from repro.analysis.aliasinfo import AliasAnalysis, AliasClass
from repro.ir.instruction import Instruction


@dataclass(frozen=True)
class Dependence:
    """``src ->dep dst``: dst depends on src.

    For base dependences ``src`` precedes ``dst`` in program order. For
    extended dependences the direction can be backward; ``extended`` marks
    them. ``must`` records whether the underlying pair is a MUST alias
    (the scheduler never speculates on MUST pairs).
    """

    src: Instruction
    dst: Instruction
    extended: bool = False
    must: bool = False

    def __repr__(self) -> str:
        kind = "edep" if self.extended else "dep"
        return f"<{self.src!r} ->{kind} {self.dst!r}>"


#: one base dependence: (src_position, dst_position, must), positions
#: indexing the block in program order
DepTriple = Tuple[int, int, bool]

#: one extended dependence: (src, dst) — ``src ->dep dst``
ExtendedPair = Tuple[Instruction, Instruction]


def dependence_views(block, triples: Iterable[DepTriple]) -> List[Dependence]:
    """:class:`Dependence` views of positional base dependences."""
    insts = list(block)
    return [Dependence(insts[i], insts[j], must=must) for i, j, must in triples]


def extended_views(pairs: Iterable[ExtendedPair]) -> List[Dependence]:
    """:class:`Dependence` views of extended ``(src, dst)`` pairs."""
    return [Dependence(src, dst, extended=True) for src, dst in pairs]


def compute_dependences(
    block, analysis: AliasAnalysis, *, positional: bool = False
) -> Union[List[Dependence], Tuple[DepTriple, ...]]:
    """All base memory dependences of ``block`` (original program order).

    With ``positional`` the result is the tuple of :data:`DepTriple` the
    optimizer keeps; otherwise the same dependences as
    :class:`Dependence` views, in the same order.

    Semantically this is the O(m²) scan over all (earlier, later) pairs with
    at least one store, keeping every pair the analysis cannot prove NO.
    The enumeration is bucketed instead of quadratic: pairs whose addresses
    resolve to *different* data regions, and resolved same-region pairs with
    disjoint byte intervals, are exactly the pairs
    :func:`repro.analysis.aliasinfo.classify_pair` rejects without looking
    at base registers — so they are skipped without being enumerated.
    Every surviving candidate still goes through ``analysis.classify`` and
    the result list is emitted in the original nested-loop (i, j) order,
    keeping the output byte-identical to the quadratic scan.
    """
    ops = block.memory_ops_in_program_order()
    if len(ops) < 2:
        return () if positional else []

    # Per-region pools of *earlier* ops, split store-only / all so a later
    # load only ever pairs with earlier stores. Resolved pools are kept
    # sorted by interval start for windowed overlap lookup.
    res_all: Dict[str, List[Tuple[int, int, int]]] = {}  # (lo, hi, idx)
    res_store: Dict[str, List[Tuple[int, int, int]]] = {}
    res_max_size: Dict[str, int] = {}  # widest access seen per pool
    kreg_all: Dict[str, List[int]] = {}  # region known, offset unknown
    kreg_store: Dict[str, List[int]] = {}
    unk_all: List[int] = []  # region unknown: pairs with everything
    unk_store: List[int] = []
    every_all: List[int] = []
    every_store: List[int] = []

    candidates: List[Tuple[int, int]] = []
    for j, later in enumerate(ops):
        sym = analysis.address_of(later)
        lo, hi = sym.offset, None
        if lo is not None:
            hi = lo + sym.size - 1
        if j:
            if sym.region is None:
                # Unknown region: nothing is provably NO by region alone.
                pool = every_all if later.is_store else every_store
                candidates.extend((i, j) for i in pool)
            else:
                pool = unk_all if later.is_store else unk_store
                candidates.extend((i, j) for i in pool)
                kpool = (kreg_all if later.is_store else kreg_store).get(
                    sym.region
                )
                if kpool:
                    candidates.extend((i, j) for i in kpool)
                rpool = (res_all if later.is_store else res_store).get(
                    sym.region
                )
                if rpool:
                    if lo is None:
                        candidates.extend((entry[2], j) for entry in rpool)
                    else:
                        # Overlap window: entries starting at most one
                        # max-width access before our interval's end.
                        width = res_max_size.get(sym.region, 1)
                        start = bisect_left(rpool, (lo - width + 1, -1, -1))
                        for t in range(start, len(rpool)):
                            e_lo, e_hi, i = rpool[t]
                            if e_lo > hi:
                                break
                            if e_hi >= lo:
                                candidates.append((i, j))

        if sym.region is None:
            unk_all.append(j)
            if later.is_store:
                unk_store.append(j)
        elif lo is None:
            kreg_all.setdefault(sym.region, []).append(j)
            if later.is_store:
                kreg_store.setdefault(sym.region, []).append(j)
        else:
            entry = (lo, hi, j)
            insort(res_all.setdefault(sym.region, []), entry)
            if later.is_store:
                insort(res_store.setdefault(sym.region, []), entry)
            if sym.size > res_max_size.get(sym.region, 0):
                res_max_size[sym.region] = sym.size
        every_all.append(j)
        if later.is_store:
            every_store.append(j)

    candidates.sort()
    insts = list(block)
    position = {inst.uid: pos for pos, inst in enumerate(insts)}
    op_pos = [position[op.uid] for op in ops]
    classify = analysis.classify
    no, must = AliasClass.NO, AliasClass.MUST
    triples: List[DepTriple] = []
    for i, j in candidates:
        klass = classify(ops[i], ops[j])
        if klass is not no:
            triples.append((op_pos[i], op_pos[j], klass is must))
    if positional:
        return tuple(triples)
    return dependence_views(insts, triples)


def extended_deps_for_load_elimination(
    forward_src: Instruction,
    eliminated_load: Instruction,
    between: Iterable[Instruction],
    analysis: AliasAnalysis,
) -> List[Dependence]:
    """EXTENDED-DEPENDENCE 1 for one load elimination.

    ``between`` must be the memory operations strictly between
    ``forward_src`` (X) and ``eliminated_load`` (Z) in original program
    order. Returns ``S ->dep X`` as the pair ``(S, X)`` for each store S
    that may alias X.
    """
    return [
        (s, forward_src)
        for s in between
        if s.is_store
        and analysis.classify(s, forward_src) is not AliasClass.NO
    ]


def extended_deps_for_store_elimination(
    overwriting_store: Instruction,
    eliminated_store: Instruction,
    between: Iterable[Instruction],
    analysis: AliasAnalysis,
) -> List[Dependence]:
    """EXTENDED-DEPENDENCE 2 for one store elimination.

    ``between`` must be the memory operations strictly between the
    eliminated store (X) and the overwriting store (Z) in original program
    order. Returns ``Z ->dep Y`` as the pair ``(Z, Y)`` for each load Y
    that may alias Z. Stores in between get nothing — the paper notes
    their aliases cannot affect the elimination's correctness.
    """
    return [
        (overwriting_store, y)
        for y in between
        if y.is_load
        and analysis.classify(overwriting_store, y) is not AliasClass.NO
    ]


class DependenceSet:
    """Indexed collection of dependences for efficient scheduler queries."""

    def __init__(self, deps: Iterable[Dependence] = ()) -> None:
        self._deps: List[Dependence] = []
        self._by_src: Dict[int, List[Dependence]] = {}
        self._by_dst: Dict[int, List[Dependence]] = {}
        for dep in deps:
            self.add(dep)

    def add(self, dep: Dependence) -> None:
        self._deps.append(dep)
        self._by_src.setdefault(dep.src.uid, []).append(dep)
        self._by_dst.setdefault(dep.dst.uid, []).append(dep)

    def __len__(self) -> int:
        return len(self._deps)

    def __iter__(self):
        return iter(self._deps)

    def outgoing(self, inst: Instruction) -> List[Dependence]:
        """Dependences with ``inst`` as the source (X ->dep *)."""
        return list(self._by_src.get(inst.uid, ()))

    def incoming(self, inst: Instruction) -> List[Dependence]:
        """Dependences with ``inst`` as the destination (* ->dep inst)."""
        return list(self._by_dst.get(inst.uid, ()))


class DependenceSources:
    """What the alias register allocators read of a dependence set.

    Per destination uid, the sources of its incoming dependences in
    insertion order, duplicates kept (the allocators deduplicate check
    pairs themselves); and the uids of every extended dependence's two
    endpoints (their checks are mandatory future register pressure).
    """

    __slots__ = ("_by_dst", "extended_ends")

    def __init__(self) -> None:
        self._by_dst: Dict[int, List[Instruction]] = {}
        self.extended_ends: Set[int] = set()

    def _add(self, src: Instruction, dst: Instruction) -> None:
        sources = self._by_dst.get(dst.uid)
        if sources is None:
            self._by_dst[dst.uid] = [src]
        else:
            sources.append(src)

    def _add_extended(self, pairs: Iterable[ExtendedPair]) -> None:
        for src, dst in pairs:
            self._add(src, dst)
            self.extended_ends.add(src.uid)
            self.extended_ends.add(dst.uid)

    def sources_of(self, inst: Instruction) -> Sequence[Instruction]:
        """Sources S of every ``S ->dep inst``; callers must not mutate
        the result."""
        return self._by_dst.get(inst.uid, ())

    @classmethod
    def of(cls, deps: Iterable[Dependence]) -> "DependenceSources":
        """The table of a :class:`DependenceSet` or any iterable of
        :class:`Dependence` objects."""
        table = cls()
        for dep in deps:
            table._add(dep.src, dep.dst)
            if dep.extended:
                table.extended_ends.update((dep.src.uid, dep.dst.uid))
        return table

    @classmethod
    def from_positions(
        cls,
        block,
        triples: Iterable[DepTriple],
        *extended: Iterable[ExtendedPair],
    ) -> "DependenceSources":
        """The table of positional base dependences over ``block``
        followed by each list of extended pairs, in that order — the
        order a :class:`DependenceSet` of their views would have."""
        table = cls()
        insts = list(block)
        by_dst = table._by_dst
        for i, j, _must in triples:
            uid = insts[j].uid
            sources = by_dst.get(uid)
            if sources is None:
                by_dst[uid] = [insts[i]]
            else:
                sources.append(insts[i])
        for pairs in extended:
            table._add_extended(pairs)
        return table


def dependence_sources(
    deps: Union[DependenceSources, Iterable[Dependence]]
) -> DependenceSources:
    """``deps`` as a :class:`DependenceSources` table (the allocators
    accept either form)."""
    if isinstance(deps, DependenceSources):
        return deps
    return DependenceSources.of(deps)


def dependences_between(
    deps: Iterable[Dependence], a: Instruction, b: Instruction
) -> List[Dependence]:
    """All dependences connecting two specific instructions (either way)."""
    found = []
    for dep in deps:
        if (dep.src is a and dep.dst is b) or (dep.src is b and dep.dst is a):
            found.append(dep)
    return found
