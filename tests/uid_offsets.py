"""Run a translation from a chosen point of the uid counter.

Instruction uids are small ints, and a set of them iterates in an order
that follows their values. So a fault that depends on that order shows
at some uid values and hides at others, and a replay that starts at
whatever point the process's counter has reached passes or fails by
chance. :func:`report_from_uid_offset` starts a run at a fixed offset
past the next multiple of :data:`UID_ALIGN`, from empty process-wide
caches, so each offset pins the uid values modulo ``UID_ALIGN``
whatever ran in the process before.
"""

from repro.ir.instruction import reserve_uids, uid_watermark

from tests.test_golden_reports import reset_process_caches

#: an offset past a multiple of this fixes the order a set of uids
#: iterates in whenever the set's hash table has at most this many slots
UID_ALIGN = 4096

#: offsets a run starts from, spread over ``UID_ALIGN``
UID_OFFSETS = tuple(range(0, 4000, 250))

#: four of them, for suites that replay many runs. With the bit-mask
#: allocator releasing registers in a set's order, the fuzz case
#: ``tests/corpus/seed5280_knobs.json`` disagrees at offsets 0, 250, 2000
#: and 3000, so at three of these four
FEW_UID_OFFSETS = UID_OFFSETS[::4]


def report_from_uid_offset(offset, run):
    """``run()`` translated anew, its first uid ``offset`` past
    the next multiple of :data:`UID_ALIGN`."""
    reset_process_caches()
    start = uid_watermark() + 1
    reserve_uids(start + (-start % UID_ALIGN) + offset - 1)
    return run()
