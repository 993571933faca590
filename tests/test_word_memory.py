"""Word memory against the byte model it replaced.

:class:`repro.sim.memory.Memory` holds guest memory as one list of
unsigned 64-bit words. :class:`ReferenceMemory` is the ``bytearray``
memory it replaced, kept here as the reference. These tests pin:

* random sequences of ``read``, ``write`` and ``write_logged`` give the
  same values, the same ``to_bytes()`` and the same
  :class:`MemoryFault` messages on both, at every alignment, across the
  last partial word of a size that is not a multiple of 8, and out of
  range;
* ``write_logged`` logs one ``(word index, old word)`` entry per word
  it touches, and rolling those back restores the words exactly;
* worked examples: round trips at every width, little-endian byte
  order, values masked to their width, out-of-range and negative
  addresses, and a memory of no bytes refused;
* every word is canonical — an int in ``[0, 2**64)`` — and the list
  keeps its length after the golden cells run under each replay tier.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import knobs
from repro.frontend.profiler import ProfilerConfig
from repro.opt.translation_cache import reset_translation_cache
from repro.sim.dbt import DbtSystem, reset_prefix_memo
from repro.sim.memory import Memory, MemoryFault
from repro.sim.vliw import _restore_words
from repro.workloads import make_benchmark

from tests.test_golden_reports import GOLDEN_CELLS, GOLDEN_HOT_THRESHOLD


class ReferenceMemory:
    """The byte-addressable ``bytearray`` memory :class:`Memory`
    replaced."""

    def __init__(self, size: int) -> None:
        self._data = bytearray(size)
        self.size = size

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or addr + size > self.size:
            raise MemoryFault(
                f"access [{addr:#x}, {addr + size:#x}) outside memory of "
                f"{self.size:#x} bytes"
            )

    def read(self, addr: int, size: int = 8) -> int:
        self._check(addr, size)
        return int.from_bytes(self._data[addr:addr + size], "little")

    def write(self, addr: int, value: int, size: int = 8) -> None:
        self._check(addr, size)
        mask = (1 << (8 * size)) - 1
        self._data[addr:addr + size] = (int(value) & mask).to_bytes(
            size, "little"
        )

    def to_bytes(self) -> bytes:
        return bytes(self._data)


SIZES = (1, 2, 4, 8)


def _call(memory, op):
    """Apply one op; its result, or the fault's message."""
    name, args = op[0], op[1:]
    if name == "write_logged":
        return _logged_write(memory, *args)
    try:
        return getattr(memory, name)(*args)
    except MemoryFault as exc:
        return ("fault", str(exc))


def _logged_write(memory, addr, value, size):
    """``write_logged``, checking its log: one entry per word touched
    (none on a fault), which rolls the words back exactly."""
    log = []
    before = list(memory.words)
    try:
        memory.write_logged(addr, value, size, log.append)
    except MemoryFault as exc:
        assert log == [] and memory.words == before
        return ("fault", str(exc))
    assert [i for i, _old in log] == list(
        range(addr >> 3, (addr + size + 7) >> 3)
    )
    restored = list(memory.words)
    _restore_words(restored, log)
    assert restored == before
    return None


@st.composite
def _programs(draw):
    size = draw(st.sampled_from([1, 7, 8, 13, 16, 24, 61, 64]))
    addrs = st.integers(-9, size + 9)
    values = st.integers(-(1 << 70), 1 << 70)
    op = st.one_of(
        st.tuples(st.just("read"), addrs, st.sampled_from(SIZES)),
        st.tuples(st.just("write"), addrs, values, st.sampled_from(SIZES)),
        st.tuples(st.just("write_logged"), addrs, values,
                  st.sampled_from(SIZES)),
    )
    return size, draw(st.lists(op, min_size=1, max_size=30))


def _mirror(op):
    """The reference's equivalent of ``op``: a logged write is a write."""
    return ("write",) + op[1:] if op[0] == "write_logged" else op


class TestWordsMatchBytes:
    @given(program=_programs())
    def test_random_accesses_match_the_byte_model(self, program):
        size, ops = program
        memory, reference = Memory(size), ReferenceMemory(size)
        for op in ops:
            assert _call(memory, op) == _call(reference, _mirror(op)), op
            assert memory.to_bytes() == reference.to_bytes(), op
        assert len(memory.words) == -(-size // 8)
        assert all(0 <= w < 1 << 64 for w in memory.words)

    @pytest.mark.parametrize("msize", [61, 64])
    @pytest.mark.parametrize("size", SIZES)
    def test_every_alignment_and_the_bounds(self, msize, size):
        """Every start address from one below memory to one past its
        end, through every accessor that takes a width."""
        for addr in range(-1, msize + 2):
            memory, reference = Memory(msize), ReferenceMemory(msize)
            for m in (memory, reference):
                for a in range(msize):
                    m.write(a, 0xA5, 1)
            value = 0x0123456789ABCDEF_F0E1D2C3B4A59687 >> (addr & 63)
            ops = [
                ("write", addr, value, size),
                ("read", addr, size),
                ("read", addr & ~7, 8),
                ("write", addr, 0x0807060504030201, size),
                ("read", addr, size),
            ]
            for op in ops:
                assert _call(memory, op) == _call(reference, op), op
            assert _call(memory, ("write_logged", addr, -1, size)) == (
                _call(reference, ("write", addr, -1, size))
            )
            assert memory.to_bytes() == reference.to_bytes(), addr


class TestMemory:
    def test_roundtrip_sizes(self):
        mem = Memory(256)
        for size in (1, 2, 4, 8):
            mem.write(16, 0x0102030405060708, size)
            assert mem.read(16, size) == 0x0102030405060708 & ((1 << (8 * size)) - 1)

    def test_little_endian(self):
        mem = Memory(64)
        mem.write(0, 0x1122, 2)
        assert mem.to_bytes()[:2] == bytes([0x22, 0x11])

    def test_value_masked_to_size(self):
        mem = Memory(64)
        mem.write(0, 0x1FF, 1)
        assert mem.read(0, 1) == 0xFF

    def test_out_of_bounds_read(self):
        mem = Memory(16)
        with pytest.raises(MemoryFault):
            mem.read(12, 8)

    def test_negative_address(self):
        mem = Memory(16)
        with pytest.raises(MemoryFault):
            mem.read(-1, 1)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Memory(0)


def _reset_caches():
    reset_translation_cache()
    reset_prefix_memo()


@pytest.fixture
def _fresh_caches():
    yield
    _reset_caches()


#: every replay tier the backend knob can force, and the default
BACKENDS = next(
    knob.values for knob in knobs.KNOBS if knob.name == knobs.REPLAY_BACKEND
)


@pytest.mark.usefixtures("_fresh_caches")
@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_cells_leave_every_word_canonical(backend, monkeypatch):
    monkeypatch.setenv(knobs.REPLAY_BACKEND, backend)
    for bench, scheme, scale in GOLDEN_CELLS:
        _reset_caches()  # each cell runs as in a fresh process
        system = DbtSystem(
            make_benchmark(bench, scale=scale),
            scheme,
            profiler_config=ProfilerConfig(
                hot_threshold=GOLDEN_HOT_THRESHOLD
            ),
        )
        system.run()
        words = system.memory.words
        assert len(words) == -(-system.memory.size // 8)
        assert all(type(w) is int and 0 <= w < 1 << 64 for w in words), (
            bench, scheme, scale
        )
