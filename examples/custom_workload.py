"""Build a custom guest workload and run it through the whole system.

Demonstrates the library as a toolkit rather than a fixed benchmark
runner: `ProgramBuilder` assembles a hand-unrolled histogram kernel.
Each iteration updates four bins through data-dependent (statically
opaque) addresses. Whether update k+1 may start before update k's store
depends on whether the two items hash to the same bin — exactly the
question only runtime alias detection can answer. Most of the time they
differ (speculation wins); occasionally they collide (the hardware raises,
the runtime rolls back and re-optimizes).

Run:  python examples/custom_workload.py
"""

from repro.frontend.profiler import ProfilerConfig
from repro.ir.instruction import Instruction, Opcode, binop, branch, load, movi, store
from repro.sim.dbt import DbtSystem
from repro.workloads import ProgramBuilder

WORD = 8
UNROLL = 4


def build_histogram(items: int = 192, passes: int = 16, bins: int = 64):
    """Scan a 192-item index table ``passes`` times, four updates per
    iteration: bins[data[i+k] % nbins] += 1, k = 0..3."""
    b = ProgramBuilder("histogram")
    data_base = b.add_region("data", (items + UNROLL) * WORD)
    bins_base = b.add_region("bins", bins * WORD)

    # setup: bin indexes with a wandering pattern plus periodic repeats
    # (every 10th pair of adjacent items collides -> genuine aliases)
    taddr, tval = b.fresh_reg(), b.fresh_reg()
    def bin_index(i: int) -> int:
        if i % 10 == 9:
            return bin_index(i - 1)  # same bin as the previous item
        return (i * 13 + i // 7) % bins

    for i in range(items + UNROLL):
        b.init_word(data_base + i * WORD, bin_index(i), taddr, tval)

    data = b.fresh_reg()
    bins_reg = b.fresh_reg()
    one = b.fresh_reg()
    three = b.fresh_reg()
    b.emit(movi(data, data_base))
    b.emit(movi(bins_reg, bins_base))
    b.emit(movi(one, 1))
    b.emit(movi(three, 3))
    b.register_regions[data] = "data"
    # bins_reg deliberately NOT declared: bin updates look opaque, the way
    # indexed stores look to a binary translator

    i = b.fresh_reg()
    limit = b.fresh_reg()
    off = b.fresh_reg()
    offmask = b.fresh_reg()
    daddr = b.fresh_reg()
    b.emit(movi(i, 0))
    b.emit(movi(limit, (items // UNROLL) * passes))
    b.emit(movi(off, 0))
    b.emit(movi(offmask, items * WORD - 1))  # items*WORD is a power of two

    lanes = [
        tuple(b.fresh_reg() for _ in range(3))  # idx, baddr, count
        for _ in range(UNROLL)
    ]

    head = b.here()
    b.emit(binop(Opcode.ADD, daddr, data, off))
    for k, (idx, baddr, count) in enumerate(lanes):
        b.emit(load(idx, daddr, disp=k * WORD))
        b.emit(binop(Opcode.SHL, baddr, idx, three))
        b.emit(binop(Opcode.ADD, baddr, baddr, bins_reg))
        b.emit(load(count, baddr))             # may alias lane k-1's store
        b.emit(binop(Opcode.ADD, count, count, one))
        b.emit(store(baddr, count))            # the barrier for lane k+1
    b.emit(Instruction(Opcode.ADD, dest=off, srcs=(off,), imm=UNROLL * WORD))
    b.emit(binop(Opcode.AND, off, off, offmask))
    b.emit(Instruction(Opcode.ADD, dest=i, srcs=(i,), imm=1))
    b.emit(branch(Opcode.BLT, head, srcs=(i, limit)))
    b.emit(branch(Opcode.EXIT, 0))
    return b.build()


def main() -> None:
    program = build_histogram()
    print(f"built {program}: regions {sorted(program.region_map)}")

    results = {}
    for scheme in ("none", "smarq"):
        system = DbtSystem(
            build_histogram(), scheme,
            profiler_config=ProfilerConfig(hot_threshold=20),
        )
        results[scheme] = (system, system.run())

    base = results["none"][1]
    spec = results["smarq"][1]
    print(f"no alias HW : {base.total_cycles} cycles")
    print(f"SMARQ       : {spec.total_cycles} cycles "
          f"({base.total_cycles / spec.total_cycles:.3f}x)")
    print(f"alias exceptions: {spec.alias_exceptions} "
          f"(adjacent items hitting the same bin — real aliases the "
          f"hardware catches)")
    print(f"re-optimizations: {spec.reoptimizations}")

    # bins are architecturally identical either way
    sys_none, _ = results["none"]
    sys_smarq, _ = results["smarq"]
    start, size = sys_none.program.region_map["bins"]
    bins = slice(start, start + size)
    assert sys_none.memory.to_bytes()[bins] == (
        sys_smarq.memory.to_bytes()[bins]
    )
    print("final histogram identical under both schemes")


if __name__ == "__main__":
    main()
