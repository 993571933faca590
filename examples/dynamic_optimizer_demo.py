"""Walk through the full dynamic-optimization loop, narrated.

Shows the paper's Figure 1 system live on a workload with real runtime
aliases: interpretation warms the profile, a superblock forms and gets
translated, the translated region commits thousands of times, an alias
exception rolls one execution back, the runtime re-optimizes
conservatively, and execution converges — with final state identical to
pure interpretation.

Run:  python examples/dynamic_optimizer_demo.py
"""

from repro.frontend.interpreter import Interpreter
from repro.frontend.profiler import ProfilerConfig
from repro.ir.printer import format_superblock
from repro.sim.dbt import DbtSystem
from repro.sim.memory import Memory
from repro.workloads import make_benchmark


def main() -> None:
    bench = "ammp"  # pointer-table collisions -> genuine runtime aliases
    scale = 0.15

    print(f"=== Reference run: pure interpretation of {bench} ===")
    ref_prog = make_benchmark(bench, scale=scale)
    ref_mem = Memory(ref_prog.memory_size() + 4096)
    ref = Interpreter(ref_prog, ref_mem)
    ref.run(max_steps=10_000_000)
    print(f"interpreted {ref.stats.instructions} guest instructions\n")

    print("=== DBT run under SMARQ ===")
    program = make_benchmark(bench, scale=scale)
    system = DbtSystem(
        program, "smarq", profiler_config=ProfilerConfig(hot_threshold=20)
    )
    report = system.run()

    print(f"guest instructions : {report.guest_instructions}")
    print(f"translations       : {report.translations}")
    print(f"region commits     : {report.region_commits}")
    print(f"side-exit aborts   : {report.side_exits}")
    print(f"alias exceptions   : {report.alias_exceptions} "
          f"(false positives: {report.false_positive_exceptions})")
    print(f"re-optimizations   : {report.reoptimizations}")
    print(f"total cycles       : {report.total_cycles}  "
          f"(interp {report.interp_cycles}, translated "
          f"{report.translated_cycles}, optimizer "
          f"{report.optimization_cycles})")
    print(f"optimizer overhead : {report.optimization_fraction * 100:.2f}% "
          f"of execution")
    print()

    for pc, snap in report.region_stats.items():
        print(f"region @ pc {pc}: {snap.instructions} insts, "
              f"{snap.memory_ops} memory ops, "
              f"{snap.check_constraints} checks, "
              f"{snap.anti_constraints} antis, "
              f"working set {snap.working_set} "
              f"(lower bound {snap.working_set_lower_bound})")
    print()

    entry = next(iter(system.runtime._regions.values()))
    print("Final translation of the hot region (first 25 lines):")
    listing = format_superblock(entry.translation.schedule.linear)
    print("\n".join(listing.splitlines()[:25]))
    print("  ...")
    print()

    hints = system.pipeline.hints_for(entry.original.entry_pc)
    if hints:
        print(f"learned must-alias pairs after exceptions: {sorted(hints)}")
    print()

    same_regs = system.interpreter.registers == ref.registers
    same_mem = system.memory.to_bytes() == ref_mem.to_bytes()
    print(f"architectural state matches pure interpretation: "
          f"registers={same_regs}, memory={same_mem}")
    assert same_regs and same_mem


if __name__ == "__main__":
    main()
