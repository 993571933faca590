"""The fuzz subsystem itself: generator determinism, serialization
round-trips, benchmark-name transport, oracle agreement on healthy
implementations, the delta-debugging minimizer, the runner, and the CLI.

The *effectiveness* of the oracles (do they catch real bugs?) is covered
separately by ``tests/test_fuzz_mutation.py``.
"""

import json

import pytest

from repro.cli import main
from repro.frontend.interpreter import Interpreter
from repro.fuzz.generator import overflowing, word_shaped
from repro.ir.instruction import Opcode
from repro.sim.memory import Memory
from repro.fuzz import (
    CaseRun,
    FuzzCase,
    FuzzConfig,
    ORACLES,
    benchmark_program,
    case_benchmark_name,
    generate_case,
    minimize_case,
    render_stats,
    replay_case_dict,
    run_fuzz,
)
from repro.workloads import make_benchmark


def _shape(program):
    """uid-free structural key for comparing rebuilt programs."""
    return [
        (i.opcode, i.dest, i.srcs, i.imm, i.base, i.disp, i.size, i.target)
        for i in program.instructions
    ]


class TestGenerator:
    def test_deterministic_per_seed(self):
        for seed in range(10):
            a, b = generate_case(seed), generate_case(seed)
            assert a.config == b.config
            assert a.ops == b.ops

    def test_distinct_seeds_differ(self):
        cases = [generate_case(seed) for seed in range(20)]
        assert len({json.dumps(c.to_dict(), sort_keys=True) for c in cases}) > 1

    def test_round_trip(self):
        for seed in range(10):
            case = generate_case(seed)
            restored = FuzzCase.from_dict(case.to_dict())
            assert restored.config == case.config
            assert restored.ops == case.ops
            # tuple-typed config fields survive the JSON detour
            blob = json.loads(json.dumps(case.to_dict()))
            again = FuzzCase.from_dict(blob)
            assert again.config == case.config

    def test_rejects_unknown_schema(self):
        data = generate_case(0).to_dict()
        data["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            FuzzCase.from_dict(data)

    def test_cases_are_materializable(self):
        """Every generated case yields a body and a runnable program."""
        for seed in range(10):
            case = generate_case(seed)
            assert case.body()
            program = case.program()
            assert program.instructions

    def test_pressure_configs_appear(self):
        """The generator actually produces near-overflow register files."""
        counts = {generate_case(s).config.alias_registers for s in range(60)}
        assert any(n <= 8 for n in counts)
        assert 64 in counts


#: ``generate_case(seed).to_dict()`` in JSON form for three seeds. Seed
#: 3 is word shaped: the same draw as before word shaping, with its
#: sub-word load and its 9-byte base shift rounded to whole words.
#: Seeds 4 and 8 are drawn exactly as before word-shaped seeds existed.
PINNED_CASES = {
    3: {"schema": 1, "config": {
        "seed": 3, "alias_registers": 16, "known_bases": 2,
        "unknown_bases": 2, "base_regions": [1, 0], "base_shifts": [8, 0],
        "base_walks": [False, True], "iterations": 41, "hot_threshold": 10},
        "ops": [["pmov", 1, "u0", 64], ["pmov", 1, "u0", 16],
                ["pmov", 1, "u1", 8], ["fop", "fmul", 33, 32, 38],
                ["fop", "fmul", 23, 21, 24], ["ld", 29, "u1", 40, 8],
                ["fop", "fadd", 28, 39, 25], ["st", "u0", 26, 40, 8],
                ["pmov", 1, "k0", 64], ["ld", 33, "u0", 0, 8],
                ["movi", 37, 142]]},
    4: {"schema": 1, "config": {
        "seed": 4, "alias_registers": 12, "known_bases": 1,
        "unknown_bases": 2, "base_regions": [0, 0], "base_shifts": [0, 0],
        "base_walks": [True, False], "iterations": 33, "hot_threshold": 10},
        "ops": [["pmov", 1, "u0", 32], ["fop", "fadd", 28, 28, 26],
                ["pmov", 1, "k0", 32], ["st", "k0", 22, 32, 2],
                ["movi", 29, 99], ["st", "u0", 27, 49, 8],
                ["ld", 28, "u0", 48, 8], ["st", "u1", 36, 51, 4],
                ["ld", 35, "u0", 48, 4], ["st", "u0", 34, 49, 4],
                ["ld", 25, "u1", 48, 4]]},
    8: {"schema": 1, "config": {
        "seed": 8, "alias_registers": 6, "known_bases": 1,
        "unknown_bases": 2, "base_regions": [0, 0], "base_shifts": [1, 1],
        "base_walks": [False, False], "iterations": 36, "hot_threshold": 10},
        "ops": [["st", "u1", 22, 55, 8], ["fop", "fmul", 35, 32, 23],
                ["ld", 32, "u1", 0, 1], ["fop", "fmul", 36, 26, 38]]},
}


class TestWordShapedSeeds:
    """Every third seed draws a word-shaped case, the only shape the
    replay kernels lower; every other seed draws exactly as before."""

    def test_every_third_seed(self):
        assert [s for s in range(12) if word_shaped(s)] == [0, 3, 6, 9]

    def test_word_shaped_accesses_are_whole_aligned_words(self):
        for seed in range(0, 60, 3):
            case = generate_case(seed)
            accesses = [op for op in case.ops if op[0] in ("ld", "st")]
            assert accesses
            assert all(op[4] == 8 and op[3] % 8 == 0 for op in accesses)
            assert all(s % 8 == 0 for s in case.config.base_shifts)
            assert all(op[3] % 8 == 0 for op in case.ops if op[0] == "pmov")

    @pytest.mark.parametrize("seed", sorted(PINNED_CASES))
    def test_pinned_cases(self, seed):
        # compared in its JSON form, the one corpus entries store
        blob = json.loads(json.dumps(generate_case(seed).to_dict()))
        assert blob == PINNED_CASES[seed]


def _opaque_reads_of_overflowed(case):
    """Interpret ``case`` one instruction at a time: the number of
    arithmetic results that left the signed 64-bit range (before their
    wrap), and how many times a bitwise op read a register whose value
    came from such a result."""
    program = case.program()
    interp = Interpreter(program, Memory(program.memory_size() + 4096))
    regs = interp.registers
    overflowed = set()  # registers holding a wrapped result
    wraps = opaque = 0
    while not interp.exited:
        inst = program.at(interp.pc)
        op = inst.opcode
        if op in (Opcode.AND, Opcode.OR, Opcode.XOR):
            opaque += any(src in overflowed for src in inst.srcs)
        exact = None
        if op in (Opcode.FADD, Opcode.FMUL):
            a, b = (regs[src] for src in inst.srcs)
            exact = a + b if op is Opcode.FADD else a * b
        interp.step()
        if inst.dest is not None:
            overflowed.discard(inst.dest)
            if exact is not None and not -(1 << 63) <= exact < 1 << 63:
                overflowed.add(inst.dest)
                wraps += 1
    return wraps, opaque


class TestOverflowSeeds:
    """Every fifth word-shaped seed draws an overflow case: its
    arithmetic leaves the signed 64-bit range, and a bitwise op reads the
    wrapped value, so a replay tier that skips a wrap computes another
    result."""

    def test_every_fifth_word_shaped_seed(self):
        seeds = [s for s in range(60) if overflowing(s)]
        assert seeds == [9, 24, 39, 54]
        assert all(word_shaped(s) for s in seeds)
        # corpus entries store their whole case, so only the pinned
        # seeds could change
        assert not any(overflowing(s) for s in PINNED_CASES)

    @pytest.mark.parametrize("seed", [9, 24, 39, 54])
    def test_overflow_is_read_opaquely(self, seed):
        case = generate_case(seed)
        assert case.config.overflow
        wraps, opaque = _opaque_reads_of_overflowed(case)
        assert wraps >= case.config.iterations
        assert opaque >= case.config.iterations - 1

    def test_other_seeds_never_overflow(self):
        for seed in (0, 3, 4, 8, 10):
            case = generate_case(seed)
            assert not case.config.overflow
            assert "overflow" not in case.to_dict()["config"]
            assert _opaque_reads_of_overflowed(case) == (0, 0)


class TestBenchmarkTransport:
    def test_fuzz_seed_name(self):
        direct = generate_case(7).program()
        via_registry = make_benchmark("fuzz:7", scale=1.0)
        assert _shape(via_registry) == _shape(direct)
        assert via_registry.region_map == direct.region_map

    def test_fuzzcase_name_round_trips_minimized_cases(self):
        case = generate_case(3)
        shrunk = case.with_ops(case.ops[:2])
        name = case_benchmark_name(shrunk)
        rebuilt = benchmark_program(name)
        assert _shape(rebuilt) == _shape(shrunk.program())

    def test_non_fuzz_name_rejected(self):
        with pytest.raises(ValueError):
            benchmark_program("equake")


class TestOraclesHealthy:
    """On unmutated implementations, every oracle agrees."""

    @pytest.mark.parametrize("seed", range(6))
    def test_all_fast_oracles_agree(self, seed):
        run = CaseRun(generate_case(seed))
        for name in ("alloc", "queue", "schemes", "knobs"):
            assert ORACLES[name](run) == [], f"oracle {name} seed {seed}"

    def test_engine_oracle_agrees(self):
        # one seed only: this oracle spins up a process pool
        assert ORACLES["engine"](CaseRun(generate_case(0))) == []

    def test_replay_case_dict_matches_fresh_run(self):
        case = generate_case(4)
        assert replay_case_dict(case.to_dict(), oracles=["alloc", "queue"]) == []


class TestMinimizer:
    def test_shrinks_to_witness(self):
        """An artificial predicate ("contains a store through u1") must
        minimize to exactly that one canonical op."""
        case = generate_case(11)
        ops = list(case.ops) + [["st", "u1", 21, 40, 4]]
        case = case.with_ops(ops)

        def has_u1_store(c):
            return any(op[0] == "st" and op[1] == "u1" for op in c.ops)

        result = minimize_case(case, has_u1_store)
        assert result.final_ops == 1
        op = result.case.ops[0]
        assert op[0] == "st" and op[1] == "u1"
        # canonicalization drove the displacement to the simplest failing form
        assert op[3] == 0
        assert result.tests <= 2000
        assert result.original_ops == len(ops)

    def test_rejects_non_reproducing_case(self):
        with pytest.raises(ValueError, match="does not reproduce"):
            minimize_case(generate_case(0), lambda c: False)

    def test_budget_exhaustion_returns_best_so_far(self):
        case = generate_case(11).with_ops(
            [["movi", 20 + i, i] for i in range(12)] + [["st", "u0", 20, 0, 8]]
        )

        def pred(c):
            return any(op[0] == "st" for op in c.ops)

        result = minimize_case(case, pred, max_tests=5)
        assert result.tests <= 6  # initial check + 5 guarded
        assert any(op[0] == "st" for op in result.case.ops)
        assert result.final_ops <= len(case.ops)

    def test_crashing_candidates_treated_as_passing(self):
        case = generate_case(11)

        def brittle(c):
            if len(c.ops) < 2:
                raise RuntimeError("boom")
            return True

        result = minimize_case(case, brittle)
        assert len(result.case.ops) == 2


class TestRunner:
    def test_clean_run(self, tmp_path):
        config = FuzzConfig(
            seed=0,
            cases=4,
            oracles=("alloc", "queue"),
            out_dir=tmp_path,
        )
        stats = run_fuzz(config)
        assert stats.ok
        assert stats.cases_run == 4
        assert stats.disagreements == 0
        assert stats.tracer.counters["fuzz.cases"] == 4
        assert stats.tracer.counters["fuzz.checked.alloc"] == 4
        assert "fuzz.oracle.queue" in stats.tracer.timings
        assert list(tmp_path.iterdir()) == []  # nothing failed, no artifacts
        text = render_stats(stats, config)
        assert "all oracle pairs agree" in text
        assert "alloc" in text

    def test_engine_sampling(self, tmp_path):
        config = FuzzConfig(
            seed=0,
            cases=6,
            oracles=("alloc", "engine"),
            engine_samples=2,
            out_dir=tmp_path,
        )
        stats = run_fuzz(config)
        assert stats.ok
        assert stats.engine_sampled == 2
        assert stats.tracer.counters["fuzz.checked.alloc"] == 6
        assert stats.tracer.counters["fuzz.checked.engine"] == 2

    def test_time_budget_stops_early(self, tmp_path):
        config = FuzzConfig(
            seed=0,
            cases=10_000,
            time_budget=0.5,
            oracles=("alloc",),
            out_dir=tmp_path,
        )
        stats = run_fuzz(config)
        assert stats.stopped_by_budget
        assert stats.cases_run < 10_000

    def test_a_quarter_of_the_cases_run_a_kernel(self, tmp_path):
        """Kernel coverage: at least a quarter of a 40-case seed-0
        campaign runs a batch or vec replay kernel (14 do: the
        word-shaped seeds), and the rendered stats say how many."""
        config = FuzzConfig(
            seed=0, cases=40, oracles=("schemes",), out_dir=tmp_path
        )
        stats = run_fuzz(config)
        assert stats.ok
        covered = stats.tracer.counters.get("fuzz.kernel_cases", 0)
        assert covered * 4 >= stats.cases_run == 40
        assert (
            f"kernel coverage       : {covered} of 40 cases ran a batch or "
            f"vec replay kernel" in render_stats(stats, config)
        )

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            run_fuzz(FuzzConfig(oracles=("nope",)))


class TestCli:
    def test_fuzz_command_clean(self, tmp_path, capsys):
        rc = main(
            [
                "fuzz",
                "--seed", "0",
                "--cases", "3",
                "--oracles", "alloc,queue",
                "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "all oracle pairs agree" in out

    def test_fuzz_command_rejects_bad_oracle(self, tmp_path, capsys):
        rc = main(
            ["fuzz", "--cases", "1", "--oracles", "bogus",
             "--out-dir", str(tmp_path)]
        )
        assert rc != 0
