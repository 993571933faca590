"""The fuzz subsystem itself: generator determinism, serialization
round-trips, benchmark-name transport, oracle agreement on healthy
implementations, the delta-debugging minimizer, the runner, and the CLI.

The *effectiveness* of the oracles (do they catch real bugs?) is covered
separately by ``tests/test_fuzz_mutation.py``.
"""

import json

import pytest

from repro.cli import main
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
