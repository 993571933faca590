"""The layer launcher: the ledger adds up, tracing leaves output alone,
and span stacks are per thread."""

import sys
import threading
import time

import run

SMALL_FIGURES = [sys.executable, "-m", "repro", "figures",
                 "--suite", "art,mesa", "--scale", "0.05"]


def test_ledger_adds_up_to_wall_time_and_stdout_is_unchanged(work):
    plain = run.run_child(
        SMALL_FIGURES, run.child_env(REPRO_CACHE_DIR=str(work / "plain")))
    ledger_path = work / "ledger.json"
    traced = run.run_child(
        run.traced(SMALL_FIGURES, ledger_path),
        run.child_env(REPRO_CACHE_DIR=str(work / "traced")))

    assert plain.code == 0 and traced.code == 0, traced.describe()
    assert plain.stdout and traced.stdout == plain.stdout

    metrics = run.layer_metrics(
        [run.process_ledger(ledger_path, traced)], overhead=0.0)
    layer_s = sum(metrics[name] for name in run._SELF_TIME.values())
    total = (metrics["process.startup_s"] + metrics["process.import_s"]
             + layer_s + metrics["process.teardown_s"]
             + metrics["ledger.unattributed_s"])
    assert abs(total - traced.wall_s) < 1e-6
    assert 0.0 <= metrics["ledger.unattributed_frac"] <= 0.05, metrics
    assert metrics["workloads.builds"] > 0
    assert metrics["sim.execute_calls"] > 0
    assert metrics["model.total_cycles"] > 0


def test_span_stacks_on_two_threads_nest_independently(trace_module):
    ledger = trace_module.Ledger()
    inner = ledger.wrap(time.sleep, "inner", "test:inner")
    both_inside = threading.Barrier(2)

    def outer(own_s, inner_s):
        both_inside.wait()
        time.sleep(own_s)
        inner(inner_s)

    wrapped = ledger.wrap(outer, "outer", "test:outer")
    threads = [
        threading.Thread(target=wrapped, args=(0.1, 0.3), name="A"),
        threading.Thread(target=wrapped, args=(0.3, 0.05), name="B"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()

    selfs = {t["name"]: t["self_s"] for t in ledger.snapshot()["threads"]}
    # The spans overlap in time, yet each outer span loses exactly its
    # own thread's inner span.
    assert 0.3 <= selfs["A"]["inner"] < 0.4
    assert 0.05 <= selfs["B"]["inner"] < 0.15
    assert 0.1 <= selfs["A"]["outer"] < 0.2
    assert 0.3 <= selfs["B"]["outer"] < 0.4
    calls = {t["name"]: t["calls"] for t in ledger.snapshot()["threads"]}
    assert calls["A"] == {"test:outer": 1, "test:inner": 1}
    assert calls["B"] == {"test:outer": 1, "test:inner": 1}
