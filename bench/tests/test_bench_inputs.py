"""Workload inputs and the benchmark manifest."""

import json
import re

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _expected(name):
    return json.loads((run.EXPECTED / name).read_text())


def test_seed_changes_order_but_never_leaves_the_expected_spec_set():
    steady = _expected("loop-steady.json")
    serve = _expected("serve-mixed.json")
    cells = {(b, s) for b in run.STEADY_BENCHMARKS for s in run.STEADY_SCHEMES}
    steady_orders, serve_orders = set(), set()
    fresh_batches = (run.SERVE_BATCHES - 1) // 2
    distinct_jobs = run.SERVE_BATCH_SIZE * (1 + fresh_batches)
    for seed in range(25):
        order = run.steady_cells(seed)
        assert set(order) == cells and len(order) == len(cells)
        assert all(run.job_key(b, s) in steady for b, s in order)
        steady_orders.add(tuple(order))

        batches = run.serve_batches(seed)
        assert len(batches) == run.SERVE_BATCHES
        assert all(len(batch) == run.SERVE_BATCH_SIZE for batch in batches)
        jobs = {job for batch in batches for job in batch}
        assert len(jobs) == distinct_jobs
        assert all(run.job_key(*job) in serve for job in jobs)
        serve_orders.add(tuple(batches[2]))
    assert len(steady_orders) > 1 and len(serve_orders) > 1
    assert set(serve) == {run.job_key(*j) for j in run.serve_spec_universe()}
    assert set(steady) == {run.job_key(b, s) for b, s in cells}


def test_serve_batches_follow_the_load_generator_rule():
    from repro.serve.loadgen import LoadConfig, build_batches

    for seed in (0, 7):
        benchmarks, schemes = run.serve_axes(seed)
        config = LoadConfig(
            batches=run.SERVE_BATCHES, batch_size=run.SERVE_BATCH_SIZE,
            clients=run.SERVE_CLIENTS, mix="mixed", scale=run.SERVE_SCALE,
            hot_threshold=run.HOT_THRESHOLD, benchmarks=benchmarks,
            schemes=schemes,
        )
        loadgen = [
            [(j.benchmark, j.scheme_key, j.hot_threshold) for j in batch]
            for batch in build_batches(config)
        ]
        assert loadgen == run.serve_batches(seed)


def test_manifest_shape_names_and_limits():
    text = run.MANIFEST.read_text()
    assert len(text.encode()) <= 64 * 1024
    manifest = json.loads(text)
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["command"] == ["python3", "bench/run.py"]
    assert manifest["paths"] == ["bench"]
    assert isinstance(manifest["run_seconds"], int)
    assert 1 <= manifest["run_seconds"] <= 60

    workloads = manifest["workloads"]
    assert 2 <= len(workloads) <= 8
    assert [w["name"] for w in workloads] == list(run.WORKLOADS)
    for w in workloads:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]

    end_to_end, per_layer = manifest["end_to_end"], manifest["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    for m in end_to_end:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in per_layer:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in workloads + end_to_end + per_layer]
    assert len(names) == len(set(names))
    for m in end_to_end + per_layer:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")

    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in end_to_end)


def test_every_layer_metric_names_what_it_should_move():
    manifest = json.loads(run.MANIFEST.read_text())
    end_to_end = {m["name"] for m in manifest["end_to_end"]}
    layer_names = [m["name"] for m in manifest["per_layer"]]
    assert set(run.MOVES) == set(layer_names)
    for name in layer_names:
        moves, holds = run.MOVES[name]
        assert moves or holds, name
        for pairing in moves + holds:
            if pairing == "all":
                continue
            metric, _, workload = pairing.partition("@")
            assert metric in end_to_end | set(run.EXTRA_METRICS), (
                name, pairing)
            assert workload in run.WORKLOADS, (name, pairing)


def test_every_layer_metric_is_computed():
    manifest = json.loads(run.MANIFEST.read_text())
    ledger = {"startup_s": 0.1, "import_s": 0.2, "wall_s": 1.0,
              "teardown_s": 0.05,
              "threads": [], "counters": {}, "timings": {},
              "reports": {"total_cycles": 0, "alias_exceptions": 0}}
    metrics = run.layer_metrics([ledger], overhead=0.0)
    assert {m["name"] for m in manifest["per_layer"]} <= set(metrics)
