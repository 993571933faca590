"""The correctness gate and the refusal to run without the program."""

import json
import shutil
import subprocess
import sys

import run


def _checkout(dest, with_src=True):
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(run.BENCH, dest / "bench", ignore=ignore)
    shutil.copy(run.MANIFEST, dest / run.MANIFEST.name)
    if with_src:
        shutil.copytree(run.SRC, dest / "src", ignore=ignore)
    return dest


def _bench(checkout, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=checkout,
        capture_output=True, text=True, timeout=600,
    )


def test_a_tampered_digest_fails_the_run(tmp_path):
    checkout = _checkout(tmp_path)
    expected_path = checkout / "bench" / "expected" / "loop-steady.json"
    expected = json.loads(expected_path.read_text())
    expected[run.job_key("art", "smarq")] = "0" * 64
    expected_path.write_text(json.dumps(expected))

    proc = _bench(checkout, "--workload", "loop-steady", "--seed", "0",
                  "--seconds", "1", "--trace", "0")

    assert proc.returncode == 1, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] > 0
    assert line["failed"] / line["attempted"] > 0
    assert "art/smarq" in proc.stdout


def test_without_the_program_the_benchmark_refuses(tmp_path):
    checkout = _checkout(tmp_path, with_src=False)

    proc = _bench(checkout, "--workload", "figures", "--seed", "0",
                  "--seconds", "1", "--trace", "0")

    assert proc.returncode != 0
    assert not proc.stdout.strip()
