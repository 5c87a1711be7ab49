"""End to end: the whole ledger at tiny sizes, and its failure modes."""

import json
import os
import shutil
import subprocess
import sys
import time

import run

RUN_PY = str(run.HERE / "run.py")


def ledger(*args, cwd=run.ROOT, timeout=120, script=RUN_PY, env=None):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_smoke_run_of_all_workloads(tmp_path):
    output = tmp_path / "smoke.json"
    began = time.monotonic()
    done = ledger("--smoke", "--trace", "--work-dir", str(tmp_path), "--output", str(output))
    elapsed = time.monotonic() - began
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 60
    record = json.loads(output.read_text())
    assert list(record["workloads"]) == list(run.WORKLOADS)
    meta = record["meta"]
    for key in ("seed", "cpu_count", "affinity", "python", "numpy", "git_head"):
        assert key in meta
    for name, entry in record["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] == 2, name
        assert entry["hosts"] > 0 and entry["ticks"] > 0 and entry["probes"] > 0
        assert set(entry["metrics"]) == set(run.END_TO_END)
        assert entry["metrics"]["setup_s"]["n"] >= run.MIN_SETUP_SAMPLES
        assert set(entry["layers"]) == set(run.PER_LAYER)
        assert entry["absent"] == []
        for metric in run.END_TO_END:
            assert metric in done.stdout
    pool = record["workloads"]["outbreak-pool"]
    assert pool["transport"] != "pickle"
    assert pool["layers"]["runtime.shardpool.collect.self_s"] > 0
    assert record["workloads"]["outbreak-fused"]["layers"]["runtime.shardpool.collect.self_s"] == 0
    assert record["workloads"]["fig5b-hitlist"]["layers"]["runtime.checkpoint.write.calls"] > 0

    # A result compared with itself never regresses.  (A metric whose own
    # quartile spread exceeds its bound is still reported unresolved.)
    compared = ledger("--compare", str(output), str(output))
    assert "REGRESSION" not in compared.stdout, compared.stdout
    verdicts = [line.split()[-1] for line in compared.stdout.splitlines()[1:-1]]
    assert len(verdicts) == len(run.WORKLOADS) * len(run.END_TO_END)
    assert set(verdicts) <= {"ok", "unresolved"}


def test_one_workload_ends_with_the_result_line(tmp_path):
    done = ledger(
        "--smoke", "--workload", "outbreak-fused", "--seconds", "0.01",
        "--trace", "0", "--work-dir", str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    definition = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(line["metrics"]) == {m["name"] for m in definition["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_a_degraded_pool_run_counts_as_failed(tmp_path):
    # A garbled ring slot makes the pool fall back to its serial re-run:
    # the result is still bitwise right, but the repeat must not count
    # as a timed success.
    fault = json.dumps({"kind": "garble-ring", "shard": 1, "epoch": 2})
    done = ledger(
        "--smoke", "--workload", "outbreak-pool", "--repeats", "1",
        "--work-dir", str(tmp_path),
        env=dict(os.environ, REPRO_SHARD_FAULT=fault),
    )
    assert done.returncode == 1, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (1, 1)
    assert "serial re-run" in done.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    copy = tmp_path / "benchmarks" / "ledger"
    shutil.copytree(run.HERE, copy)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = ledger(
        "--workload", "fig5c-nat", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, timeout=60, script=copy / "run.py", env=env,
    )
    assert done.returncode not in (0, 1)
    assert '"correct"' not in done.stdout
