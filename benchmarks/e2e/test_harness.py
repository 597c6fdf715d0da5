"""Smoke test of the end-to-end harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` — outside
tier-1's ``testpaths``, like the figure benchmarks beside this directory.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def smoke(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--scale", "smoke", "--trace", trace],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout.splitlines()


def test_smoke_pass_emits_every_metric_with_its_unit():
    start = time.perf_counter()
    seen = set()
    for kind, trace in (("end_to_end", "0"), ("per_layer", "1")):
        listed = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        for workload in BENCHMARK["workloads"]:
            lines = smoke(workload["name"], trace)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 < result["attempted"]
            assert {n: m["unit"] for n, m in result["metrics"].items()} == listed
            seen |= {n for n, m in result["metrics"].items() if m["value"]}
            if kind == "end_to_end":
                printed = {line.split()[1] for line in lines[:-1]}
                assert printed == set(harness.END_TO_END)
    assert time.perf_counter() - start < 20
    # Every ledger line is fed by some workload (the smoke table fits the
    # buffer pool, so it has no misses to count).
    idle = {m["name"] for m in BENCHMARK["per_layer"]} - seen
    assert idle <= {"storage.pool.misses", "storage.pool.evictions"}


def test_benchmark_json_lists_the_workloads_and_metrics_of_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert len(BENCHMARK["per_layer"]) == 56
    listed = {m["name"] for m in BENCHMARK["end_to_end"]}
    # failed_share is reported as the result line's failed / attempted.
    assert listed == set(harness.END_TO_END) - {"failed_share"}


def test_wrong_pin_counts_as_failed_operations():
    workload = WORKLOADS["paper_plans"]
    wrong = dict.fromkeys(workload.ops, "0" * 16)
    record = harness.run_workload(workload, scale="smoke", pinned=wrong)
    assert not record["correct"]
    assert record["metrics"]["failed_share"]["value"] == 1.0
    assert record["failed"] == record["attempted"] == 3 * len(workload.ops)


def test_spot_check_finds_dropped_pairs():
    workload = WORKLOADS["fig12_warm"]
    state = workload.setup(harness.DEFAULT_SEED, 50, harness.Tracer("test", enabled=False))
    results = workload.job(state)
    assert workload.spot_check(state, results) == []
    op = workload.ops[0]
    results[op] = [row for row in results[op] if row[0] == row[1]]
    assert any("missing" in error for error in workload.spot_check(state, results))
