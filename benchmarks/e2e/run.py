#!/usr/bin/env python3
"""End-to-end benchmark: five workloads, five metrics, a per-layer ledger.

    python3 benchmarks/e2e/run.py                   every workload, end to end
    python3 benchmarks/e2e/run.py --trace           every workload, layer by layer
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --pin             rewrite expected.json

Each workload runs in a fresh process (closed loop, one client). Every
metric is printed by name with its unit; with ``--workload`` the last line
of standard output is one JSON object ``{correct, attempted, failed,
metrics}`` holding the metrics BENCHMARK.json lists. The exit code is
non-zero when any result digest differs from the expected one or a traced
run fails its reconciliation gates. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
from workloads import RESULTS_DIR, WORKLOADS  # noqa: E402

EXPECTED_PATH = os.path.join(HERE, "expected.json")


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_pins() -> Dict[str, Dict[str, str]]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def pin_key(workload: str, scale: str, seed: int) -> str:
    return f"{workload}/{scale}/{seed}"


def write_result(name: str, record: Dict[str, Any]) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def print_metrics(record: Dict[str, Any]) -> None:
    for name, metric in record["metrics"].items():
        line = f"{record['workload']:<14} {name:<38} {metric['value']:>16.6g} {metric['unit']}"
        spread = record.get("stats", {}).get(name)
        if spread:
            line += ("   q1 {q1:.4g}  q3 {q3:.4g}  min {min:.4g}  max {max:.4g}  n {n}"
                     .format(**spread))
        print(line)
    for line in record.get("mismatches", []) + record.get("gates", []):
        print(f"{record['workload']:<14} FAILED {line}")


def pin(args: argparse.Namespace) -> int:
    """Compute the expected digests by the independent path and store them,
    unless the measured path disagrees."""
    workload = WORKLOADS[args.workload]
    tracer = harness.Tracer(workload.name, enabled=False)
    state = harness.run_setup(workload, args.seed, args.scale, tracer)
    try:
        measured = harness.digests_of(workload.job(state))
        expected = workload.independent(state)
    finally:
        workload.teardown(state)
    if measured != expected:
        print(f"{workload.name}: measured path disagrees with the independent path; "
              f"not pinned\n  measured    {measured}\n  independent {expected}")
        return 1
    pins = load_pins() if os.path.exists(EXPECTED_PATH) else {}
    pins[pin_key(workload.name, args.scale, args.seed)] = expected
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{workload.name}: pinned {len(expected)} digests for seed {args.seed} ({args.scale})")
    return 0


def run_one(args: argparse.Namespace) -> int:
    benchmark = load_benchmark()
    workload = WORKLOADS[args.workload]
    pinned = load_pins().get(pin_key(workload.name, args.scale, args.seed))
    if args.trace:
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        record = harness.trace_workload(
            workload, units, args.seed, args.scale, args.seconds, pinned
        )
        write_result(f"trace-{workload.name}.json", record)
        listed = units
    else:
        record = harness.run_workload(workload, args.seed, args.scale, args.seconds, pinned)
        write_result(f"e2e-{workload.name}.json", record)
        listed = {m["name"] for m in benchmark["end_to_end"]}
    print_metrics(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: m for n, m in record["metrics"].items() if n in listed},
    }))
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace, passthrough: List[str]) -> int:
    """Each workload in a fresh process, one after another."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, *passthrough],
            stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.splitlines()
        if lines and lines[-1].startswith('{"correct"'):
            lines.pop()  # the machine-readable twin of the lines before it
        print("\n".join(lines))
        status = status or done.returncode
    return status


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds to measure per run (default: 14 at full scale)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", choices=list(harness.SCALES), default="full")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, argv)
    return pin(args) if args.pin else run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
