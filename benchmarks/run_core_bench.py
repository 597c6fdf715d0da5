"""Produce ``BENCH_core.json`` — the committed core-sweep artifact.

Runs the Figure-12 Jaccard resemblance sweep (IDF-weighted word tokens
over the synthetic Customer relation) across every SSJoin implementation,
tuple-based and dictionary-encoded, and writes one ``repro-bench/v1``
JSON document with per-phase timings and tuple-vs-encoded speedups.

Usage::

    PYTHONPATH=src python benchmarks/run_core_bench.py \
        [--rows N] [--repeats K] [--out PATH]

Row count defaults to ``REPRO_BENCH_ROWS`` or 700 (see
benchmarks/conftest.py for why the paper's 25K is scaled down). The CI
perf-smoke job runs this with a small row count and uploads the JSON.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.harness import SweepRunner
from repro.bench.reporting import (
    render_json,
    render_phase_table,
    render_scaling_table,
    speedup_table,
)
from repro.core.metrics import ExecutionMetrics
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import NORM_WEIGHT, PreparedRelation
from repro.core.ssjoin import SSJoin
from repro.core.verify import VerifyConfig
from repro.data.corruptions import CorruptionConfig
from repro.data.customers import CustomerConfig, generate_addresses
from repro.joins.jaccard_join import jaccard_resemblance_join, resolve_weights
from repro.tokenize.words import words

#: Paper threshold sweep (Figures 10-13).
THRESHOLDS = (0.80, 0.85, 0.90, 0.95)

IMPLEMENTATIONS = (
    "basic",
    "prefix",
    "inline",
    "probe",
    "encoded-prefix",
    "encoded-probe",
)

#: Tuple plan vs its encoded twin — the speedup series the JSON carries.
SPEEDUP_PAIRS = (
    ("prefix", "encoded-prefix"),
    ("probe", "encoded-probe"),
    ("basic", "encoded-prefix"),
)

#: Worker counts for the parallel scaling sweep (encoded-prefix plan).
WORKER_COUNTS = (1, 2, 4)


def jaccard_corpus(rows: int):
    """The conftest ``jaccard_addresses`` corpus, importable without pytest."""
    config = CustomerConfig(
        num_rows=rows,
        duplicate_fraction=0.25,
        seed=20060403,
        corruption=CorruptionConfig(char_edit_prob=0.35, max_char_edits=1,
                                    abbreviation_prob=0.55, token_drop_prob=0.15,
                                    token_swap_prob=0.45),
    )
    return generate_addresses(config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_rows = int(os.environ.get("REPRO_BENCH_ROWS") or 700)
    parser.add_argument("--rows", type=int, default=default_rows)
    default_scaling_rows = int(
        os.environ.get("REPRO_BENCH_SCALING_ROWS") or 0
    ) or None
    parser.add_argument("--scaling-rows", type=int, default=default_scaling_rows,
                        help="row count for the worker-scaling sweep "
                        "(default: max(rows, 60000), ~2x the paper's Fig-12 "
                        "scale — at toy sizes shard compute cannot amortize "
                        "dispatch and planning overhead)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="keep the fastest of K runs per cell")
    parser.add_argument(
        "--storage-rows", type=int,
        default=int(os.environ.get("REPRO_BENCH_STORAGE_ROWS") or 0) or None,
        help="row count for the cold-vs-warm storage sweep (default: "
        "max(rows, 100000) — the acceptance gate is >= 2x warm speedup "
        "on encode-inclusive wall time at the 10^5 point)")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCH_core.json")
    args = parser.parse_args(argv)
    if args.scaling_rows is None:
        args.scaling_rows = max(args.rows, 60000)
    if args.storage_rows is None:
        args.storage_rows = max(args.rows, 100000)

    values = jaccard_corpus(args.rows)
    runner = SweepRunner(
        "fig12-jaccard-core",
        lambda t, i: jaccard_resemblance_join(
            values, threshold=t, weights="idf", implementation=i
        ),
    )
    for threshold in THRESHOLDS:
        for implementation in IMPLEMENTATIONS:
            runner.run([threshold], implementations=[implementation],
                       repeats=args.repeats)
            r = runner.records[-1]
            print(f"  {implementation:>14} @ {threshold:.2f}: "
                  f"{r.total_seconds:.3f}s  pairs={r.result_pairs}")

    # Storage sweep (Layer 10): cold (rebuild weights, dictionary and
    # encoding from raw strings, a fresh process's state) vs warm
    # (re-open the ingested page file and adopt the persisted columnar
    # arrays) on the same Fig-12 encoded-prefix join.  Results are
    # asserted bit-identical before any number is reported.  Runs first
    # among the large sweeps: cold-vs-warm start-up is a fresh-process
    # comparison, and timing it after the 10^5-10^6-row batch sweeps
    # would measure their heap fragmentation instead of page I/O.
    from repro.bench.storage_bench import storage_sweep

    print(f"\nstorage cold-vs-warm (encoded-prefix, {args.storage_rows} rows):")
    storage_values = (
        values if args.storage_rows == args.rows
        else jaccard_corpus(args.storage_rows)
    )
    storage_block = storage_sweep(
        storage_values, thresholds=(0.80, 0.90), repeats=args.repeats
    )
    del storage_values
    print(f"  ingest={storage_block['ingest_seconds']:.3f}s "
          f"file={storage_block['file_bytes']} bytes "
          f"pages={storage_block['n_pages']}")
    for rec in storage_block["records"]:
        print(f"  @ {rec['threshold']:.2f}: cold={rec['cold_seconds']:.3f}s "
              f"warm={rec['warm_seconds']:.3f}s "
              f"speedup={rec['speedup']:.2f}x "
              f"warm_prep={rec['warm_prep_seconds']:.4f}s "
              f"digest={rec['digest']}")

    # Worker-scaling sweep: the encoded-prefix plan across worker counts
    # on the same Fig-12 workload at its own (larger) row count — the
    # operator's scaling, so the relation is prepared once outside the
    # timed region (re-tokenizing per cell is identical for every worker
    # count and is already measured by the main sweep's Prep phase).
    # workers=1 goes through the same executor (sequential-fallback mode)
    # so every scaling record carries the telemetry block.  Shards run on
    # the serial backend: the CI box is single-core, so process-pool wall
    # cannot shrink there; the in-process backend executes the identical
    # shard code and its per-shard times feed the modeled-wall figure the
    # speedup rows report (see EXPERIMENTS.md E15).  Process-backend
    # equivalence is covered by tests/parallel/test_process_backend.py.
    print(f"\nworker scaling (encoded-prefix, {args.scaling_rows} rows):")
    scaling_values = (
        values if args.scaling_rows == args.rows
        else jaccard_corpus(args.scaling_rows)
    )
    table = resolve_weights("idf", words, scaling_values, scaling_values)
    prep = PreparedRelation.from_strings(
        scaling_values, words, weights=table, norm=NORM_WEIGHT, name="R"
    )

    def scaling_join(threshold, implementation, w):
        metrics = ExecutionMetrics()
        result = SSJoin(
            prep, prep, OverlapPredicate.two_sided(threshold)
        ).execute(implementation, metrics=metrics, workers=w)
        metrics.result_pairs = len(result.pairs)
        return result

    scaling_records = []
    old_backend = os.environ.get("REPRO_PARALLEL_BACKEND")
    os.environ["REPRO_PARALLEL_BACKEND"] = "serial"
    try:
        # Repeat rounds interleave the worker counts (all of w=1,2,4 for a
        # threshold run back-to-back within a round) so slow clock drift /
        # thermal throttle lands on every cell about equally, instead of
        # inflating whole per-worker blocks and skewing the speedup ratio.
        # The fastest round per cell — by the modeled wall the scaling
        # table reports — is kept.
        best = {}
        for _ in range(args.repeats):
            for threshold in THRESHOLDS:
                for w in WORKER_COUNTS:
                    scaler = SweepRunner(
                        f"fig12-jaccard-workers-{w}",
                        lambda t, i, w=w: scaling_join(t, i, w),
                    )
                    scaler.run([threshold], implementations=["encoded-prefix"],
                               repeats=1)
                    r = scaler.records[0]
                    p = r.extra.get("parallel", {})
                    score = p.get("modeled_wall_seconds", r.total_seconds)
                    key = (w, threshold)
                    if key not in best or score < best[key][0]:
                        best[key] = (score, r)
        for w in WORKER_COUNTS:
            for threshold in THRESHOLDS:
                _, r = best[(w, threshold)]
                p = r.extra.get("parallel", {})
                print(f"  w={w} @ {r.threshold:.2f}: "
                      f"wall={p.get('wall_seconds', 0.0):.3f}s "
                      f"modeled={p.get('modeled_wall_seconds', 0.0):.3f}s "
                      f"shards={p.get('n_shards', 0)}")
                scaling_records.append(r)
    finally:
        if old_backend is None:
            os.environ.pop("REPRO_PARALLEL_BACKEND", None)
        else:
            os.environ["REPRO_PARALLEL_BACKEND"] = old_backend

    # Verification-engine sweep: the encoded-prefix plan with the bitmap
    # engine on (default) vs VerifyConfig.disabled() (the pre-engine
    # verify step), sequential (w=1 executor fallback) and 4-worker
    # modeled, on the same prepared scaling relation.  Rounds interleave
    # on/off per threshold for the same drift-resistance reason as the
    # worker sweep; fastest round per cell wins.  ``merge_reduction`` is
    # the fraction of candidate pairs that never reached a
    # merge-intersection (bitmap- or position-pruned, or admitted via
    # the identity fast path) — the engine-off plan merges every one.
    print(f"\nverify engine (encoded-prefix, {args.scaling_rows} rows):")
    verify_workers = (1, 4)
    modes = (("on", None), ("off", VerifyConfig.disabled()))
    os.environ["REPRO_PARALLEL_BACKEND"] = "serial"
    vbest = {}
    # GC hygiene: a cyclic collection landing inside one shard inflates
    # the modeled critical path by ~50ms and swamps the on/off delta, so
    # each timed run starts from a collected heap with the collector off.
    gc_was_enabled = gc.isenabled()
    try:
        gc.disable()
        for _ in range(args.repeats):
            for threshold in THRESHOLDS:
                pred = OverlapPredicate.two_sided(threshold)
                for w in verify_workers:
                    for mode, cfg in modes:
                        gc.collect()
                        m = ExecutionMetrics()
                        result = SSJoin(prep, prep, pred).execute(
                            "encoded-prefix", metrics=m, workers=w,
                            verify_config=cfg,
                        )
                        p = m.parallel_stats or {}
                        score = p.get("modeled_wall_seconds", m.total_seconds)
                        rec = {
                            "threshold": threshold,
                            "workers": w,
                            "mode": mode,
                            "seconds": score,
                            "result_pairs": len(result.pairs),
                            "candidate_pairs": m.candidate_pairs,
                            "verify": m.verify_stats(),
                        }
                        key = (threshold, w, mode)
                        if key not in vbest or score < vbest[key]["seconds"]:
                            vbest[key] = rec
    finally:
        if gc_was_enabled:
            gc.enable()
        if old_backend is None:
            os.environ.pop("REPRO_PARALLEL_BACKEND", None)
        else:
            os.environ["REPRO_PARALLEL_BACKEND"] = old_backend
    verify_summary = []
    for threshold in THRESHOLDS:
        for w in verify_workers:
            on = vbest[(threshold, w, "on")]
            off = vbest[(threshold, w, "off")]
            stats = on["verify"]
            candidates = stats["candidates"]
            merges = stats["merges_run"]
            row = {
                "threshold": threshold,
                "workers": w,
                "engine_on_seconds": on["seconds"],
                "engine_off_seconds": off["seconds"],
                "speedup": (off["seconds"] / on["seconds"]
                            if on["seconds"] > 0 else None),
                "candidates": candidates,
                "bitmap_pruned": stats["bitmap_pruned"],
                "position_pruned": stats["position_pruned"],
                "merges_run": merges,
                "merges_early_exited": stats["merges_early_exited"],
                "merge_reduction": (1.0 - merges / candidates
                                    if candidates else 0.0),
            }
            verify_summary.append(row)
            print(f"  w={w} @ {threshold:.2f}: on={row['engine_on_seconds']:.3f}s "
                  f"off={row['engine_off_seconds']:.3f}s "
                  f"speedup={row['speedup']:.2f}x "
                  f"merge_reduction={row['merge_reduction']:.1%} "
                  f"(cand={candidates} bitmap={row['bitmap_pruned']} "
                  f"pos={row['position_pruned']} merges={merges})")
    verify_block = {
        "rows": args.scaling_rows,
        "implementation": "encoded-prefix",
        "workers": list(verify_workers),
        "backend": "serial",
        "records": sorted(vbest.values(),
                          key=lambda r: (r["threshold"], r["workers"], r["mode"])),
        "summary": verify_summary,
    }

    speedups = {
        f"{base}/{cont}": speedup_table(runner.records, base, cont)
        for base, cont in SPEEDUP_PAIRS
    }
    doc = render_json(
        runner.records,
        label="fig12-jaccard-core",
        meta={"rows": args.rows, "repeats": args.repeats,
              "weights": "idf", "tokenizer": "words",
              "worker_counts": list(WORKER_COUNTS),
              "scaling_rows": args.scaling_rows,
              "scaling_backend": "serial",
              "storage_rows": args.storage_rows},
        speedups=speedups,
        parallel=scaling_records,
        verify_engine=verify_block,
        storage=storage_block,
    )
    # Atomic publish: a reader (or an interrupted run) never observes a
    # torn BENCH_core.json — the temp file lands in the same directory so
    # os.replace stays a same-filesystem rename.
    tmp = args.out.with_name(args.out.name + ".tmp")
    tmp.write_text(doc + "\n")
    os.replace(tmp, args.out)

    print()
    for impl in IMPLEMENTATIONS:
        print(render_phase_table(
            [r for r in runner.records if r.implementation == impl],
            title=f"[{impl}]",
        ))
        print()
    print(render_scaling_table(scaling_records, title="[worker scaling]"))
    print()
    for pair, series in speedups.items():
        rendered = ", ".join(f"{t:.2f}: {s:.1f}x" for t, s in series.items())
        print(f"speedup {pair}: {rendered}")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
