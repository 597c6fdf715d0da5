"""Command-line interface: similarity joins over line-delimited text files.

Usage (also via ``python -m repro``)::

    repro generate --rows 500 --out customers.txt
    repro dedupe --input customers.txt --similarity edit --threshold 0.85
    repro dedupe --input a.txt --right b.txt --similarity jaccard --threshold 0.7
    repro match --queries q.txt --references ref.txt --k 3 --threshold 0.4
    repro explain --input customers.txt --threshold 0.8
    repro sql --table emp=emp.tsv --query 'SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept'
    repro ingest --input customers.txt --out customers.rpsf
    repro tables customers.rpsf
    repro sql --attach c=customers.rpsf --query 'SELECT COUNT(*) AS n FROM c'
    repro bench --plan fig12 --store customers.rpsf --workers 2

Input files hold one string per line; blank lines are ignored. Matches are
written as tab-separated ``left<TAB>right<TAB>similarity`` rows to stdout
or ``--out``.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, List, Optional, Sequence

from repro.core.optimizer import IMPLEMENTATIONS
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import NORM_WEIGHT, PreparedRelation
from repro.data.customers import CustomerConfig, generate_addresses
from repro.joins.cosine_join import cosine_join
from repro.joins.edit_join import edit_similarity_join
from repro.joins.ges_join import ges_join
from repro.joins.jaccard_join import (
    jaccard_containment_join,
    jaccard_resemblance_join,
    resolve_weights,
)
from repro.joins.topk import topk_matches
from repro.tokenize.qgrams import qgrams
from repro.tokenize.words import words

__all__ = ["main", "build_parser"]

_JOINS = {
    "edit": lambda l, r, t, i, w, wk: edit_similarity_join(
        l, r, threshold=t, implementation=i, workers=wk
    ),
    "jaccard": lambda l, r, t, i, w, wk: jaccard_resemblance_join(
        l, r, threshold=t, implementation=i, weights=w, workers=wk
    ),
    "containment": lambda l, r, t, i, w, wk: jaccard_containment_join(
        l, r, threshold=t, implementation=i, weights=w, workers=wk
    ),
    "ges": lambda l, r, t, i, w, wk: ges_join(
        l, r, threshold=t, implementation=i, weights=w, workers=wk
    ),
    "cosine": lambda l, r, t, i, w, wk: cosine_join(
        l, r, threshold=t, implementation=i, weights=w, workers=wk
    ),
}


def _parse_workers(value: str) -> int:
    """argparse type for ``--workers``: an int >= 1."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {value!r}"
        ) from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"workers must be >= 1, got {n}")
    return n


def _read_lines(path: str) -> List[str]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f if line.strip()]


def _open_out(path: Optional[str]) -> IO[str]:
    return open(path, "w", encoding="utf-8") if path else sys.stdout


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SSJoin similarity joins (ICDE 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dedupe = sub.add_parser("dedupe", help="similarity self-join (or R-S join)")
    dedupe.add_argument("--input", required=True, help="file of strings, one per line")
    dedupe.add_argument("--right", help="optional second file (R-S join)")
    dedupe.add_argument("--similarity", choices=sorted(_JOINS), default="jaccard")
    dedupe.add_argument("--threshold", type=float, default=0.8)
    dedupe.add_argument(
        "--implementation",
        choices=("auto",) + IMPLEMENTATIONS,
        default="auto",
    )
    dedupe.add_argument("--weights", choices=["idf", "unit"], default="idf")
    dedupe.add_argument(
        "--workers",
        type=_parse_workers,
        default=None,
        metavar="N",
        help="parallel worker processes, an integer >= 1 (sequential when "
        "omitted; only the encoded-prefix plan runs in shards)",
    )
    dedupe.add_argument("--out", help="output file (default stdout)")
    dedupe.add_argument("--metrics", action="store_true",
                        help="print the execution metrics summary to stderr")

    match = sub.add_parser("match", help="top-K fuzzy lookup against references")
    match.add_argument("--queries", required=True)
    match.add_argument("--references", required=True)
    match.add_argument("--k", type=int, default=3)
    match.add_argument("--threshold", type=float, default=0.5)
    match.add_argument("--out")

    exp = sub.add_parser("explain", help="show the plan the optimizer picks")
    exp.add_argument("--input", required=True)
    exp.add_argument("--threshold", type=float, default=0.8)

    sql = sub.add_parser("sql", help="run a SELECT over TSV files")
    sql.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="NAME=FILE.tsv",
        help="register a TSV file (first line = column headers); repeatable",
    )
    sql.add_argument(
        "--attach",
        action="append",
        default=[],
        metavar="NAME=FILE.rpsf",
        help="attach an ingested page file as a lazily-mapped table; "
        "repeatable",
    )
    sql.add_argument("--query", required=True, help="the SELECT statement")
    sql.add_argument("--out", help="output TSV (default stdout)")

    ana = sub.add_parser(
        "analyze",
        help="static analysis: engine self-audit and source lint",
    )
    ana.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        dest="fmt",
    )
    ana.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the source-tree lint (audit the engine invariants only)",
    )
    ana.add_argument(
        "--dataflow",
        action="store_true",
        help="run only the DF3xx dataflow determinism / kernel-purity "
        "audit (plus its seeded-defect corpus gate) over the given paths "
        "or the default hot paths",
    )
    ana.add_argument(
        "paths",
        nargs="*",
        help="extra files/directories to analyze beyond the default hot paths",
    )

    bench = sub.add_parser(
        "bench",
        help="run the Fig-12 threshold sweep and print its result digests",
    )
    bench.add_argument(
        "--plan", choices=("fig12",), default="fig12",
        help="'fig12' runs the Fig-12 threshold sweep from --input "
        "(in-memory) or --store (a page file ingested with `repro "
        "ingest`) and prints per-threshold pair counts, result digests "
        "and prep time",
    )
    bench.add_argument(
        "--input", default=None, metavar="FILE",
        help="line-delimited strings, prepared in memory",
    )
    bench.add_argument(
        "--store", default=None, metavar="FILE.rpsf",
        help="run from an ingested page file (zero re-encode)",
    )
    bench.add_argument(
        "--workers", type=_parse_workers, default=None, metavar="N",
        help="parallel worker processes",
    )

    ing = sub.add_parser(
        "ingest",
        help="encode a string file into a disk-backed columnar page file",
    )
    ing.add_argument("--input", required=True,
                     help="file of strings, one per line")
    ing.add_argument("--out", required=True, metavar="FILE.rpsf",
                     help="destination page file (written atomically)")
    ing.add_argument("--name", default="R",
                     help="relation name stored in the manifest (default R)")

    tab = sub.add_parser(
        "tables", help="describe ingested page files (manifest + stats)"
    )
    tab.add_argument("paths", nargs="+", metavar="FILE.rpsf")

    gen = sub.add_parser("generate", help="write a synthetic customer-address file")
    gen.add_argument("--rows", type=int, default=500)
    gen.add_argument("--seed", type=int, default=20060403)
    gen.add_argument("--duplicates", type=float, default=0.2,
                     help="fraction of rows that are corrupted near-duplicates")
    gen.add_argument("--out", required=True)

    return parser


def _cmd_dedupe(args: argparse.Namespace) -> int:
    left = _read_lines(args.input)
    right = _read_lines(args.right) if args.right else None
    weights = None if args.weights == "unit" else "idf"
    result = _JOINS[args.similarity](
        left, right, args.threshold, args.implementation, weights, args.workers
    )
    out = _open_out(args.out)
    try:
        for pair in result:
            out.write(f"{pair.left}\t{pair.right}\t{pair.similarity:.4f}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    if args.metrics:
        print(result.metrics.summary(), file=sys.stderr)
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    queries = _read_lines(args.queries)
    references = _read_lines(args.references)
    # q-gram tokens so the lookup survives typos *inside* words, which is
    # the point of fuzzy matching; word tokens would miss them entirely.
    matches = topk_matches(
        queries,
        references,
        k=args.k,
        threshold=args.threshold,
        weights="idf",
        tokenizer=lambda s: qgrams(s, 3),
    )
    out = _open_out(args.out)
    try:
        for query in queries:
            for m in matches.get(query, []):
                out.write(f"{query}\t{m.right}\t{m.similarity:.4f}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.joins.base import compose_join_plan, similarity_udf
    from repro.relational.context import ExecutionContext
    from repro.relational.expressions import col
    from repro.relational.plan import explain

    values = _read_lines(args.input)
    table = resolve_weights("idf", words, values, values)
    prepared = PreparedRelation.from_strings(
        values, words, weights=table, norm=NORM_WEIGHT, name="input"
    )

    # Mirror the plan `dedupe --similarity jaccard` runs: 2-sided SSJoin,
    # identity drop, resemblance score, threshold filter, projection.
    def resemblance(overlap: float, norm_r: float, norm_s: float) -> float:
        union = norm_r + norm_s - overlap
        return overlap / union if union else 1.0

    plan, _ = compose_join_plan(
        prepared,
        prepared,
        OverlapPredicate.two_sided(args.threshold),
        drop_identity=True,
        similarity=similarity_udf(
            "JR", resemblance, "overlap", "norm_r", "norm_s"
        ),
        keep=col("similarity") + 1e-9 >= args.threshold,
    )
    print(explain(plan, context=ExecutionContext()))
    return 0


def _load_tsv(path: str):
    from repro.errors import SchemaError
    from repro.relational.relation import Relation

    try:
        return Relation.from_tsv(path)
    except SchemaError as exc:
        raise SystemExit(f"error: {exc}") from exc


def _cmd_sql(args: argparse.Namespace) -> int:
    from repro.relational.catalog import Catalog
    from repro.relational.sql import execute_sql

    if not args.table and not args.attach:
        raise SystemExit("error: sql needs at least one --table or --attach")
    catalog = Catalog()
    for spec in args.table:
        name, _, path = spec.partition("=")
        if not name or not path:
            raise SystemExit(f"error: --table expects NAME=FILE.tsv, got {spec!r}")
        catalog.register(name, _load_tsv(path))
    for spec in args.attach:
        name, _, path = spec.partition("=")
        if not name or not path:
            raise SystemExit(
                f"error: --attach expects NAME=FILE.rpsf, got {spec!r}"
            )
        catalog.attach(name, path)

    result = execute_sql(catalog, args.query)
    out = _open_out(args.out)
    try:
        out.write("\t".join(result.column_names) + "\n")
        for row in result.rows:
            out.write(
                "\t".join("" if v is None else str(v) for v in row) + "\n"
            )
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import lint_paths, selfcheck

    if args.dataflow:
        from pathlib import Path

        from repro.analysis.dataflow import analyze_dataflow, check_corpus
        from repro.analysis.dataflow.corpus import DEFAULT_CORPUS
        from repro.analysis.lint import DEFAULT_PATHS

        targets = args.paths or [p for p in DEFAULT_PATHS if Path(p).exists()]
        report = analyze_dataflow(targets)
        if DEFAULT_CORPUS.is_dir():
            check_corpus(DEFAULT_CORPUS, report=report)
    else:
        report = selfcheck(include_lint=not args.no_lint)
        if args.paths:
            report.extend(lint_paths(args.paths))
    if args.fmt == "json":
        print(report.render_json())
    elif args.fmt == "sarif":
        print(report.render_sarif())
    else:
        if report.diagnostics:
            print(report.render())
        n_err, n_warn = len(report.errors()), len(report.warnings())
        print(
            f"analysis {'passed' if report.ok else 'FAILED'}: "
            f"{n_err} error(s), {n_warn} warning(s)",
            file=sys.stderr,
        )
    return 0 if report.ok else 1


def _cmd_bench_fig12(args: argparse.Namespace) -> int:
    """Fig-12 threshold sweep, in-memory (--input) or disk-backed (--store).

    Prints one line per threshold with the pair count, a cross-process
    result digest (bit-identity checks between the two modes grep these),
    and the PREP-phase seconds — near zero in --store mode, where the
    encoding comes off mmap'd pages instead of being rebuilt.
    """
    from repro.bench.storage_bench import result_digest
    from repro.core.encoded import EncodingCache
    from repro.core.metrics import PHASE_PREP, ExecutionMetrics
    from repro.core.ssjoin import SSJoin

    if (args.input is None) == (args.store is None):
        raise SystemExit(
            "error: bench --plan fig12 needs exactly one of --input/--store"
        )
    cache = EncodingCache()
    table = None
    if args.store is not None:
        from repro.storage import open_table

        table = open_table(args.store)
        table.seed_cache(cache)
        prepared = table.prepared()
        mode = f"store={args.store}"
    else:
        values = _read_lines(args.input)
        weights = resolve_weights("idf", words, values, values)
        prepared = PreparedRelation.from_strings(
            values, words, weights=weights, norm=NORM_WEIGHT, name="R"
        )
        mode = f"input={args.input}"
    print(f"fig12 sweep: {mode} rows={len(prepared)} "
          f"workers={args.workers or 1}")
    total_prep = 0.0
    try:
        for threshold in (0.80, 0.85, 0.90, 0.95):
            m = ExecutionMetrics()
            result = SSJoin(
                prepared, prepared, OverlapPredicate.two_sided(threshold)
            ).execute(
                "encoded-prefix", metrics=m, workers=args.workers,
                encoding_cache=cache,
            )
            prep = m.seconds(PHASE_PREP)
            total_prep += prep
            print(f"threshold={threshold:.2f} pairs={len(result.pairs)} "
                  f"digest={result_digest(result.pairs)} prep={prep:.4f}s")
    finally:
        if table is not None:
            table.close()
    print(f"total_prep={total_prep:.4f}s")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import os
    import time

    from repro.storage import ingest_prepared

    values = _read_lines(args.input)
    weights = resolve_weights("idf", words, values, values)
    prepared = PreparedRelation.from_strings(
        values, words, weights=weights, norm=NORM_WEIGHT, name=args.name
    )
    t0 = time.perf_counter()
    with ingest_prepared(prepared, args.out) as table:
        stats = table.stats()
    seconds = time.perf_counter() - t0
    print(
        f"ingested {stats['num_rows']} rows ({stats['num_groups']} groups) "
        f"into {args.out}: {stats['num_pages']} pages, "
        f"{os.path.getsize(args.out)} bytes, generation "
        f"{stats['generation']}, {seconds:.3f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.storage import open_table

    for path in args.paths:
        with open_table(path) as table:
            stats = table.stats()
        print("\t".join(f"{k}={v}" for k, v in stats.items()))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    rows = generate_addresses(
        CustomerConfig(num_rows=args.rows, seed=args.seed,
                       duplicate_fraction=args.duplicates)
    )
    with open(args.out, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(row + "\n")
    print(f"wrote {len(rows)} addresses to {args.out}", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "dedupe": _cmd_dedupe,
        "match": _cmd_match,
        "sql": _cmd_sql,
        "explain": _cmd_explain,
        "analyze": _cmd_analyze,
        "bench": _cmd_bench_fig12,
        "ingest": _cmd_ingest,
        "tables": _cmd_tables,
        "generate": _cmd_generate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
