"""Self-audit: verify the shipped engine's own plans and predicates.

Runs the analysis layers against *representative artifacts built
from the shipped engine itself* — the four predicate families of
Definition 1 across every physical implementation, a relational plan
exercising every operator the verifier knows, the SQL front end, the
engine-hygiene lint over the hot paths, and the DF3xx dataflow audit
(including its seeded-defect corpus gate, which proves the auditor's
rules still detect the defects they exist for). A clean report here is the
regression guarantee behind the CI ``static-analysis`` gate: if a change
to the engine introduces an unsound bound, a broken ordering contract,
or a schema bug in the shipped operators, ``repro analyze`` goes red
before any test dataset does.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.analysis.invariants import (
    KNOWN_IMPLEMENTATIONS,
    verify_shards,
    verify_ssjoin,
)
from repro.analysis.plan_verifier import verify_plan
from repro.analysis.sql_check import verify_sql
from repro.core.encoded import encode_pair
from repro.core.ordering import frequency_ordering
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.relational.aggregates import agg_count, agg_sum
from repro.relational.catalog import Catalog
from repro.relational.expressions import col
from repro.relational.plan import (
    Extend,
    GroupBy,
    HashJoin,
    Limit,
    OrderBy,
    Project,
    Select,
    SSJoinNode,
    TableScan,
)
from repro.relational.relation import Relation

__all__ = ["selfcheck"]


def _sample_relations() -> Tuple[PreparedRelation, PreparedRelation]:
    tokenize = lambda s: s.split()  # noqa: E731 - trivial whitespace tokenizer
    left = PreparedRelation.from_strings(
        ["data cleaning primer", "similarity joins", "primitive operator"],
        tokenize,
        name="L",
    )
    right = PreparedRelation.from_strings(
        ["data cleaning", "similarity join operator", "prefix filter"],
        tokenize,
        name="R",
    )
    return left, right


def _predicate_families() -> List[Tuple[str, OverlapPredicate]]:
    return [
        ("absolute", OverlapPredicate.absolute(1.5)),
        ("one_sided", OverlapPredicate.one_sided(0.6)),
        ("two_sided", OverlapPredicate.two_sided(0.5)),
        ("max_norm", OverlapPredicate.max_norm(0.4)),
    ]


def _ssjoin_selfcheck() -> AnalysisReport:
    left, right = _sample_relations()
    ordering = frequency_ordering(left, right)
    enc_left, enc_right, _ = encode_pair(left, right, ordering=ordering)
    reports: List[Diagnostic] = []
    for family, predicate in _predicate_families():
        for impl in KNOWN_IMPLEMENTATIONS:
            encoding = (
                (enc_left, enc_right)
                if impl.startswith("encoded-")
                else None
            )
            report = verify_ssjoin(
                left,
                right,
                predicate,
                ordering=ordering,
                implementation=impl,
                encoding=encoding,
            )
            for d in report.diagnostics:
                reports.append(
                    dataclasses.replace(
                        d, location=f"ssjoin[{family}/{impl}] {d.location}"
                    )
                )
    return AnalysisReport(reports)


def _parallel_selfcheck() -> AnalysisReport:
    """SSJ108 over the shipped shard planner: plan real token-range shards
    on the sample relations and verify they tile the dictionary exactly."""
    from repro.core.encoded_prefix import group_prefix_lengths
    from repro.parallel.shards import plan_token_range_shards

    left, right = _sample_relations()
    ordering = frequency_ordering(left, right)
    enc_left, enc_right, dictionary = encode_pair(left, right, ordering=ordering)
    predicate = OverlapPredicate.two_sided(0.5)
    left_prefix = group_prefix_lengths(enc_left, predicate.left_filter_threshold)
    right_prefix = group_prefix_lengths(enc_right, predicate.right_filter_threshold)

    diagnostics: List[Diagnostic] = []
    for n_shards in (1, 2, 4, 8):
        plan = plan_token_range_shards(
            enc_left.ids, left_prefix, enc_right.ids, right_prefix,
            len(dictionary), n_shards,
        )
        for d in verify_shards(plan, len(dictionary)).diagnostics:
            diagnostics.append(
                dataclasses.replace(
                    d, location=f"parallel[token-range/n={n_shards}] {d.location}"
                )
            )
    return AnalysisReport(diagnostics)


def _plan_selfcheck() -> AnalysisReport:
    catalog = Catalog()
    catalog.register(
        "orders",
        Relation.from_rows(
            ["order_id", "customer", "amount"],
            [(1, "ada", 10.0), (2, "bob", 7.5), (3, "ada", 2.5)],
        ),
    )
    catalog.register(
        "customers",
        Relation.from_rows(
            ["customer", "city"], [("ada", "london"), ("bob", "berlin")]
        ),
    )
    plan = Limit(
        OrderBy(
            GroupBy(
                Project(
                    Select(
                        HashJoin(
                            TableScan("orders"),
                            TableScan("customers"),
                            keys=["customer"],
                        ),
                        col("amount") >= 1.0,
                    ),
                    ["customer", "amount", "city"],
                ),
                keys=["customer"],
                aggregates=[agg_count("n"), agg_sum("total", col("amount"))],
                having=col("n") >= 1,
            ),
            ["customer"],
        ),
        2,
    )
    extend_plan = Extend(
        TableScan("orders"), "flagged", col("amount") >= 5.0
    )
    # Layer 7: an SSJoin plan tree (PV1xx + SSJ110-112) built the way the
    # joins layer composes them, and the SQL SSJOIN path through the
    # compiler (structural checks + plan verification of the result).
    catalog.register(
        "tokens",
        Relation.from_rows(
            ["a", "b", "w"],
            [
                ("r1", "apple", 1.0),
                ("r1", "pie", 1.0),
                ("r2", "apple", 1.0),
                ("r2", "pie", 1.0),
                ("r2", "tin", 1.0),
            ],
        ),
    )
    scan = TableScan("tokens")
    ssjoin_plan = Project(
        Select(
            SSJoinNode(scan, scan, OverlapPredicate.two_sided(0.8)),
            col("a_r").ne(col("a_s")),
        ),
        ["a_r", "a_s", "overlap"],
    )
    report = verify_plan(plan, catalog)
    report.extend(verify_plan(extend_plan, catalog))
    report.extend(verify_plan(ssjoin_plan, catalog))
    report.extend(
        verify_sql(
            catalog,
            "SELECT customer, SUM(amount) AS total FROM orders "
            "GROUP BY customer HAVING SUM(amount) >= 1 ORDER BY total",
        )
    )
    report.extend(
        verify_sql(
            catalog,
            "SELECT a_r, a_s, overlap FROM tokens r SSJOIN tokens s "
            "ON OVERLAP(b) >= 0.8 * r.norm AND OVERLAP(b) >= 0.8 * s.norm "
            "WHERE a_r < a_s ORDER BY overlap DESC LIMIT 10",
        )
    )
    return report


def _storage_selfcheck() -> AnalysisReport:
    """SSJ114 over a freshly ingested table, plus the seeded stale-stamp
    fixture — the gate proving the rule still detects the defect it
    exists for (the DF399 corpus pattern, applied to storage)."""
    import os
    import tempfile

    from repro.analysis.diagnostics import SEVERITY_ERROR
    from repro.analysis.invariants import verify_storage
    from repro.storage import ingest_prepared
    from repro.storage.fixtures import seed_stale_table

    left, _ = _sample_relations()
    diagnostics: List[Diagnostic] = []
    with tempfile.TemporaryDirectory(prefix="repro-selfcheck-") as tmp:
        clean = os.path.join(tmp, "clean.rpsf")
        ingest_prepared(left, clean).close()
        for d in verify_storage(clean).diagnostics:
            diagnostics.append(
                dataclasses.replace(d, location=f"storage[clean] {d.location}")
            )
        stale = os.path.join(tmp, "stale.rpsf")
        seed_stale_table(stale)
        seeded = verify_storage(stale)
        if not any(
            d.rule == "SSJ114" and d.severity == SEVERITY_ERROR
            for d in seeded.diagnostics
        ):
            diagnostics.append(
                Diagnostic(
                    "SSJ114",
                    SEVERITY_ERROR,
                    "seeded stale-generation fixture was NOT detected — the "
                    "rule no longer catches the defect it exists for",
                    "storage[seeded]",
                )
            )
    return AnalysisReport(diagnostics)


def _dataflow_selfcheck() -> AnalysisReport:
    """DF3xx over the engine hot paths, plus the seeded-defect corpus
    gate (DF399) when the source checkout's corpus is present."""
    from pathlib import Path

    from repro.analysis.dataflow import analyze_dataflow, check_corpus
    from repro.analysis.dataflow.corpus import DEFAULT_CORPUS
    from repro.analysis.lint import DEFAULT_PATHS

    report = analyze_dataflow([p for p in DEFAULT_PATHS if Path(p).exists()])
    if DEFAULT_CORPUS.is_dir():
        check_corpus(DEFAULT_CORPUS, report=report)
    return report


def selfcheck(
    include_lint: bool = True, include_dataflow: bool = True
) -> AnalysisReport:
    """Audit the shipped engine; a non-``ok`` report is a regression.

    Set ``include_lint=False`` to skip the source-tree lint, or
    ``include_dataflow=False`` to skip the DF3xx dataflow audit (e.g.
    when running from an installed package without the source checkout).
    """
    parts = [
        _ssjoin_selfcheck(),
        _parallel_selfcheck(),
        _plan_selfcheck(),
        _storage_selfcheck(),
    ]
    if include_lint:
        # Imported here so `python -m repro.analysis.lint` does not find
        # its own module already imported by the package.
        from repro.analysis.lint import lint_paths

        parts.append(lint_paths())
    if include_dataflow:
        parts.append(_dataflow_selfcheck())
    return AnalysisReport.combine(parts)
