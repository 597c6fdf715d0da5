"""The five workloads: set-up, job, layer-by-layer replay, independent path.

Each workload offers

``setup(seed, divisor, tracer)``  deterministic; its state feeds the job
``job(state)``                    the program's own entry points, untraced
``replay(state, tracer)``         the same work through the layers' public
                                  functions, one stopwatch span per call
``probe(state, tracer)``          layer calls the job does not expose
``independent(state)``            the expected digests by another path
``spot_check(state, results)``    where that path takes minutes (fig12_*)

``job`` and ``replay`` return ``{operation: result rows}``; README.md says
why each workload was chosen and which layers it loads.
"""

from __future__ import annotations

import os
import resource
import time
from typing import Any, Dict, List, Optional, Sequence

import oracle
from harness import Rows, Tracer, cpu_seconds, digest, digests_of, peak_rss_mb

from repro.core.encoded import EncodingCache, encode_pair, global_encoding_cache
from repro.core.encoded_prefix import encoded_prefix_ssjoin
from repro.core.metrics import ExecutionMetrics
from repro.core.optimizer import choose_implementation
from repro.core.ordering import frequency_ordering
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import NORM_LENGTH, NORM_WEIGHT, PreparedRelation
from repro.core.ssjoin import SSJoin
from repro.data.corruptions import CorruptionConfig
from repro.data.customers import CustomerConfig, generate_addresses
from repro.joins.base import (
    canonical_self_pairs,
    compose_join_plan,
    finalize_matches,
    run_join_plan,
    similarity_udf,
)
from repro.joins.edit_join import edit_similarity_join
from repro.joins.jaccard_join import jaccard_resemblance_join, resolve_weights
from repro.parallel.executor import parallel_ssjoin
from repro.relational.aggregates import agg_sum, group_by
from repro.relational.catalog import Catalog
from repro.relational.context import ExecutionContext
from repro.relational.expressions import col
from repro.relational.joins import hash_join
from repro.relational.sql import execute_sql, parse
from repro.relational.sql.compiler import compile_plan
from repro.sim.edit import edit_distance_within, edit_similarity
from repro.storage import ingest_prepared, open_table
from repro.storage.pages import global_buffer_pool
from repro.tokenize.qgrams import qgrams
from repro.tokenize.words import words

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: The corruption mixes of benchmarks/conftest.py: *J* is its
#: ``jaccard_addresses`` (token-level noise), *E* its ``addresses``.
J = CorruptionConfig(char_edit_prob=0.35, max_char_edits=1, abbreviation_prob=0.55,
                     token_drop_prob=0.15, token_swap_prob=0.45)
E = CorruptionConfig(char_edit_prob=0.8, max_char_edits=2, abbreviation_prob=0.3,
                     token_drop_prob=0.08, token_swap_prob=0.08)

#: Span names for the four ``ExecutionMetrics`` phases, per physical plan.
ENCODED_PHASES = {
    "prep": "core.encoded.lookup",
    "prefix_filter": "core.encoded_prefix.prefix",
    "ssjoin": "core.encoded_prefix.candidates",
    "filter": "core.verify.verify",
}
PAPER_PLANS = {"basic": "core.basic.ssjoin", "prefix": "core.prefix_filter.ssjoin",
               "inline": "core.inline.ssjoin"}


def phase_names(implementation: str) -> Dict[str, str]:
    if implementation in PAPER_PLANS:
        return dict.fromkeys(ENCODED_PHASES, PAPER_PLANS[implementation])
    return ENCODED_PHASES


def corpus(rows: int, seed: int, corruption: CorruptionConfig, tr: Tracer) -> List[str]:
    with tr.span("data.generate"):
        return generate_addresses(CustomerConfig(
            num_rows=max(rows, 60), duplicate_fraction=0.25, seed=seed, corruption=corruption,
        ))


def match_rows(result: Any) -> Rows:
    return [(p.left, p.right, p.similarity) for p in result.pairs]


# -- layer-by-layer replays of the join wrappers ----------------------------------------


def prepare_words(values: Sequence[str], tr: Tracer) -> PreparedRelation:
    """The Prep phase of the Jaccard joins: tokenize, fit IDF, build sets."""
    tok = tr.stopwatch(words)
    with tr.span("tokenize.idf_fit"):
        table = resolve_weights("idf", tok, values, values)
        tr.took("tokenize.words", tok, count="tokenize.tokens")
    with tr.span("core.prepared.build"):
        prepared = PreparedRelation.from_strings(
            values, tok, weights=table, norm=NORM_WEIGHT, name="R"
        )
        tr.took("tokenize.words", tok, count="tokenize.tokens")
    tr.count("core.prepared.elements", prepared.num_elements)
    return prepared


def replay_jaccard(
    prepared: PreparedRelation, threshold: float, implementation: str,
    m: ExecutionMetrics, tr: Tracer,
) -> Rows:
    """``jaccard_resemblance_join`` after its Prep phase, a layer at a time."""
    predicate = OverlapPredicate.two_sided(threshold)
    if implementation == "auto":
        with tr.span("core.optimizer.choose"):
            ordering = frequency_ordering(prepared, prepared)
            implementation = choose_implementation(
                prepared, prepared, predicate, ordering
            ).implementation
    if implementation.startswith("encoded"):
        # Cold: the global cache was cleared, so this builds dictionary and
        # columns; the plan below then finds them (``core.encoded.lookup``).
        with tr.span("core.encoded.encode"):
            dictionary = encode_pair(prepared, prepared, None, m)[2]
        tr.count("core.encoded.dictionary_size", len(dictionary))

    def resemblance(overlap: float, norm_r: float, norm_s: float) -> float:
        union = norm_r + norm_s - overlap
        return overlap / union if union else 1.0

    plan, node = compose_join_plan(
        prepared, prepared, predicate, implementation=implementation,
        similarity=similarity_udf("JR", resemblance, "overlap", "norm_r", "norm_s", metrics=m),
        keep=col("similarity") + 1e-9 >= threshold,
    )
    with tr.span("relational.tail"):
        relation, result = run_join_plan(plan, node, metrics=m)
        tr.phases(m, phase_names(implementation))
    with tr.span("joins.finalize"):
        matches = finalize_matches(
            relation.rows, metrics=m, implementation=result.implementation,
            threshold=threshold, self_join=True, symmetric=True, default=0.0,
        )
    return match_rows(matches)


def replay_edit(
    values: Sequence[str], threshold: float, implementation: str,
    m: ExecutionMetrics, tr: Tracer, q: int = 3,
) -> Rows:
    """``edit_similarity_join``, a layer at a time (Property 4, Figure 3)."""
    fraction = 1.0 - q * (1.0 - threshold)
    tok = tr.stopwatch(lambda s: qgrams(s, q))
    with tr.span("core.prepared.build"):
        prepared = PreparedRelation.from_strings(values, tok, norm=NORM_LENGTH, name="R")
        tr.took("tokenize.qgrams", tok, count="tokenize.tokens")
    tr.count("core.prepared.elements", prepared.num_elements)
    # Strings too short for the q-gram bound to be positive: brute force.
    short = [v for v in prepared.keys() if len(v) <= int((q - 1) / fraction)]

    def within(a: str, b: str) -> bool:
        budget = int((1.0 - threshold) * max(len(a), len(b)) + 1e-9)
        return edit_distance_within(a, b, budget) is not None

    plan, node = compose_join_plan(
        prepared, prepared, OverlapPredicate.max_norm(fraction, float(1 - q)),
        implementation=implementation,
        keep=similarity_udf("ED_WITHIN", within, "a_r", "a_s", metrics=m),
        project=("a_r", "a_s"),
    )
    with tr.span("relational.tail"):
        relation, _ = run_join_plan(plan, node, metrics=m)
        tr.phases(m, phase_names(implementation))
    with tr.span("joins.finalize"):
        pairs = list(relation.rows)
        pairs.extend((a, b) for a in short for b in short if within(a, b))
        return [
            (a, b, edit_similarity(a, b))
            for a, b in canonical_self_pairs(pairs, symmetric=True)
        ]


def count_verify(tr: Tracer, m: ExecutionMetrics) -> None:
    """The verify engine's counters, accumulated over a whole replay."""
    tr.count("core.encoded_prefix.candidate_pairs", m.candidate_pairs)
    tr.count("core.encoded_prefix.probe_rows", m.equijoin_rows)
    candidates = m.verify_candidates
    tr.count("core.verify.candidates", candidates)
    tr.count("core.verify.merges_run", m.verify_merges_run)
    if candidates:
        tr.count("core.verify.bitmap_pruned_share", m.verify_bitmap_pruned / candidates)
        tr.count("core.verify.position_pruned_share", m.verify_position_pruned / candidates)
        tr.count("core.verify.pass_ratio", m.output_pairs / candidates)


# -- the workloads -----------------------------------------------------------------------


class Workload:
    name = ""
    why = ""
    ops: Sequence[str] = ()
    spot_checked = False

    def probe(self, state: Any, tr: Tracer) -> None:
        """Layer calls outside the job; most workloads have none."""

    def teardown(self, state: Any) -> None:
        """Remove what set-up left on disk."""


class Fig12Cold(Workload):
    name = "fig12_cold"
    why = ("one-shot dedupe of 25 000 raw strings: tokenize, IDF, prepare, encode and "
           "plan choice are most of it, candidates and verify under 15 %")
    rows = 25000
    thresholds = (0.80, 0.90)
    ops = tuple(f"jr@{t:.2f}" for t in thresholds)
    spot_checked = True

    def setup(self, seed: int, divisor: int, tr: Tracer) -> Dict[str, Any]:
        return {"seed": seed, "values": corpus(self.rows // divisor, seed, J, tr)}

    def job(self, state: Dict[str, Any]) -> Dict[str, Rows]:
        return self._joins(state, "auto")

    def _joins(self, state: Dict[str, Any], implementation: str) -> Dict[str, Rows]:
        out = {}
        for op, threshold in zip(self.ops, self.thresholds):
            # Content-fingerprint hits would make the second call warm.
            global_encoding_cache().clear()
            out[op] = match_rows(jaccard_resemblance_join(
                state["values"], threshold=threshold, implementation=implementation
            ))
        return out

    def replay(self, state: Dict[str, Any], tr: Tracer) -> Dict[str, Rows]:
        m = ExecutionMetrics()
        out = {}
        for op, threshold in zip(self.ops, self.thresholds):
            global_encoding_cache().clear()
            prepared = prepare_words(state["values"], tr)
            out[op] = replay_jaccard(prepared, threshold, "auto", m, tr)
        count_verify(tr, m)
        return out

    def independent(self, state: Dict[str, Any]) -> Dict[str, str]:
        return digests_of(self._joins(state, "probe"))

    def spot_check(self, state: Dict[str, Any], results: Dict[str, Rows]) -> List[str]:
        reported = {
            t: {(a, b): s for a, b, s in results[op]}
            for op, t in zip(self.ops, self.thresholds)
        }
        return oracle.spot_check(state["values"], reported, oracle.resemblance, state["seed"])


class Fig12Warm(Workload):
    rows = 40000
    thresholds = (0.5, 0.7, 0.9)
    ops = tuple(f"ssjoin@{t:.1f}" for t in thresholds)
    spot_checked = True

    def __init__(self, workers: Optional[int]) -> None:
        self.workers = workers
        if workers is None:
            self.name = "fig12_warm"
            self.why = ("threshold exploration on 40 000 prepared and encoded rows: prefix "
                        "filter, candidates and verify are all of it, prepare and encode none")
        else:
            self.name = f"fig12_warm_w{workers}"
            self.why = (f"the same joins over {workers} worker processes: what it costs over "
                        "fig12_warm is plan, ship and merge, so a gain on one path that "
                        "costs the other shows as a pair")

    def setup(self, seed: int, divisor: int, tr: Tracer) -> Dict[str, Any]:
        values = corpus(self.rows // divisor, seed, J, tr)
        prepared = prepare_words(values, tr)
        cache = EncodingCache()
        with tr.span("core.encoded.encode"):
            dictionary = cache.encode_pair(prepared, prepared, None, None)[2]
        tr.count("core.encoded.dictionary_size", len(dictionary))
        return {"seed": seed, "values": values, "prepared": prepared, "cache": cache}

    def job(self, state: Dict[str, Any]) -> Dict[str, Rows]:
        return self._joins(state, "encoded-prefix", self.workers)

    def _joins(
        self, state: Dict[str, Any], implementation: str, workers: Optional[int]
    ) -> Dict[str, Rows]:
        p = state["prepared"]
        return {
            op: SSJoin(p, p, OverlapPredicate.two_sided(threshold)).execute(
                implementation, encoding_cache=state["cache"], workers=workers
            ).pairs.rows
            for op, threshold in zip(self.ops, self.thresholds)
        }

    def replay(self, state: Dict[str, Any], tr: Tracer) -> Dict[str, Rows]:
        p, cache = state["prepared"], state["cache"]
        m = ExecutionMetrics()
        out = {}
        reports = []
        for op, threshold in zip(self.ops, self.thresholds):
            predicate = OverlapPredicate.two_sided(threshold)
            if self.workers is None:
                with tr.span("core.encoded.lookup"):
                    encoding = cache.encode_pair(p, p, None, m)[:2]
                with tr.span("relational.tail"):
                    pairs = encoded_prefix_ssjoin(p, p, predicate, metrics=m, encoding=encoding)
                    tr.phases(m, ENCODED_PHASES)
                    out[op] = pairs.rows
            else:
                with tr.span("parallel.wall"):
                    result = parallel_ssjoin(
                        p, p, predicate, workers=self.workers,
                        implementation="encoded-prefix", metrics=m, encoding_cache=cache,
                    )
                    out[op] = result.pairs.rows
                reports.append(result.parallel.to_dict())
        count_verify(tr, m)
        if reports:
            # Shards run side by side: their phases are busy seconds summed
            # over parent and shards, not stretches of the job's wall.
            for phase, seconds in m.phase_seconds.items():
                tr.count(ENCODED_PHASES[phase] + "_s", seconds)
            self._count_parallel(tr, reports)
        return out

    @staticmethod
    def _count_parallel(tr: Tracer, reports: List[Dict[str, Any]]) -> None:
        wall = sum(r["wall_seconds"] for r in reports)
        critical = sum(r["critical_path_seconds"] for r in reports)
        shards = [s["seconds"] for r in reports for s in r["shards"]]
        tr.count("parallel.shard_busy_s", sum(shards))
        tr.count("parallel.critical_path_s", critical)
        tr.count("parallel.overhead_s", wall - critical)
        tr.count("parallel.overhead_share", (wall - critical) / wall)
        tr.count("parallel.n_shards", len(shards))
        # Slowest shard over the mean shard, averaged over the joins.
        tr.count("parallel.shard_skew", sum(
            max(s["seconds"] for s in r["shards"]) * len(r["shards"])
            / sum(s["seconds"] for s in r["shards"])
            for r in reports
        ) / len(reports))

    def probe(self, state: Dict[str, Any], tr: Tracer) -> None:
        if self.workers is None:
            return
        cpu = [cpu_seconds()]
        for workers in (self.workers, None):
            self._joins(state, "encoded-prefix", workers)
            cpu.append(cpu_seconds())
        tr.count("parallel.cpu_ratio", (cpu[1] - cpu[0]) / (cpu[2] - cpu[1]))
        tr.count("parallel.child_peak_rss_mb", peak_rss_mb(resource.RUSAGE_CHILDREN))

    def independent(self, state: Dict[str, Any]) -> Dict[str, str]:
        return digests_of(self._joins(state, "probe", None))

    def spot_check(self, state: Dict[str, Any], results: Dict[str, Rows]) -> List[str]:
        reported = {
            t: {(row[0], row[1]): row[2] for row in results[op]}
            for op, t in zip(self.ops, self.thresholds)
        }
        return oracle.spot_check(state["values"], reported, oracle.containment, state["seed"])


class PaperPlans(Workload):
    name = "paper_plans"
    why = ("Figures 7-9 as written, basic / prefix / inline on 1 000 Jaccard and 400 edit "
           "rows: the functional hash_join / group_by / distinct row API is over 80 % of "
           "it, the encoded pipeline none")
    rows = {"jaccard": 1000, "edit": 400}
    thresholds = {"jaccard": 0.80, "edit": 0.85}
    ops = tuple(f"{kind}/{impl}" for impl in PAPER_PLANS for kind in ("jaccard", "edit"))

    def setup(self, seed: int, divisor: int, tr: Tracer) -> Dict[str, Any]:
        return {
            "jaccard": corpus(self.rows["jaccard"] // divisor, seed, J, tr),
            "edit": corpus(self.rows["edit"] // divisor, seed, E, tr),
        }

    def job(self, state: Dict[str, Any]) -> Dict[str, Rows]:
        out = {}
        for impl in PAPER_PLANS:
            out[f"jaccard/{impl}"] = match_rows(jaccard_resemblance_join(
                state["jaccard"], threshold=self.thresholds["jaccard"], implementation=impl
            ))
            out[f"edit/{impl}"] = match_rows(edit_similarity_join(
                state["edit"], threshold=self.thresholds["edit"], implementation=impl
            ))
        return out

    def replay(self, state: Dict[str, Any], tr: Tracer) -> Dict[str, Rows]:
        m = ExecutionMetrics()
        edit = ExecutionMetrics()  # apart, so its UDF calls can be counted
        out = {}
        for impl in PAPER_PLANS:
            prepared = prepare_words(state["jaccard"], tr)
            out[f"jaccard/{impl}"] = replay_jaccard(
                prepared, self.thresholds["jaccard"], impl, m, tr
            )
            out[f"edit/{impl}"] = replay_edit(
                state["edit"], self.thresholds["edit"], impl, edit, tr
            )
            if impl == "basic":
                tr.count("core.basic.equijoin_rows", m.equijoin_rows + edit.equijoin_rows)
        tr.count("joins.edit_udf_calls", edit.similarity_comparisons)
        return out

    def probe(self, state: Dict[str, Any], tr: Tracer) -> None:
        """Figure 7's equi-join and GROUP BY on their own, through the
        functional row API the three paper plans are spelled in."""
        relation = prepare_words(state["jaccard"], Tracer(self.name, enabled=False)).relation
        r = relation.rename({"a": "a_r", "b": "b", "w": "w_r", "norm": "norm_r"})
        s = relation.rename({"a": "a_s", "b": "b_s", "w": "w_s", "norm": "norm_s"})
        start = time.perf_counter()
        with tr.span("relational.hash_join"):
            joined = hash_join(r, s, keys=[("b", "b_s")])
        with tr.span("relational.group_by"):
            group_by(joined, keys=["a_r", "norm_r", "a_s", "norm_s"],
                     aggregates=[agg_sum("overlap", col("w_r"))])
        tr.count("relational.rows_per_s", len(joined) / (time.perf_counter() - start))

    def independent(self, state: Dict[str, Any]) -> Dict[str, str]:
        expected = {
            "jaccard": digest(oracle.jaccard_pairs(state["jaccard"], self.thresholds["jaccard"])),
            "edit": digest(oracle.edit_pairs(state["edit"], self.thresholds["edit"])),
        }
        return {op: expected[op.split("/")[0]] for op in self.ops}


class StoreSql(Workload):
    name = "store_sql"
    why = ("four SQL statements over a 25 000-row table attached from an 18.9 MB page file, "
           "4.5 times the 4 MiB buffer pool: the only path through lexer, parser, compiler, "
           "vectorized tail and page reads")
    rows = 25000
    statements = {
        "ssjoin_pairs": (
            "SELECT a_r, a_s, overlap FROM t r SSJOIN t s "
            "ON OVERLAP(b) >= 0.8 * r.norm AND OVERLAP(b) >= 0.8 * s.norm "
            "WHERE a_r < a_s ORDER BY a_r, a_s"
        ),
        "ssjoin_grouped": (
            "SELECT a_r, COUNT(*) AS n FROM t r SSJOIN t s "
            "ON OVERLAP(b) >= 0.8 * r.norm AND OVERLAP(b) >= 0.8 * s.norm "
            "GROUP BY a_r HAVING COUNT(*) >= 2 ORDER BY a_r"
        ),
        "token_counts": "SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING COUNT(*) >= 50 ORDER BY b",
        "count": "SELECT COUNT(*) AS n FROM t",
    }
    ops = tuple(statements)

    def setup(self, seed: int, divisor: int, tr: Tracer) -> Dict[str, Any]:
        values = corpus(self.rows // divisor, seed, J, tr)
        prepared = prepare_words(values, tr)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"store_sql-{os.getpid()}.rpsf")
        with tr.span("storage.ingest"):
            ingest_prepared(prepared, path, name="t").close()
        size = os.path.getsize(path)
        tr.count("storage.file_bytes", size)
        tr.count("storage.bytes_per_user_byte",
                 size / sum(len(v.encode("utf-8")) for v in prepared.keys()))
        return {"prepared": prepared, "path": path}

    def teardown(self, state: Dict[str, Any]) -> None:
        os.remove(state["path"])

    def job(self, state: Dict[str, Any]) -> Dict[str, Rows]:
        catalog = Catalog()
        catalog.attach("t", state["path"])
        try:
            return {op: execute_sql(catalog, sql).rows for op, sql in self.statements.items()}
        finally:
            catalog.drop("t")

    def replay(self, state: Dict[str, Any], tr: Tracer) -> Dict[str, Rows]:
        pool = global_buffer_pool().stats()
        m = ExecutionMetrics()
        out = {}
        catalog = Catalog()
        with tr.span("storage.open"):
            catalog.attach("t", state["path"])
        try:
            # The first SSJOIN would decode the groups inside its execute span.
            with tr.span("storage.decode_prepared"):
                catalog.attached("t").prepared()
            for op, sql in self.statements.items():
                with tr.span("relational.sql.parse"):
                    statement = parse(sql)
                with tr.span("relational.sql.compile"):
                    plan = compile_plan(statement, catalog)
                with tr.span("relational.sql.execute"):
                    relation = plan.execute(ExecutionContext(catalog=catalog, metrics=m))
                    tr.phases(m, ENCODED_PHASES)
                    out[op] = relation.rows
                tr.count("relational.sql.rows_out", len(out[op]))
        finally:
            catalog.drop("t")
        count_verify(tr, m)
        after = global_buffer_pool().stats()
        hits, misses = after["hits"] - pool["hits"], after["misses"] - pool["misses"]
        tr.count("storage.pool.misses", misses)
        tr.count("storage.pool.evictions", after["evictions"] - pool["evictions"])
        if hits + misses:
            tr.count("storage.pool.hit_ratio", hits / (hits + misses))
        return out

    def probe(self, state: Dict[str, Any], tr: Tracer) -> None:
        """Decode paths the four statements do not take: the persisted
        encoding (they encode through the global cache) and a full scan."""
        with open_table(state["path"]) as table:
            table.prepared()
            table.dictionary()
            with tr.span("storage.decode_encoded"):
                table.encoded()
            with tr.span("storage.scan"):
                for _ in table.relation.iter_stored_batches(4096):
                    pass

    def independent(self, state: Dict[str, Any]) -> Dict[str, str]:
        """The same statements over an in-memory twin: no page file."""
        catalog = Catalog()
        catalog.register("t", state["prepared"].relation)
        return digests_of({op: execute_sql(catalog, sql).rows for op, sql in self.statements.items()})


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (Fig12Cold(), Fig12Warm(None), Fig12Warm(2), PaperPlans(), StoreSql())
}
