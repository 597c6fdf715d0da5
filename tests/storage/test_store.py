"""StoredTable end-to-end: ingest, attach, stream, join, cache tiers.

The contract under test is *bit-identity*: a disk-backed execution —
attached catalog table, persisted encoding, slim worker payloads — must
produce exactly the rows the in-memory execution produces, at every
worker count.
"""

import os
import pickle

import pytest

from repro.core.encoded import EncodingCache, encoding_tier
from repro.core.metrics import ExecutionMetrics
from repro.core.optimizer import CostModel
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import NORM_WEIGHT, PreparedRelation
from repro.core.ssjoin import SSJoin
from repro.joins.jaccard_join import resolve_weights
from repro.storage import (
    EncodingStore,
    ingest_prepared,
    open_table,
)
from repro.tokenize.words import words

VALUES = [
    "100 main st seattle",
    "100 main street seattle",
    "22 oak ave portland",
    "22 oak avenue portland",
    "9 elm blvd",
    "742 evergreen terrace",
    "742 evergreen terr",
]


def fig12_prepared(values=VALUES, name="R"):
    table = resolve_weights("idf", words, values, values)
    return PreparedRelation.from_strings(
        values, words, weights=table, norm=NORM_WEIGHT, name=name
    )


@pytest.fixture()
def ingested(tmp_path):
    path = str(tmp_path / "r.rpsf")
    table = ingest_prepared(fig12_prepared(), path)
    yield table
    table.close()


class TestIngestAndReopen:
    def test_prepared_round_trips(self, ingested):
        fresh = fig12_prepared()
        reopened = open_table(ingested.path)
        try:
            assert reopened.prepared().groups == fresh.groups
            assert reopened.prepared().norms == fresh.norms
            assert list(reopened.relation.rows) == list(fresh.relation.rows)
        finally:
            reopened.close()

    def test_batches_stream_page_chunks(self, ingested):
        rows = []
        for batch in ingested.relation.iter_stored_batches(4):
            assert len(batch) <= 4
            rows.extend(batch.to_rows())
        assert rows == list(fig12_prepared().relation.rows)

    def test_projection_pushdown_names(self, ingested):
        cols = []
        for batch in ingested.relation.iter_stored_batches(64, names=["a", "w"]):
            assert batch.schema.names == ("a", "w")
            cols.extend(batch.to_rows())
        full = list(fig12_prepared().relation.rows)
        assert cols == [(a, w) for a, b, w, n in full]

    def test_stored_relation_pickles_by_reference(self, ingested):
        clone = pickle.loads(pickle.dumps(ingested.relation))
        assert list(clone.rows) == list(ingested.relation.rows)

    def test_stats_shape(self, ingested):
        stats = ingested.stats()
        assert stats["num_groups"] == len(VALUES)
        assert stats["num_pages"] > 0
        assert len(stats["generation"]) == 12


class TestCatalogAttach:
    def test_sql_over_attached_table(self, ingested):
        from repro.relational.catalog import Catalog
        from repro.relational.sql import execute_sql

        catalog = Catalog()
        catalog.attach("r", ingested.path)
        result = execute_sql(catalog, "SELECT COUNT(*) AS n FROM r")
        assert list(result.rows) == [(ingested.num_rows,)]

    def test_attached_ssjoin_matches_memory(self, ingested):
        from repro.relational.catalog import Catalog
        from repro.relational.sql import execute_sql

        query = (
            "SELECT a_r, a_s, overlap FROM r x SSJOIN r y "
            "ON OVERLAP(b) >= 0.6 * x.norm AND OVERLAP(b) >= 0.6 * y.norm "
            "WHERE a_r < a_s ORDER BY a_r, a_s"
        )
        attached = Catalog()
        attached.attach("r", ingested.path)
        memory = Catalog()
        memory.register("r", fig12_prepared().relation.renamed("r"))
        assert (
            execute_sql(attached, query).rows == execute_sql(memory, query).rows
        )


class TestBitIdenticalExecution:
    @pytest.mark.parametrize("workers", [None, 1, 2, 4])
    def test_disk_backed_join_matches_memory(self, ingested, workers,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "serial")
        predicate = OverlapPredicate.two_sided(0.6)
        baseline = SSJoin(
            fig12_prepared(), fig12_prepared(), predicate
        ).execute("encoded-prefix", encoding_cache=EncodingCache())

        cache = EncodingCache()
        ingested.seed_cache(cache)
        prepared = ingested.prepared()
        result = SSJoin(prepared, prepared, predicate).execute(
            "encoded-prefix", workers=workers, encoding_cache=cache
        )
        # Parallel runs canonically sort their merged rows; the sequential
        # baseline is in enumeration order. Content must match exactly.
        assert sorted(map(repr, result.pairs.rows)) == sorted(
            map(repr, baseline.pairs.rows)
        )

    def test_warm_start_pays_zero_encodes(self, ingested):
        cache = EncodingCache()
        ingested.seed_cache(cache)
        prepared = ingested.prepared()
        m = ExecutionMetrics()
        SSJoin(prepared, prepared, OverlapPredicate.two_sided(0.6)).execute(
            "encoded-prefix", metrics=m, encoding_cache=cache
        )
        stats = m.extra["encoding_cache"]
        assert stats["hits"] >= 1
        assert stats["misses"] == 0


class TestEncodingCacheTiers:
    def test_lru_cap_and_eviction_counter(self):
        cache = EncodingCache(capacity=1)
        a, b = fig12_prepared(VALUES[:3], "A"), fig12_prepared(VALUES[3:], "B")
        cache.encode_pair(a, a)
        cache.encode_pair(b, b)  # evicts (a, a)
        cache.encode_pair(a, a)  # rebuild, not a hit
        assert cache.evictions >= 1
        assert cache.hits == 0
        assert cache.misses == 3
        assert cache.stats()["capacity"] == 1

    def test_persistent_tier_round_trip(self, tmp_path):
        store = EncodingStore(str(tmp_path / "enc"))
        warmer = EncodingCache()
        warmer.attach_persistent(store, auto_persist=True)
        prepared = fig12_prepared()
        enc_left, _, _ = warmer.encode_pair(prepared, prepared)
        assert store.files()

        fresh = EncodingCache()
        fresh.attach_persistent(store)
        loaded_left, _, _ = fresh.encode_pair(fig12_prepared(), fig12_prepared())
        assert fresh.disk_hits == 1
        assert [list(g) for g in loaded_left.ids] == [
            list(g) for g in enc_left.ids
        ]
        # Promotion: the decoded encoding now lives in the memory tier.
        fresh.encode_pair(fig12_prepared(), fig12_prepared())
        assert fresh.hits == 1

    def test_encoding_tier_reports_memory_then_disk(self, tmp_path):
        store = EncodingStore(str(tmp_path / "enc"))
        cache = EncodingCache()
        cache.attach_persistent(store, auto_persist=True)
        prepared = fig12_prepared()
        assert encoding_tier(prepared, prepared, None, cache=cache) is None
        cache.encode_pair(prepared, prepared)
        assert encoding_tier(prepared, prepared, None, cache=cache) == "memory"
        cold = EncodingCache()
        cold.attach_persistent(store)
        assert encoding_tier(
            fig12_prepared(), fig12_prepared(), None, cache=cold
        ) == "disk"


class TestCostModelTiers:
    def test_disk_tier_charges_page_io_not_reencode(self, tmp_path):
        from repro.core.encoded import global_encoding_cache

        # Large enough that re-encoding costs more than the page reads
        # that replace it (PAGE_IO amortizes past ~70 elements).
        values = [f"{i} main st unit{i % 3} city{i % 7}" for i in range(60)]
        prepared = fig12_prepared(values)
        predicate = OverlapPredicate.two_sided(0.6)
        model = CostModel()

        def encoded_prefix_cost():
            estimates = model.estimate_all(prepared, prepared, predicate)
            return next(
                e.cost for e in estimates
                if e.implementation == "encoded-prefix"
            )

        cache = global_encoding_cache()
        saved = (cache.persistent, cache.auto_persist)
        cache.clear()
        try:
            rebuild = encoded_prefix_cost()
            cache.attach_persistent(
                EncodingStore(str(tmp_path / "enc")), auto_persist=True
            )
            cache.encode_pair(prepared, prepared)
            warm = encoded_prefix_cost()  # memory tier: encode cost 0
            cache.clear()
            disk = encoded_prefix_cost()  # disk tier: page I/O only
            assert warm < disk < rebuild
        finally:
            cache.clear()
            cache.persistent, cache.auto_persist = saved


class TestStaleArtifacts:
    def test_verify_storage_clean_and_seeded(self, ingested, tmp_path):
        from repro.analysis.invariants import verify_storage
        from repro.storage.fixtures import seed_stale_table

        assert verify_storage(ingested.path).ok
        stale = str(tmp_path / "stale.rpsf")
        seed_stale_table(stale)
        report = verify_storage(stale)
        assert not report.ok
        assert {d.rule for d in report.errors()} == {"SSJ114"}

    def test_missing_file_is_a_finding_not_a_crash(self, tmp_path):
        from repro.analysis.invariants import verify_storage

        report = verify_storage(str(tmp_path / "nope.rpsf"))
        assert not report.ok


class TestParallelPayload:
    def test_process_backend_joins_disk_attached_table(self, ingested, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL_BACKEND", raising=False)
        cache = EncodingCache()
        ingested.seed_cache(cache)
        prepared = ingested.prepared()
        m = ExecutionMetrics()
        baseline = SSJoin(
            fig12_prepared(), fig12_prepared(), OverlapPredicate.two_sided(0.6)
        ).execute("encoded-prefix", encoding_cache=EncodingCache())
        result = SSJoin(
            prepared, prepared, OverlapPredicate.two_sided(0.6)
        ).execute(
            "encoded-prefix", metrics=m, workers=2, encoding_cache=cache
        )
        assert result.parallel.mode == "parallel"
        assert result.parallel.backend == "process"
        assert sorted(map(repr, result.pairs.rows)) == sorted(
            map(repr, baseline.pairs.rows)
        )
