"""Tests for canonical election and the end-to-end dedupe pipeline."""

import pytest

from repro.cleaning.canonical import (
    canonical_mapping,
    elect_centroid,
    elect_longest,
    elect_most_frequent,
)
from repro.cleaning.pipeline import dedupe
from repro.data.customers import CustomerConfig, generate_addresses
from repro.errors import ReproError


class TestElectors:
    def test_longest(self):
        assert elect_longest(["ms corp", "microsoft corp"]) == "microsoft corp"

    def test_longest_tie_lexicographic(self):
        assert elect_longest(["bb", "aa"]) == "bb"  # (len, value) max

    def test_longest_empty_rejected(self):
        with pytest.raises(ReproError):
            elect_longest([])

    def test_most_frequent(self):
        freq = {"ms corp": 10, "microsoft corp": 2}
        assert elect_most_frequent(["ms corp", "microsoft corp"], freq) == "ms corp"

    def test_most_frequent_falls_back_without_table(self):
        assert elect_most_frequent(["ab", "abc"]) == "abc"

    def test_centroid_prefers_middle_variant(self):
        cluster = ["12 main st", "12 main street", "12 maine st"]
        winner = elect_centroid(cluster)
        assert winner in cluster
        # '12 main st' shares tokens with both others.
        assert winner == "12 main st"

    def test_centroid_singleton(self):
        assert elect_centroid(["only"]) == "only"


class TestCanonicalMapping:
    def test_maps_all_members(self):
        mapping = canonical_mapping([["a bb", "a bbb"]], elector=elect_longest)
        assert mapping == {"a bb": "a bbb", "a bbb": "a bbb"}

    def test_conflicting_clusters_rejected(self):
        with pytest.raises(ReproError):
            canonical_mapping([["x", "y"], ["x", "z z z"]], elector=elect_longest)

    def test_empty_clusters_ok(self):
        assert canonical_mapping([]) == {}


class TestDedupePipeline:
    def test_end_to_end_small(self):
        values = ["12 main st", "12 main street", "12 main st", "9 oak ave"]
        # JR("12 main st", "12 main street") = 2/4 = 0.5 (st != street).
        report = dedupe(values, similarity="jaccard", threshold=0.5, weights=None)
        assert report.num_clusters == 1
        cleaned = report.clean_values()
        assert cleaned[0] == cleaned[1] == cleaned[2]
        assert cleaned[3] == "9 oak ave"
        assert report.num_duplicates >= 1
        assert "clusters" in report.summary()

    def test_edit_similarity_pipeline(self):
        values = ["microsoft corp", "mcrosoft corp", "oracle corp"]
        report = dedupe(values, similarity="edit", threshold=0.85)
        assert report.num_clusters == 1
        assert report.mapping["mcrosoft corp"] == report.mapping["microsoft corp"]

    def test_bridge_threshold_prevents_chaining(self):
        # X~A at 0.8 (strong); A~B at 0.6 and X~B at 0.5 (weak). A tight
        # bridge threshold keeps the strong pair and excludes B.
        x, a, b = "a b c d x", "a b c d", "a b c e"
        loose = dedupe([x, a, b], similarity="jaccard", threshold=0.5, weights=None)
        tight = dedupe([x, a, b], similarity="jaccard", threshold=0.5,
                       bridge_threshold=0.7, weights=None)
        assert [set(c) for c in loose.clusters] == [{x, a, b}]
        assert [set(c) for c in tight.clusters] == [{x, a}]
        assert all(b not in c for c in tight.clusters)

    def test_unknown_similarity(self):
        with pytest.raises(ReproError):
            dedupe(["a"], similarity="soundex-ish")

    def test_no_duplicates_found(self):
        report = dedupe(["completely", "different", "strings"],
                        similarity="edit", threshold=0.95)
        assert report.num_clusters == 0
        assert report.clean_values() == ["completely", "different", "strings"]

    def test_generated_corpus_reduces_distinct_values(self):
        rows = generate_addresses(
            CustomerConfig(num_rows=150, seed=41, duplicate_fraction=0.3)
        )
        report = dedupe(rows, similarity="edit", threshold=0.85)
        assert report.num_duplicates > 0
        assert len(set(report.clean_values())) < len(set(rows))

    def test_report_metrics_attached(self):
        report = dedupe(["a b", "a b c"], similarity="jaccard", threshold=0.6,
                        weights=None)
        assert report.metrics.total_seconds > 0
        assert report.join_result.implementation in (
            "basic", "prefix", "inline", "encoded-prefix",
        )
