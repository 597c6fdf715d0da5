"""Unit tests for the dictionary-encoded execution substrate:
:class:`TokenDictionary`, :class:`EncodedPreparedRelation`, the encoding
cache, and the merge-intersection kernel."""

import pytest

from repro.core.dictionary import TokenDictionary
from repro.core.encoded import (
    EncodedPreparedRelation,
    EncodingCache,
    global_encoding_cache,
)
from repro.core.encoded_prefix import merge_overlap, prefix_length
from repro.core.metrics import ExecutionMetrics
from repro.core.ordering import frequency_ordering
from repro.core.prepared import PreparedRelation
from repro.errors import ReproError
from repro.tokenize.sets import WeightedSet
from repro.tokenize.words import words


@pytest.fixture
def prepared():
    return PreparedRelation.from_strings(
        ["the cat", "the dog", "the fox", "rare token"], words
    )


class TestTokenDictionary:
    def test_ids_dense_and_frequency_ranked(self, prepared):
        d = TokenDictionary.from_relations(prepared)
        n = len(prepared.element_frequencies())
        assert len(d) == n
        assert sorted(d.id_of(e) for e in prepared.element_frequencies()) == list(range(n))
        # 'the' is the most frequent token, so it gets the largest id.
        assert d.id_of(("the", 1)) == n - 1

    def test_ids_realize_frequency_ordering_exactly(self, prepared):
        """The dictionary's default order must be the tuple plans' default
        ordering — same ranks element-for-element — so encoded prefixes
        coincide with tuple prefixes."""
        d = TokenDictionary.from_relations(prepared)
        o = frequency_ordering(prepared)
        for e in prepared.element_frequencies():
            assert d.id_of(e) == o.key(e)

    def test_joint_universe_over_both_sides(self):
        r = PreparedRelation.from_strings(["a b"], words)
        s = PreparedRelation.from_strings(["b c"], words)
        d = TokenDictionary.from_relations(r, s)
        assert len(d) == 3
        assert d.covers([("a", 1), ("b", 1), ("c", 1)])

    def test_explicit_ordering_honored(self, prepared):
        o = frequency_ordering(prepared)
        d = TokenDictionary.from_relations(prepared, ordering=o)
        assert "ordering:" in d.description
        for e in prepared.element_frequencies():
            assert d.id_of(e) == o.key(e)

    def test_unknown_element_raises(self, prepared):
        d = TokenDictionary.from_relations(prepared)
        with pytest.raises(ReproError):
            d.id_of(("zzz", 1))
        assert d.get(("zzz", 1)) is None
        assert ("zzz", 1) not in d

    def test_element_of_inverts(self, prepared):
        d = TokenDictionary.from_relations(prepared)
        for e in prepared.element_frequencies():
            assert d.element_of(d.id_of(e)) == e

    def test_non_dense_ids_rejected(self):
        with pytest.raises(ReproError):
            TokenDictionary({"a": 0, "b": 2})

    def test_encode_sorted_is_sorted_with_parallel_weights(self):
        d = TokenDictionary.from_frequencies({"x": 3, "y": 1, "z": 2})
        wset = WeightedSet({"x": 1.5, "y": 0.5, "z": 2.0})
        ids, weights = d.encode_sorted(wset)
        assert list(ids) == sorted(ids)
        for i, w in zip(ids, weights):
            assert wset.weight(d.element_of(i)) == w

    def test_to_ordering_round_trip(self, prepared):
        d = TokenDictionary.from_relations(prepared)
        o = d.to_ordering()
        for e in prepared.element_frequencies():
            assert o.key(e) == d.id_of(e)

    def test_repr(self, prepared):
        assert "joint-frequency" in repr(TokenDictionary.from_relations(prepared))


class TestEncodedPreparedRelation:
    def test_columns_parallel_and_sorted(self, prepared):
        d = TokenDictionary.from_relations(prepared)
        enc = EncodedPreparedRelation(prepared, d)
        assert enc.keys == list(prepared.groups)
        assert enc.num_groups == prepared.num_groups
        for g, a in enumerate(enc.keys):
            assert list(enc.ids[g]) == sorted(enc.ids[g])
            assert len(enc.ids[g]) == len(enc.weights[g]) == len(prepared.groups[a])
            assert enc.norms[g] == prepared.norms[a]
            assert enc.set_norms[g] == prepared.groups[a].norm
        assert enc.num_elements == sum(len(s) for s in prepared.groups.values())

    def test_repr(self, prepared):
        d = TokenDictionary.from_relations(prepared)
        assert "groups=4" in repr(EncodedPreparedRelation(prepared, d))


class TestEncodingCache:
    def test_hit_on_content_identical_rebuild(self):
        cache = EncodingCache()
        r1 = PreparedRelation.from_strings(["a b", "c d"], words)
        s1 = PreparedRelation.from_strings(["a b c"], words)
        el1, er1, d1 = cache.encode_pair(r1, s1)
        # Fresh objects from the same strings — the benchmark-sweep shape.
        r2 = PreparedRelation.from_strings(["a b", "c d"], words)
        s2 = PreparedRelation.from_strings(["a b c"], words)
        el2, er2, d2 = cache.encode_pair(r2, s2)
        assert cache.hits == 1 and cache.misses == 1
        assert el2 is el1 and er2 is er1 and d2 is d1

    def test_miss_on_different_content(self):
        cache = EncodingCache()
        r = PreparedRelation.from_strings(["a b"], words)
        s = PreparedRelation.from_strings(["a c"], words)
        cache.encode_pair(r, r)
        cache.encode_pair(r, s)
        assert cache.misses == 2

    def test_self_join_shares_one_encoding(self):
        cache = EncodingCache()
        r = PreparedRelation.from_strings(["a b"], words)
        el, er, _ = cache.encode_pair(r, r)
        assert el is er

    def test_metrics_counters(self):
        cache = EncodingCache()
        r = PreparedRelation.from_strings(["a b"], words)
        m = ExecutionMetrics()
        cache.encode_pair(r, r, metrics=m)
        cache.encode_pair(r, r, metrics=m)
        assert m.encode_cache_misses == 1
        assert m.encode_cache_hits == 1
        assert "encode_cache=1h/1m" in m.summary()

    def test_contains_reflects_cache_state(self):
        cache = EncodingCache()
        r = PreparedRelation.from_strings(["a b"], words)
        assert not cache.contains(r, r)
        cache.encode_pair(r, r)
        assert cache.contains(r, r)

    def test_lru_eviction(self):
        cache = EncodingCache(capacity=1)
        r = PreparedRelation.from_strings(["a b"], words)
        s = PreparedRelation.from_strings(["c d"], words)
        cache.encode_pair(r, r)
        cache.encode_pair(s, s)
        assert len(cache) == 1
        assert not cache.contains(r, r)

    def test_clear(self):
        cache = EncodingCache()
        r = PreparedRelation.from_strings(["a"], words)
        cache.encode_pair(r, r)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_global_cache_is_shared(self):
        assert global_encoding_cache() is global_encoding_cache()


class TestMergeKernel:
    def test_merge_overlap_sums_left_weights(self):
        from array import array

        li = array("q", [1, 3, 5])
        lw = array("d", [0.5, 1.0, 2.0])
        ri = array("q", [2, 3, 5, 7])
        assert merge_overlap(li, lw, ri) == pytest.approx(3.0)

    def test_merge_overlap_disjoint(self):
        from array import array

        assert merge_overlap(array("q", [1]), array("d", [1.0]), array("q", [2])) == 0.0

    def test_prefix_length(self):
        from array import array

        w = array("d", [1.0, 1.0, 1.0])
        assert prefix_length(w, -0.1) == 0  # negative beta prunes the group
        assert prefix_length(w, 0.0) == 1
        assert prefix_length(w, 1.5) == 2
        assert prefix_length(w, 3.0) == 3  # beta >= norm keeps everything
