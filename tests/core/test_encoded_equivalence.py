"""Property: the dictionary-encoded plan is row-for-row equivalent to
the tuple plans — same pairs, same overlaps — across random weighted
multisets, every predicate shape the paper names, and boundary thresholds
sitting exactly on the ``OVERLAP_EPSILON`` edge."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basic import basic_ssjoin
from repro.core.encoded_prefix import encoded_prefix_ssjoin
from repro.core.ordering import frequency_ordering, random_ordering
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.core.ssjoin import ssjoin
from repro.tokenize.sets import WeightedSet
from repro.tokenize.words import words

from tests.core.test_implementations import oracle, predicates, prepared_relations


def pairs_of(relation):
    return {(r[0], r[1]) for r in relation.rows}


class TestEncodedMatchesOracle:
    @given(prepared_relations("r"), prepared_relations("s"), predicates())
    @settings(max_examples=200, deadline=None)
    def test_encoded_prefix_equals_oracle(self, left, right, predicate):
        expected = oracle(left, right, predicate)
        got = encoded_prefix_ssjoin(left, right, predicate)
        assert pairs_of(got) == expected

    @given(
        prepared_relations("r"),
        prepared_relations("s"),
        predicates(),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=100, deadline=None)
    def test_encoded_prefix_equals_oracle_under_any_ordering(
        self, left, right, predicate, seed
    ):
        """Correct under ablation orderings too, not just joint frequency."""
        expected = oracle(left, right, predicate)
        ordering = random_ordering(seed, left, right)
        got = encoded_prefix_ssjoin(left, right, predicate, ordering=ordering)
        assert pairs_of(got) == expected

    @given(prepared_relations("r"), prepared_relations("s"), predicates())
    @settings(max_examples=100, deadline=None)
    def test_encoded_plans_report_same_overlaps_as_basic(self, left, right, predicate):
        tuple_rows = {
            (r[0], r[1]): (r[2], r[3], r[4])
            for r in basic_ssjoin(left, right, predicate).rows
        }
        got = encoded_prefix_ssjoin(left, right, predicate)
        enc_rows = {(r[0], r[1]): (r[2], r[3], r[4]) for r in got.rows}
        assert set(enc_rows) == set(tuple_rows)
        for key, (overlap, norm_r, norm_s) in enc_rows.items():
            assert overlap == pytest.approx(tuple_rows[key][0])
            assert norm_r == tuple_rows[key][1]
            assert norm_s == tuple_rows[key][2]

    @given(prepared_relations("r"), predicates())
    @settings(max_examples=100, deadline=None)
    def test_self_join_consistency(self, rel, predicate):
        expected = oracle(rel, rel, predicate)
        assert pairs_of(encoded_prefix_ssjoin(rel, rel, predicate)) == expected


class TestBoundaryThresholds:
    """Predicates sitting exactly on an achievable overlap value: the
    shared OVERLAP_EPSILON slack must admit the pair in every plan."""

    @given(prepared_relations("r"), prepared_relations("s"))
    @settings(max_examples=100, deadline=None)
    def test_absolute_threshold_exactly_at_overlap(self, left, right):
        for ar, s1 in left.groups.items():
            for as_, s2 in right.groups.items():
                overlap = s1.overlap(s2)
                if overlap <= 0:
                    continue
                pred = OverlapPredicate.absolute(overlap)
                expected = oracle(left, right, pred)
                assert pairs_of(encoded_prefix_ssjoin(left, right, pred)) == expected
                return  # one boundary predicate per example is enough

    def test_jaccard_exactly_at_threshold(self):
        """Two unit-weight sets with |x∩y|/max-norm exactly 0.75."""
        r = PreparedRelation.from_strings(["a b c d"], words)
        s = PreparedRelation.from_strings(["a b c z"], words)
        pred = OverlapPredicate.two_sided(0.75)
        assert pairs_of(encoded_prefix_ssjoin(r, s, pred)) == {("a b c d", "a b c z")}
        tight = OverlapPredicate.two_sided(0.80)
        assert pairs_of(encoded_prefix_ssjoin(r, s, tight)) == set()


class TestFacadeAndCache:
    def test_explicit_encoded_implementations_via_facade(self):
        r = PreparedRelation.from_strings(["a b c", "x y"], words)
        s = PreparedRelation.from_strings(["a b c d", "p q"], words)
        pred = OverlapPredicate.absolute(2.0)
        expected = ssjoin(r, s, pred, implementation="basic").pair_set()
        res = ssjoin(r, s, pred, implementation="encoded-prefix")
        assert res.implementation == "encoded-prefix"
        assert res.pair_set() == expected

    def test_repeat_execution_hits_encoding_cache(self):
        """Fresh PreparedRelation objects from the same strings reuse the
        cached encoding — the benchmark-sweep access pattern."""
        values = ["enc cache one", "enc cache two", "enc cache one two"]
        pred = OverlapPredicate.two_sided(0.5)

        def run():
            p = PreparedRelation.from_strings(values, words)
            res = ssjoin(p, p, pred, implementation="encoded-prefix")
            return res

        first = run()
        second = run()
        assert second.pair_set() == first.pair_set()
        assert (
            first.metrics.encode_cache_hits + first.metrics.encode_cache_misses == 1
        )
        assert second.metrics.encode_cache_hits == 1

    def test_auto_can_pick_encoded_plan(self):
        """Once an encoding is cached, auto's cost model discounts the
        encode cost and routes the repeat workload to an encoded plan."""
        values = [f"common tok{i}" for i in range(30)]
        p = PreparedRelation.from_strings(values, words)
        pred = OverlapPredicate.two_sided(0.9)
        ssjoin(p, p, pred, implementation="encoded-prefix")  # warm the cache
        res = ssjoin(p, p, pred, implementation="auto")
        assert res.implementation == "encoded-prefix"
        assert res.pair_set() == ssjoin(p, p, pred, implementation="basic").pair_set()
