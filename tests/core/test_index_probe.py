"""The index-probe implementation must match the oracle like the others."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import InvertedIndex, index_probe_ssjoin
from repro.core.metrics import ExecutionMetrics
from repro.core.ordering import frequency_ordering, random_ordering
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.core.ssjoin import SSJoin, ssjoin
from repro.tokenize.sets import WeightedSet
from repro.tokenize.words import words

from tests.core.test_implementations import oracle, predicates, prepared_relations


class TestInvertedIndex:
    def test_postings_shape(self):
        p = PreparedRelation.from_strings(["a b", "a c"], words)
        index = InvertedIndex(p)
        assert index.num_elements == 3  # ('a',1), ('b',1), ('c',1)
        assert index.num_postings == 4
        assert len(index.postings(("a", 1))) == 2
        assert index.postings(("zzz", 1)) == []

    def test_postings_carry_norms(self):
        p = PreparedRelation.from_strings(["a b"], words)
        ((a, w, norm),) = InvertedIndex(p).postings(("a", 1))
        assert a == "a b"
        assert w == 1.0
        assert norm == 2.0

    def test_repr(self):
        p = PreparedRelation.from_strings(["a"], words)
        assert "postings=1" in repr(InvertedIndex(p))


class TestProbeMatchesOracle:
    @given(
        prepared_relations("r"),
        prepared_relations("s"),
        predicates(),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=200, deadline=None)
    def test_probe_equals_oracle_under_any_ordering(self, left, right, predicate, seed):
        expected = oracle(left, right, predicate)
        ordering = random_ordering(seed, left, right)
        got = index_probe_ssjoin(left, right, predicate, ordering=ordering)
        assert {(r[0], r[1]) for r in got.rows} == expected

    @given(prepared_relations("r"), predicates())
    @settings(max_examples=100, deadline=None)
    def test_probe_reports_exact_overlaps(self, rel, predicate):
        got = index_probe_ssjoin(rel, rel, predicate)
        for a_r, a_s, overlap, norm_r, norm_s in got.rows:
            assert overlap == pytest.approx(rel.group(a_r).overlap(rel.group(a_s)))


class TestFacadeIntegration:
    def test_probe_via_facade(self):
        r = PreparedRelation.from_strings(["a b c", "x y"], words)
        s = PreparedRelation.from_strings(["a b c d", "p q"], words)
        pred = OverlapPredicate.absolute(2.0)
        res = ssjoin(r, s, pred, implementation="probe")
        assert res.implementation == "probe"
        assert res.pair_set() == ssjoin(r, s, pred, implementation="basic").pair_set()

    def test_explain_probe(self):
        r = PreparedRelation.from_strings(["a"], words)
        text = SSJoin(r, r, OverlapPredicate.absolute(1.0)).explain("probe")
        assert "InvertedIndex" in text

    def test_prebuilt_index_reused(self):
        """Amortizing index construction across probe calls (lookup mode)."""
        refs = PreparedRelation.from_strings(["a b c", "c d e"], words)
        index = InvertedIndex(refs)
        pred = OverlapPredicate.absolute(1.0)
        for query in ("a b", "d e"):
            q = PreparedRelation.from_strings([query], words)
            out = index_probe_ssjoin(q, refs, pred, index=index)
            assert len(out) >= 1

    def test_metrics_populated(self):
        r = PreparedRelation.from_strings(["a b c", "a b d"], words)
        m = ExecutionMetrics()
        index_probe_ssjoin(r, r, OverlapPredicate.two_sided(0.5), metrics=m)
        assert m.implementation == "probe"
        assert m.candidate_pairs >= m.output_pairs > 0

    def test_probe_runs_by_name_but_is_not_priced(self):
        """The referee: named explicitly it runs and agrees with the
        brute-force oracle; the cost model gives it no estimate, so
        ``auto`` never chooses it."""
        from repro.core.optimizer import IMPLEMENTATIONS, CostModel

        rel = PreparedRelation.from_strings(
            [f"the tok{i}" for i in range(20)] + ["the tok1 tok2"], words
        )
        pred = OverlapPredicate.two_sided(0.6)
        assert "probe" in IMPLEMENTATIONS
        assert ssjoin(rel, rel, pred, implementation="probe").pair_set() == oracle(
            rel, rel, pred
        )
        estimates = CostModel().estimate_all(rel, rel, pred)
        assert "probe" not in {e.implementation for e in estimates}
