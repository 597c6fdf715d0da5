"""Token-range shard planner properties and SSJ108 coverage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import check_shards, verify_shards
from repro.core.encoded import encode_pair
from repro.core.encoded_prefix import group_prefix_lengths
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.errors import AnalysisError, PlanError
from repro.parallel.shards import ShardDescriptor, plan_token_range_shards
from repro.tokenize.sets import WeightedSet

from tests.core.test_implementations import prepared_relations


def _rel(sizes, name="r"):
    groups = {
        f"{name}{i}": WeightedSet({f"e{i}_{j}": 1.0 for j in range(k)})
        for i, k in enumerate(sizes)
    }
    return PreparedRelation.from_sets(groups, name=name)


class TestTokenRangeShards:
    def _planned(self, n_shards):
        left = _rel([3, 5, 2, 7, 4], name="l")
        right = _rel([4, 2, 6, 3], name="s")
        enc_l, enc_r, d = encode_pair(left, right)
        pred = OverlapPredicate.two_sided(0.5)
        lp = group_prefix_lengths(enc_l, pred.left_filter_threshold)
        rp = group_prefix_lengths(enc_r, pred.right_filter_threshold)
        shards = plan_token_range_shards(
            enc_l.ids, lp, enc_r.ids, rp, len(d), n_shards
        )
        return shards, len(d)

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 8, 1000])
    def test_tiles_dictionary_exactly(self, n_shards):
        shards, universe = self._planned(n_shards)
        assert verify_shards(shards, universe).ok
        assert shards[0].lo == 0
        assert shards[-1].hi == universe
        assert len(shards) <= min(n_shards, universe)

    def test_empty_universe(self):
        assert plan_token_range_shards([], [], [], [], 0, 4) == []

    def test_rejects_zero_shards(self):
        with pytest.raises(PlanError):
            plan_token_range_shards([], [], [], [], 5, 0)

    @given(prepared_relations("r"), prepared_relations("s"),
           st.integers(min_value=1, max_value=9))
    @settings(max_examples=60, deadline=None)
    def test_always_tiles(self, left, right, n_shards):
        enc_l, enc_r, d = encode_pair(left, right)
        pred = OverlapPredicate.two_sided(0.4)
        lp = group_prefix_lengths(enc_l, pred.left_filter_threshold)
        rp = group_prefix_lengths(enc_r, pred.right_filter_threshold)
        shards = plan_token_range_shards(
            enc_l.ids, lp, enc_r.ids, rp, len(d), n_shards
        )
        assert verify_shards(shards, len(d)).ok


class TestSSJ108:
    def _range(self, shard_id, lo, hi):
        return ShardDescriptor(shard_id=shard_id, lo=lo, hi=hi)

    def test_gap_is_an_error(self):
        report = verify_shards([self._range(0, 0, 3), self._range(1, 4, 8)], 8)
        assert not report.ok
        assert any("gap" in d.message for d in report.errors())

    def test_overlap_is_an_error(self):
        report = verify_shards([self._range(0, 0, 5), self._range(1, 4, 8)], 8)
        assert not report.ok
        assert any("overlap" in d.message for d in report.errors())

    def test_short_tail_is_an_error(self):
        report = verify_shards([self._range(0, 0, 6)], 8)
        assert not report.ok

    def test_empty_plan_over_nonempty_universe(self):
        assert not verify_shards([], 3).ok
        assert verify_shards([], 0).ok

    def test_non_descriptor_entry_rejected(self):
        assert not verify_shards([self._range(0, 0, 3), (3, 8)], 8).ok

    def test_duplicate_shard_ids_rejected(self):
        assert not verify_shards(
            [self._range(0, 0, 4), self._range(0, 4, 8)], 8
        ).ok

    def test_check_shards_raises(self):
        with pytest.raises(AnalysisError):
            check_shards([self._range(0, 0, 3)], 8)
        check_shards([self._range(0, 0, 8)], 8)  # clean plan passes
