"""Unit tests for the bitmap-signature verification engine.

Covers the sound XOR-popcount bound (hostile widths included), the
bounded merge of the extensions, width selection, the identity fast
path and its left-to-right totals, per-stage counters, and the
signature-cache staleness regression (a shared encoding whose
dictionary grows between joins must re-pack signatures).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basic import basic_ssjoin
from repro.core.encoded import encode_pair
from repro.core.encoded_prefix import encoded_prefix_ssjoin, merge_overlap
from repro.core.metrics import ExecutionMetrics
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.core.verify import (
    BYPASS_STRICTNESS,
    MAX_SIGNATURE_BITS,
    MIN_SIGNATURE_BITS,
    VerifyConfig,
    bounded_overlap_count,
    choose_signature_bits,
    engine_for_encoded,
    hashed_signature,
    required_overlap_count,
    signature_of,
    signatures_for,
)
from repro.errors import PlanError
from repro.parallel import BACKEND_SERIAL, parallel_ssjoin
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.tokenize.sets import WeightedSet
from repro.tokenize.weights import TableWeights

from tests.core.test_implementations import oracle, predicates, prepared_relations


def pairs_of(relation):
    return {(r[0], r[1]) for r in relation.rows}


id_sets = st.sets(st.integers(min_value=0, max_value=500), max_size=30)


class TestBitmapBound:
    @given(id_sets, id_sets, st.sampled_from([4, 8, 64, 256]))
    @settings(max_examples=300, deadline=None)
    def test_xor_popcount_bound_is_sound(self, a, b, nbits):
        """(|A| + |B| − popcount(XOR)) / 2 upper-bounds |A ∩ B| under any
        id→bit mapping — collisions included."""
        sa = signature_of(sorted(a), nbits)
        sb = signature_of(sorted(b), nbits)
        bound = (len(a) + len(b) - (sa ^ sb).bit_count()) / 2
        assert bound >= len(a & b)

    @given(id_sets, st.sampled_from([7, 64]))
    @settings(max_examples=100, deadline=None)
    def test_identical_sets_bound_is_exact_cardinality_or_more(self, a, nbits):
        sa = signature_of(sorted(a), nbits)
        bound = (2 * len(a) - (sa ^ sa).bit_count()) / 2
        assert bound == len(a)

    @given(
        st.lists(st.text(min_size=1, max_size=6), max_size=20),
        st.sampled_from([8, 64]),
    )
    @settings(max_examples=100, deadline=None)
    def test_hashed_signature_deterministic_and_sound(self, keys, nbits):
        a = sorted(set(keys))
        assert hashed_signature(a, nbits) == hashed_signature(list(a), nbits)
        sa = hashed_signature(a, nbits)
        bound = (2 * len(a) - (sa ^ sa).bit_count()) / 2
        assert bound == len(a)


class TestBoundedMerge:
    @given(id_sets, id_sets, st.integers(min_value=0, max_value=35))
    @settings(max_examples=300, deadline=None)
    def test_bounded_count_exact_or_sound_abandon(self, a, b, required):
        x, y = sorted(a), sorted(b)
        exact = len(a & b)
        got = bounded_overlap_count(x, y, required)
        if got >= 0:
            assert got == exact
        else:
            # Abandoning is only sound when the pair truly cannot reach
            # the requirement.
            assert exact < required

    @given(id_sets, id_sets)
    @settings(max_examples=100, deadline=None)
    def test_zero_requirement_never_abandons(self, a, b):
        assert bounded_overlap_count(sorted(a), sorted(b), 0) == len(a & b)

    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=60),
        st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_required_count_admits_every_qualifying_jaccard_pair(
        self, sx, sy, t
    ):
        """Any overlap count passing ``jaccard + 1e-9 >= t`` must be >= the
        required count derived from the admission inequality."""
        required = required_overlap_count(
            (t - 1e-9) / (1.0 + t - 1e-9) * (sx + sy)
        )
        for ov in range(min(sx, sy) + 1):
            union = sx + sy - ov
            jaccard = ov / union if union else 1.0
            if jaccard + 1e-9 >= t:
                assert ov >= required


class TestWidthChooser:
    def test_bypass_below_strictness(self):
        assert choose_signature_bits(1000, BYPASS_STRICTNESS - 0.01) == 0

    def test_zero_universe_bypasses(self):
        assert choose_signature_bits(0, 0.9) == 0

    def test_clamped_to_floor_and_cap(self):
        assert choose_signature_bits(10, 0.9) == MIN_SIGNATURE_BITS
        assert choose_signature_bits(10**6, 0.9) == MAX_SIGNATURE_BITS

    def test_next_power_of_two(self):
        assert choose_signature_bits(100, 0.9) == 128
        assert choose_signature_bits(200, 0.9) == 256

    def test_disabled_config_is_inert(self):
        assert VerifyConfig.disabled().inert
        assert not VerifyConfig().inert
        assert VerifyConfig(signature_bits=0).inert  # width 0 = reference path

    @pytest.mark.parametrize("bits", [-3, True, "8"])
    def test_bad_width_is_a_plan_error(self, bits):
        rel = PreparedRelation.from_strings(["a b c", "a b d"], lambda s: s.split())
        pred = OverlapPredicate.two_sided(0.5)
        with pytest.raises(PlanError, match="signature_bits"):
            encoded_prefix_ssjoin(
                rel, rel, pred, verify_config=VerifyConfig(signature_bits=bits)
            )
        with pytest.raises(PlanError, match="signature_bits"):
            parallel_ssjoin(
                rel, rel, pred, workers=2, implementation="encoded-prefix",
                backend=BACKEND_SERIAL, verify_config=VerifyConfig(signature_bits=bits),
            )


class TestEngineEquivalence:
    @given(prepared_relations("r"), prepared_relations("s"), predicates())
    @settings(max_examples=150, deadline=None)
    def test_hostile_width_never_drops_pairs(self, left, right, predicate):
        """8-bit signatures collide hard; the engine must stay lossless."""
        expected = oracle(left, right, predicate)
        got = encoded_prefix_ssjoin(
            left, right, predicate, verify_config=VerifyConfig(signature_bits=8)
        )
        assert pairs_of(got) == expected

    @given(prepared_relations("r"), prepared_relations("s"), predicates())
    @settings(max_examples=100, deadline=None)
    def test_engine_rows_bit_identical_to_disabled(self, left, right, predicate):
        on = encoded_prefix_ssjoin(left, right, predicate)
        off = encoded_prefix_ssjoin(
            left, right, predicate, verify_config=VerifyConfig.disabled()
        )
        assert sorted(on.rows, key=repr) == sorted(off.rows, key=repr)

    def test_identity_fast_path_skips_merges(self):
        """Self-join (g, g) candidates are admitted from the cached group
        total — no merge — and overlaps equal the basic plan's."""
        values = [f"shared head tokens unique{i} tail" for i in range(30)]
        prep = PreparedRelation.from_strings(values, lambda s: s.split())
        predicate = OverlapPredicate.two_sided(0.9)
        m = ExecutionMetrics()
        got = encoded_prefix_ssjoin(prep, prep, predicate, metrics=m)
        expected = basic_ssjoin(prep, prep, predicate)
        assert pairs_of(got) == pairs_of(expected)
        # All 30 identity pairs are candidates yet none needed a merge.
        assert m.verify_candidates >= 30
        assert m.verify_merges_run < m.verify_candidates

    def test_counters_are_consistent(self):
        """Every evaluation ends in exactly one stage: the identity fast
        path, a weight pre-test prune, a bitmap prune, or an
        intersection."""
        values = [f"common base words entry{i}" for i in range(40)] + [
            "completely unrelated different text"
        ]
        predicate = OverlapPredicate.two_sided(0.8)

        def stages(m):
            return m.verify_position_pruned + m.verify_bitmap_pruned + m.verify_merges_run

        # Directed: a two-relation join has no identity candidates, and
        # evaluates every row of the candidate relation.
        left = PreparedRelation.from_strings(values[:25], lambda s: s.split(), name="l")
        right = PreparedRelation.from_strings(values[15:], lambda s: s.split(), name="r")
        m = ExecutionMetrics()
        encoded_prefix_ssjoin(left, right, predicate, metrics=m)
        assert m.verify_candidates == m.candidate_pairs > 0
        assert m.verify_candidates == stages(m)

        # Mirrored self-join: one identity evaluation per group, one
        # evaluation per unordered pair — the candidate relation holds
        # both of its rows.
        prep = PreparedRelation.from_strings(values, lambda s: s.split())
        m = ExecutionMetrics()
        encoded_prefix_ssjoin(prep, prep, predicate, metrics=m)
        identities = len(prep)
        assert m.verify_candidates == identities + stages(m)
        assert m.candidate_pairs == identities + 2 * stages(m)
        stats = m.verify_stats()
        assert stats["candidates"] == m.verify_candidates
        assert stats["position_pruned"] == m.verify_position_pruned
        assert stats["bitmap_pruned"] == m.verify_bitmap_pruned
        assert stats["merges_run"] == m.verify_merges_run
        assert "verify=" in m.summary()

    def test_weight_pretest_prunes_by_total_weight(self):
        """A candidate whose smaller total weight is below the cutoff dies
        at the weight pre-test, before any popcount, and is counted as a
        positional prune."""
        # "rare" sits in the prefixes of both of its groups; the other
        # tokens of the long group are frequent, so they sort last.
        values = ["rare x", "rare a b c d e f g", "a b c d e f g", "a b c d e f g h"]
        prep = PreparedRelation.from_strings(values, lambda s: s.split())
        predicate = OverlapPredicate.two_sided(0.5)
        m = ExecutionMetrics()
        got = encoded_prefix_ssjoin(prep, prep, predicate, metrics=m)
        expected = encoded_prefix_ssjoin(
            prep, prep, predicate, verify_config=VerifyConfig.disabled()
        )
        assert list(got.rows) == list(expected.rows)
        # ("rare x", "rare a …"): totals 2 and 8, threshold max(1, 4).
        assert m.verify_position_pruned == 1
        assert "/1p/" in m.summary()


class TestLeftToRightTotals:
    """A group's identity overlap is its total weight, summed left to
    right as :func:`merge_overlap` sums it.  Ten weights of 0.1 make
    0.9999999999999999 that way and 1.0 compensated — and builtin ``sum``
    compensates float sums from CPython 3.12 — so the sequential engine
    and a shard engine (which gets no prebuilt totals) must both match
    the merge bit for bit."""

    def test_identity_overlap_is_the_merge_sum(self):
        tokens = [f"t{i}" for i in range(10)]
        ten = " ".join(tokens)
        prep = PreparedRelation.from_strings(
            [ten, " ".join(tokens[:5] + ["other"])],
            lambda s: s.split(),
            weights=TableWeights({t: 0.1 for t in tokens + ["other"]}),
        )
        enc, _, _ = encode_pair(prep, prep, None)
        g = list(enc.keys).index(ten)
        expected = merge_overlap(enc.ids[g], enc.weights[g], enc.ids[g])
        assert expected == 0.9999999999999999
        predicate = OverlapPredicate.two_sided(0.9)
        sequential = encoded_prefix_ssjoin(prep, prep, predicate)
        sharded = parallel_ssjoin(
            prep, prep, predicate, workers=2,
            implementation="encoded-prefix", backend=BACKEND_SERIAL,
        ).pairs
        for result in (sequential, sharded):
            overlaps = {(r[0], r[1]): r[2] for r in result.rows}
            assert overlaps[ten, ten].hex() == expected.hex()


#: Element-global weight table (Section 2's model: a token's weight is a
#: property of the element, not of the group containing it — the prefix
#: filter itself is only sound under that assumption).
_TOKEN_WEIGHTS = {f"tok{j}": 0.5 + (j * 3 % 10) / 4.0 for j in range(16)}


def _weighted_relation():
    groups = {
        f"g{i}": WeightedSet(
            {
                f"tok{j}": _TOKEN_WEIGHTS[f"tok{j}"]
                for j in range((i * 5) % 7, (i * 5) % 7 + i % 6 + 2)
            }
        )
        for i in range(12)
    }
    return PreparedRelation.from_sets(groups, name="weighted")


class TestWeightedBounds:
    def test_weighted_predicate_uses_max_weight_scaling(self):
        """With non-uniform weights the count bound alone would under-prune
        or (if misapplied) over-prune; results must equal basic exactly."""
        rel = _weighted_relation()
        for predicate in (
            OverlapPredicate.two_sided(0.85),
            OverlapPredicate.one_sided(0.9, side="left"),
            OverlapPredicate.absolute(2.5),
        ):
            got = encoded_prefix_ssjoin(
                rel, rel, predicate, verify_config=VerifyConfig(signature_bits=8)
            )
            assert pairs_of(got) == pairs_of(basic_ssjoin(rel, rel, predicate))


def _rows_match_basic(got, left, right, predicate):
    """Same (a_r, a_s) rows as the basic plan, overlaps to round-off."""
    expected = {(r[0], r[1]): r[2] for r in basic_ssjoin(left, right, predicate).rows}
    # Encoded plans emit in (left position, right position) order.
    assert [(r[0], r[1]) for r in got.rows] == [
        (a_r, a_s) for a_r in left.groups for a_s in right.groups if (a_r, a_s) in expected
    ]
    for a_r, a_s, overlap, _, _ in got.rows:
        assert overlap == pytest.approx(expected[a_r, a_s])


class TestMirroredApplicability:
    """The engine evaluates each unordered pair of a self-join once only
    when it can observe that this is sound; the ``verify_*`` counters
    (evaluations) against ``candidate_pairs`` (rows of the candidate
    relation) tell which path ran."""

    def _relation(self):
        values = [f"shared core token{i % 7} extra{i % 5} tail{i}" for i in range(40)]
        return PreparedRelation.from_strings(values, lambda s: s.split(), name="t")

    def _run(self, left, right, predicate):
        m = ExecutionMetrics()
        got = encoded_prefix_ssjoin(left, right, predicate, metrics=m)
        assert m.candidate_pairs > 0
        return got, m

    def test_asymmetric_prefixes_take_the_directed_path(self):
        rel = self._relation()
        predicate = OverlapPredicate.one_sided(0.8, side="left")
        got, m = self._run(rel, rel, predicate)
        assert m.verify_candidates == m.candidate_pairs
        _rows_match_basic(got, rel, rel, predicate)

    def test_per_row_weights_take_the_directed_path(self):
        # The same token weighs differently from group to group, so a
        # pair's two rows carry different overlaps.  (The prefix filter
        # itself assumes element-global weights, so the referee is the
        # engine-off directed plan, not basic.)
        rows = [
            (f"g{g}", tok, 1.0 + ((g * 7 + j) % 5) / 4.0, 10.0)
            for g in range(24)
            for j, tok in enumerate(["alpha", "beta", f"own{g % 6}", f"tail{g % 4}"])
        ]
        rel = PreparedRelation.from_relation(
            Relation(Schema(["a", "b", "w", "norm"]), rows, name="per_row")
        )
        predicate = OverlapPredicate.two_sided(0.3)
        got, m = self._run(rel, rel, predicate)
        assert m.verify_candidates == m.candidate_pairs
        off = encoded_prefix_ssjoin(
            rel, rel, predicate, verify_config=VerifyConfig.disabled()
        )
        assert list(got.rows) == list(off.rows)
        overlaps = {(r[0], r[1]): r[2] for r in got.rows}
        assert any(
            overlaps[a, b] != overlaps[b, a] for a, b in overlaps if (b, a) in overlaps
        )

    def test_two_relations_take_the_directed_path(self):
        rel = self._relation()
        keys = list(rel.groups)
        left = PreparedRelation.from_sets({a: rel.groups[a] for a in keys[:25]}, name="l")
        right = PreparedRelation.from_sets({a: rel.groups[a] for a in keys[15:]}, name="r")
        predicate = OverlapPredicate.two_sided(0.8)
        got, m = self._run(left, right, predicate)
        assert m.verify_candidates == m.candidate_pairs
        _rows_match_basic(got, left, right, predicate)

    @pytest.mark.parametrize(
        "predicate",
        [
            OverlapPredicate.two_sided(0.8),
            OverlapPredicate.absolute(3.0),
            OverlapPredicate.max_norm(0.7, -0.5),
        ],
        ids=["two_sided", "absolute", "max_norm"],
    )
    def test_equal_prefixes_on_a_self_join_take_the_mirrored_path(self, predicate):
        rel = self._relation()
        got, m = self._run(rel, rel, predicate)
        identities = len(rel)
        # One evaluation per group and per unordered pair; the candidate
        # relation holds both rows of each pair.
        assert m.verify_candidates < m.candidate_pairs
        assert m.candidate_pairs == identities + 2 * (m.verify_candidates - identities)
        _rows_match_basic(got, rel, rel, predicate)
        off = encoded_prefix_ssjoin(
            rel, rel, predicate, verify_config=VerifyConfig.disabled()
        )
        assert list(got.rows) == list(off.rows)


class TestSignatureCacheStaleness:
    """Satellite regression: shared encodings must re-pack signatures when
    the backing dictionary grows between joins."""

    def _relations(self):
        values = [f"alpha beta gamma delta unique{i}" for i in range(20)]
        return PreparedRelation.from_strings(values, lambda s: s.split())

    def test_two_joins_sharing_cached_encoding_coexist_per_width(self):
        prep = self._relations()
        predicate = OverlapPredicate.two_sided(0.9)
        r1 = encoded_prefix_ssjoin(
            prep, prep, predicate, verify_config=VerifyConfig(signature_bits=64)
        )
        r2 = encoded_prefix_ssjoin(
            prep, prep, predicate, verify_config=VerifyConfig(signature_bits=128)
        )
        enc_left, _, _ = encode_pair(prep, prep, None)  # cache hit
        assert ("signatures", 64) in enc_left.verify_cache
        assert ("signatures", 128) in enc_left.verify_cache
        expected = pairs_of(basic_ssjoin(prep, prep, predicate))
        assert pairs_of(r1) == expected
        assert pairs_of(r2) == expected

    def test_dictionary_growth_invalidates_cached_signatures(self):
        prep = self._relations()
        enc_left, _, dictionary = encode_pair(prep, prep, None)
        sigs_before = signatures_for(enc_left, 64)
        key = ("signatures", 64)
        assert enc_left.verify_cache[key][0] == len(dictionary)
        # Simulate incremental ingest growing the shared dictionary in
        # place after the encoding-cache hit handed this encoding out.
        base = len(dictionary)
        dictionary._ids["__grown_token__"] = base
        sigs_after = signatures_for(enc_left, 64)
        assert enc_left.verify_cache[key][0] == base + 1
        assert sigs_after is not sigs_before
        # The re-pack is over the same id arrays, so contents agree.
        assert sigs_after == [signature_of(ids, 64) for ids in enc_left.ids]

    def test_join_after_growth_still_matches_basic(self):
        prep = self._relations()
        predicate = OverlapPredicate.two_sided(0.9)
        encoded_prefix_ssjoin(
            prep, prep, predicate, verify_config=VerifyConfig(signature_bits=64)
        )
        enc_left, _, dictionary = encode_pair(prep, prep, None)
        dictionary._ids["__grown_token__"] = len(dictionary)
        got = encoded_prefix_ssjoin(
            prep, prep, predicate, verify_config=VerifyConfig(signature_bits=64)
        )
        assert pairs_of(got) == pairs_of(basic_ssjoin(prep, prep, predicate))
        assert enc_left.verify_cache[("signatures", 64)][0] == len(dictionary)


class TestEngineForEncoded:
    def test_inert_config_returns_none(self):
        prep = _weighted_relation()
        enc_left, enc_right, _ = encode_pair(prep, prep, None)
        assert (
            engine_for_encoded(
                enc_left, enc_right, OverlapPredicate.two_sided(0.9),
                (), (), config=VerifyConfig.disabled(),
            )
            is None
        )

    def test_self_join_shares_signatures(self):
        prep = _weighted_relation()
        enc_left, enc_right, _ = encode_pair(prep, prep, None)
        engine = engine_for_encoded(
            enc_left, enc_right, OverlapPredicate.two_sided(0.9),
            (), (), config=VerifyConfig(signature_bits=64),
        )
        assert engine is not None
        assert engine.identity
        assert engine.left_signatures is engine.right_signatures
