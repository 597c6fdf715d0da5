"""Satellite 3: verification-engine results ≡ basic, across everything.

The engine must be invisible in the output: for every predicate family
the paper's frontends actually build (absolute overlap, Jaccard
resemblance, edit-similarity q-gram bounds, GES-style one-sided
containment), every engine signature width (``None`` = auto-resolved,
which a predicate below ``BYPASS_STRICTNESS`` resolves to an engine
without its two bounds), and workers 1/2/4 on the serial backend, the
result rows must equal the ``basic`` nested-loop plan's pair set and be
*bit-identical* (same rows, same float overlaps) to the engine-off
encoded plans, which are held to ``basic`` in turn.  A Hypothesis
sweep extends the same claim to random weighted-set relations × all
six predicate shapes, and a differential suite over generated
*self-joins* holds the mirrored evaluation (each unordered pair
evaluated once) to the directed engine-off plan — rows,
row order, overlap bits — and to the brute-force oracle, sequentially
and across shards.  A failure-path corpus — empty and single-token
groups, a heavy token in every set, weights from 1e-6 to 1e6, and
thresholds where Lemma 1's β is 0 — closes the file.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from zlib import crc32

from repro.core.basic import basic_ssjoin
from repro.core.encoded_prefix import encoded_prefix_ssjoin
from repro.core.metrics import ExecutionMetrics
from repro.core.predicate import MaxNormBound, OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.core.verify import BYPASS_STRICTNESS, VerifyConfig
from repro.data.customers import CustomerConfig, generate_addresses
from repro.parallel import BACKEND_SERIAL, canonical_sort_key, parallel_ssjoin
from repro.tokenize.qgrams import padded_qgrams
from repro.tokenize.sets import WeightedSet
from repro.tokenize.weights import TableWeights

from tests.core.test_implementations import oracle, predicates, prepared_relations

#: Engine widths; width 0 is the reference path every engine run is
#: compared with, so it has a class of its own.
WIDTHS = (8, 64, None)
WORKERS = (1, 2, 4)


def _addresses(rows=70):
    config = CustomerConfig(num_rows=rows, duplicate_fraction=0.3, seed=20060403)
    return generate_addresses(config)


def _word_relation():
    return PreparedRelation.from_strings(
        _addresses(), lambda s: s.split(), name="words"
    )


def _qgram_relation():
    return PreparedRelation.from_strings(
        _addresses(40), lambda s: padded_qgrams(s, q=3), name="qgrams"
    )


def _ges_relation():
    # Element-global weights (a token's weight is a property of the
    # element — Section 2's model and the prefix filter's soundness
    # assumption); crc32 keeps them deterministic across processes.
    def weight(tok):
        return 0.5 + (crc32(tok.encode()) % 8) / 4.0

    groups = {}
    for i, addr in enumerate(_addresses()):
        toks = set(addr.split())
        if toks:
            groups[f"a{i}"] = WeightedSet({t: weight(t) for t in toks})
    return PreparedRelation.from_sets(groups, name="ges")


# One (relation, predicate) pair per frontend family.  The edit bound is
# edit_similarity_join's reduction at θ=0.8, q=3: fraction = 1 − q(1−θ),
# offset = 1 − q.
FAMILIES = [
    ("overlap", _word_relation, OverlapPredicate.absolute(2.0)),
    ("jaccard", _word_relation, OverlapPredicate.two_sided(0.8)),
    ("edit", _qgram_relation, OverlapPredicate([MaxNormBound(0.4, -2.0)])),
    ("ges", _ges_relation, OverlapPredicate.one_sided(0.8, side="left")),
    # Below BYPASS_STRICTNESS the auto width resolves to 0 bits: the
    # engine runs with no weight pre-test and no bitmap stage.
    ("low", _word_relation, OverlapPredicate.two_sided(BYPASS_STRICTNESS / 2)),
]


def _config(width):
    return None if width is None else VerifyConfig(signature_bits=width)


def pairs_of(relation):
    return {(r[0], r[1]) for r in relation.rows}


@pytest.mark.parametrize(
    "family,relation_fn,predicate", FAMILIES, ids=[f[0] for f in FAMILIES]
)
class TestReferencePathMatchesBasic:
    def test_sequential_and_workers_match_basic(
        self, family, relation_fn, predicate, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", BACKEND_SERIAL)
        rel = relation_fn()
        cfg = VerifyConfig.disabled()
        off = encoded_prefix_ssjoin(rel, rel, predicate, verify_config=cfg)
        assert pairs_of(off) == pairs_of(basic_ssjoin(rel, rel, predicate))
        expected_rows = sorted(off.rows, key=canonical_sort_key)
        for workers in WORKERS:
            result = parallel_ssjoin(
                rel, rel, predicate, workers=workers,
                implementation="encoded-prefix", backend=BACKEND_SERIAL,
                verify_config=cfg,
            )
            assert list(result.pairs.rows) == expected_rows, f"workers={workers}"


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize(
    "family,relation_fn,predicate", FAMILIES, ids=[f[0] for f in FAMILIES]
)
class TestFamiliesMatchBasic:
    def test_sequential_rows_match_basic_and_engine_off(
        self, family, relation_fn, predicate, width
    ):
        rel = relation_fn()
        expected = pairs_of(basic_ssjoin(rel, rel, predicate))
        off = encoded_prefix_ssjoin(
            rel, rel, predicate, verify_config=VerifyConfig.disabled()
        )
        on = encoded_prefix_ssjoin(rel, rel, predicate, verify_config=_config(width))
        assert pairs_of(on) == expected, f"width={width}"
        # Engine-on encoded-prefix rows are bit-identical to engine-off.
        assert sorted(on.rows, key=canonical_sort_key) == sorted(
            off.rows, key=canonical_sort_key
        )

    def test_workers_rows_and_counters_match_sequential(
        self, family, relation_fn, predicate, width, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", BACKEND_SERIAL)
        rel = relation_fn()
        cfg = _config(width)
        seq_metrics = ExecutionMetrics()
        seq = encoded_prefix_ssjoin(
            rel, rel, predicate, verify_config=cfg, metrics=seq_metrics
        )
        expected_rows = sorted(seq.rows, key=canonical_sort_key)
        for workers in WORKERS:
            m = ExecutionMetrics()
            result = parallel_ssjoin(
                rel,
                rel,
                predicate,
                workers=workers,
                implementation="encoded-prefix",
                metrics=m,
                backend=BACKEND_SERIAL,
                verify_config=cfg,
            )
            assert list(result.pairs.rows) == expected_rows, (
                f"workers={workers} width={width}"
            )
            # Shard-local pruning sums to the sequential counters exactly.
            if workers > 1:
                assert m.verify_stats() == seq_metrics.verify_stats(), (
                    f"workers={workers} width={width}"
                )


class TestRandomRelations:
    @given(prepared_relations("r"), prepared_relations("s"), predicates())
    @settings(max_examples=60, deadline=None)
    def test_encoded_plans_match_oracle_under_hostile_width(
        self, left, right, predicate
    ):
        expected = oracle(left, right, predicate)
        for width in (0, 8, None):
            got = encoded_prefix_ssjoin(
                left, right, predicate, verify_config=_config(width)
            )
            assert pairs_of(got) == expected, f"width={width}"


# -- mirrored ≡ directed ≡ brute force on generated self-joins ------------------

#: Dyadic weights spanning 2**-20 .. 2**20: every sum over a group is
#: exact in any order, so the three referees agree bit for bit even at
#: the thresholds' boundaries.  (WeightedSet rejects 0.0; 2**-20 is the
#: stand-in for a zero weight.)
_DYADIC = TableWeights(
    {"heavy": 0.5, "tiny": 2.0**-20, "huge": 2.0**20,
     "a": 1.0, "b": 0.25, "c": 2.0, "d": 4.0}
)
_TOKENS = ("tiny", "huge", "a", "b", "c", "d")


@st.composite
def self_join_relations(draw):
    """Up to eight groups over seven tokens: empty groups, repeated
    tokens (ordinal-encoded into distinct elements), near-zero and huge
    weights, optionally one heavy-hitter token in every group."""
    heavy = draw(st.booleans())
    values = []
    for i in range(draw(st.integers(min_value=0, max_value=8))):
        tokens = draw(st.lists(st.sampled_from(_TOKENS), max_size=6))
        values.append(f"g{i}:" + " ".join(["heavy"] * heavy + tokens))
    return PreparedRelation.from_strings(
        values, lambda s: s.partition(":")[2].split(), weights=_DYADIC, name="self"
    )


@st.composite
def boundary_predicates(draw):
    """Every family of :func:`predicates`, with thresholds that land
    exactly on attainable overlaps: fraction 1.0 is β = 0 in Lemma 1 (the
    prefix shrinks to one element) and dyadic α equal set weights."""
    if draw(st.booleans()):
        return draw(predicates())
    kind = draw(st.sampled_from(["absolute", "two", "max", "one_left"]))
    if kind == "absolute":
        return OverlapPredicate.absolute(draw(st.sampled_from([0.25, 0.5, 1.0, 2.0**20])))
    fraction = draw(st.sampled_from([1.0, 0.5, 0.25]))
    if kind == "two":
        return OverlapPredicate.two_sided(fraction)
    if kind == "max":
        return OverlapPredicate.max_norm(fraction, draw(st.sampled_from([0.0, -0.5])))
    return OverlapPredicate.one_sided(fraction, side="left")


class TestMirroredDifferential:
    @given(self_join_relations(), boundary_predicates())
    @settings(max_examples=120, deadline=None)
    def test_rows_and_order_match_the_directed_referee_and_the_oracle(
        self, rel, predicate
    ):
        off = encoded_prefix_ssjoin(
            rel, rel, predicate, verify_config=VerifyConfig.disabled()
        )
        assert pairs_of(off) == oracle(rel, rel, predicate)
        for width in WIDTHS:
            on = encoded_prefix_ssjoin(rel, rel, predicate, verify_config=_config(width))
            # Same rows, same order, bit-identical overlaps.
            assert list(on.rows) == list(off.rows), f"width={width}"

    @given(self_join_relations(), boundary_predicates())
    @settings(max_examples=60, deadline=None)
    def test_shards_add_up_to_the_sequential_run(self, rel, predicate):
        seq_metrics = ExecutionMetrics()
        seq = encoded_prefix_ssjoin(rel, rel, predicate, metrics=seq_metrics)
        expected_rows = sorted(seq.rows, key=canonical_sort_key)
        for workers in WORKERS:
            m = ExecutionMetrics()
            result = parallel_ssjoin(
                rel, rel, predicate, workers=workers,
                implementation="encoded-prefix", metrics=m, backend=BACKEND_SERIAL,
            )
            assert list(result.pairs.rows) == expected_rows, f"workers={workers}"
            assert m.verify_stats() == seq_metrics.verify_stats(), f"workers={workers}"
            assert m.candidate_pairs == seq_metrics.candidate_pairs
            assert m.equijoin_rows == seq_metrics.equijoin_rows


# -- failure-path corpus: degenerate groups, extreme weights, β = 0 ------------

_EXTREME_TOKENS = ("heavy", "a", "b", "c", "d", "e")
_EXTREME_WEIGHTS = st.one_of(
    st.sampled_from([1e-6, 1e6, 0.1, 1.0]),
    st.floats(min_value=1e-6, max_value=1e6),
)


@st.composite
def extreme_relations(draw):
    """Up to eight groups: empty ones, single-token ones (the heavy token
    or another), and larger sets that all hold the heavy token.  Token
    weights run from 1e-6 to 1e6 — element global, as the prefix filter
    requires, and mostly not dyadic, so the order of a sum shows in its
    bits."""
    table = TableWeights({t: draw(_EXTREME_WEIGHTS) for t in _EXTREME_TOKENS})
    values = []
    for i in range(draw(st.integers(min_value=0, max_value=8))):
        shape = draw(st.sampled_from(["empty", "heavy only", "one token", "any"]))
        if shape == "empty":
            tokens = []
        elif shape == "heavy only":
            tokens = ["heavy"]
        elif shape == "one token":
            tokens = [draw(st.sampled_from(_EXTREME_TOKENS[1:]))]
        else:
            tokens = ["heavy"] + draw(st.lists(st.sampled_from(_EXTREME_TOKENS), max_size=6))
        values.append(f"g{i}:" + " ".join(tokens))
    return PreparedRelation.from_strings(
        values, lambda s: s.partition(":")[2].split(), weights=table, name="extreme"
    )


@st.composite
def beta_zero_predicates(draw, rel):
    """Fraction 1.0 — Jaccard θ = 1.0 reduces to ``two_sided(1.0)`` — puts
    Lemma 1's β at 0 for every group; an absolute α equal to one group's
    weight puts it at 0 for that group.  The general families ride along."""
    kind = draw(st.sampled_from(["two", "left", "right", "max", "absolute", "any"]))
    if kind == "two":
        return OverlapPredicate.two_sided(1.0)
    if kind == "left":
        return OverlapPredicate.one_sided(1.0, side="left")
    if kind == "right":
        return OverlapPredicate.one_sided(1.0, side="right")
    if kind == "max":
        return OverlapPredicate.max_norm(1.0, 0.0)
    totals = [rel.norms[a] for a, w in rel.groups.items() if len(w)]
    if kind == "absolute" and totals:
        return OverlapPredicate.absolute(draw(st.sampled_from(totals)))
    return draw(predicates())


def _bits(rows):
    return [repr(tuple(r)) for r in rows]


class TestFailurePathCorpus:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_order_and_bits_match_the_reference_path(self, data):
        rel = data.draw(extreme_relations())
        predicate = data.draw(beta_zero_predicates(rel))
        off = encoded_prefix_ssjoin(
            rel, rel, predicate, verify_config=VerifyConfig.disabled()
        )
        assert pairs_of(off) == pairs_of(basic_ssjoin(rel, rel, predicate))
        for width in (None, 8):
            on = encoded_prefix_ssjoin(rel, rel, predicate, verify_config=_config(width))
            assert _bits(on.rows) == _bits(off.rows), f"width={width}"
        sharded = parallel_ssjoin(
            rel, rel, predicate, workers=2,
            implementation="encoded-prefix", backend=BACKEND_SERIAL,
        )
        assert _bits(sharded.pairs.rows) == _bits(
            sorted(off.rows, key=canonical_sort_key)
        )
