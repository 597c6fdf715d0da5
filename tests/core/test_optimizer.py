"""Unit tests for the cost model and implementation chooser."""

import pytest

from repro.core.optimizer import CostEstimate, CostModel, choose_implementation
from repro.core.predicate import MaxNormBound, OverlapPredicate
from repro.core.prepared import NORM_LENGTH, NORM_WEIGHT, PreparedRelation
from repro.core.ssjoin import ssjoin
from repro.data.customers import CustomerConfig, generate_addresses
from repro.tokenize.qgrams import qgrams
from repro.tokenize.words import words

#: What ``auto`` may choose; ``probe`` is runnable by name but unpriced.
PRICED = {"basic", "prefix", "inline", "encoded-prefix"}


def skewed_relation(n: int = 60) -> PreparedRelation:
    """Every group shares the heavy token 'the'; tails are rare."""
    values = [f"the token{i} extra{i}" for i in range(n)]
    return PreparedRelation.from_strings(values, words)


class TestEstimates:
    def test_exactly_the_choosable_plans_are_costed(self):
        rel = skewed_relation()
        estimates = CostModel().estimate_all(rel, rel, OverlapPredicate.two_sided(0.9))
        assert {e.implementation for e in estimates} == PRICED
        assert all(e.cost > 0 for e in estimates)

    def test_sorted_cheapest_first(self):
        rel = skewed_relation()
        estimates = CostModel().estimate_all(rel, rel, OverlapPredicate.two_sided(0.9))
        costs = [e.cost for e in estimates]
        assert costs == sorted(costs)

    def test_basic_estimate_matches_histogram_join_size(self):
        rel = skewed_relation(20)
        estimates = CostModel().estimate_all(rel, rel, OverlapPredicate.two_sided(0.9))
        basic = next(e for e in estimates if e.implementation == "basic")
        # Self equi-join: 'the' occurs in all 20 groups -> >= 400 rows.
        assert basic.details["equijoin_rows"] >= 400

    def test_prefix_details_present(self):
        rel = skewed_relation(20)
        estimates = CostModel().estimate_all(rel, rel, OverlapPredicate.two_sided(0.9))
        prefix = next(e for e in estimates if e.implementation == "prefix")
        assert "prefix_rows" in prefix.details
        assert prefix.details["prefix_join_rows"] <= basic_join_rows(estimates)

    def test_repr(self):
        rel = skewed_relation(5)
        est = choose_implementation(rel, rel, OverlapPredicate.two_sided(0.9))
        assert est.implementation in repr(est)

    def test_repr_keeps_fractional_drivers(self):
        est = CostEstimate("encoded-prefix", 10.0, {"rows": 1200.0, "est_prune_fraction": 0.45})
        assert "est_prune_fraction=0.45" in repr(est)
        assert "rows=1200," in repr(est)


def basic_join_rows(estimates):
    return next(e for e in estimates if e.implementation == "basic").details[
        "equijoin_rows"
    ]


class TestChoice:
    def test_high_threshold_on_skew_prefers_prefix_family(self):
        """Under heavy skew and a tight predicate, the filtered plans must
        be costed below basic — the paper's Figure 12 regime."""
        rel = skewed_relation(80)
        est = choose_implementation(rel, rel, OverlapPredicate.two_sided(0.95))
        assert est.implementation in PRICED - {"basic"}

    @pytest.mark.parametrize(
        "tokenizer, norm, predicate",
        [
            # The q-gram count-filter shape of edit_similarity_join(0.85).
            (lambda s: qgrams(s, 3), NORM_LENGTH,
             OverlapPredicate([MaxNormBound(1.0 - 3 * (1.0 - 0.85), -2.0)])),
            (words, NORM_WEIGHT, OverlapPredicate.absolute(3.0)),
        ],
        ids=["qgram-edit-bound", "absolute-overlap-unit-weights"],
    )
    def test_shapes_once_routed_to_an_index_probe_pick_encoded_prefix(
        self, tokenizer, norm, predicate
    ):
        """On both shapes the model used to choose an index-probe plan that
        measured slower than ``encoded-prefix``."""
        values = generate_addresses(CustomerConfig(num_rows=200, seed=20060403))
        rel = PreparedRelation.from_strings(values, tokenizer, norm=norm)
        est = choose_implementation(rel, rel, predicate)
        assert est.implementation == "encoded-prefix"

    def test_chooser_returns_minimum(self):
        rel = skewed_relation(30)
        pred = OverlapPredicate.two_sided(0.9)
        model = CostModel()
        best = choose_implementation(rel, rel, pred, model=model)
        all_est = model.estimate_all(rel, rel, pred)
        assert best.cost == min(e.cost for e in all_est)

    def test_auto_execution_is_correct_whatever_it_picks(self):
        rel = skewed_relation(25)
        pred = OverlapPredicate.two_sided(0.9)
        auto = ssjoin(rel, rel, pred, implementation="auto")
        basic = ssjoin(rel, rel, pred, implementation="basic")
        assert auto.pair_set() == basic.pair_set()
        assert auto.cost_estimate is not None
