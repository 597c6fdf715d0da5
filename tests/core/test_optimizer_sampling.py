"""The optimizer's sampled prefix statistics and the shared token statistics.

Below ``SAMPLE_GROUPS`` groups per side the estimates are the exact
by-definition values; above it the work is bounded and the estimate stays
within a small q-error of them.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import optimizer
from repro.core.dictionary import TokenDictionary
from repro.core.optimizer import SAMPLE_GROUPS, CostEstimate, CostModel, choose_implementation
from repro.core.ordering import ElementOrdering, frequency_ordering, random_ordering
from repro.core.predicate import OVERLAP_EPSILON, OverlapPredicate
from repro.core.prefixes import prefix_elements
from repro.core.prepared import PreparedRelation
from repro.core.ssjoin import SSJoin
from repro.data.customers import CustomerConfig, generate_addresses
from repro.tokenize.sets import WeightedSet
from repro.tokenize.weights import IDFWeights
from repro.tokenize.words import words
from tests.core.test_implementations import oracle, predicates, prepared_relations


def by_definition(left, right, predicate, ordering=None):
    """The three row counts the estimates stand for, straight from
    ``prefix_elements``: an equi-join on ``b`` has ``Σ_t h_L(t)·h_R(t)`` rows."""
    ordering = ordering or frequency_ordering(left, right)

    def prefix_histogram(rel, bound_fn):
        return Counter(
            e
            for a, wset in rel.groups.items()
            for e in prefix_elements(
                wset, ordering, wset.norm - bound_fn(rel.norms[a]) + OVERLAP_EPSILON
            )
        )

    def join(h1, h2):
        return float(sum(n * h2[e] for e, n in h1.items()))

    hl = prefix_histogram(left, predicate.left_filter_threshold)
    hr = prefix_histogram(right, predicate.right_filter_threshold)
    return {
        "prefix_rows": float(sum(hl.values()) + sum(hr.values())),
        "prefix_join_rows": join(hl, hr),
        "equijoin_rows": join(
            Counter(left.element_frequencies()), Counter(right.element_frequencies())
        ),
    }


def details(estimates):
    merged = {}
    for e in estimates:
        merged.update(e.details)
    return merged


def uniform_relation(n, name="r"):
    """*n* groups of three unit-weight elements over a 97-token vocabulary."""
    return PreparedRelation.from_sets(
        {
            f"{name}{i}": WeightedSet({f"t{(i * k) % 97}": 1.0 for k in (1, 2, 3)})
            for i in range(n)
        },
        name=name,
    )


def address_relations(rows=6000, seed=11):
    values = generate_addresses(CustomerConfig(num_rows=rows, seed=seed))
    table = IDFWeights.fit([words(v) for v in values])

    def prepare(vs):
        return PreparedRelation.from_strings(vs, words, weights=table)

    return values, prepare


class TestExactBelowTheSampleSize:
    @given(
        prepared_relations("r"),
        prepared_relations("s"),
        predicates(),
        st.booleans(),
        st.sampled_from([None, "random", "frequency"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_details_are_the_by_definition_counts(
        self, left, right, predicate, self_join, order
    ):
        if self_join:
            right = left
        ordering = {
            None: None,
            "random": random_ordering(5, left, right),
            "frequency": frequency_ordering(left, right),
        }[order]
        got = details(CostModel().estimate_all(left, right, predicate, ordering))
        want = by_definition(left, right, predicate, ordering)
        for name, value in want.items():
            assert got[name] == value, name  # floats bit-equal


class TestBoundedWork:
    def test_at_most_two_samples_of_groups_are_sorted(self):
        class CountingOrdering(ElementOrdering):
            calls = 0

            def key(self, element):
                self.calls += 1
                return super().key(element)

        rel = uniform_relation(6000)
        counting = CountingOrdering(frequency_ordering(rel).rank_table())
        CostModel().estimate_all(rel, rel, OverlapPredicate.two_sided(0.8), counting)
        assert 0 < counting.calls <= 2 * SAMPLE_GROUPS * 3


class TestAccuracyAboveTheSampleSize:
    @pytest.fixture(scope="class")
    def shapes(self):
        values, prepare = address_relations()
        whole = prepare(values)
        return {
            "self-join": (whole, whole),
            "equal-content": (whole, prepare(list(values))),
            "disjoint-halves": (prepare(values[:3000]), prepare(values[3000:])),
            "lookup": (prepare(values[::20]), whole),
        }

    @pytest.mark.parametrize(
        "shape", ["self-join", "equal-content", "disjoint-halves", "lookup"]
    )
    def test_q_error_and_ranking(self, shapes, shape, monkeypatch):
        left, right = shapes[shape]
        predicate = OverlapPredicate.two_sided(0.8)
        sampled = CostModel().estimate_all(left, right, predicate)
        monkeypatch.setattr(optimizer, "SAMPLE_GROUPS", 10**9)
        exact = CostModel().estimate_all(left, right, predicate)

        truth = by_definition(left, right, predicate)["prefix_join_rows"]
        assert details(exact)["prefix_join_rows"] == truth
        estimate = details(sampled)["prefix_join_rows"]
        assert max(estimate / truth, truth / estimate) <= 1.5
        assert [e.implementation for e in sampled] == [e.implementation for e in exact]


class TestDegenerateInputs:
    CASES = {
        "empty-left": lambda: (uniform_relation(0), uniform_relation(4, "s")),
        "empty-right": lambda: (uniform_relation(4), uniform_relation(0, "s")),
        "both-empty": lambda: (uniform_relation(0), uniform_relation(0, "s")),
        "one-group": lambda: (uniform_relation(1),) * 2,
        "exactly-the-sample": lambda: (uniform_relation(SAMPLE_GROUPS), uniform_relation(5, "s")),
        "one-past-the-sample": lambda: (
            uniform_relation(SAMPLE_GROUPS + 1),
            uniform_relation(5, "s"),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_auto_plans_and_returns_the_brute_force_pairs(self, case):
        left, right = self.CASES[case]()
        self.check(left, right, OverlapPredicate.two_sided(0.6))

    def test_negative_beta_for_every_group(self):
        rel = uniform_relation(8)
        predicate = OverlapPredicate.absolute(100.0)  # no set weighs 100
        estimates = CostModel().estimate_all(rel, rel, predicate)
        assert details(estimates)["prefix_rows"] == 0.0
        assert details(estimates)["prefix_join_rows"] == 0.0
        self.check(rel, rel, predicate)

    def test_both_empty_stays_basic_at_cost_zero(self):
        left, right = self.CASES["both-empty"]()
        estimate = choose_implementation(left, right, OverlapPredicate.two_sided(0.6))
        assert (estimate.implementation, estimate.cost) == ("basic", 0.0)

    @staticmethod
    def check(left, right, predicate):
        assert isinstance(choose_implementation(left, right, predicate), CostEstimate)
        result = SSJoin(left, right, predicate).execute("auto")
        assert result.pair_set() == oracle(left, right, predicate)


class TestTokenStatisticsOnce:
    @pytest.fixture
    def pair(self):
        p = PreparedRelation.from_strings(
            ["the cat", "the dog", "the fox", "rare token"], words, name="p"
        )
        q = PreparedRelation.from_strings(["the owl", "rare bird", "a cat"], words, name="q")
        return p, q

    @pytest.mark.parametrize("sides", ["one", "two"])
    def test_ordering_ranks_are_the_dictionary_ids(self, pair, sides):
        left, right = pair if sides == "two" else (pair[0], pair[0])
        dictionary = TokenDictionary.from_relations(left, right)
        ranks = frequency_ordering(left, right).rank_table()
        assert ranks == {e: dictionary.id_of(e) for e in ranks}
        assert len(ranks) == len(dictionary)

    def test_element_frequencies_are_stable_and_per_instance(self, pair):
        p, _ = pair
        first = dict(p.element_frequencies())
        assert p.element_frequencies() == first
        frequency_ordering(p, p)
        copy = PreparedRelation.from_sets(dict(p.groups), dict(p.norms), name=p.name)
        assert copy._frequency_ranks is None
        assert copy.element_frequencies() == first
        assert copy.element_frequencies() is not p.element_frequencies()
