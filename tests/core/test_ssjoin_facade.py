"""Unit tests for the SSJoin facade: execute, explain, results, errors."""

import pytest

from repro.core.metrics import ExecutionMetrics
from repro.core.optimizer import IMPLEMENTATIONS
from repro.core.physical import execute_physical
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.core.ssjoin import SSJoin, ssjoin
from repro.errors import PlanError
from repro.tokenize.words import words


#: How every entry point ends its unknown-implementation message.
EXPECTED_NAMES = "expected one of " + ", ".join(IMPLEMENTATIONS) + " or auto"


@pytest.fixture
def operands():
    r = PreparedRelation.from_strings(["a b c", "x y"], words, name="R")
    s = PreparedRelation.from_strings(["a b c d", "p q"], words, name="S")
    return r, s


class TestExecute:
    def test_named_implementations(self, operands):
        r, s = operands
        pred = OverlapPredicate.absolute(2.0)
        results = {
            impl: SSJoin(r, s, pred).execute(impl).pair_set()
            for impl in ("basic", "prefix", "inline")
        }
        assert results["basic"] == results["prefix"] == results["inline"]
        assert results["basic"] == {("a b c", "a b c d")}

    def test_auto_records_estimate(self, operands):
        r, s = operands
        res = SSJoin(r, s, OverlapPredicate.absolute(2.0)).execute("auto")
        assert res.cost_estimate is not None
        assert res.implementation in ("basic", "prefix", "inline", "encoded-prefix")

    def test_unknown_implementation(self, operands):
        r, s = operands
        with pytest.raises(PlanError):
            SSJoin(r, s, OverlapPredicate.absolute(1.0)).execute("quantum")

    def test_removed_plan_name_is_rejected_with_the_stated_list(self, operands):
        r, s = operands
        with pytest.raises(PlanError) as exc:
            SSJoin(r, s, OverlapPredicate.absolute(1.0)).execute("encoded-probe")
        assert str(exc.value).endswith(EXPECTED_NAMES)

    def test_execute_physical_rejects_unknown_name_with_the_stated_list(
        self, operands
    ):
        r, s = operands
        with pytest.raises(PlanError) as exc:
            execute_physical(r, s, OverlapPredicate.absolute(1.0), implementation="nope")
        assert str(exc.value).endswith(EXPECTED_NAMES)

    def test_external_metrics_accumulated(self, operands):
        r, s = operands
        m = ExecutionMetrics()
        SSJoin(r, s, OverlapPredicate.absolute(1.0)).execute("basic", metrics=m)
        assert m.output_pairs >= 1
        assert m.implementation == "basic"

    def test_functional_shorthand(self, operands):
        r, s = operands
        res = ssjoin(r, s, OverlapPredicate.absolute(2.0), implementation="inline")
        assert res.implementation == "inline"
        assert len(res) == 1


class TestResult:
    def test_pair_tuples_and_set(self, operands):
        r, s = operands
        res = ssjoin(r, s, OverlapPredicate.absolute(2.0), implementation="basic")
        assert res.pair_tuples() == [("a b c", "a b c d")]
        assert res.pair_set() == {("a b c", "a b c d")}

    def test_result_schema(self, operands):
        r, s = operands
        res = ssjoin(r, s, OverlapPredicate.absolute(1.0), implementation="basic")
        assert res.pairs.column_names == ("a_r", "a_s", "overlap", "norm_r", "norm_s")


class TestExplain:
    def test_explain_each_shape(self, operands):
        r, s = operands
        op = SSJoin(r, s, OverlapPredicate.two_sided(0.8))
        assert "HashJoin(R.b = S.b)" in op.explain("basic")
        assert "PrefixFilter" in op.explain("prefix")
        assert "encoded_overlap" in op.explain("inline")

    def test_explain_auto_mentions_cost(self, operands):
        r, s = operands
        text = SSJoin(r, s, OverlapPredicate.two_sided(0.8)).explain("auto")
        assert "cost model" in text

    def test_explain_unknown(self, operands):
        r, s = operands
        with pytest.raises(PlanError):
            SSJoin(r, s, OverlapPredicate.absolute(1.0)).explain("bogus")

    def test_ordering_lazy_and_cached(self, operands):
        r, s = operands
        op = SSJoin(r, s, OverlapPredicate.absolute(1.0))
        assert op.ordering is op.ordering


class TestEmptyInputs:
    def test_empty_left(self):
        r = PreparedRelation.from_sets({})
        s = PreparedRelation.from_strings(["a"], words)
        for impl in ("basic", "prefix", "inline"):
            assert len(ssjoin(r, s, OverlapPredicate.absolute(1.0), impl)) == 0

    def test_both_empty(self):
        r = PreparedRelation.from_sets({})
        for impl in ("basic", "prefix", "inline"):
            assert len(ssjoin(r, r, OverlapPredicate.absolute(1.0), impl)) == 0
