"""Unit tests for coordinator synchronization (Theorem 1 merging)."""

import math

import pytest

from repro.errors import PlanError
from repro.relational.aggregates import AggregateSpec, count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.core.expression_tree import GmdjExpression, ProjectionBase
from repro.core.gmdj import Gmdj
from repro.core.evaluator import STATES, evaluate_gmdj
from repro.distributed.coordinator import Coordinator, merge_states
from repro.distributed.partition import partition_round_robin
from repro.distributed.plan import LocalStep
from repro.distributed.site import SkallaSite


def make_expression():
    gmdj = Gmdj.single([count_star("n"), AggregateSpec("avg", "v", "m")],
                       r.g == b.g)
    return GmdjExpression(ProjectionBase(("g",)), (gmdj,), ("g",))


@pytest.fixture()
def detail_schema():
    return Relation.from_dicts([{"g": 1, "v": 1.0}]).schema


@pytest.fixture()
def coordinator(detail_schema):
    return Coordinator(make_expression(), detail_schema)


def states(rows):
    return Relation.from_dicts(rows)


class TestBaseSync:
    def test_distinct_union(self, coordinator):
        first = Relation.from_dicts([{"g": 1}, {"g": 2}])
        second = Relation.from_dicts([{"g": 2}, {"g": 3}])
        merged, seconds = coordinator.synchronize_base([first, second])
        assert sorted(merged.column("g").tolist()) == [1, 2, 3]
        assert seconds >= 0.0

    def test_empty_fragments_rejected(self, coordinator):
        with pytest.raises(PlanError):
            coordinator.synchronize_base([])

    def test_final_result_before_execution(self, coordinator):
        with pytest.raises(PlanError, match="no result"):
            coordinator.final_result()


class TestStepSync:
    def test_super_aggregation(self, coordinator):
        coordinator.synchronize_base([Relation.from_dicts(
            [{"g": 1}, {"g": 2}])])
        step = LocalStep((make_expression().rounds[0],))
        h1 = states([{"g": 1, "n__count": 2, "m__sum": 10.0, "m__count": 2}])
        h2 = states([{"g": 1, "n__count": 1, "m__sum": 20.0, "m__count": 1},
                     {"g": 2, "n__count": 4, "m__sum": 4.0, "m__count": 4}])
        merged, __ = coordinator.synchronize_step(step, [h1, h2])
        rows = {row["g"]: row for row in merged.to_dicts()}
        assert rows[1]["n"] == 3
        assert rows[1]["m"] == pytest.approx(10.0)  # (10+20)/(2+1)
        assert rows[2]["m"] == pytest.approx(1.0)

    def test_group_with_no_contributions(self, coordinator):
        coordinator.synchronize_base([Relation.from_dicts(
            [{"g": 1}, {"g": 5}])])
        step = LocalStep((make_expression().rounds[0],))
        h1 = states([{"g": 1, "n__count": 2, "m__sum": 6.0, "m__count": 2}])
        merged, __ = coordinator.synchronize_step(step, [h1])
        rows = {row["g"]: row for row in merged.to_dicts()}
        assert rows[5]["n"] == 0
        assert math.isnan(rows[5]["m"])

    def test_include_base_reconstructs_base(self, detail_schema):
        coordinator = Coordinator(make_expression(), detail_schema)
        step = LocalStep((make_expression().rounds[0],), include_base=True)
        h1 = states([{"g": 1, "n__count": 2, "m__sum": 6.0, "m__count": 2}])
        h2 = states([{"g": 2, "n__count": 1, "m__sum": 9.0, "m__count": 1},
                     {"g": 1, "n__count": 1, "m__sum": 0.0, "m__count": 1}])
        merged, __ = coordinator.synchronize_step(step, [h1, h2])
        rows = {row["g"]: row for row in merged.to_dicts()}
        assert set(rows) == {1, 2}
        assert rows[1]["n"] == 3
        assert rows[1]["m"] == pytest.approx(2.0)

    def test_step_before_base_rejected(self, coordinator):
        step = LocalStep((make_expression().rounds[0],))
        with pytest.raises(PlanError, match="base round"):
            coordinator.synchronize_step(step, [])

    def test_empty_sub_results_include_base(self, detail_schema):
        coordinator = Coordinator(make_expression(), detail_schema)
        step = LocalStep((make_expression().rounds[0],), include_base=True)
        merged, __ = coordinator.synchronize_step(step, [])
        assert merged.num_rows == 0
        assert merged.schema.names == ("g", "n", "m")


def _merges_by_key():
    detail_schema = Relation.from_dicts([{"g": 1, "v": 1.0}]).schema
    inputs = [
        states([{"g": 1, "n__count": 2, "m__sum": 10.0, "m__count": 2}]),
        states([{"g": 1, "n__count": 3, "m__sum": 5.0, "m__count": 3},
                {"g": 2, "n__count": 1, "m__sum": 7.0, "m__count": 1}])]
    expected = states([
        {"g": 1, "n__count": 5, "m__sum": 15.0, "m__count": 5},
        {"g": 2, "n__count": 1, "m__sum": 7.0, "m__count": 1}])
    return (inputs, ["g"], make_expression().rounds[0].all_aggregates,
            detail_schema, expected)


def _empty_input():
    empty = states([{"g": 1, "n__count": 1}]).head(0)
    detail_schema = Relation.from_dicts([{"g": 1}]).schema
    return [empty], ["g"], [count_star("n")], detail_schema, empty


def _carried_first_row():
    # include_base sub-results carry base attributes next to the key
    detail_schema = Relation.from_dicts([{"g": 1}]).schema
    inputs = [states([{"g": 2, "name": "b", "n__count": 1},
                      {"g": 1, "name": "a", "n__count": 2}]),
              states([{"g": 1, "name": "z", "n__count": 3},
                      {"g": 3, "name": "c", "n__count": 0}])]
    expected = states([{"g": 2, "name": "b", "n__count": 1},
                       {"g": 1, "name": "a", "n__count": 5},
                       {"g": 3, "name": "c", "n__count": 0}])
    return inputs, ["g"], [count_star("n")], detail_schema, expected


def _grand_total_over_empty():
    detail_schema = Relation.from_dicts([{"g": 1, "v": 1.0}]).schema
    empty = states([{"n__count": 1, "m__sum": 1.0, "m__count": 1}]).head(0)
    expected = states([{"n__count": 0, "m__sum": 0.0, "m__count": 0}])
    return ([empty], [], make_expression().rounds[0].all_aggregates,
            detail_schema, expected)


def _sketch_trailing_nul():
    detail = Relation.from_dicts([
        {"g": i % 3, "v": float(i % 7)} for i in range(60)])
    gmdj = Gmdj.single([AggregateSpec("approx_count_distinct", "v", "d")],
                       r.g == b.g)
    base = detail.distinct(["g"])
    inputs = [evaluate_gmdj(gmdj, base, part, output=STATES)
              for part in partition_round_robin(detail, 4).values()]
    # HLL union is exact: the merge equals the sketch of all rows
    expected = evaluate_gmdj(gmdj, base, detail, output=STATES)
    assert all(state.endswith(b"\x00")
               for state in expected.column("d__hll12"))
    return inputs, ["g"], gmdj.all_aggregates, detail.schema, expected


def _nan_keys():
    detail_schema = Relation.from_dicts([{"g": 1.0}]).schema
    inputs = [states([{"g": math.nan, "n__count": 1},
                      {"g": 1.0, "n__count": 2}]),
              states([{"g": math.nan, "n__count": 4}])]
    expected = states([{"g": math.nan, "n__count": 5},
                       {"g": 1.0, "n__count": 2}])
    return inputs, ["g"], [count_star("n")], detail_schema, expected


MERGE_CASES = {
    "merges_by_key": _merges_by_key,
    "empty_input": _empty_input,
    "carried_first_row": _carried_first_row,
    "grand_total_over_empty": _grand_total_over_empty,
    "sketch_trailing_nul": _sketch_trailing_nul,
    "nan_keys": _nan_keys,
}


def assert_identical(actual: Relation, expected: Relation) -> None:
    """Same schema, same row order, bit-identical column values."""
    assert actual.schema == expected.schema
    for name in expected.schema.names:
        got, want = actual.column(name), expected.column(name)
        assert got.dtype == want.dtype, name
        if want.dtype == object:
            assert list(got) == list(want), name
        else:
            assert got.tobytes() == want.tobytes(), name


class TestMergeStates:
    """The one Theorem-1 merge, keyed and onto a structure X."""

    @pytest.mark.parametrize("case", list(MERGE_CASES))
    def test_merge_states(self, case):
        inputs, key, aggregates, detail_schema, expected = \
            MERGE_CASES[case]()
        merged = merge_states(inputs, key, aggregates, detail_schema)
        assert_identical(merged, expected)
        if key:
            # onto X = the keyed result's own keys: both modes agree
            state_names = [field.name for spec in aggregates
                           for field in spec.state_fields(detail_schema)]
            placed = merge_states(inputs, key, aggregates, detail_schema,
                                  onto=merged.project(key))
            assert_identical(placed,
                             merged.project([*key, *state_names]))


class TestSiteCoordinatorRoundTrip:
    def test_matches_centralized(self):
        detail = Relation.from_dicts([
            {"g": i % 4, "v": float(i)} for i in range(40)])
        expression = make_expression()
        reference = expression.evaluate_centralized(detail)

        fragments = [detail.filter(detail.column("g") % 2 == parity)
                     for parity in (0, 1)]
        sites = [SkallaSite(i, fragment)
                 for i, fragment in enumerate(fragments)]
        coordinator = Coordinator(expression, detail.schema)
        bases = []
        for site in sites:
            base, __ = site.evaluate_base(expression.base)
            bases.append(base)
        merged_base, __ = coordinator.synchronize_base(bases)
        step = LocalStep((expression.rounds[0],))
        subs = [site.execute_step(step, merged_base, ["g"], None, False)[0]
                for site in sites]
        result, __ = coordinator.synchronize_step(step, subs)
        assert result.multiset_equals(reference)
