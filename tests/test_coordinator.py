"""Unit tests for coordinator synchronization (Theorem 1 merging)."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.seeding import seeded

from repro.errors import PlanError
from repro.relational.aggregates import (
    AggregateSpec, count_star, primitive_empty)
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType
from repro.core.expression_tree import GmdjExpression, ProjectionBase
from repro.core.gmdj import Gmdj
from repro.core.evaluator import STATES, evaluate_gmdj
from repro.distributed.coordinator import Coordinator, merge_states
from repro.distributed.partition import partition_round_robin
from repro.distributed.plan import ROW_ID, LocalStep
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
        h1 = states([{ROW_ID: 0, "n__count": 2, "m__sum": 10.0,
                      "m__count": 2}])
        h2 = states([{ROW_ID: 0, "n__count": 1, "m__sum": 20.0,
                      "m__count": 1},
                     {ROW_ID: 1, "n__count": 4, "m__sum": 4.0,
                      "m__count": 4}])
        merged, __ = coordinator.synchronize_step(step, [h1, h2])
        rows = {row["g"]: row for row in merged.to_dicts()}
        assert rows[1]["n"] == 3
        assert rows[1]["m"] == pytest.approx(10.0)  # (10+20)/(2+1)
        assert rows[2]["m"] == pytest.approx(1.0)

    def test_group_with_no_contributions(self, coordinator):
        coordinator.synchronize_base([Relation.from_dicts(
            [{"g": 1}, {"g": 5}])])
        step = LocalStep((make_expression().rounds[0],))
        h1 = states([{ROW_ID: 0, "n__count": 2, "m__sum": 6.0,
                      "m__count": 2}])
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

    def test_empty_sub_results_onto_base(self, coordinator):
        coordinator.synchronize_base([Relation.from_dicts(
            [{"g": 1}, {"g": 5}])])
        step = LocalStep((make_expression().rounds[0],))
        merged, __ = coordinator.synchronize_step(step, [])
        assert list(merged.column("g")) == [1, 5]
        assert all(value == 0 for value in merged.column("n"))


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


def _var_m2():
    # Chan's m2 merge, on values whose means are exact in binary
    detail = Relation.from_dicts([
        {"g": 1, "v": 1.0}, {"g": 1, "v": 3.0}, {"g": 2, "v": 5.0},
        {"g": 1, "v": 2.0}, {"g": 1, "v": 6.0}, {"g": 2, "v": 7.0}])
    gmdj = Gmdj.single([AggregateSpec("var", "v", "s2"),
                        AggregateSpec("stddev", "v", "sd")], r.g == b.g)
    base = detail.distinct(["g"])
    halves = [detail.head(3), detail.filter(np.arange(6) >= 3)]
    inputs = [evaluate_gmdj(gmdj, base, half, output=STATES)
              for half in halves]
    expected = evaluate_gmdj(gmdj, base, detail, output=STATES)
    return inputs, ["g"], gmdj.all_aggregates, detail.schema, expected


MERGE_CASES = {
    "merges_by_key": _merges_by_key,
    "empty_input": _empty_input,
    "carried_first_row": _carried_first_row,
    "grand_total_over_empty": _grand_total_over_empty,
    "sketch_trailing_nul": _sketch_trailing_nul,
    "nan_keys": _nan_keys,
    "var_m2": _var_m2,
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


def _key_of(relation: Relation, row: int, key) -> tuple:
    """A hashable key tuple; NaN keys compare equal, as in grouping."""
    values = []
    for name in key:
        value = relation.column(name)[row]
        values.append("NaN" if isinstance(value, float) and math.isnan(value)
                      else value)
    return tuple(values)


def _state_fields(aggregates, detail_schema):
    return [field for spec in aggregates
            for field in spec.state_fields(detail_schema)]


def place_onto(keyed: Relation, key, onto: Relation, aggregates,
               detail_schema) -> Relation:
    """A keyed merge's states placed onto ``onto``'s rows by key.

    The reference the positional mode must reproduce: an ``onto`` row
    whose key no merged row has gets each primitive's empty state.
    """
    position = {_key_of(keyed, row, key): row
                for row in range(keyed.num_rows)}
    hits = [position.get(_key_of(onto, row, key))
            for row in range(onto.num_rows)]
    fields = _state_fields(aggregates, detail_schema)
    columns = {name: onto.column(name) for name in key}
    for field in fields:
        values = keyed.column(field.name)
        placed = np.empty(onto.num_rows, dtype=field.dtype.numpy_dtype)
        for row, hit in enumerate(hits):
            placed[row] = (primitive_empty(field.primitive) if hit is None
                           else values[hit])
        columns[field.name] = placed
    schema = Schema([*(onto.schema[name] for name in key),
                     *(Attribute(field.name, field.dtype)
                       for field in fields)])
    return Relation(schema, columns)


def with_row_ids(sub_result: Relation, key, onto: Relation, aggregates,
                 detail_schema) -> Relation:
    """``sub_result`` as a site shipped ``onto`` returns it: row ids."""
    position = {_key_of(onto, row, key): row for row in range(onto.num_rows)}
    ids = np.array([position[_key_of(sub_result, row, key)]
                    for row in range(sub_result.num_rows)], dtype=np.int64)
    fields = _state_fields(aggregates, detail_schema)
    schema = Schema([Attribute(ROW_ID, DataType.INT64),
                     *(sub_result.schema[field.name] for field in fields)])
    return Relation(schema, {ROW_ID: ids,
                             **{field.name: sub_result.column(field.name)
                                for field in fields}})


def structure_for(keyed: Relation, key) -> Relation:
    """An X over the merged keys: reversed, plus one row no site hit."""
    keys = keyed.project(key)
    values = keys.column(key[0])
    extra = (float(np.nanmax(values)) if len(values) else 0.0) + 1000.0
    unmatched = Relation(keys.schema, {
        key[0]: np.array([extra]).astype(values.dtype)})
    return Relation.concat([keys.take(np.arange(keys.num_rows)[::-1]),
                            unmatched])


class TestMergeStates:
    """The one Theorem-1 merge: keyed, and positional onto X."""

    @pytest.mark.parametrize("case", list(MERGE_CASES))
    def test_merge_states(self, case):
        inputs, key, aggregates, detail_schema, expected = \
            MERGE_CASES[case]()
        merged = merge_states(inputs, key, aggregates, detail_schema)
        assert_identical(merged, expected)

    @pytest.mark.parametrize(
        "case", [case for case in MERGE_CASES
                 if case != "grand_total_over_empty"])
    @pytest.mark.parametrize("order", ["in_order", "shuffled"])
    def test_positional_matches_keyed_then_placed(self, case, order):
        inputs, key, aggregates, detail_schema, expected = \
            MERGE_CASES[case]()
        if order == "shuffled":
            inputs = inputs[::-1]
        onto = structure_for(expected, key)
        positional = merge_states(
            [with_row_ids(relation, key, onto, aggregates, detail_schema)
             for relation in inputs],
            key, aggregates, detail_schema, onto=onto)
        keyed = merge_states(inputs, key, aggregates, detail_schema)
        assert_identical(positional, place_onto(keyed, key, onto, aggregates,
                                                detail_schema))


#: examples for the positional-vs-keyed property (CI raises it)
EXAMPLES = int(os.environ.get("REPRO_DIFFERENTIAL_EXAMPLES", "25"))

PROPERTY_SCHEMA = Schema.of(("g", DataType.INT64), ("v", DataType.FLOAT64))


class TestPositionalProperty:
    """Random sub-results in shuffled site order: the positional merge
    equals the keyed merge placed onto X, bit for bit."""

    @seeded
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_positional_agrees_with_keyed(self, data):
        rows = data.draw(st.lists(
            st.tuples(st.integers(0, 6),
                      st.floats(-1000, 1000, allow_nan=False, width=32)),
            min_size=1, max_size=40))
        detail = Relation.from_rows(PROPERTY_SCHEMA, rows)
        keys = data.draw(st.lists(st.integers(0, 8), unique=True,
                                  max_size=9))
        onto = Relation(PROPERTY_SCHEMA.project(["g"]),
                        {"g": np.array(keys, dtype=np.int64)})
        num_sites = data.draw(st.integers(1, 4))
        assignment = np.array(data.draw(st.lists(
            st.integers(0, num_sites - 1), min_size=detail.num_rows,
            max_size=detail.num_rows)))
        gmdj = Gmdj.single(
            [count_star("n"), AggregateSpec("sum", "v", "s"),
             AggregateSpec("min", "v", "lo"), AggregateSpec("max", "v", "hi"),
             AggregateSpec("var", "v", "s2"),
             AggregateSpec("approx_count_distinct", "v", "d")],
            r.g == b.g)
        step = LocalStep((gmdj,))
        reduce = data.draw(st.booleans())
        shipped = [SkallaSite(site, detail.filter(assignment == site))
                   .execute_step(step, onto, [ROW_ID, "g"], None, reduce)[0]
                   for site in range(num_sites)]
        order = data.draw(st.permutations(range(num_sites)))
        shipped = [shipped[site] for site in order]
        aggregates = gmdj.all_aggregates
        names = [field.name
                 for field in _state_fields(aggregates, detail.schema)]
        positional = merge_states(
            [relation.project([ROW_ID, *names]) for relation in shipped],
            ["g"], aggregates, detail.schema, onto=onto)
        keyed = merge_states(
            [relation.project(["g", *names]) for relation in shipped],
            ["g"], aggregates, detail.schema)
        assert_identical(positional, place_onto(keyed, ["g"], onto,
                                                aggregates, detail.schema))


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
        subs = [site.execute_step(step, merged_base, [ROW_ID], None,
                                  False)[0]
                for site in sites]
        result, __ = coordinator.synchronize_step(step, subs)
        assert result.multiset_equals(reference)
