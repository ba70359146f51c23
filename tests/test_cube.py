"""Tests for cube/rollup granularities built on GMDJ expressions.

The centralized cube is :func:`repro.cube.run_centralized` over a
:class:`~repro.cube.CubeLatticePlan`; the granularities come from
:func:`~repro.cube.cube_sets` / :func:`~repro.cube.rollup_sets`.
"""

import pytest

from repro.errors import QueryError
from repro.relational.aggregates import AggregateSpec, count_star
from repro.relational.operators import group_by
from repro.relational.relation import Relation
from repro.core.cube import ALL, groupby_expression
from repro.cube import (
    CubeLatticePlan, cube_sets, execute_lattice, rollup_sets,
    run_centralized)
from repro.distributed.engine import SkallaEngine
from repro.distributed.partition import partition_round_robin
from repro.distributed.plan import NO_OPTIMIZATIONS


@pytest.fixture()
def sales():
    return Relation.from_dicts([
        {"region": "east", "product": "a", "amount": 10.0},
        {"region": "east", "product": "b", "amount": 20.0},
        {"region": "west", "product": "a", "amount": 30.0},
        {"region": "west", "product": "a", "amount": 40.0},
    ])


AGGS = [count_star("n"), AggregateSpec("sum", "amount", "total")]
DIMS = ("region", "product")


def cube_plan():
    return CubeLatticePlan(attrs=DIMS, aggregates=tuple(AGGS),
                           requested=cube_sets(DIMS))


def rollup_plan():
    return CubeLatticePlan(attrs=DIMS, aggregates=tuple(AGGS),
                           requested=rollup_sets(DIMS), construct="ROLLUP")


class TestGroupbyExpression:
    def test_matches_sql_group_by(self, sales):
        expr = groupby_expression(["region"], AGGS)
        via_gmdj = expr.evaluate_centralized(sales)
        via_groupby = group_by(sales, ["region"], AGGS)
        assert via_gmdj.multiset_equals(via_groupby)

    def test_requires_attrs(self):
        with pytest.raises(QueryError):
            groupby_expression([], AGGS)


class TestCube:
    def test_granularity_count(self):
        assert len(cube_sets(["a", "b", "c"])) == 8  # 2^3, () included

    def test_cube_values(self, sales):
        result = run_centralized(cube_plan(), sales)
        rows = {(row["region"], row["product"]): row
                for row in result.to_dicts()}
        assert rows[("east", "a")]["total"] == pytest.approx(10.0)
        assert rows[("east", ALL)]["total"] == pytest.approx(30.0)
        assert rows[(ALL, "a")]["total"] == pytest.approx(80.0)
        assert rows[(ALL, ALL)]["total"] == pytest.approx(100.0)
        assert rows[(ALL, ALL)]["n"] == 4

    def test_cube_row_count(self, sales):
        result = run_centralized(cube_plan(), sales)
        # finest: 3 groups; by region: 2; by product: 2; grand total: 1
        assert result.num_rows == 8

    def test_every_granularity_is_distributable(self, sales):
        plan = cube_plan()
        for subset in plan.requested:
            expr = plan.source_expression(subset)
            assert expr.is_decomposable()
            expr.validate(sales.schema)


class TestRollup:
    def test_prefixes_only(self):
        assert rollup_sets(["a", "b", "c"]) == (
            ("a", "b", "c"), ("a", "b"), ("a",), ())

    def test_rollup_values(self, sales):
        result = run_centralized(rollup_plan(), sales)
        rows = {(row["region"], row["product"]): row["total"]
                for row in result.to_dicts()}
        assert rows[("west", "a")] == pytest.approx(70.0)
        assert rows[("west", ALL)] == pytest.approx(70.0)
        assert rows[(ALL, ALL)] == pytest.approx(100.0)
        assert (ALL, "a") not in rows  # not a rollup granularity


class TestEmptyInput:
    @pytest.mark.parametrize("make_plan", [cube_plan, rollup_plan],
                             ids=["cube", "rollup"])
    def test_only_the_grand_total_row(self, sales, make_plan):
        """SQL: CUBE/ROLLUP over no rows yields one grand-total row."""
        plan = make_plan()
        empty = sales.head(0)
        centralized = run_centralized(plan, empty)
        assert centralized.to_dicts() == [
            {"region": ALL, "product": ALL, "n": 0, "total": 0.0}]
        engine = SkallaEngine(partition_round_robin(empty, 3))
        distributed = execute_lattice(engine, plan, NO_OPTIMIZATIONS)
        assert distributed.relation.multiset_equals(centralized)
