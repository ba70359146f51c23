"""Tests for GROUP BY CUBE statements."""

import pytest

from repro.errors import ParseError
from repro.relational.aggregates import AggregateSpec, count_star
from repro.relational.operators import group_by
from repro.core.cube import ALL, grand_total_expression
from repro.cube import compile_lattice, execute_per_cuboid, run_centralized
from repro.sql.compiler import compile_query
from repro.sql.parser import parse

SQL = ("SELECT RouterId, DestPort, COUNT(*) AS n, "
       "SUM(NumBytes) AS total FROM Flow "
       "GROUP BY CUBE (RouterId, DestPort)")


def lattice_plan(source, detail_schema):
    return compile_lattice(parse(source), detail_schema)


class TestParsing:
    def test_cube_flag(self):
        statement = parse(SQL)
        assert statement.cube
        assert statement.group_attrs == ("RouterId", "DestPort")

    def test_plain_group_by_not_cube(self):
        statement = parse("SELECT a, COUNT(*) AS n FROM t GROUP BY a")
        assert not statement.cube


class TestCompilation:
    def test_granularity_count(self, small_flows):
        compiled = lattice_plan(SQL, small_flows.schema)
        assert len(compiled.requested) == 4  # (a,b), (a), (b), ()

    def test_compile_query_redirects(self, small_flows):
        with pytest.raises(ParseError, match="compile_lattice"):
            compile_query(SQL, small_flows.schema)

    @pytest.mark.parametrize("clause", [
        " WHERE NumBytes > 0",
        " THEN COMPUTE COUNT(*) AS m",
        " HAVING n > 1",
        " ORDER BY n",
        " LIMIT 5",
    ])
    def test_unsupported_clauses_rejected(self, small_flows, clause):
        if "WHERE NumBytes" in clause:
            sql = SQL.replace(" GROUP BY", clause + " GROUP BY")
        else:
            sql = SQL + clause
        with pytest.raises(ParseError, match="CUBE"):
            lattice_plan(sql, small_flows.schema)

    def test_unknown_attr_rejected(self, small_flows):
        with pytest.raises(ParseError, match="not in the detail"):
            lattice_plan("SELECT Bogus, COUNT(*) AS n FROM Flow "
                         "GROUP BY CUBE (Bogus)", small_flows.schema)


class TestGrandTotal:
    def test_distributable_grand_total(self, small_flows):
        expression = grand_total_expression(
            [count_star("n"), AggregateSpec("sum", "NumBytes", "s")])
        result = expression.evaluate_centralized(small_flows)
        assert result.num_rows == 1
        assert result.to_dicts()[0]["n"] == small_flows.num_rows

    def test_grand_total_distributed(self, small_flows, flow_warehouse):
        from repro.distributed import NO_OPTIMIZATIONS
        expression = grand_total_expression([count_star("n")])
        result = flow_warehouse.execute(expression, NO_OPTIMIZATIONS)
        assert result.relation.to_dicts()[0]["n"] == small_flows.num_rows


class TestExecution:
    def test_centralized_matches_core_cube(self, small_flows):
        """Every cuboid of the stitched cube equals a plain GROUP BY."""
        compiled = lattice_plan(SQL, small_flows.schema)
        result = run_centralized(compiled, small_flows).to_dicts()
        aggregates = list(compiled.aggregates)
        for subset in compiled.requested:
            rows = [row for row in result
                    if all((row[attr] == ALL) == (attr not in subset)
                           for attr in compiled.attrs)]
            reference = group_by(small_flows, list(subset), aggregates)
            assert len(rows) == reference.num_rows, subset
            expected = {tuple(str(row[attr]) for attr in subset):
                        (row["n"], row["total"])
                        for row in reference.to_dicts()}
            got = {tuple(row[attr] for attr in subset):
                   (row["n"], row["total"]) for row in rows}
            assert got == expected, subset

    def test_distributed_matches(self, small_flows, flow_warehouse):
        from repro.distributed import ALL_OPTIMIZATIONS
        compiled = lattice_plan(SQL, small_flows.schema)
        execution = execute_per_cuboid(flow_warehouse, compiled,
                                       ALL_OPTIMIZATIONS)
        assert execution.relation.multiset_equals(
            run_centralized(compiled, small_flows))
        assert len(execution.runs) == 4  # 3 granularities + grand total

    def test_all_marker_rows_present(self, small_flows):
        compiled = lattice_plan(SQL, small_flows.schema)
        result = run_centralized(compiled, small_flows)
        rows = {(row["RouterId"], row["DestPort"]): row
                for row in result.to_dicts()}
        assert (ALL, ALL) in rows
        assert rows[(ALL, ALL)]["n"] == small_flows.num_rows


class TestWarehouseDispatch:
    def test_sql_cube_through_facade(self, small_flows, flow_warehouse):
        from repro.warehouse import Warehouse
        warehouse = Warehouse(flow_warehouse)
        result = warehouse.sql(SQL)
        reference = run_centralized(
            lattice_plan(SQL, small_flows.schema), small_flows)
        assert result.relation.multiset_equals(reference)
        # The lattice runs one scatter for the finest grouping and
        # derives the coarser cuboids coordinator-side (Theorem 1),
        # instead of one distributed round per granularity.
        assert result.metrics.num_synchronizations <= 2
        assert result.metrics.cuboids_total == 4
        assert result.metrics.cuboids_derived >= 2
