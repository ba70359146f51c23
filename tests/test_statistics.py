"""Tests for statistics collection, sketched distinct counts and
group-count estimation."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.statistics import (
    ColumnStats, StatisticsError, collect_stats, estimate_group_count,
    merge_stats)
from repro.relational.types import DataType

#: Sketched distinct count of 50,000 customer names, printed by a child
#: interpreter so each run gets its own ``PYTHONHASHSEED``.
_SKETCHED_ESTIMATE = """
import numpy as np
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.statistics import collect_stats
from repro.relational.types import DataType
names = np.array([f"Customer#{i:09d}" for i in range(50_000)], dtype=object)
relation = Relation.from_columns(Schema.of(("name", DataType.STRING)),
                                 {"name": names})
stats = collect_stats(relation, use_sketches=True)
print(repr(stats.column("name").distinct))
"""


def sketched_distinct(values, precision=11):
    """``collect_stats``' HyperLogLog estimate for one column."""
    values = np.asarray(values)
    dtype = DataType.STRING if values.dtype == object else \
        DataType.FLOAT64 if values.dtype.kind == "f" else DataType.INT64
    relation = Relation.from_columns(Schema.of(("x", dtype)), {"x": values})
    stats = collect_stats(relation, use_sketches=True, precision=precision)
    assert not stats.column("x").exact
    return stats.column("x").distinct


class TestHyperLogLog:
    """The sketched distinct counts (the one HLL, repro.sketches)."""

    @pytest.mark.parametrize("true_count", [100, 5_000, 50_000])
    def test_estimate_within_tolerance(self, true_count):
        rng = np.random.default_rng(7)
        values = rng.permutation(true_count * 3)[:true_count]
        # duplicates too: cardinality must not change
        values = np.concatenate([values, values[: true_count // 2]])
        assert sketched_distinct(values) == pytest.approx(true_count,
                                                          rel=0.08)

    def test_small_range_linear_counting(self):
        assert sketched_distinct(np.arange(10)) == pytest.approx(10, abs=2)

    def test_empty_sketch(self):
        relation = Relation.from_columns(
            Schema.of(("x", DataType.INT64)),
            {"x": np.array([], dtype=np.int64)})
        stats = collect_stats(relation, use_sketches=True)
        assert stats.column("x").distinct == 0.0

    def test_strings(self):
        values = np.array([f"Customer#{i:09d}" for i in range(2_000)],
                          dtype=object)
        assert sketched_distinct(values) == pytest.approx(2_000, rel=0.08)

    def test_floats(self):
        values = np.linspace(0.0, 1.0, 3_000)
        assert sketched_distinct(values) == pytest.approx(3_000, rel=0.08)

    def test_bad_precision(self):
        with pytest.raises(ValueError, match="precision"):
            sketched_distinct(np.arange(10), precision=2)

    def test_single_add(self):
        assert sketched_distinct(np.array([42, 42])) == \
            pytest.approx(1, abs=1)


class TestCollectStats:
    @pytest.fixture()
    def relation(self):
        return Relation.from_dicts([
            {"g": i % 7, "name": f"n{i % 3}", "v": float(i)}
            for i in range(100)])

    def test_exact_small(self, relation):
        stats = collect_stats(relation)
        assert stats.row_count == 100
        assert stats.column("g").distinct == 7
        assert stats.column("g").exact
        assert stats.column("g").minimum == 0
        assert stats.column("g").maximum == 6
        assert stats.column("name").distinct == 3

    def test_sketched(self, relation):
        stats = collect_stats(relation, use_sketches=True)
        assert stats.column("g").distinct == pytest.approx(7, abs=2)
        assert not stats.column("g").exact

    def test_sketched_estimate_ignores_hash_seed(self):
        """The sketch hashes deterministically, not with salted hash()."""
        estimates = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            completed = subprocess.run(
                [sys.executable, "-c", _SKETCHED_ESTIMATE], env=env,
                capture_output=True, text=True, check=True)
            estimates.add(completed.stdout.strip())
        assert len(estimates) == 1
        assert float(estimates.pop()) == pytest.approx(50_000, rel=0.08)

    def test_subset_of_columns(self, relation):
        stats = collect_stats(relation, attrs=["v"])
        assert set(stats.columns) == {"v"}

    def test_empty_relation(self, relation):
        stats = collect_stats(relation.head(0))
        assert stats.row_count == 0
        assert stats.column("g").distinct == 0.0

    def test_merge_stats(self, relation):
        first = collect_stats(relation.head(50))
        second = collect_stats(relation.filter(
            np.arange(relation.num_rows) >= 50))
        merged = merge_stats([first, second])
        assert merged.row_count == 100
        # pessimistic: sum of fragment distincts, capped at row count
        assert merged.column("g").distinct >= 7
        assert merged.column("v").minimum == 0.0
        assert merged.column("v").maximum == 99.0

    def test_merge_name_mismatch(self):
        left = ColumnStats("a", 1, 1.0, 0, 0, True)
        right = ColumnStats("b", 1, 1.0, 0, 0, True)
        with pytest.raises(StatisticsError):
            left.merged(right)

    def test_merge_nothing(self):
        with pytest.raises(StatisticsError):
            merge_stats([])

    def test_unknown_column(self, relation):
        stats = collect_stats(relation)
        with pytest.raises(StatisticsError):
            stats.column("zz")


class TestGroupCountEstimate:
    def test_single_attr(self):
        relation = Relation.from_dicts([
            {"g": i % 7, "h": i % 4} for i in range(200)])
        stats = collect_stats(relation)
        assert estimate_group_count(stats, ["g"]) == 7

    def test_product_capped_by_rows(self):
        relation = Relation.from_dicts([
            {"g": i % 50, "h": i % 40} for i in range(100)])
        stats = collect_stats(relation)
        assert estimate_group_count(stats, ["g", "h"]) == 100

    def test_no_attrs(self):
        relation = Relation.from_dicts([{"g": 1}])
        stats = collect_stats(relation)
        assert estimate_group_count(stats, []) == 1.0
