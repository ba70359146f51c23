"""Tests for straggler sites: per-site slowdowns scale reported time."""

import pytest

from repro.errors import PlanError
from repro.relational.aggregates import count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.core.builder import QueryBuilder, agg
from repro.distributed.engine import SkallaEngine
from repro.distributed.partition import partition_round_robin
from repro.distributed.site import SkallaSite


@pytest.fixture(scope="module")
def detail():
    return Relation.from_dicts([
        {"g": i % 11, "v": float((i * 3) % 97)} for i in range(3_000)])


def make_query():
    return (QueryBuilder()
            .base("g")
            .gmdj([count_star("n"), agg("avg", "v", "m")], r.g == b.g)
            .gmdj([count_star("n2")], (r.g == b.g) & (r.v >= b.m))
            .build())


class TestSlowdowns:
    def test_slowdown_scales_reported_time(self, detail):
        fast = SkallaSite(0, detail, slowdown=1.0)
        slow = SkallaSite(0, detail, slowdown=50.0)
        expression = make_query()
        __, fast_seconds = fast.evaluate_base(expression.base)
        __, slow_seconds = slow.evaluate_base(expression.base)
        assert slow_seconds > fast_seconds * 5

    def test_slowdown_must_be_positive(self, detail):
        with pytest.raises(PlanError):
            SkallaSite(0, detail, slowdown=0.0)

    def test_engine_accepts_slowdowns(self, detail):
        partitions = partition_round_robin(detail, 2)
        engine = SkallaEngine(partitions, site_slowdowns={1: 3.0})
        assert engine.sites[1].slowdown == 3.0
        assert engine.sites[0].slowdown == 1.0
