"""Tests for streaming (incremental) synchronization and stragglers."""

import pytest

from repro.errors import PlanError
from repro.relational.aggregates import count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.core.builder import QueryBuilder, agg
from repro.distributed.coordinator import (
    Coordinator, IncrementalSynchronizer)
from repro.distributed.engine import SkallaEngine
from repro.distributed.partition import partition_round_robin
from repro.distributed.plan import (
    ALL_OPTIMIZATIONS, ROW_ID, LocalStep, NO_OPTIMIZATIONS)
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


class TestIncrementalSynchronizer:
    def test_matches_batch_synchronization(self, detail):
        expression = make_query()
        partitions = partition_round_robin(detail, 4)
        sites = [SkallaSite(i, fragment)
                 for i, fragment in partitions.items()]
        step = LocalStep((expression.rounds[0],))

        batch_coordinator = Coordinator(expression, detail.schema)
        stream_coordinator = Coordinator(expression, detail.schema)
        base = detail.distinct(["g"])
        batch_coordinator.set_base(base)
        stream_coordinator.set_base(base)

        subs = [site.execute_step(step, base, [ROW_ID], None, False)[0]
                for site in sites]
        batch, __ = batch_coordinator.synchronize_step(step, subs)

        synchronizer = IncrementalSynchronizer(stream_coordinator, step)
        for sub in subs:
            seconds = synchronizer.absorb(sub)
            assert seconds >= 0.0
        streamed, __ = synchronizer.finish()
        assert streamed.multiset_equals(batch)

    def test_no_absorbs_then_finish(self, detail):
        expression = make_query()
        coordinator = Coordinator(expression, detail.schema)
        coordinator.set_base(detail.distinct(["g"]))
        synchronizer = IncrementalSynchronizer(
            coordinator, LocalStep((expression.rounds[0],)))
        result, __ = synchronizer.finish()
        assert result.num_rows == detail.distinct(["g"]).num_rows
        assert all(value == 0 for value in result.column("n"))


class TestStreamingExecution:
    @pytest.mark.parametrize("flags", [NO_OPTIMIZATIONS, ALL_OPTIMIZATIONS],
                             ids=["none", "all"])
    def test_same_result_as_barrier(self, detail, flags):
        partitions = partition_round_robin(detail, 5)
        engine = SkallaEngine(partitions)
        query = make_query()
        barrier = engine.execute(query, flags, streaming=False)
        streamed = engine.execute(query, flags, streaming=True)
        assert streamed.relation.multiset_equals(barrier.relation)
        assert streamed.metrics.num_synchronizations == \
            barrier.metrics.num_synchronizations

    def test_straggler_overlap_helps(self):
        """With one slow site, streaming hides the fast sites'
        transfer + merge time behind the straggler's compute.

        Uses a larger data set and averages over repeats so the wall
        clock comparison is robust to measurement noise.
        """
        big = Relation.from_dicts([
            {"g": i % 199, "v": float((i * 3) % 997)}
            for i in range(30_000)])
        partitions = partition_round_robin(big, 6)
        engine = SkallaEngine(partitions, site_slowdowns={0: 60.0})
        query = make_query()
        barrier_total = 0.0
        stream_total = 0.0
        for __ in range(3):
            barrier = engine.execute(query, NO_OPTIMIZATIONS,
                                     streaming=False)
            streamed = engine.execute(query, NO_OPTIMIZATIONS,
                                      streaming=True)
            assert streamed.relation.multiset_equals(barrier.relation)
            barrier_total += barrier.metrics.response_seconds
            stream_total += streamed.metrics.response_seconds
        assert stream_total < barrier_total

    def test_streaming_phase_decomposition_sums(self, detail):
        partitions = partition_round_robin(detail, 4)
        engine = SkallaEngine(partitions)
        result = engine.execute(make_query(), NO_OPTIMIZATIONS,
                                streaming=True)
        for phase in result.metrics.phases:
            assert phase.total_seconds >= 0.0
            assert phase.site_seconds >= 0.0
            assert phase.communication_seconds >= 0.0
            assert phase.coordinator_seconds >= 0.0


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
