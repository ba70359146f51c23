"""Extension E1 — multi-tier coordinator vs the flat star.

The paper's future-work direction (Sect. 6), quantified: the same
unoptimized two-round query over 16 and 32 sites, executed on the flat
coordinator architecture and on balanced aggregation trees of fanout 4
(:class:`~repro.topology.TreeEngine`, every tree edge costed on its own
star link).  The tree pre-merges sub-aggregates at interior nodes, so
the bytes arriving at the root — and, under the parallel-subtree cost
model, the response time at scale — grow much more slowly with the site
count.
"""

import pytest

from repro.bench.queries import correlated_query
from repro.data.tpch import generate_tpcr
from repro.distributed.engine import SkallaEngine
from repro.distributed.messages import COORDINATOR
from repro.distributed.partition import partition_round_robin
from repro.distributed.plan import NO_OPTIMIZATIONS
from repro.topology import TreeEngine, TreeTopology

RELATION = generate_tpcr(num_rows=24_000, num_customers=3_000, seed=5)
QUERY = correlated_query(["CustName"], "ExtendedPrice")
SITE_COUNTS = [8, 16, 32]


def _root_inbound_bytes(result) -> int:
    return sum(message.total_bytes
               for message in result.metrics.log.messages
               if message.receiver == COORDINATOR
               and (message.description.endswith("root")
                    or "->" not in message.description))


def _run(num_sites: int, fanout: int | None):
    partitions = partition_round_robin(RELATION, num_sites)
    if fanout is None:
        engine = SkallaEngine(partitions)
        result = engine.execute(QUERY, NO_OPTIMIZATIONS)
        root_bytes = result.metrics.bytes_to_coordinator
    else:
        topology = TreeTopology.balanced(sorted(partitions), fanout=fanout)
        with TreeEngine(partitions, topology) as engine:
            result = engine.execute(QUERY, NO_OPTIMIZATIONS)
        root_bytes = _root_inbound_bytes(result)
    return result, root_bytes


@pytest.mark.parametrize("arch", ["flat", "tree4"])
def test_bench_hierarchy_point(benchmark, arch):
    fanout = None if arch == "flat" else 4

    def run():
        return _run(16, fanout)

    result, __ = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.relation.num_rows > 0


def test_bench_hierarchy_sweep(benchmark, report):
    def sweep():
        rows = []
        reference = None
        for num_sites in SITE_COUNTS:
            for arch, fanout in (("flat", None), ("tree fanout=4", 4)):
                result, root_bytes = _run(num_sites, fanout)
                if reference is None:
                    reference = result.relation
                else:
                    assert result.relation.multiset_equals(reference)
                rows.append({
                    "architecture": arch,
                    "sites": num_sites,
                    "root_inbound_bytes": root_bytes,
                    "total_bytes": result.metrics.total_bytes,
                    "response_seconds":
                        round(result.metrics.response_seconds, 4),
                })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("ext_hierarchy",
           "Extension — flat star vs aggregation tree (unoptimized query)",
           rows, ["architecture", "sites", "root_inbound_bytes",
                  "total_bytes", "response_seconds"])

    for num_sites in SITE_COUNTS:
        at = {row["architecture"]: row for row in rows
              if row["sites"] == num_sites}
        if num_sites >= 16:
            assert at["tree fanout=4"]["root_inbound_bytes"] < \
                at["flat"]["root_inbound_bytes"]

    # The tree's root traffic grows much more slowly than the star's.
    flat = [row["root_inbound_bytes"] for row in rows
            if row["architecture"] == "flat"]
    tree = [row["root_inbound_bytes"] for row in rows
            if row["architecture"] == "tree fanout=4"]
    assert tree[-1] / tree[0] < flat[-1] / flat[0]
