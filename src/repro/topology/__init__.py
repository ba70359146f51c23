"""Link-aware aggregation trees (the paper's Sect. 6 future work).

Four pieces, layered:

* :mod:`repro.topology.tree` — :class:`TreeTopology`, the aggregation
  tree's shape (interior aggregator nodes over site ids);
* :mod:`repro.topology.model` — a WAN as a weighted site graph
  (per-link latency/bandwidth, regions) plus the clustered generators
  the benchmarks sweep;
* :mod:`repro.topology.builder` — SLP-style setup/connect/route tree
  construction: greedy fanout-bounded attach on link cost, so cheap
  links sit deep and the root's slots go to the cheapest uplinks;
* :mod:`repro.topology.executor` — :class:`TreeEngine`, running GMDJ
  rounds over the tree on the real transports with per-subtree hedging
  and aggregator-failure re-parenting.

See docs/TOPOLOGY.md.
"""

from repro.topology.builder import (
    TreeBuild, build_cost_tree, describe_tree, plan_cost_tree,
    tree_summary)
from repro.topology.executor import AggregatorFaultSpec, TreeEngine
from repro.topology.model import (
    REFERENCE_BYTES, WanLink, WanTopology, clustered_wan)
from repro.topology.tree import AGGREGATOR, TreeNode, TreeTopology

__all__ = [
    "AGGREGATOR",
    "AggregatorFaultSpec",
    "REFERENCE_BYTES",
    "TreeBuild",
    "TreeEngine",
    "TreeNode",
    "TreeTopology",
    "WanLink",
    "WanTopology",
    "build_cost_tree",
    "clustered_wan",
    "describe_tree",
    "plan_cost_tree",
    "tree_summary",
]
