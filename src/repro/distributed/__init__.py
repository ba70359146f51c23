"""The Skalla distributed engine: simulated cluster, coordinator/site
protocol, partitioning with distribution knowledge, plans, and metrics."""

from repro.distributed.coordinator import Coordinator, merge_states
from repro.distributed.engine import ExecutionResult, SkallaEngine
from repro.distributed.explain import explain_analyze
from repro.distributed.messages import (
    CONTROL_MESSAGE_BYTES, COORDINATOR, ENVELOPE_BYTES, Message, MessageLog,
    SiteId, control_message, relation_message)
from repro.distributed.metrics import PhaseMetrics, QueryMetrics
from repro.distributed.network import (
    DEFAULT_BANDWIDTH, DEFAULT_LATENCY, ComputeModel, LinkModel,
    SimulatedNetwork)
from repro.distributed.partition import (
    AttributeConstraint, DistributionInfo, RangeConstraint,
    ValueSetConstraint, observed_value_info, partition_by_hash,
    partition_by_ranges, partition_by_values, partition_round_robin)
from repro.distributed.plan import (
    ALL_OPTIMIZATIONS, NO_OPTIMIZATIONS, DistributedPlan, LocalStep,
    OptimizationFlags, unoptimized_plan)
from repro.distributed.faults import FlakySite
from repro.distributed.heterogeneous import (
    HeterogeneousEngine, HeterogeneousQuery, HeterogeneousRound)
from repro.distributed.site import SkallaSite
from repro.distributed.storage import (
    StorageError, load_warehouse, save_warehouse)

__all__ = [
    "Coordinator", "ExecutionResult", "SkallaEngine", "explain_analyze",
    "merge_states",
    "CONTROL_MESSAGE_BYTES", "COORDINATOR", "ENVELOPE_BYTES", "Message",
    "MessageLog", "SiteId", "control_message", "relation_message",
    "PhaseMetrics", "QueryMetrics",
    "DEFAULT_BANDWIDTH", "DEFAULT_LATENCY", "ComputeModel", "LinkModel",
    "SimulatedNetwork",
    "AttributeConstraint", "DistributionInfo", "RangeConstraint",
    "ValueSetConstraint", "observed_value_info", "partition_by_hash",
    "partition_by_ranges", "partition_by_values", "partition_round_robin",
    "ALL_OPTIMIZATIONS", "NO_OPTIMIZATIONS", "DistributedPlan", "LocalStep",
    "OptimizationFlags", "unoptimized_plan",
    "FlakySite", "SkallaSite",
    "HeterogeneousEngine", "HeterogeneousQuery", "HeterogeneousRound",
    "StorageError", "load_warehouse", "save_warehouse",
]
