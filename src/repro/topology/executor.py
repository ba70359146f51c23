"""Arbitrary-depth aggregation-tree execution over real transports.

:class:`TreeEngine` subclasses :class:`SkallaEngine` and reroutes every
round through a :class:`TreeTopology`: the base structure descends the
tree hop by hop, leaf sites evaluate exactly as on the flat star
(through the same pluggable transport — inprocess / thread / process —
with the same retry, cache, and scan-sharing machinery), and interior
aggregator nodes merge their children's sub-aggregates (Theorem 1 is
associative, so partial synchronization at any depth is exact) before
forwarding one merged relation upward.  The root receives ``fanout``
messages per round instead of ``n``.

Concurrency and straggler policy move up one level: rounds scatter
**per root subtree** (each top-level branch is one dispatch job) and
hedging is per-*subtree* — one slow interior branch gates everything
under it, so the duplicate dispatch re-runs the whole branch via the
transport's :attr:`hedged_call` side channel.  Per-site hedging inside
the transport is disabled; the subtree is the new unit of tail latency.

Failure semantics: an interior aggregator that dies (kill) or exceeds
the merge deadline (hang) is *re-parented* — its children's results
travel to the grandparent unmerged, and if the failure sits directly
under the root the branch degrades to flat scatter-gather at the root.
Either way every leaf sub-aggregate still reaches exactly one merge
path, so results remain bit-identical (asserted by the differential
oracle in ``tests/test_differential.py``).

Cost model: each tree edge is its own link — a
:class:`~repro.topology.model.WanTopology` edge when one is attached,
else the engine's star :class:`LinkModel`.  A node's ingress pays the
slowest child link's latency plus the serialized payload time over each
child's own link; the aggregator's colocated site hands its own
sub-aggregate over locally (no hop, no message).  Levels merge in
parallel across subtrees, so the
phase pays the critical path (``PhaseMetrics.tree_level_seconds`` keeps
the per-level breakdown and ``root_ingress_bytes`` /
``flat_ingress_bytes`` the tree-vs-flat traffic story).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import PlanError
from repro.relational.relation import Relation
from repro.distributed.coordinator import Coordinator, merge_states
from repro.distributed.engine import SkallaEngine
from repro.skew import physical_site
from repro.distributed.messages import (
    CONTROL_MESSAGE_BYTES, COORDINATOR, ENVELOPE_BYTES, MessageLog, SiteId,
    control_message, relation_message)
from repro.distributed.metrics import PhaseMetrics, QueryMetrics
from repro.distributed.network import LinkModel, SimulatedNetwork
from repro.distributed.transport import SiteRequest, SiteResponse
from repro.distributed.transport.scatter import (
    RoundStats, normalize_hedge, scatter_gather)
from repro.topology.builder import build_cost_tree, tree_summary
from repro.topology.model import WanTopology
from repro.topology.tree import AGGREGATOR, TreeNode, TreeTopology


@dataclass(frozen=True)
class AggregatorFaultSpec:
    """Deterministic fault injection for one interior aggregator.

    ``kill_on_merge`` / ``hang_on_merge`` name the 0-based merge
    ordinal (per node, across the execution) on which the node fails or
    hangs; ``repeat`` extends the fault to every later merge too.  A
    hang longer than the engine's ``aggregator_deadline`` counts as a
    failure (the parent stops waiting and re-parents the children); a
    shorter hang just adds ``hang_seconds`` to the node's modeled merge
    time.
    """

    kill_on_merge: int | None = None
    hang_on_merge: int | None = None
    hang_seconds: float = 10.0
    repeat: bool = False

    def triggers(self, target: int | None, ordinal: int) -> bool:
        if target is None:
            return False
        return ordinal == target or (self.repeat and ordinal > target)


@dataclass(frozen=True)
class _SubtreeJob:
    """One root branch's worth of site requests (a dispatch unit).

    ``site_id`` is the branch index — :func:`scatter_gather` keys its
    bookkeeping on that attribute, which lets the subtree scatter reuse
    the exact per-site machinery one level up.
    """

    site_id: int
    requests: tuple[SiteRequest, ...]


@dataclass
class _SubtreeResult:
    outputs: dict
    stats: "RoundStats | None"


class TreeEngine(SkallaEngine):
    """Skalla over a link-aware aggregation tree (real transports).

    Parameters beyond :class:`SkallaEngine`'s:

    topology:
        An explicit :class:`TreeTopology`.  When omitted, one is built
        from ``wan`` (cost-driven) or from a balanced/flat default.
    wan:
        A :class:`WanTopology` supplying per-edge link costs — both for
        *choosing* the tree and for *costing* its hops.  Without one,
        every hop is costed by the engine's star ``link``.
    fanout:
        Child bound per tree node for the built topologies.  1 builds
        a chain and needs a ``wan``; the balanced default tree needs 2.
    aggregator_faults:
        node_id → :class:`AggregatorFaultSpec` (tests/chaos only).
    aggregator_deadline:
        Seconds an interior merge may take before the parent gives up
        and re-parents the children (hang detection).
    hedge:
        Subtree-level hedging policy (``True`` = default policy).  The
        per-site transport hedging is always off under a tree.
    """

    def __init__(self, partitions: Mapping[SiteId, Relation],
                 topology: TreeTopology | None = None,
                 wan: WanTopology | None = None,
                 fanout: int = 4,
                 aggregator_faults:
                 "Mapping[str, AggregatorFaultSpec] | None" = None,
                 aggregator_deadline: float = 1.0,
                 **kwargs):
        if fanout < 1:
            raise PlanError("tree fanout must be at least 1")
        subtree_hedge = kwargs.pop("hedge", True)
        super().__init__(partitions, hedge=False, **kwargs)
        self._subtree_hedge = normalize_hedge(subtree_hedge)
        if topology is None:
            if wan is not None:
                topology = build_cost_tree(wan, fanout)
            elif len(self.site_ids) > fanout:
                topology = TreeTopology.balanced(self.site_ids, fanout)
            else:
                topology = TreeTopology.flat(self.site_ids)
        topology.validate_sites(self.site_ids)
        if wan is not None:
            unknown = set(self.site_ids) - set(wan.sites)
            if unknown:
                raise PlanError(
                    f"WAN topology lacks sites {sorted(unknown)}")
        self.topology = topology
        self.wan = wan
        self.fanout = fanout
        self.aggregator_deadline = aggregator_deadline
        self._faults: dict[str, AggregatorFaultSpec] = dict(
            aggregator_faults or {})
        self._merge_ordinals: dict[str, int] = {}
        self._fault_lock = threading.Lock()
        self._round_local = threading.local()
        self._subtree_pool: ThreadPoolExecutor | None = None
        # site -> index of its root branch (the dispatch group)
        self._groups: list[tuple[SiteId, ...]] = []
        self._site_group: dict[SiteId, int] = {}
        for site in topology.root.site_children:
            self._site_group[site] = len(self._groups)
            self._groups.append((site,))
        for child in topology.root.node_children:
            index = len(self._groups)
            branch = tuple(child.descendant_sites())
            for site in branch:
                self._site_group[site] = index
            self._groups.append(branch)

    @classmethod
    def from_engine(cls, engine: SkallaEngine,
                    topology: TreeTopology | None = None,
                    wan: WanTopology | None = None,
                    fanout: int = 4, **kwargs) -> "TreeEngine":
        """A tree engine over an existing engine's warehouse state."""
        partitions = {site_id: site.fragment
                      for site_id, site in engine.sites.items()}
        slowdowns = {site_id: site.slowdown
                     for site_id, site in engine.sites.items()}
        kwargs.setdefault("transport", engine.transport_name)
        kwargs.setdefault("compute_model", engine.compute_model)
        kwargs.setdefault("max_inflight", engine.max_inflight)
        kwargs.setdefault("retry_policy", engine.retry_policy)
        if engine.skew_enabled:
            # a fresh planner (same policy): splits reference the donor
            # engine's site objects and must not leak across engines
            kwargs.setdefault("skew", engine.skew_planner.policy)
        return cls(partitions, topology=topology, wan=wan, fanout=fanout,
                   info=engine.info, link=engine.link, verify_info=False,
                   site_slowdowns=slowdowns, **kwargs)

    # -- fault injection ----------------------------------------------------

    def inject_aggregator_fault(self, node_id: str,
                                spec: AggregatorFaultSpec) -> None:
        self._faults[node_id] = spec

    def clear_aggregator_faults(self) -> None:
        self._faults.clear()
        self._merge_ordinals.clear()

    def _next_merge_ordinal(self, node_id: str) -> int:
        with self._fault_lock:
            ordinal = self._merge_ordinals.get(node_id, 0)
            self._merge_ordinals[node_id] = ordinal + 1
            return ordinal

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        super().close()
        if self._subtree_pool is not None:
            self._subtree_pool.shutdown(wait=False)
            self._subtree_pool = None

    # -- metrics ------------------------------------------------------------

    def _annotate_metrics(self, metrics: QueryMetrics) -> None:
        metrics.topology = "tree"
        metrics.tree_shape = tree_summary(self.topology)

    # -- per-round uplink buffer --------------------------------------------
    #
    # The flat engine sends each site's uplink straight to the root; the
    # tree buffers payloads during fulfilment and routes them during
    # synchronization, where the whole round's tree is walked once.  The
    # buffer is thread-local: a query service runs concurrent executions
    # against one engine.

    def _uplinks(self) -> "dict[SiteId, tuple[str, Relation, int | None]]":
        buffer = getattr(self._round_local, "uplinks", None)
        if buffer is None:
            buffer = {}
            self._round_local.uplinks = buffer
        return buffer

    def _take_uplinks(
            self) -> "dict[SiteId, tuple[str, Relation, int | None]]":
        buffer = self._uplinks()
        self._round_local.uplinks = {}
        return buffer

    def _send_uplink(self, network: SimulatedNetwork, site_id: SiteId,
                     kind: str, relation: Relation, round_index: int,
                     note: str, real_bytes: int | None = None) -> None:
        if kind.startswith("delta_"):
            # Delta maintenance is a coordinator-local conversation (the
            # cache lives at the root); it keeps the star path and its
            # shared-link costing.
            super()._send_uplink(network, site_id, kind, relation,
                                 round_index, note, real_bytes=real_bytes)
            return
        self._uplinks()[site_id] = (kind, relation, real_bytes)

    # -- link lookup --------------------------------------------------------

    def _edge_link(self, child_point: SiteId | None,
                   parent_host: SiteId | None) -> LinkModel:
        """The link costing one tree edge (WAN edge, or the star link)."""
        if self.wan is None or child_point is None:
            return self.link
        target = COORDINATOR if parent_host is None else parent_host
        link = self.wan.link(child_point, target)
        return link if link is not None else self.link

    # -- downlink (structure / control descent) ------------------------------

    def _ship_base_kickoff(self, network, phase, participating,
                           decisions, round_index):
        self._round_local.uplinks = {}
        dispatch = {site for site in participating
                    if self._needs_dispatch(decisions, site)}
        phase.cache_bytes_saved += (
            (len(participating) - len(dispatch))
            * (CONTROL_MESSAGE_BYTES + ENVELOPE_BYTES))
        phase.communication_seconds += network.end_phase()
        phase.communication_seconds += self._descend_control(
            self.topology.root, dispatch, network.log, round_index,
            "ship base query")

    def _ship_step_structures(self, network, phase, step, key, shipped,
                              step_participants, decisions, round_index):
        self._round_local.uplinks = {}
        dispatch = {site for site in step_participants
                    if self._needs_dispatch(decisions, site)}
        for site_id in step_participants:
            if site_id not in dispatch:
                to_ship = shipped[site_id]
                saved = (CONTROL_MESSAGE_BYTES if to_ship is None
                         else to_ship.wire_bytes())
                phase.cache_bytes_saved += saved + ENVELOPE_BYTES
        phase.communication_seconds += network.end_phase()
        if step.include_base:
            phase.communication_seconds += self._descend_control(
                self.topology.root, dispatch, network.log, round_index,
                "ship plan step (local base)")
        else:
            phase.communication_seconds += self._descend_structure(
                self.topology.root, shipped, dispatch, key,
                network.log, round_index)

    def _descend_control(self, node: TreeNode, targets: set[SiteId],
                         log: MessageLog, round_index: int,
                         note: str) -> float:
        sender = COORDINATOR if node.node_id == "root" else AGGREGATOR
        max_latency = 0.0
        transfer = 0.0
        sent = False
        child_seconds: list[float] = []
        for site in node.site_children:
            if site not in targets:
                continue
            if site == node.host:
                continue  # the aggregator's own site: a local handoff
            message = control_message(sender, site, round_index, note)
            log.record(message)
            link = self._edge_link(site, node.host)
            max_latency = max(max_latency, link.latency)
            transfer += message.total_bytes / link.bandwidth
            sent = True
        for child in node.node_children:
            if not targets.intersection(child.descendant_sites()):
                continue
            message = control_message(sender, AGGREGATOR, round_index,
                                      f"{note} -> {child.node_id}")
            log.record(message)
            link = self._edge_link(child.host, node.host)
            max_latency = max(max_latency, link.latency)
            transfer += message.total_bytes / link.bandwidth
            sent = True
            child_seconds.append(self._descend_control(
                child, targets, log, round_index, note))
        egress = (max_latency + transfer) if sent else 0.0
        return egress + max(child_seconds, default=0.0)

    def _descend_structure(self, node: TreeNode,
                           shipped: "Mapping[SiteId, Relation | None]",
                           dispatch: set[SiteId], key: Sequence[str],
                           log: MessageLog, round_index: int) -> float:
        sender = COORDINATOR if node.node_id == "root" else AGGREGATOR
        max_latency = 0.0
        transfer = 0.0
        sent = False
        child_seconds: list[float] = []
        for site in node.site_children:
            if site not in dispatch:
                continue
            if site == node.host:
                continue  # the aggregator's own site: a local handoff
            message = relation_message(
                sender, site, "base_structure", shipped[site],
                round_index, f"{node.node_id} -> site {site}")
            log.record(message)
            link = self._edge_link(site, node.host)
            max_latency = max(max_latency, link.latency)
            transfer += message.total_bytes / link.bandwidth
            sent = True
        for child in node.node_children:
            branch_sites = [site for site in child.descendant_sites()
                            if site in dispatch]
            if not branch_sites:
                continue
            payload = self._branch_payload(
                [shipped[site] for site in branch_sites], key)
            message = relation_message(
                sender, AGGREGATOR, "base_structure", payload,
                round_index, f"{node.node_id} -> {child.node_id}")
            log.record(message)
            link = self._edge_link(child.host, node.host)
            max_latency = max(max_latency, link.latency)
            transfer += message.total_bytes / link.bandwidth
            sent = True
            child_seconds.append(self._descend_structure(
                child, shipped, dispatch, key, log, round_index))
        egress = (max_latency + transfer) if sent else 0.0
        return egress + max(child_seconds, default=0.0)

    @staticmethod
    def _branch_payload(values: "list[Relation]",
                        key: Sequence[str]) -> Relation:
        """What one subtree's downlink hop carries.

        With no distribution-aware filtering every site ships the same
        structure object, so the hop carries it as-is; with per-site
        filters the hop carries the *union* of the branch's filtered
        structures (an interior node must be able to serve every
        descendant), deduplicated on the key.
        """
        first = values[0]
        if all(value is first for value in values):
            return first
        return Relation.concat(values).distinct(list(key))

    # -- dispatch: scatter per root branch, hedge per subtree -----------------

    def _pool(self) -> ThreadPoolExecutor:
        if self._subtree_pool is None:
            workers = min(16, max(2, len(self._groups)))
            self._subtree_pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="tree-branch")
        return self._subtree_pool

    def _dispatch_round(self, requests: Sequence[SiteRequest]):
        groups: dict[int, list[SiteRequest]] = {}
        for request in requests:
            # virtual sub-sites scatter with their parent's root branch
            groups.setdefault(
                self._site_group[physical_site(request.site_id)],
                []).append(request)
        if len(groups) <= 1 or len(groups) == len(requests):
            # one branch (no cross-branch parallelism to win) or all
            # branches singletons (a flat tree): the transport's own
            # per-site dispatch is strictly better.
            return super()._dispatch_round(requests)
        jobs = [_SubtreeJob(site_id=index, requests=tuple(batch))
                for index, batch in sorted(groups.items())]
        job_responses, job_stats = scatter_gather(
            self._run_branch, jobs, self._pool().submit,
            hedge=self._subtree_hedge, hedge_call=self._run_branch_hedged)
        outputs: dict[SiteId, SiteResponse] = {}
        stats = RoundStats(dispatch="tree-scatter")
        for job in jobs:
            result = job_responses[job.site_id]
            outputs.update(result.outputs)
            if result.stats is not None:
                stats.site_wall.update(result.stats.site_wall)
        stats.round_wall_seconds = job_stats.round_wall_seconds
        stats.hedges_issued = job_stats.hedges_issued
        stats.hedges_won = job_stats.hedges_won
        stats.hedges_wasted = job_stats.hedges_wasted
        return outputs, stats

    def _run_branch(self, job: _SubtreeJob,
                    on_failure=None) -> _SubtreeResult:
        """Primary dispatch of one root branch (runs on a pool thread).

        ``on_failure`` stays unused: the branch's site calls retry
        inside the transport's own round, which applies the hedging
        contract per site.
        """
        outputs = self.transport.run_round(list(job.requests))
        return _SubtreeResult(outputs=outputs,
                              stats=self.transport.last_round_stats)

    def _run_branch_hedged(self, job: _SubtreeJob) -> _SubtreeResult:
        """Hedged re-dispatch of a straggling branch.

        Goes through the transport's :attr:`hedged_call` side channel
        (the process backend serves it from the coordinator's
        authoritative site copies, never double-using a worker pipe),
        site by site — results are bit-identical to the primary's.
        """
        call = self.transport.hedged_call
        stats = RoundStats(dispatch="tree-hedge")
        outputs: dict[SiteId, SiteResponse] = {}
        started = time.perf_counter()
        for request in job.requests:
            call_started = time.perf_counter()
            outputs[request.site_id] = call(request)
            stats.site_wall[request.site_id] = (time.perf_counter()
                                                - call_started)
        stats.round_wall_seconds = time.perf_counter() - started
        return _SubtreeResult(outputs=outputs, stats=stats)

    # -- uplink (merge ascent) ------------------------------------------------

    def _synchronize_base(self, coordinator: Coordinator, participating,
                          fragments, site_seconds, phase, network,
                          round_index):
        payloads = self._take_uplinks()
        phase.site_seconds = max(site_seconds, default=0.0)
        phase.communication_seconds += network.end_phase()

        def merge(relations: "list[Relation]") -> Relation:
            return Relation.concat(relations).distinct()

        root_inputs, (merge_compute, comm), _ = self._ascend(
            self.topology.root, payloads, merge, network.log,
            round_index, phase, "base_result", level=0)
        phase.communication_seconds += comm
        phase.coordinator_seconds += merge_compute
        by_site = dict(zip(participating, fragments))
        local = [by_site[site] for site in participating
                 if site not in payloads]
        inputs = root_inputs + local
        __, coordinator_seconds = coordinator.synchronize_base(inputs)
        if self.compute_model is not None:
            coordinator_seconds = self.compute_model.seconds(
                sum(relation.num_rows for relation in inputs), 0)
        phase.coordinator_seconds += coordinator_seconds
        phase.flat_ingress_bytes += sum(
            relation.wire_bytes() + ENVELOPE_BYTES
            for __, relation, __ in payloads.values())

    def _synchronize_step(self, coordinator: Coordinator, step, key,
                          step_participants, sub_results, site_seconds,
                          phase, network, round_index):
        payloads = self._take_uplinks()
        phase.site_seconds = max(site_seconds, default=0.0)
        phase.communication_seconds += network.end_phase()

        def merge(relations: "list[Relation]") -> Relation:
            return merge_states(relations, step.merge_key(key),
                                step.aggregates, self.detail_schema)

        root_inputs, (merge_compute, comm), _ = self._ascend(
            self.topology.root, payloads, merge, network.log,
            round_index, phase, "sub_aggregates", level=0)
        phase.communication_seconds += comm
        phase.coordinator_seconds += merge_compute
        by_site = dict(zip(step_participants, sub_results))
        local = [by_site[site] for site in step_participants
                 if site not in payloads]
        inputs = root_inputs + local
        __, coordinator_seconds = coordinator.synchronize_step(
            step, inputs)
        if self.compute_model is not None:
            coordinator_seconds = self.compute_model.seconds(
                sum(relation.num_rows for relation in inputs), 0)
        phase.coordinator_seconds += coordinator_seconds
        phase.flat_ingress_bytes += sum(
            relation.wire_bytes() + ENVELOPE_BYTES
            for __, relation, __ in payloads.values())

    def _ascend(self, node: TreeNode,
                payloads: "dict[SiteId, tuple[str, Relation, int | None]]",
                merge, log: MessageLog, round_index: int,
                phase: PhaseMetrics, kind: str, level: int,
                ) -> "tuple[list[Relation], tuple[float, float], bool]":
        """Walk one subtree bottom-up, merging at interior nodes.

        Returns ``(relations, (merge compute, comm) critical path,
        merged)`` where ``relations`` is what this subtree forwards to
        its parent — one merged relation normally, the unmerged child
        relations when this node failed (``merged=False``; the parent
        is the re-parenting grandparent).
        """
        receiver = COORDINATOR if level == 0 else AGGREGATOR
        gathered: list[Relation] = []
        child_paths: list[tuple[float, float]] = []
        max_latency = 0.0
        transfer = 0.0
        inbound_bytes = 0
        for site in node.site_children:
            entry = payloads.get(site)
            if entry is None:
                continue  # cache hit / delta / shared: root-local
            site_kind, relation, real_bytes = entry
            if site == node.host:
                # the aggregator's own sub-aggregate is already local —
                # it joins the merge without a network hop
                gathered.append(relation)
                continue
            message = relation_message(
                site, receiver, site_kind, relation, round_index,
                f"site {site} -> {node.node_id}", real_bytes=real_bytes)
            log.record(message)
            link = self._edge_link(site, node.host)
            max_latency = max(max_latency, link.latency)
            transfer += message.total_bytes / link.bandwidth
            inbound_bytes += message.total_bytes
            gathered.append(relation)
        for child in node.node_children:
            relations, path, child_merged = self._ascend(
                child, payloads, merge, log, round_index, phase, kind,
                level + 1)
            child_paths.append(path)
            if not relations:
                continue
            link = self._edge_link(child.host, node.host)
            max_latency = max(max_latency, link.latency)
            for relation in relations:
                message = relation_message(
                    AGGREGATOR, receiver, kind, relation, round_index,
                    f"{child.node_id} -> {node.node_id}")
                log.record(message)
                transfer += message.total_bytes / link.bandwidth
                inbound_bytes += message.total_bytes
                gathered.append(relation)
            if not child_merged and level == 0:
                # the failed aggregator sat directly under the root:
                # its branch arrives flat, scatter-gather style
                phase.flat_fallbacks += 1
        # the slowest child subtree's (compute, comm) critical path
        worst_compute, worst_comm = max(
            child_paths, key=sum, default=(0.0, 0.0))
        ingress = (max_latency + transfer) if gathered else 0.0
        comm = worst_comm + ingress
        if level == 0:
            phase.root_ingress_bytes += inbound_bytes
            if gathered:
                phase.tree_level_seconds[0] = max(
                    phase.tree_level_seconds.get(0, 0.0), ingress)
                phase.tree_level_node_seconds.setdefault(0, []).append(
                    ingress)
            return gathered, (worst_compute, comm), True
        if not gathered:
            return [], (worst_compute, comm), True
        # -- interior merge (with deterministic fault injection) -----------
        spec = self._faults.get(node.node_id)
        hang_seconds = 0.0
        if spec is not None:
            ordinal = self._next_merge_ordinal(node.node_id)
            if spec.triggers(spec.kill_on_merge, ordinal):
                phase.aggregator_failures += 1
                phase.reparented_subtrees += 1
                return gathered, (worst_compute, comm), False
            if spec.triggers(spec.hang_on_merge, ordinal):
                if spec.hang_seconds > self.aggregator_deadline:
                    # the parent stops waiting at the deadline and
                    # re-parents; the wait itself is paid on the path
                    phase.aggregator_failures += 1
                    phase.reparented_subtrees += 1
                    return (gathered,
                            (worst_compute,
                             comm + self.aggregator_deadline), False)
                hang_seconds = spec.hang_seconds
        if len(gathered) == 1:
            merged = gathered[0]
            merge_seconds = 0.0
        else:
            started = time.perf_counter()
            merged = merge(gathered)
            merge_seconds = time.perf_counter() - started
            if self.compute_model is not None:
                merge_seconds = self.compute_model.seconds(
                    sum(relation.num_rows for relation in gathered), 0)
        merge_seconds += hang_seconds
        phase.tree_level_seconds[level] = max(
            phase.tree_level_seconds.get(level, 0.0),
            ingress + merge_seconds)
        # every node's time at this level feeds the per-level skew ratio
        phase.tree_level_node_seconds.setdefault(level, []).append(
            ingress + merge_seconds)
        return [merged], (worst_compute + merge_seconds, comm), True


__all__ = ["AggregatorFaultSpec", "TreeEngine"]
