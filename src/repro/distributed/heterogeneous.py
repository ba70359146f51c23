"""Heterogeneous GMDJ chains: a different detail relation per round.

Section 3.2 of the paper is explicit that the framework is not limited
to one fact table: "We use R_k to denote the detail relation at round
k. … depending on the query, the detail relation may or may not be the
same across all rounds. This shows the considerable class of OLAP
queries the basic Skalla evaluation framework is able to handle."

:class:`HeterogeneousEngine` implements that generality: every site
hosts a *catalog* of named fragments (e.g. each router stores both its
``Flow`` records and its ``Alarm`` records), and a
:class:`HeterogeneousQuery` names, per GMDJ round, which table the
round aggregates over.  Conditions of later rounds may reference
aggregates of earlier rounds exactly as in the single-table case —
correlating *across tables* ("flows whose bytes exceed the router's
mean alarm threshold") without any distributed join.

Scope: the baseline algorithm plus distribution-independent group
reduction.  The distribution-aware and synchronization reductions are
per-table analyses; extending them here is mechanical but omitted —
the homogeneous engine remains the optimized path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import PlanError, QueryError, SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType
from repro.core.evaluator import STATES, evaluate_gmdj, finalize_states
from repro.core.expression_tree import ProjectionBase
from repro.core.gmdj import Gmdj
from repro.distributed.coordinator import merge_states
from repro.distributed.messages import (
    COORDINATOR, MessageLog, SiteId, control_message, relation_message)
from repro.distributed.metrics import PhaseMetrics, QueryMetrics
from repro.distributed.network import LinkModel
from repro.distributed.plan import ROW_ID


@dataclass(frozen=True)
class HeterogeneousRound:
    """One GMDJ round, bound to a named detail table."""

    gmdj: Gmdj
    table: str


@dataclass(frozen=True)
class HeterogeneousQuery:
    """A GMDJ chain whose rounds may range over different tables.

    ``base_table`` + ``base_attrs`` define ``B_0`` (a distinct
    projection, as in the common case); rounds execute in order with
    the usual base-extension semantics.
    """

    base_table: str
    base_attrs: tuple[str, ...]
    rounds: tuple[HeterogeneousRound, ...]

    def __post_init__(self):
        if not self.base_attrs:
            raise QueryError("base projection needs attributes")
        if not self.rounds:
            raise QueryError("a query needs at least one round")

    @property
    def key(self) -> tuple[str, ...]:
        return self.base_attrs

    def validate(self, schemas: Mapping[str, Schema]) -> None:
        if self.base_table not in schemas:
            raise SchemaError(f"unknown base table {self.base_table!r}")
        base_schema = schemas[self.base_table].project(self.base_attrs)
        for spec in self.rounds:
            if spec.table not in schemas:
                raise SchemaError(f"unknown detail table {spec.table!r}")
            spec.gmdj.validate(base_schema, schemas[spec.table])
            base_schema = spec.gmdj.output_schema(base_schema,
                                                  schemas[spec.table])

    def evaluate_centralized(
            self, tables: Mapping[str, Relation]) -> Relation:
        """Reference semantics against unpartitioned tables."""
        self.validate({name: relation.schema
                       for name, relation in tables.items()})
        current = ProjectionBase(self.base_attrs).evaluate(
            tables[self.base_table])
        for spec in self.rounds:
            current = evaluate_gmdj(spec.gmdj, current, tables[spec.table])
        return current


class HeterogeneousEngine:
    """Skalla over per-site catalogs of named fragments."""

    def __init__(self, catalogs: Mapping[SiteId, Mapping[str, Relation]],
                 link: LinkModel | None = None):
        if not catalogs:
            raise PlanError("a warehouse needs at least one site")
        table_names = {frozenset(catalog) for catalog in catalogs.values()}
        if len(table_names) != 1:
            raise SchemaError("every site must host the same table set")
        self.table_names = sorted(next(iter(table_names)))
        self.schemas: dict[str, Schema] = {}
        for name in self.table_names:
            schemas = {catalog[name].schema
                       for catalog in catalogs.values()}
            if len(schemas) != 1:
                raise SchemaError(
                    f"fragments of table {name!r} disagree on schema")
            self.schemas[name] = next(iter(schemas))
        self.catalogs = {site: dict(catalog)
                         for site, catalog in catalogs.items()}
        self.link = link or LinkModel()

    @property
    def site_ids(self) -> list[SiteId]:
        return sorted(self.catalogs)

    def total_table(self, name: str) -> Relation:
        """The conceptual union of one table (tests only)."""
        return Relation.concat([self.catalogs[site][name]
                                for site in self.site_ids])

    def execute(self, query: HeterogeneousQuery,
                independent_reduction: bool = False):
        """Run the chain; returns (relation, metrics)."""
        query.validate(self.schemas)
        log = MessageLog()
        metrics = QueryMetrics(log=log,
                               num_participating_sites=len(self.catalogs))
        round_index = 0

        # ---- round 0: base-values relation -------------------------------
        phase = PhaseMetrics("base round")
        fragments = []
        base_query = ProjectionBase(query.base_attrs)
        slowest = 0.0
        inbound = 0
        for site in self.site_ids:
            log.record(control_message(COORDINATOR, site, round_index,
                                       "ship base query"))
            started = time.perf_counter()
            fragment = base_query.evaluate(
                self.catalogs[site][query.base_table])
            slowest = max(slowest, time.perf_counter() - started)
            fragments.append(fragment)
            message = relation_message(site, COORDINATOR, "base_result",
                                       fragment, round_index)
            log.record(message)
            inbound += message.total_bytes
        phase.site_seconds = slowest
        phase.communication_seconds = (2 * self.link.latency
                                       + inbound / self.link.bandwidth)
        started = time.perf_counter()
        current = Relation.concat(fragments).distinct()
        phase.coordinator_seconds = time.perf_counter() - started
        metrics.phases.append(phase)
        metrics.num_synchronizations += 1
        round_index += 1

        # ---- one round per (gmdj, table) ------------------------------------
        for spec in query.rounds:
            phase = PhaseMetrics(f"round {round_index}")
            detail_schema = self.schemas[spec.table]
            outbound = 0
            for site in self.site_ids:
                message = relation_message(COORDINATOR, site,
                                           "base_structure", current,
                                           round_index)
                log.record(message)
                outbound += message.total_bytes

            sub_results = []
            slowest = 0.0
            inbound = 0
            for site in self.site_ids:
                started = time.perf_counter()
                states = evaluate_gmdj(
                    spec.gmdj, current, self.catalogs[site][spec.table],
                    output=STATES, match_column="__hit")
                shipped = states.project(
                    [field.name for field in
                     spec.gmdj.state_fields(detail_schema)]).append_columns(
                    [Attribute(ROW_ID, DataType.INT64)],
                    {ROW_ID: np.arange(current.num_rows, dtype=np.int64)})
                if independent_reduction:
                    shipped = shipped.filter(states.column("__hit"))
                slowest = max(slowest, time.perf_counter() - started)
                sub_results.append(shipped)
                message = relation_message(site, COORDINATOR,
                                           "sub_aggregates", shipped,
                                           round_index)
                log.record(message)
                inbound += message.total_bytes
            phase.site_seconds = slowest
            phase.communication_seconds = (
                2 * self.link.latency
                + (outbound + inbound) / self.link.bandwidth)

            started = time.perf_counter()
            current = self._synchronize(current, sub_results, query.key,
                                        spec.gmdj, detail_schema)
            phase.coordinator_seconds = time.perf_counter() - started
            metrics.phases.append(phase)
            metrics.num_synchronizations += 1
            round_index += 1
        return current, metrics

    @staticmethod
    def _synchronize(base: Relation, sub_results: Sequence[Relation],
                     key: Sequence[str], gmdj: Gmdj,
                     detail_schema: Schema) -> Relation:
        states = merge_states(sub_results, key, gmdj.all_aggregates,
                              detail_schema, onto=base)
        finalized = finalize_states(gmdj, states.columns(), detail_schema)
        return base.append_columns(
            [spec.output_attribute(detail_schema)
             for spec in gmdj.all_aggregates],
            finalized)
