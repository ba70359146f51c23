"""The Skalla coordinator: the base-result structure and synchronization.

The coordinator owns the *base-result structure* ``X`` — the base-values
relation extended, round by round, with the finalized aggregates of each
GMDJ.  **Synchronization** (Theorem 1) merges the sub-aggregate relations
``H_1 … H_n`` returned by the sites into ``X``: rows are matched to the
``X`` rows they aggregate for (the paper's ``θ_K``), state columns merge
with the aggregate's super-aggregate (counts and sums add, mins/maxes
take min/max), and the merged states are finalized into user-visible
columns.

The paper keeps ``X`` indexed on ``K`` so that synchronization is linear
in ``|H|``.  Here the index is the row position itself: a site that was
shipped ``X`` (or its Thm.-4 slice) answers with each row's position
(:data:`~repro.distributed.plan.ROW_ID`) instead of its key values, so
the merge is a scatter-reduction over those positions — no key is
hashed, sorted or matched.  An ``include_base`` step (Proposition 2)
ships no structure; its sub-results carry the base attributes and one
keyed merge rebuilds the base and its states together.

:func:`merge_states` is that merge, and the only one: partial
synchronization at tree aggregators, virtual sub-site merges, cache
delta maintenance and cube rollup apply the same function, keyed on the
row id (or, for rollup, on a coarser key).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.errors import PlanError
from repro.relational.aggregates import (
    AggregateSpec, merge_spec_states_grouped, place_grouped)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.core.evaluator import finalize_states
from repro.core.expression_tree import GmdjExpression
from repro.distributed.plan import ROW_ID, LocalStep


class Coordinator:
    """Maintains ``X`` across rounds and performs synchronization."""

    def __init__(self, expression: GmdjExpression, detail_schema: Schema):
        self.expression = expression
        self.detail_schema = detail_schema
        self.key = expression.key
        self.base_schema = expression.base_schema(detail_schema)
        self.result: Relation | None = None
        #: the last synchronized round's *pre-finalize* merged states,
        #: keyed on ``key`` — the Theorem-1 sub-aggregates the cube
        #: lattice rolls up to coarser granularities coordinator-side.
        self.state_relation: Relation | None = None

    # -- round 0 -----------------------------------------------------------------

    def synchronize_base(self,
                         fragments: Sequence[Relation]) -> tuple[Relation, float]:
        """Merge the sites' ``B0_i`` into ``B0`` (duplicate elimination).

        Returns the synchronized base structure and the elapsed seconds.
        """
        started = time.perf_counter()
        if not fragments:
            raise PlanError("no base fragments to synchronize")
        combined = Relation.concat(list(fragments))
        self.result = combined.distinct()
        return self.result, time.perf_counter() - started

    def set_base(self, relation: Relation) -> None:
        """Install an explicit base-values relation (RelationBase case)."""
        self.result = relation

    # -- GMDJ rounds ----------------------------------------------------------------

    def synchronize_step(self, step: LocalStep,
                         sub_results: Sequence[Relation],
                         ) -> tuple[Relation, float]:
        """Merge the sites' sub-aggregates for one step into ``X``.

        The sub-results of a structure-shipping step carry ``X`` row ids
        and merge positionally onto ``X``.  For an ``include_base`` step
        (Proposition 2) no base round happened: one keyed merge over the
        sub-results yields the base (the distinct keys, in first-
        appearance order, with the base attributes they carry) together
        with its states.
        """
        started = time.perf_counter()
        aggregates = step.aggregates
        if step.include_base and sub_results:
            keyed = merge_states(sub_results, self.key, aggregates,
                                 self.detail_schema)
            base = keyed.project(self.base_schema.names)
            states = keyed.project(
                [*self.key, *(field.name for spec in aggregates
                              for field in spec.state_fields(
                                  self.detail_schema))])
        else:
            if step.include_base:
                base = Relation.empty(self.base_schema)
            elif self.result is None:
                raise PlanError("synchronize_step before the base round")
            else:
                base = self.result
            states = merge_states(sub_results, self.key, aggregates,
                                  self.detail_schema, onto=base)
        state_columns = states.columns()
        current = base
        for gmdj in step.gmdjs:
            finalized = finalize_states(gmdj, state_columns,
                                        self.detail_schema)
            current = current.append_columns(
                [spec.output_attribute(self.detail_schema)
                 for spec in gmdj.all_aggregates],
                finalized)
        self.state_relation = states
        self.result = current
        return current, time.perf_counter() - started

    def final_result(self) -> Relation:
        if self.result is None:
            raise PlanError("no result yet: the plan has not been executed")
        return self.result


def merge_states(sub_results: Sequence[Relation], key: Sequence[str],
                 aggregates: Sequence[AggregateSpec], detail_schema: Schema,
                 onto: Relation | None = None) -> Relation:
    """Theorem 1's merge of sub-aggregate states.

    Every synchronization in the engine goes through this function —
    the coordinator, interior tree aggregators, virtual sub-site
    merges, cache delta maintenance and cube rollup.  State columns (one
    per field of each spec in ``aggregates``) merge with the primitive's
    super-aggregate: counts and sums add, mins/maxes take min/max, Chan
    ``m2`` states combine and sketch states merge bytewise.  Rows of one
    group merge in input order, so float sums are reproducible.

    * **Positional onto X** (``onto`` given): every sub-result carries
      :data:`~repro.distributed.plan.ROW_ID`, the position of its row in
      ``onto``, and the ids are the group codes.  The result has one
      row per ``onto`` row — its ``key`` columns followed by the merged
      state columns; an ``onto`` row no sub-aggregate points at gets the
      primitives' empty states.
    * **Keyed** (``onto`` omitted): the result has one row per distinct
      ``key`` in first-appearance order, with the input's schema.
      Non-state columns (the base attributes an ``include_base`` step
      carries, or the row id) come from each key's first row — they are
      functionally determined by it.  An empty ``key`` gives one
      grand-total row, even over empty input.
    """
    if onto is None and not sub_results:
        raise PlanError("no sub-aggregates to merge")
    live = [relation for relation in sub_results if relation.num_rows]
    if len(live) > 1:
        combined = Relation.concat(live)
    elif live:
        combined = live[0]
    else:
        combined = sub_results[0] if sub_results else None
    spec_fields = [(spec, spec.state_fields(detail_schema))
                   for spec in aggregates]
    state_fields = [field for __, fields in spec_fields for field in fields]

    if onto is None:
        if key:
            codes = combined.row_group_codes(list(key))
            # codes number groups by first appearance, so a row opens a
            # group exactly when its code exceeds every earlier one
            opens = np.ones(len(codes), dtype=bool)
            opens[1:] = codes[1:] > np.maximum.accumulate(codes)[:-1]
            first = np.flatnonzero(opens)
            num_groups = len(first)
        else:
            codes = np.zeros(combined.num_rows, dtype=np.int64)
            first = np.zeros(min(combined.num_rows, 1), dtype=np.int64)
            num_groups = 1
        schema = combined.schema
        state_names = {field.name for field in state_fields}
        columns = {name: combined.column(name)[first]
                   for name in schema.names if name not in state_names}
    else:
        num_groups = onto.num_rows
        codes = None if combined is None else combined.column(ROW_ID)
        schema = Schema([*(onto.schema[name] for name in key),
                         *(Attribute(field.name, field.dtype)
                           for field in state_fields)])
        columns = {name: onto.column(name) for name in key}

    everywhere = np.ones(num_groups, dtype=bool)
    positions = np.arange(num_groups)
    for spec, fields in spec_fields:
        if codes is not None and num_groups:
            per_group = merge_spec_states_grouped(
                spec, detail_schema, codes,
                {field.name: combined.column(field.name)
                 for field in fields},
                num_groups)
        else:
            per_group = dict.fromkeys(
                (field.name for field in fields), None)
        for field in fields:
            columns[field.name] = place_grouped(
                field, per_group[field.name], everywhere, positions,
                num_groups)
    return Relation(schema, columns)
