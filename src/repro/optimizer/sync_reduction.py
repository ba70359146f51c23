"""Synchronization reduction: removing whole rounds (Sect. 4.3).

Two guarded rewrites:

* **Proposition 2** — when the base-values relation is computed *from
  the detail relation itself*, its key covers all of its attributes,
  and every condition of the first GMDJ round entails equality on the
  key attributes (``θ_j ⊨ θ_K``), the base-synchronization round can be
  dropped: each site computes its own ``B_i`` and evaluates the first
  round on it directly; the coordinator reconstructs the base as
  ``π_B(H)`` during the (single) remaining synchronization.

* **Corollary 1** (via Theorem 5) — when every condition of two adjacent
  GMDJ rounds entails equality between base and detail on one common
  **partition attribute**, the intermediate synchronization between them
  can be dropped: each base tuple's aggregates are only ever updated at
  its home site, so the sites chain the rounds locally and synchronize
  once at the end.

Both guards are *syntactic entailment* checks
(:mod:`repro.relational.conditions`): sound, conservative, and exactly
the analysis the paper sketches ("a simple analysis of φ_i and θ").
"""

from __future__ import annotations

from typing import Sequence

from repro.relational.conditions import (
    entails_equality_on, entails_partition_equality)
from repro.core.expression_tree import GmdjExpression, ProjectionBase
from repro.core.gmdj import Gmdj
from repro.distributed.partition import DistributionInfo


def step_entails_key_equality(gmdjs: Sequence[Gmdj],
                              key: Sequence[str]) -> bool:
    """Proposition 2 guard: every θ of every GMDJ entails θ_K."""
    for gmdj in gmdjs:
        for condition in gmdj.conditions:
            if entails_equality_on(condition, key) is None:
                return False
    return True


def common_partition_attrs(gmdjs: Sequence[Gmdj],
                           partition_attrs: Sequence[str]) -> set[str]:
    """Partition attributes on which *every* condition of *every* GMDJ
    entails base/detail equality (the Corollary 1 guard)."""
    remaining = set(partition_attrs)
    for gmdj in gmdjs:
        for condition in gmdj.conditions:
            matched = {attr for attr in remaining
                       if entails_partition_equality(condition, [attr])}
            remaining &= matched
            if not remaining:
                return set()
    return remaining


def can_merge_rounds(first: Gmdj, second: Gmdj,
                     partition_attrs: Sequence[str]) -> bool:
    """Whether the synchronization between two rounds can be skipped."""
    return bool(common_partition_attrs([first, second], partition_attrs))


def group_rounds_into_steps(expression: GmdjExpression,
                            info: DistributionInfo | None,
                            ) -> list[list[Gmdj]]:
    """Greedily pack adjacent rounds into steps under Corollary 1.

    A step accumulates rounds while one *single* partition attribute is
    common to every condition of every round in the step — the sound
    (conservative) generalization of the pairwise corollary to longer
    chains.  Without distribution knowledge every round is its own step.
    """
    if info is None:
        return [[gmdj] for gmdj in expression.rounds]
    partition_attrs = info.partition_attributes()
    if not partition_attrs:
        return [[gmdj] for gmdj in expression.rounds]

    steps: list[list[Gmdj]] = []
    for gmdj in expression.rounds:
        if steps:
            candidate = steps[-1] + [gmdj]
            if common_partition_attrs(candidate, sorted(partition_attrs)):
                steps[-1] = candidate
                continue
        steps.append([gmdj])
    return steps


def base_round_removable(expression: GmdjExpression,
                         first_step: Sequence[Gmdj]) -> bool:
    """Proposition 2 guard for folding the base query into the first step.

    Requires (i) the base to be computed from the detail relation (so
    ``B = ⊔_i B_i`` holds under any partitioning), (ii) every
    condition of the first step to entail key equality, so a site's
    contributions always target groups present in its local ``B_i``,
    and (iii) the key to cover every base attribute: the coordinator
    rebuilds the base as one row per distinct key, so base tuples that
    share a key would collapse into one.
    """
    base = expression.base
    if not base.computed_from_detail:
        return False
    if not (isinstance(base, ProjectionBase)
            and set(base.attrs) <= set(expression.key)):
        return False
    return step_entails_key_equality(first_step, expression.key)
