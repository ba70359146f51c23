"""Data-cube granularities expressed as GMDJs.

Section 1 of the paper notes that GMDJ expressions uniformly capture OLAP
constructs such as the CUBE BY of Gray et al. [12].  This module builds
the per-granularity expressions: :func:`groupby_expression` for a
non-empty grouping (a distinct projection base plus a single equi-join
GMDJ) and :func:`grand_total_expression` for the ``()`` granularity.

Every generated expression is an ordinary :class:`GmdjExpression`, so the
distributed Skalla engine evaluates cube granularities exactly like any
other query.  Planning, rollup and stitching of whole cubes live in
:mod:`repro.cube`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import QueryError
from repro.relational.aggregates import AggregateSpec
from repro.relational.expressions import And, Literal, b, r
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import DataType
from repro.core.expression_tree import (
    GmdjExpression, ProjectionBase, RelationBase)
from repro.core.gmdj import Gmdj

#: Marker used for rolled-up attributes in stitched cube output.
ALL = "ALL"


def groupby_expression(attrs: Sequence[str],
                       aggregates: Sequence[AggregateSpec],
                       ) -> GmdjExpression:
    """A plain GROUP BY over ``attrs`` as a single-GMDJ expression.

    ``B_0 = π_attrs(R)`` and the GMDJ condition is the conjunction of
    ``r.a == b.a`` over the grouping attributes — the pure equi-join case
    the evaluator handles in one vectorized pass.
    """
    if not attrs:
        raise QueryError("grouping requires at least one attribute; "
                         "use grand_total_expression for grand totals")
    condition = And.of(*(r[attr] == b[attr] for attr in attrs))
    return GmdjExpression(ProjectionBase(tuple(attrs)),
                          (Gmdj.single(aggregates, condition),),
                          tuple(attrs))


def grand_total_expression(aggregates: Sequence[AggregateSpec],
                           ) -> GmdjExpression:
    """The ``()`` granularity as a distributable GMDJ.

    A one-row base relation and an always-true condition make every
    detail tuple contribute to the single output row; the usual
    sub-/super-aggregation then computes the grand total without ever
    centralizing detail data, and empty input still yields the
    SQL-standard single row.
    """
    spine = Relation.from_columns(
        Schema([Attribute("__one", DataType.INT64)]),
        {"__one": np.array([1], dtype=np.int64)})
    gmdj = Gmdj.single(list(aggregates), Literal(True))
    return GmdjExpression(RelationBase(spine), (gmdj,), ("__one",))
