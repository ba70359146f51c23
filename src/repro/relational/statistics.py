"""Table and column statistics, with sketch-based cardinality estimation.

The distributed planner's cost model (:mod:`repro.optimizer.cost`) needs
to predict the size of base-values relations — the number of distinct
grouping-attribute combinations — before running anything.  This module
provides:

* :class:`ColumnStats` — per-column count / min / max / distinct count;
* :class:`TableStats` — a relation's row count plus its column stats,
  collected by :func:`collect_stats`;
* one-pass, bounded-memory distinct-count estimates with
  :class:`repro.sketches.HyperLogLog` (deterministically hashed, so an
  estimate does not depend on ``PYTHONHASHSEED``);
* :func:`estimate_group_count` — the planner's entry point: estimated
  distinct combinations over several columns, assuming independence but
  capped by the row count.

Exact distinct counts are used for small relations (they are cheap
there and tests stay deterministic); HLL kicks in above a threshold or
when requested explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import SkallaError
from repro.relational.relation import Relation
from repro.sketches import HyperLogLog

#: Row-count threshold above which collect_stats switches to sketches.
SKETCH_THRESHOLD = 100_000


class StatisticsError(SkallaError):
    """Invalid statistics operation (e.g. merging unrelated columns)."""


# ---------------------------------------------------------------------------
# Column / table statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnStats:
    """Summary of one column: count, bounds, (estimated) distinct count."""

    name: str
    count: int
    distinct: float
    minimum: object | None
    maximum: object | None
    exact: bool

    def merged(self, other: "ColumnStats") -> "ColumnStats":
        """Combine stats of two fragments of the same column.

        Distinct counts add pessimistically (capped by the sum), which
        over-estimates when fragments share values — acceptable for the
        cost model, which only needs the right order of magnitude.
        """
        if other.name != self.name:
            raise StatisticsError(
                f"cannot merge stats of {self.name!r} and {other.name!r}")
        return ColumnStats(
            name=self.name,
            count=self.count + other.count,
            distinct=min(self.distinct + other.distinct,
                         self.count + other.count),
            minimum=_safe_min(self.minimum, other.minimum),
            maximum=_safe_max(self.maximum, other.maximum),
            exact=False)


def _safe_min(left, right):
    if left is None:
        return right
    if right is None:
        return left
    return min(left, right)


def _safe_max(left, right):
    if left is None:
        return right
    if right is None:
        return left
    return max(left, right)


@dataclass(frozen=True)
class TableStats:
    """Row count plus per-column statistics of one relation."""

    row_count: int
    columns: Mapping[str, ColumnStats]

    def column(self, name: str) -> ColumnStats:
        try:
            return self.columns[name]
        except KeyError:
            raise StatisticsError(f"no statistics for column {name!r}") \
                from None


def collect_stats(relation: Relation,
                  attrs: Sequence[str] | None = None,
                  use_sketches: bool | None = None,
                  precision: int = 11) -> TableStats:
    """Collect :class:`TableStats` for ``attrs`` (default: every column).

    ``use_sketches`` forces HLL on/off; by default sketches are used for
    relations above :data:`SKETCH_THRESHOLD` rows.
    """
    names = relation.schema.names if attrs is None else tuple(attrs)
    if use_sketches is None:
        use_sketches = relation.num_rows > SKETCH_THRESHOLD
    columns = {}
    for name in names:
        values = relation.column(name)
        if relation.num_rows == 0:
            columns[name] = ColumnStats(name, 0, 0.0, None, None, True)
            continue
        if use_sketches:
            distinct = HyperLogLog(p=precision).update(values).estimate()
            exact = False
        else:
            if values.dtype == object:
                distinct = float(len(set(values.tolist())))
            else:
                distinct = float(len(np.unique(values)))
            exact = True
        if values.dtype == object:
            ordered = sorted(values.tolist())
            minimum, maximum = ordered[0], ordered[-1]
        else:
            minimum = values.min().item()
            maximum = values.max().item()
        columns[name] = ColumnStats(name, relation.num_rows, distinct,
                                    minimum, maximum, exact)
    return TableStats(relation.num_rows, columns)


def merge_stats(fragments: Iterable[TableStats]) -> TableStats:
    """Combine per-site statistics into global statistics."""
    fragments = list(fragments)
    if not fragments:
        raise StatisticsError("nothing to merge")
    merged = fragments[0]
    for stats in fragments[1:]:
        shared = set(merged.columns) & set(stats.columns)
        columns = {name: merged.columns[name].merged(stats.columns[name])
                   for name in shared}
        merged = TableStats(merged.row_count + stats.row_count, columns)
    return merged


def estimate_group_count(stats: TableStats,
                         attrs: Sequence[str]) -> float:
    """Estimated distinct combinations of ``attrs``.

    Assumes attribute independence (product of per-column distincts),
    capped by the table's row count — the classical System-R style
    estimate, adequate for choosing between distributed plans whose
    costs differ by factors of the site count.
    """
    if not attrs:
        return 1.0
    product = 1.0
    for name in attrs:
        product *= max(stats.column(name).distinct, 1.0)
    return min(product, float(stats.row_count))
