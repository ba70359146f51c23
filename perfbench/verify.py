"""Result digests and the centralized oracle.

Every statement result the benchmark sees is digested where it lands
(cheap: raw column bytes).  The first relation behind each distinct
digest is kept, and after the timed window it is compared, in key
order, with the centralized oracle of the data version the query ran
against.  The comparison is exact: the workloads aggregate
integer-valued measures, so the distributed answer must be
bit-identical to the oracle's.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sql.compiler import compile_query
from repro.sql.parser import parse


def digest(relation: Relation) -> str:
    """SHA-256 over the schema and every column's exact contents."""
    hasher = hashlib.sha256(str(relation.num_rows).encode())
    for name in relation.schema.names:
        column = relation.column(name)
        hasher.update(f"\x1e{name}:{relation.schema[name].dtype}".encode())
        if column.dtype == object:
            values = column.tolist()
            try:
                text = "\x1f".join(values)
            except TypeError:  # not all str (e.g. NULLs)
                text = "\x1f".join(map(str, values))
            hasher.update(text.encode())
        else:
            hasher.update(np.ascontiguousarray(column).tobytes())
    return hasher.hexdigest()


def sort_key(sql: str, detail_schema: Schema) -> list[str]:
    """The attributes that order a statement's result rows uniquely."""
    statement = parse(sql)
    if statement.cube_family:
        return list(statement.group_attrs)
    return list(compile_query(sql, detail_schema).expression.key)


def canonical(relation: Relation, key: list[str]) -> str:
    """Digest of ``relation`` in ``key`` order."""
    return digest(relation.sort(key))


def centralized(sql: str, detail: Relation) -> Relation:
    """The oracle: ``sql`` evaluated over one centralized relation."""
    statement = parse(sql)
    if statement.cube_family:
        from repro.cube import compile_lattice, run_centralized
        return run_centralized(compile_lattice(statement, detail.schema),
                               detail)
    return compile_query(sql, detail.schema).run_centralized(detail)


def check(session, windows) -> tuple[int, list[str]]:
    """Compare every distinct result with the oracle of its data version.

    Returns the number of queries whose result matched the oracle of no
    version they could have run against, and one line per mismatch.
    The oracle reads the data only now, after the measured window.
    """
    keys = [sort_key(sql, session.schema) for sql in session.statements]
    detail_at = functools.lru_cache(maxsize=2)(session.detail_at)

    @functools.cache
    def oracle(statement: int, version: int) -> str:
        return canonical(centralized(session.statements[statement],
                                     detail_at(version)), keys[statement])

    relations: dict = {}
    seen: dict[tuple[int, str, int, int], int] = {}
    for window in windows:
        for key, relation in window.relations.items():
            relations.setdefault(key, relation)
        for query in window.queries:
            group = (query.statement, query.digest, query.first_version,
                     query.last_version)
            seen[group] = seen.get(group, 0) + 1
    mismatched = 0
    notes = []
    # version-major order, so each version's data is assembled once
    for (statement, result, first, last), count in sorted(
            seen.items(), key=lambda item: item[0][::-1]):
        # results kept as relations arrived unordered; the others came
        # in key order, so their digest is already canonical
        relation = relations.get((statement, result))
        answer = (result if relation is None
                  else canonical(relation, keys[statement]))
        if not any(answer == oracle(statement, version)
                   for version in range(last, first - 1, -1)):
            mismatched += count
            notes.append(f"statement {statement} at data version "
                         f"{first}..{last}: {count} result(s) differ "
                         f"from the centralized oracle")
    return mismatched, notes


def traced_differences(plain, traced) -> tuple[int, list[str]]:
    """Traced results that are not bit-identical to the untraced ones.

    Compares raw digests (row order included) of one statement at one
    data version, wherever both windows answered it.  Returns the
    number of differing traced queries and one line per statement and
    version.
    """
    untraced: dict[tuple[int, int], set[str]] = {}
    for query in plain.queries:
        if query.first_version == query.last_version:
            untraced.setdefault((query.statement, query.first_version),
                                set()).add(query.digest)
    differing: dict[tuple[int, int], int] = {}
    for query in traced.queries:
        key = (query.statement, query.first_version)
        if query.first_version == query.last_version and \
                query.digest not in untraced.get(key, {query.digest}):
            differing[key] = differing.get(key, 0) + 1
    return sum(differing.values()), [
        f"statement {statement} at data version {version}: {count} "
        f"traced result(s) differ from the untraced ones"
        for (statement, version), count in sorted(differing.items())]
