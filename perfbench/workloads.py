"""The benchmark's workloads and its closed-loop driver.

Each workload builds its inputs from the seed alone (TPCR generation,
placement, append batches) and hands the program only the generated
relations and SQL text, through the public entry points:
``Warehouse.sql`` for the single-client workloads and
``QueryService.execute`` / ``QueryService.append`` for the service mix.
Every engine runs on the process transport (one worker process per
site).  See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bench.harness import build_tpcr_warehouse
from repro.data.tpch import TpcrConfig, generate_tpcr
from repro.distributed.metrics import QueryMetrics
from repro.distributed.partition import partition_round_robin
from repro.relational.relation import Relation
from repro.service.server import QueryService
from repro.warehouse import Warehouse

from perfbench.verify import digest

NUM_SITES = 8

#: Queries a measuring window samples at least, so that ten samples lie
#: beyond the 90th percentile; a window may overrun ``--seconds`` (up
#: to three times) to reach it.
MIN_QUERIES = 100

#: Correlated two-round query: per customer, the count and average of
#: their items, then the count and average of items at or above it.
CORR_HIGH_SQL = (
    "SELECT CustName, COUNT(*) AS cnt1, AVG(ExtendedPrice) AS avg1 "
    "FROM tpcr GROUP BY CustName "
    "THEN COMPUTE COUNT(*) AS cnt2, AVG(ExtendedPrice) AS avg2 "
    "WHERE ExtendedPrice >= avg1")

#: The three-round Fig. 5 query: base aggregates, an independent
#: discount round, and a round correlated with the first one.
SCAN_LOW_SQL = (
    "SELECT CustName, COUNT(*) AS cnt1, AVG(ExtendedPrice) AS avg1 "
    "FROM tpcr GROUP BY CustName "
    "THEN COMPUTE COUNT(*) AS cnt2, AVG(ExtendedPrice) AS avg2 "
    "WHERE Discount >= 0.05 "
    "THEN COMPUTE COUNT(*) AS cnt3, AVG(ExtendedPrice) AS avg3 "
    "WHERE ExtendedPrice >= avg1")

#: The service mix, in the order each client cycles through it.  The
#: cube comes before the slice its materialized cuboids answer.
SERVICE_MIX_SQL = (
    "SELECT CustName, COUNT(*) AS n, SUM(ExtendedPrice) AS revenue "
    "FROM tpcr GROUP BY CustName",
    "SELECT NationKey, COUNT(*) AS n, AVG(Quantity) AS avg_qty "
    "FROM tpcr GROUP BY NationKey",
    "SELECT CustName, SUM(Quantity) AS qty FROM tpcr "
    "WHERE Discount >= 0.05 GROUP BY CustName",
    "SELECT MktSegment, OrderPriority, COUNT(*) AS n, "
    "SUM(ExtendedPrice) AS revenue "
    "FROM tpcr GROUP BY CUBE(MktSegment, OrderPriority)",
    "SELECT MktSegment, COUNT(*) AS n, SUM(ExtendedPrice) AS revenue "
    "FROM tpcr GROUP BY MktSegment",
)

#: The single-client workloads turn straggler hedging off.  With the
#: default policy on a 2-CPU box, 1.5-2 hedged re-runs per query (over
#: 90% of them wasted) compete with the workers for the CPUs, and the
#: median latency of identical runs spread 16% instead of 4%.
HEDGE = False

#: One service worker thread.  The workers share one interpreter lock,
#: so a second one added lock hand-offs between the two CPUs and no
#: parallelism: with two, throughput was lower (~290 vs ~360 queries/s)
#: and swung 128-290/s between identical runs while the host was busy.
SERVICE_WORKERS = 1

#: Rows per service-mix append, and how often client 0 appends: every
#: APPEND_EVERY-th of its operations is an append.
BATCH_ROWS = 32
APPEND_EVERY = 25


@dataclass
class Answer:
    """What one query returned, as the benchmark records it."""

    relation: Relation
    metrics: QueryMetrics
    queue_wait_seconds: float = 0.0
    plan_cache_hit: bool = False


class WarehouseSession:
    """Single statements through ``Warehouse.sql``."""

    slices: tuple[int, ...] = ()
    #: results arrive in plan order, not key order
    sorted_results = False

    def __init__(self, warehouse: Warehouse, statements: tuple[str, ...]):
        self.warehouse = warehouse
        self.statements = statements
        self.schema = warehouse.engine.detail_schema
        warehouse.engine.transport.start()

    @property
    def version(self) -> int:
        return self.warehouse.engine.data_version

    def query(self, index: int) -> Answer:
        result = self.warehouse.sql(self.statements[index])
        return Answer(result.relation, result.metrics)

    def detail_at(self, version: int) -> Relation:
        return self.warehouse.engine.total_detail_relation()

    def close(self) -> None:
        self.warehouse.engine.close()


class ServiceSession:
    """A ``QueryService`` plus seeded append batches."""

    #: statements the cuboid store can answer (the MktSegment slice)
    slices = (4,)
    #: the service orders every result by its key
    sorted_results = True

    def __init__(self, service: QueryService, statements: tuple[str, ...],
                 seed: int):
        self.service = service
        self.statements = statements
        engine = service.engine
        self.schema = engine.detail_schema
        self._fragments = {site: engine.fragment(site)
                           for site in engine.site_ids}
        self._rng = np.random.default_rng([seed, 1])
        self._next_site = 0
        #: appended batches in order; version v has the first v
        self.batches: list[Relation] = []
        engine.transport.start()

    @property
    def version(self) -> int:
        return self.service.engine.data_version

    def query(self, index: int) -> Answer:
        result = self.service.execute(self.statements[index], timeout=120)
        return Answer(result.relation, result.metrics,
                      result.queue_wait_seconds, result.plan_cache_hit)

    def next_batch(self) -> tuple[int, Relation]:
        """A batch drawn from one site's own rows (sites in turn)."""
        sites = sorted(self._fragments)
        site = sites[self._next_site % len(sites)]
        self._next_site += 1
        fragment = self._fragments[site]
        rows = self._rng.choice(fragment.num_rows, size=BATCH_ROWS,
                                replace=False)
        return site, fragment.take(np.sort(rows))

    def append(self, site: int, rows: Relation) -> None:
        self.service.append(site, rows)
        self.batches.append(rows)

    def detail_at(self, version: int) -> Relation:
        return Relation.concat([*self._fragments.values(),
                                *self.batches[:version]])

    def close(self) -> None:
        self.service.close()
        self.service.engine.close()


def _warm(session):
    """Run every statement once (the untimed warm-up of set-up)."""
    for index in range(len(session.statements)):
        session.query(index)
    return session


def build_corr_high(seed: int, scale: float = 1.0) -> WarehouseSession:
    relation = generate_tpcr(TpcrConfig(
        num_rows=int(40_000 * scale), num_customers=int(8_000 * scale),
        seed=seed))
    warehouse = Warehouse.from_partitions(
        partition_round_robin(relation, NUM_SITES), transport="process",
        hedge=HEDGE)
    return _warm(WarehouseSession(warehouse, (CORR_HIGH_SQL,)))


def build_scan_low(seed: int, scale: float = 1.0) -> WarehouseSession:
    built = build_tpcr_warehouse(num_rows=int(240_000 * scale),
                                 num_sites=NUM_SITES,
                                 high_cardinality=False, seed=seed)
    built.engine.use_transport("process", hedge=HEDGE)
    return _warm(WarehouseSession(Warehouse(built.engine), (SCAN_LOW_SQL,)))


def build_service_mix(seed: int, scale: float = 1.0) -> ServiceSession:
    built = build_tpcr_warehouse(num_rows=int(30_000 * scale),
                                 num_sites=NUM_SITES,
                                 high_cardinality=False, seed=seed)
    built.engine.use_transport("process")
    service = QueryService(built.engine, workers=SERVICE_WORKERS,
                           cube_materialize=True)
    return _warm(ServiceSession(service.start(), SERVICE_MIX_SQL, seed))


@dataclass(frozen=True)
class Workload:
    """A workload; why each exists is in BENCHMARK.json and README.md."""

    name: str
    #: ``build(seed, scale)``: inputs from the seed, sizes times scale
    build: Callable[[int, float], object]
    clients: int = 1
    #: every this-many operations of client 0 is an append (0 = never)
    append_every: int = 0


WORKLOADS = {workload.name: workload for workload in (
    Workload("corr-high", build_corr_high),
    Workload("scan-low", build_scan_low),
    Workload("service-mix", build_service_mix, clients=2,
             append_every=APPEND_EVERY),
)}


# ---------------------------------------------------------------------------
# The closed-loop driver
# ---------------------------------------------------------------------------

@dataclass
class QueryRecord:
    statement: int
    latency: float
    digest: str
    #: data versions read before submitting and after the answer; the
    #: query ran against one version in between
    first_version: int
    last_version: int
    wire_bytes: int
    queue_wait_seconds: float
    plan_cache_hit: bool
    #: the query's full accounting, kept in traced windows only
    metrics: QueryMetrics | None


@dataclass
class Window:
    """Everything one measuring window recorded."""

    queries: list[QueryRecord] = field(default_factory=list)
    append_latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: first relation behind each distinct (statement, digest), kept
    #: when results do not arrive in key order
    relations: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def attempted(self) -> int:
        return (len(self.queries) + len(self.append_latencies)
                + len(self.failures))

    def merge(self, other: "Window") -> None:
        self.queries += other.queries
        self.append_latencies += other.append_latencies
        self.failures += other.failures
        for key, relation in other.relations.items():
            self.relations.setdefault(key, relation)


def run_window(session, workload: Workload, seconds: float,
               min_queries: int = MIN_QUERIES,
               keep_metrics: bool = False) -> Window:
    """Drive ``session`` closed-loop for ``seconds`` (see MIN_QUERIES).

    ``keep_metrics`` keeps every answer's ``QueryMetrics`` (the traced
    run needs them; the measured run keeps only its wire bytes).
    """
    logs = [Window() for __ in range(workload.clients)]
    start = time.perf_counter()
    deadline = start + seconds
    hard_deadline = start + 3 * seconds

    def done() -> bool:
        now = time.perf_counter()
        if now < deadline:
            return False
        queries = sum(len(log.queries) for log in logs)
        return queries >= min_queries or now >= hard_deadline

    def client(number: int) -> None:
        log = logs[number]
        statement = number % len(session.statements)
        operation = 0
        try:
            while not done():
                operation += 1
                if (number == 0 and workload.append_every
                        and operation % workload.append_every == 0):
                    _append(session, log)
                    continue
                _query(session, statement, log, keep_metrics)
                statement = (statement + 1) % len(session.statements)
        except Exception as error:  # noqa: BLE001 - reported as a failure
            log.failures.append(f"client {number} stopped: {error!r}")

    if workload.clients == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(number,),
                                    name=f"perfbench-client-{number}")
                   for number in range(workload.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    window = Window(elapsed=time.perf_counter() - start)
    for log in logs:
        window.merge(log)
    return window


def _query(session, statement: int, log: Window,
           keep_metrics: bool) -> None:
    first_version = session.version
    started = time.perf_counter()
    try:
        answer = session.query(statement)
    except Exception as error:  # noqa: BLE001 - counted, loop goes on
        log.failures.append(f"statement {statement}: {error!r}")
        return
    latency = time.perf_counter() - started
    result_digest = digest(answer.relation)
    metrics = answer.metrics
    log.queries.append(QueryRecord(
        statement, latency, result_digest, first_version, session.version,
        metrics.total_bytes, answer.queue_wait_seconds,
        answer.plan_cache_hit, metrics if keep_metrics else None))
    if not session.sorted_results:
        log.relations.setdefault((statement, result_digest),
                                 answer.relation)


def _append(session, log: Window) -> None:
    site, rows = session.next_batch()
    started = time.perf_counter()
    try:
        session.append(site, rows)
    except Exception as error:  # noqa: BLE001 - counted, loop goes on
        log.failures.append(f"append at site {site}: {error!r}")
        return
    log.append_latencies.append(time.perf_counter() - started)
