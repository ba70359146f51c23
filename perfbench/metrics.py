"""Metric definitions, and their values from one run's records.

End-to-end metrics come from the untraced window.  Per-layer metrics
come from the traced run: its spans (``perfbench.tracer``) and the
``QueryMetrics`` each answer carries.  Layer times are seconds per
query — every call a query made, summed, averaged over the window's
queries — so they compare directly with the query latency.
"""

from __future__ import annotations

import resource
import statistics

#: name -> unit; the end-to-end metrics a --trace 0 run reports.
END_TO_END = {
    "setup_s": "s",
    "qps": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "wire_bytes_per_query": "bytes",
    "peak_rss_mb": "MB",
}

#: Layers whose self time the traced run splits a query into.  Codec
#: calls made on transport pipe threads overlap the round and are
#: reported in codec.encode_s / codec.decode_s only.
LAYERS = ("sql", "optimizer", "transport", "codec", "coordinator",
          "cache", "service", "cube")

#: name -> unit; the per-layer metrics a --trace 1 run reports.
PER_LAYER = {
    "sql.compile_s": "s",
    "optimizer.plan_s": "s",
    "optimizer.rounds_per_query": "count",
    "transport.round_s": "s",
    "transport.overhead_s": "s",
    "transport.real_bytes_per_query": "bytes",
    "transport.hedges_issued": "count/query",
    "transport.hedges_wasted_ratio": "ratio",
    "transport.retries": "count/query",
    "site.scan_max_s": "s",
    "site.scan_sum_s": "s",
    "site.skew_ratio": "ratio",
    "site.scans_per_query": "count",
    "codec.encode_s": "s",
    "codec.decode_s": "s",
    "codec.bytes_decoded_per_query": "bytes",
    "coordinator.sync_s": "s",
    "coordinator.structure_rows_per_query": "rows",
    "coordinator.finalize_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.delta_merge_s": "s",
    "cache.delta_merges_per_append": "count",
    "service.plan_cache_hit_rate": "ratio",
    "service.queue_wait_p90_s": "s",
    "service.shared_scan_rate": "ratio",
    "service.append_s": "s",
    "cube.lattice_s": "s",
    "cube.rollup_s": "s",
    "cube.ancestor_hit_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.query_wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "append_p50_s": "s",
}


def p90(values: list[float]) -> float:
    """Linearly interpolated 90th percentile (0.0 for no values)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this (the coordinator) process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(window, setup_seconds: list[float],
               peak_rss: float) -> dict[str, float]:
    latencies = [query.latency for query in window.queries]
    operations = len(window.queries) + len(window.append_latencies)
    return {
        "setup_s": statistics.median(setup_seconds),
        "qps": operations / window.elapsed,
        "latency_p50_s": _median(latencies),
        "latency_p90_s": p90(latencies),
        "wire_bytes_per_query": statistics.fmean(
            query.wire_bytes for query in window.queries),
        "peak_rss_mb": peak_rss,
    }


def per_layer(plain, traced, spans, slices: tuple[int, ...]
              ) -> dict[str, float]:
    """Per-layer metrics from the traced window and its spans.

    ``plain`` is the untraced window run just before (for the tracing
    overhead and the append latency); ``slices`` are the statements the
    cuboid store can answer.
    """
    queries = traced.queries
    count = max(len(queries), 1)
    metrics = [query.metrics for query in queries]

    def mean(values) -> float:
        return sum(values) / count

    outer = [span for span in spans if span.outermost]

    def seconds(layer: str, *names: str) -> float:
        return mean(span.seconds for span in outer if span.layer == layer
                    and (not names or span.name in names))

    rounds = [span for span in outer if span.layer == "transport"]
    decoded = [span for span in outer if span.name == "decode_relation"]
    appends = [span.seconds for span in spans
               if span.name == "QueryService.append"]
    # The query-side split: spans under an append, and codec calls
    # made on pipe threads (root codec spans), are not query time.
    self_seconds = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        if span.root == "QueryService.append" or (
                span.layer == "codec" and span.root == span.name):
            continue
        self_seconds[span.layer] += span.self_seconds
    # a ticket's wait in the service queue is the scheduler's share
    self_seconds["service"] += sum(query.queue_wait_seconds
                                   for query in queries)
    wall = sum(query.latency for query in queries)
    dispatched = [m.skew_ratio for m in metrics if m.site_scans]
    hits = sum(m.cache_hits for m in metrics)
    lookups = hits + sum(m.cache_misses + m.cache_delta_merges
                         for m in metrics)
    shared = sum(m.shared_scan_hits for m in metrics)
    slice_queries = [query for query in queries if query.statement in slices]
    return {
        "sql.compile_s": seconds("sql"),
        "optimizer.plan_s": seconds("optimizer"),
        "optimizer.rounds_per_query": mean(
            m.num_synchronizations for m in metrics),
        "transport.round_s": seconds("transport"),
        "transport.overhead_s": mean(
            span.seconds - span.extra["compute_max"] for span in rounds),
        "transport.real_bytes_per_query": mean(m.real_bytes for m in metrics),
        "transport.hedges_issued": mean(m.hedges_issued for m in metrics),
        "transport.hedges_wasted_ratio": _ratio(
            sum(m.hedges_wasted for m in metrics),
            sum(m.hedges_issued for m in metrics)),
        "transport.retries": mean(m.retries for m in metrics),
        "site.scan_max_s": mean(span.extra["compute_max"]
                                for span in rounds),
        "site.scan_sum_s": mean(span.extra["compute_sum"]
                                for span in rounds),
        "site.skew_ratio": (statistics.fmean(dispatched)
                            if dispatched else 0.0),
        "site.scans_per_query": mean(m.site_scans for m in metrics),
        "codec.encode_s": seconds("codec", "encode_relation"),
        "codec.decode_s": seconds("codec", "decode_relation"),
        "codec.bytes_decoded_per_query": mean(
            span.extra["bytes"] for span in decoded),
        "coordinator.sync_s": seconds(
            "coordinator", "Coordinator.synchronize_base",
            "Coordinator.synchronize_step"),
        "coordinator.structure_rows_per_query": mean(
            m.log.rows_by_direction()[1] for m in metrics),
        "coordinator.finalize_s": seconds("coordinator",
                                          "CompiledQuery.post_process"),
        "cache.hit_ratio": _ratio(hits, lookups),
        "cache.delta_merge_s": seconds("cache"),
        "cache.delta_merges_per_append": _ratio(
            sum(m.cache_delta_merges for m in metrics),
            len(traced.append_latencies)),
        "service.plan_cache_hit_rate": mean(
            query.plan_cache_hit for query in queries),
        "service.queue_wait_p90_s": p90(
            [query.queue_wait_seconds for query in queries]),
        "service.shared_scan_rate": _ratio(
            shared, shared + sum(m.site_scans for m in metrics)),
        "service.append_s": _median(appends),
        "cube.lattice_s": seconds("cube", "execute_lattice"),
        "cube.rollup_s": seconds("cube", "rollup_states"),
        "cube.ancestor_hit_ratio": _ratio(
            sum(query.metrics.ancestor_hits > 0 for query in slice_queries),
            len(slice_queries)),
        **{f"{layer}.self_s": self_seconds[layer] / count
           for layer in LAYERS},
        "trace.query_wall_s": wall / count,
        "trace.unattributed_s": (wall - sum(self_seconds.values())) / count,
        "trace.overhead_s": (
            _median([query.latency for query in queries])
            - _median([query.latency for query in plain.queries])),
        "append_p50_s": _median(plain.append_latencies),
    }
