"""Per-layer metrics of a traced run.

Timings (``_ms``) are self time per call, from the spans of the traced
round. Counts are normalised by the work that drives them (per page, per
wave, per call or per case event) so they do not depend on how many
requests fit in the run. CPU figures come from the untraced rounds of
the same run, and the ``trace.overhead_*`` metrics are the traced
round's end-to-end figures minus the untraced rounds'.
"""

from __future__ import annotations

import statistics
from typing import List

#: Span name -> metric name for the "self ms per call" timings.
TIMINGS = {
    "web.app": "web.app_ms",
    "web.auth": "web.auth_ms",
    "web.acl": "web.acl_ms",
    "web.template": "web.template_ms",
    "storage.view": "storage.view_ms",
    "storage.get": "storage.get_ms",
    "storage.upsert": "storage.upsert_ms",
    "storage.replicate": "storage.replicate_ms",
    "taint.decode": "taint.decode_ms",
    "taint.encode": "taint.encode_ms",
    "taint.dumps": "taint.dumps_ms",
    "events.broker": "events.broker_ms",
    "events.store_get": "events.store_get_ms",
    "events.store_set": "events.store_set_ms",
    "events.callback.data_producer": "events.callback_ms.data_producer",
    "events.callback.data_aggregator": "events.callback_ms.data_aggregator",
    "events.callback.data_storage": "events.callback_ms.data_storage",
    "cluster.publish": "cluster.publish_ms",
    "cluster.drain": "cluster.drain_ms",
}


def median_over_rounds(rounds: List[List[float]], percentile: int) -> float:
    """Median over rounds of each round's latency percentile, in ms. A
    round that met a slow spell of the host moves it less than the pooled
    percentile would."""
    return statistics.median(
        statistics.quantiles(latencies, n=100)[percentile - 1] * 1000
        for latencies in rounds
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(run) -> dict:
    layers = run.layers
    spans = layers["self_times"]

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    metrics = {}
    for span, metric in TIMINGS.items():
        entry = spans.get(span)
        value = entry["self_s"] * 1000 / entry["calls"] if entry else 0.0
        metrics[metric] = (value, "ms")
    pages, waves = run.read[1][1], run.waves[1]
    lookups = layers["cache_hits"] + layers["cache_misses"]
    metrics.update({
        "web.pagecache_hit_ratio": (_ratio(layers["cache_hits"], lookups), "ratio"),
        "web.pagecache_invalidations": (layers["cache_invalidations"], "count"),
        "storage.view_rows": (_ratio(layers["view_rows"], calls("storage.view")), "rows/call"),
        "storage.wal_fsyncs": (_ratio(layers["wal_fsyncs"], waves), "1/wave"),
        "storage.wal_bytes": (_ratio(layers["wal_bytes"], waves), "B/wave"),
        "storage.replicate_docs": (
            _ratio(layers["replicated_docs"], calls("storage.replicate")), "docs/call"
        ),
        "taint.decode_calls": (_ratio(calls("taint.decode"), pages), "1/page"),
        "events.publishes": (_ratio(calls("events.broker"), waves), "1/wave"),
        "core.audit_records": (_ratio(layers["audit_records"], pages + waves), "1/op"),
        "stomp.frames_per_event": (
            _ratio(layers["stomp_frames"], layers["events"]), "1/event"
        ),
    })
    cpu_s = sum(c["cpu_s"] for c in run.cpu)
    wall_s = sum(c["wall_s"] for c in run.cpu)
    untraced_ops = run.read[0][1] + run.waves[0]
    metrics["sut.cpu_busy_share"] = (_ratio(cpu_s, wall_s), "ratio")
    metrics["sut.cpu_ms_per_op"] = (_ratio(cpu_s * 1000, untraced_ops), "ms")
    untraced, traced = run.latencies
    # Reported here, without a bound: on a 2-core VM its run-to-run spread
    # (0.13 to 0.36 of the median) is set by host hiccups that touch ~1 %
    # of requests, not by the program.
    metrics["tail.page_p99_ms"] = (median_over_rounds(untraced, 99), "ms")
    metrics["trace.overhead_page_p50_ms"] = (
        median_over_rounds(traced, 50) - median_over_rounds(untraced, 50)
        if traced and untraced else 0.0,
        "ms",
    )
    untraced_waves, traced_waves = run.refresh_s
    metrics["trace.overhead_refresh_s"] = (
        statistics.median(traced_waves) - statistics.median(untraced_waves)
        if traced_waves and untraced_waves else 0.0,
        "s",
    )
    return metrics
