"""Tests for the observability surface (``repro.obs``) and its wiring.

The contracts pinned here:

* the metrics primitives are exact under concurrency: N threads × M counter
  increments sum to exactly N*M, and a histogram snapshot taken mid-storm is
  never torn (its cumulative buckets are monotone and end at its count);
* a consumer-cancelled query increments ``queries_cancelled`` exactly once,
  whichever path notices it — including the failed-batch sweep that used to
  skip counting entirely (the regression this file guards);
* ``ServerStats.as_dict()`` keeps its legacy flat schema byte-identical,
  with new telemetry nested under the single added ``metrics`` key;
* after a concurrent workload quiesces, histogram totals equal counter
  totals (no lost or double-counted observations), and the legacy scheduler
  counters agree with the registry's;
* a query trace's top-level spans tile its wall latency, locally and when
  fetched by a remote client over the ``trace`` wire op;
* observability off is really off: empty snapshots, null traces, served
  results unchanged.
"""

from __future__ import annotations

import logging
import threading
import time

import pytest

from repro.config import TasmConfig
from repro.core.query import Query
from repro.errors import ConfigurationError, ServiceError
from repro.obs import (
    DISABLED,
    NULL_TRACE,
    Observability,
    SLOW_QUERY_LOGGER,
    Trace,
    TraceLog,
    render_text,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
)
from repro.service import RemoteTasmClient, SocketTransport, TasmServer
from repro.service.scheduler import BatchScheduler
from tests.test_exec_engine import make_tasm

CACHE_BYTES = 64 * 1024 * 1024


def make_server(config: TasmConfig, **overrides) -> tuple[TasmServer, object]:
    updates = {"decode_cache_bytes": CACHE_BYTES, **overrides}
    tasm, video = make_tasm(config.with_updates(**updates))
    return TasmServer(tasm).start(), video


# ----------------------------------------------------------------------
# Metrics primitives
# ----------------------------------------------------------------------
class TestMetricsPrimitives:
    def test_counter_concurrent_increments_are_exact(self):
        counter = Counter()
        threads, per_thread = 8, 5000

        def hammer():
            for _ in range(per_thread):
                counter.inc()

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert counter.value == threads * per_thread

    def test_gauge_set_callback_and_failing_callback(self):
        gauge = Gauge()
        gauge.set(3.0)
        gauge.inc(2.0)
        assert gauge.value == 5.0
        gauge.set_callback(lambda: 42)
        assert gauge.value == 42.0

        def boom():
            raise RuntimeError("provider died")

        gauge.set_callback(boom)
        assert gauge.value == 0.0, "a dying provider must not break snapshots"

    def test_histogram_buckets_sum_count(self):
        histogram = Histogram(buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        snapshot = histogram._snapshot_value()
        assert snapshot["count"] == 4
        assert snapshot["sum"] == pytest.approx(5.555)
        assert snapshot["buckets"] == [[0.01, 1], [0.1, 2], [1.0, 3], ["+Inf", 4]]

    def test_registry_registration_is_idempotent_with_kind_check(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help")
        assert registry.counter("x_total") is first
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")

    def test_labelled_family_children_and_validation(self):
        registry = MetricsRegistry()
        family = registry.counter("work_total", "by stage", labels=("stage",))
        family.labels(stage="warm").inc(2)
        family.labels(stage="serve").inc()
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(phase="warm")
        with pytest.raises(ValueError, match="is labelled"):
            family.inc()
        snapshot = registry.snapshot()["work_total"]
        assert snapshot["type"] == "counter"
        assert [(entry["labels"], entry["value"]) for entry in snapshot["values"]] == [
            ({"stage": "serve"}, 1.0),
            ({"stage": "warm"}, 2.0),
        ]

    def test_disabled_registry_hands_out_null_instruments(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("x_total")
        assert counter is NULL_INSTRUMENT
        counter.inc()
        assert counter.value == 0.0
        assert registry.snapshot() == {}
        assert registry.render_text() == ""

    def test_render_text_exposition(self):
        registry = MetricsRegistry()
        registry.counter("tasm_things_total", "Things.").inc(3)
        registry.histogram("tasm_lat_seconds", "Latency.", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.render_text()
        assert "# HELP tasm_things_total Things." in text
        assert "# TYPE tasm_things_total counter" in text
        assert "tasm_things_total 3" in text
        assert 'tasm_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'tasm_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "tasm_lat_seconds_count 1" in text
        # Renders remotely fetched snapshots identically: the wire format is
        # the snapshot dict itself.
        assert render_text(registry.snapshot()) == text


class TestSnapshotConsistencyUnderLoad:
    def test_histogram_snapshots_never_torn(self):
        """Readers racing writers: every snapshot's cumulative buckets are
        monotone and end exactly at its count (each stripe is read under its
        lock, so bucket totals can never drift from counts)."""
        histogram = Histogram(buckets=(0.25, 0.5, 0.75))
        stop = threading.Event()
        torn: list[str] = []

        def write():
            value = 0.0
            while not stop.is_set():
                histogram.observe(value % 1.0)
                value += 0.1

        def read():
            while not stop.is_set():
                snapshot = histogram._snapshot_value()
                cumulative = [count for _, count in snapshot["buckets"]]
                if cumulative != sorted(cumulative):
                    torn.append(f"non-monotone buckets: {snapshot}")
                if cumulative[-1] != snapshot["count"]:
                    torn.append(f"bucket total != count: {snapshot}")

        writers = [threading.Thread(target=write) for _ in range(4)]
        readers = [threading.Thread(target=read) for _ in range(2)]
        for thread in writers + readers:
            thread.start()
        time.sleep(0.4)
        stop.set()
        for thread in writers + readers:
            thread.join()
        assert not torn, torn[:3]


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
class TestTrace:
    def test_top_spans_sum_and_dict_form(self):
        trace = Trace(video="v", labels=("car",))
        trace.add_span("queue", 0.25, top=True)
        trace.add_span("plan", 0.01)
        trace.add_span("execute", 0.5, top=True, sots=3)
        assert trace.span_seconds == pytest.approx(0.75)
        as_dict = trace.to_dict()
        assert as_dict["video"] == "v"
        assert as_dict["labels"] == ["car"]
        assert as_dict["span_seconds"] == pytest.approx(0.75)
        names = [(span["name"], span["top"]) for span in as_dict["spans"]]
        assert names == [("queue", True), ("plan", False), ("execute", True)]
        assert as_dict["spans"][2]["meta"] == {"sots": 3}

    def test_finish_is_idempotent_first_status_wins(self):
        trace = Trace(video="v")
        assert trace.finish("ok") is True
        total = trace.total_seconds
        assert trace.finish("error") is False
        assert trace.status == "ok"
        assert trace.total_seconds == total, "a finished trace's latency is frozen"

    def test_trace_log_is_a_newest_first_bounded_ring(self):
        log = TraceLog(capacity=3)
        traces = [Trace(video=f"v{i}") for i in range(5)]
        for trace in traces:
            trace.finish()
            log.append(trace)
        assert len(log) == 3
        assert [t["video"] for t in log.last(10)] == ["v4", "v3", "v2"]
        assert [t["video"] for t in log.last(2)] == ["v4", "v3"]

    def test_null_trace_is_inert(self):
        NULL_TRACE.add_span("queue", 1.0, top=True)
        assert NULL_TRACE.finish() is False
        assert NULL_TRACE.to_dict() == {}
        assert NULL_TRACE.enabled is False


# ----------------------------------------------------------------------
# Config knobs
# ----------------------------------------------------------------------
class TestObservabilityConfig:
    def test_knob_validation(self):
        with pytest.raises(ConfigurationError):
            TasmConfig(slow_query_ms=-1.0)
        with pytest.raises(ConfigurationError):
            TasmConfig(trace_history=0)

    def test_from_config_honours_the_master_switch(self):
        on = Observability.from_config(TasmConfig())
        off = Observability.from_config(TasmConfig(observability=False))
        assert on.enabled and not off.enabled
        assert off.snapshot() == {}
        assert off.start_trace(Query.select("car", "v")) is NULL_TRACE


# ----------------------------------------------------------------------
# Cancelled-query accounting (the exactly-once regression)
# ----------------------------------------------------------------------
class TestCancelledAccounting:
    def test_cancel_while_pending_counts_once(self, config):
        tasm, video = make_tasm(config)
        obs = Observability()
        scheduler = BatchScheduler(tasm, window_ms=0.0, max_batch=4, obs=obs)
        scheduler._running = True
        try:
            stream = scheduler.submit(Query.select("car", video.name))
            stream.close()
            batch: list = []
            with scheduler._cond:
                scheduler._take_round_robin(batch)
            assert batch == [], "a cancelled pending query must not cost a slot"
            assert scheduler.queries_cancelled == 1
            assert obs.queries_cancelled.value == 1
            # Exactly-once: a second path noticing the same stream is a no-op.
            scheduler._count_cancel(stream)
            assert scheduler.queries_cancelled == 1
            assert obs.queries_cancelled.value == 1
        finally:
            scheduler._running = False

    def test_cancel_skipped_mid_batch_counts_once(self, config):
        tasm, video = make_tasm(config)
        obs = Observability()
        scheduler = BatchScheduler(tasm, window_ms=0.0, max_batch=4, obs=obs)
        scheduler._running = True
        try:
            live = scheduler.submit(Query.select("car", video.name))
            doomed = scheduler.submit(Query.select("person", video.name))
            doomed.close()
            scheduler._execute([live, doomed])
            assert live.result(timeout=10).regions
            assert scheduler.queries_completed == 1
            assert scheduler.queries_cancelled == 1
            scheduler._count_cancel(doomed)
            assert scheduler.queries_cancelled == 1
        finally:
            scheduler._running = False

    def test_failed_batch_sweep_counts_a_cancel_exactly_once(self, config):
        """Regression: the failed-batch retry path used to skip done streams
        without counting a consumer cancel at all (an undercount)."""
        tasm, video = make_tasm(config)
        obs = Observability()
        scheduler = BatchScheduler(tasm, window_ms=0.0, max_batch=4, obs=obs)
        scheduler._running = True
        try:
            bad = scheduler.submit(Query.select("car", "no-such-video"))
            cancelled = scheduler.submit(Query.select("car", video.name))
            cancelled.close()
            scheduler._execute([bad, cancelled])
            with pytest.raises(ServiceError):
                bad.result(timeout=5)
            assert scheduler.queries_cancelled == 1, (
                "the failed-batch sweep must count the cancelled stream"
            )
            assert obs.queries_cancelled.value == 1
            assert obs.queries_failed.value == 1
            # And never twice, whichever path re-notices it.
            scheduler._count_cancel(cancelled)
            assert scheduler.queries_cancelled == 1
            assert obs.queries_cancelled.value == 1
        finally:
            scheduler._running = False

    def test_remote_cancel_lands_in_metrics_and_trace_ring(self, config):
        server, video = make_server(config, service_stream_buffer_chunks=1)
        # Hold the decode of every SOT after the first until the CANCEL has
        # reached the server, so the scan cannot finish before it lands.
        tasm = server.tasm
        original = tasm._decoder.prefetch_regions
        cancel_landed = threading.Event()
        prefetches = []

        def held_prefetch(sot, requests, scope):
            prefetches.append(scope)
            if len(prefetches) > 1:
                cancel_landed.wait(10.0)
            return original(sot, requests, scope)

        tasm._decoder.prefetch_regions = held_prefetch
        server_streams = []
        submit = server.submit

        def recording_submit(*args, **kwargs):
            stream = submit(*args, **kwargs)
            server_streams.append(stream)
            return stream

        server.submit = recording_submit
        try:
            with SocketTransport(server) as transport:
                with RemoteTasmClient(
                    transport.address, stream_buffer_chunks=1
                ) as client:
                    stream = client.scan_streaming(video.name, "car")
                    for _sot, _regions in stream:
                        break  # take one chunk, then walk away
                    stream.close()
                    deadline = time.monotonic() + 10.0
                    while time.monotonic() < deadline:
                        if server_streams and server_streams[0].cancelled:
                            break
                        time.sleep(0.01)
                    cancel_landed.set()
                    deadline = time.monotonic() + 10.0
                    while time.monotonic() < deadline:
                        if server.obs.queries_cancelled.value >= 1:
                            break
                        time.sleep(0.01)
            snapshot = server.metrics_snapshot()
            cancelled = snapshot["tasm_queries_cancelled_total"]["values"][0]["value"]
            assert cancelled == 1
            statuses = [trace["status"] for trace in server.traces(8)]
            assert "cancelled" in statuses
        finally:
            cancel_landed.set()
            tasm._decoder.prefetch_regions = original
            server.stop()


# ----------------------------------------------------------------------
# ServerStats back-compat
# ----------------------------------------------------------------------
#: The flat wire schema of the ``stats`` op before observability landed.
#: Frozen: existing consumers parse these exact keys, so new telemetry must
#: nest under ``metrics`` instead of widening this list.
LEGACY_STATS_KEYS = [
    "uptime_seconds",
    "queries_submitted",
    "queries_completed",
    "queries_cancelled",
    "qps",
    "queue_depth",
    "batches_executed",
    "runners",
    "cache_hits",
    "cache_misses",
    "cache_hit_rate",
    "cache_bytes",
    "cache_entries",
    "pixels_decoded",
    "pixels_served_from_cache",
    "decode_work_by_label",
]


class TestServerStatsSchema:
    def test_as_dict_keeps_the_legacy_schema_plus_nested_metrics(self, config):
        server, video = make_server(config)
        try:
            server.connect().scan(video.name, "car")
            as_dict = server.stats().as_dict()
        finally:
            server.stop()
        assert list(as_dict.keys()) == LEGACY_STATS_KEYS + ["metrics"], (
            "the legacy flat keys must stay byte-identical, in order, with "
            "new telemetry nested under 'metrics' only"
        )
        assert as_dict["queries_completed"] == 1
        assert isinstance(as_dict["metrics"], dict)
        assert "tasm_query_seconds" in as_dict["metrics"]

    def test_wire_stats_carries_both_surfaces(self, config):
        server, video = make_server(config)
        try:
            with SocketTransport(server) as transport:
                with RemoteTasmClient(transport.address) as client:
                    client.scan(video.name, "car")
                    stats = client.stats()
        finally:
            server.stop()
        for key in LEGACY_STATS_KEYS:
            assert key in stats
        assert stats["metrics"]["tasm_queries_completed_total"]["values"][0]["value"] == 1


# ----------------------------------------------------------------------
# End-to-end integration
# ----------------------------------------------------------------------
class TestObservabilityIntegration:
    def test_trace_top_spans_tile_the_query_latency(self, config):
        server, video = make_server(config)
        try:
            server.connect().scan(video.name, "car")
            trace = server.traces(1)[0]
        finally:
            server.stop()
        assert trace["status"] == "ok"
        top = [span for span in trace["spans"] if span["top"]]
        assert [span["name"] for span in top] == ["queue", "execute"]
        assert trace["span_seconds"] == pytest.approx(
            trace["total_seconds"], rel=0.25, abs=0.02
        ), "queue + execute must tile the submit-to-completion latency"
        detail = {span["name"] for span in trace["spans"] if not span["top"]}
        assert "plan" in detail and "serve" in detail
        serve = next(s for s in trace["spans"] if s["name"] == "serve")
        assert {"cache_hits", "cache_misses"} <= set(serve["meta"])

    def test_counters_and_histograms_agree_after_concurrent_load(self, config):
        """No torn or lost updates: after N threads × M scans quiesce, the
        latency histogram's count equals the completed counter, which equals
        the legacy scheduler counter and N*M."""
        server, video = make_server(config, service_batch_window_ms=1.0)
        threads, per_thread = 6, 5
        errors: list[BaseException] = []
        inconsistent: list[str] = []
        stop_reading = threading.Event()

        def client_load():
            try:
                client = server.connect()
                for index in range(per_thread):
                    label = ("car", "person", "sign")[index % 3]
                    client.scan(video.name, label)
            except BaseException as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        def snapshot_load():
            while not stop_reading.is_set():
                for family in server.metrics_snapshot().values():
                    if family["type"] != "histogram":
                        continue
                    for entry in family["values"]:
                        cumulative = [count for _, count in entry["buckets"]]
                        if cumulative != sorted(cumulative) or (
                            cumulative and cumulative[-1] != entry["count"]
                        ):
                            inconsistent.append(f"{family}: {entry}")

        workers = [threading.Thread(target=client_load) for _ in range(threads)]
        reader = threading.Thread(target=snapshot_load)
        reader.start()
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            stop_reading.set()
            reader.join()
            snapshot = server.metrics_snapshot()
            scheduler_completed = server._scheduler.queries_completed
            server.stop()
        assert not errors, errors[:3]
        assert not inconsistent, inconsistent[:3]
        expected = threads * per_thread

        def value(name):
            return snapshot[name]["values"][0]["value"]

        assert value("tasm_queries_submitted_total") == expected
        assert value("tasm_queries_completed_total") == expected
        assert value("tasm_queries_cancelled_total") == 0
        latency = snapshot["tasm_query_seconds"]["values"][0]
        assert latency["count"] == expected, (
            "histogram totals must equal counter totals after quiesce"
        )
        assert snapshot["tasm_queue_wait_seconds"]["values"][0]["count"] == expected
        assert scheduler_completed == expected

    def test_remote_client_fetches_metrics_and_traces(self, config):
        server, video = make_server(config)
        try:
            with SocketTransport(server) as transport:
                with RemoteTasmClient(transport.address) as client:
                    started = time.perf_counter()
                    client.scan(video.name, "car")
                    wall = time.perf_counter() - started
                    metrics = client.metrics()
                    traces = client.traces(last=4)
        finally:
            server.stop()
        assert metrics["tasm_queries_completed_total"]["values"][0]["value"] == 1
        assert metrics["tasm_chunks_sent_total"]["values"][0]["value"] >= 1
        trace = traces[0]
        assert trace["status"] == "ok"
        # The acceptance criterion: the fetched trace's top spans account for
        # the observed wall latency (server-side total is a lower bound on
        # the client's wall clock).
        assert trace["span_seconds"] == pytest.approx(
            trace["total_seconds"], rel=0.25, abs=0.02
        )
        assert trace["total_seconds"] <= wall + 0.02
        assert any(span["name"] == "wire" for span in trace["spans"])
        text = render_text(metrics)
        assert "tasm_query_seconds_bucket" in text

    def test_slow_query_log_fires_above_threshold(self, config, caplog):
        server, video = make_server(config, slow_query_ms=1e-6)
        try:
            with caplog.at_level(logging.WARNING, logger=SLOW_QUERY_LOGGER):
                server.connect().scan(video.name, "car")
        finally:
            server.stop()
        records = [r for r in caplog.records if r.name == SLOW_QUERY_LOGGER]
        assert records, "a query above the threshold must be logged"
        attached = records[0].tasm_trace
        assert attached["video"] == video.name
        assert attached["spans"], "the log event carries the span breakdown"
        assert server.obs.slow_queries.value >= 1

    def test_slow_query_log_disabled_at_zero_threshold(self, config, caplog):
        server, video = make_server(config, slow_query_ms=0.0)
        try:
            with caplog.at_level(logging.WARNING, logger=SLOW_QUERY_LOGGER):
                server.connect().scan(video.name, "car")
        finally:
            server.stop()
        assert not [r for r in caplog.records if r.name == SLOW_QUERY_LOGGER]

    def test_observability_off_is_really_off(self, config):
        from tests.test_exec_engine import assert_scan_results_identical

        server, video = make_server(config, observability=False)
        reference, _ = make_tasm(config)
        try:
            stream = server.connect().scan_streaming(video.name, "car")
            assert stream.trace is NULL_TRACE
            result = stream.result(timeout=30)
            assert_scan_results_identical(result, reference.scan(video.name, "car"))
            assert server.metrics_snapshot() == {}
            assert server.traces() == []
            assert server.render_metrics() == ""
            assert server.stats().as_dict()["metrics"] == {}
            # The legacy counters keep working regardless.
            assert server.stats().queries_completed == 1
        finally:
            server.stop()

    def test_shared_disabled_instance(self):
        assert DISABLED.enabled is False
        DISABLED.queries_submitted.inc()
        assert DISABLED.snapshot() == {}
