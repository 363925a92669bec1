"""cluster_spill: a two-shard cluster whose shard caches are too small.

``ClusterSupervisor`` runs two shard processes (replication factor 1), each
holding the same eight 4K Visual Road stand-ins (6 s at 10 fps, tiled for
the known queries).  One ``ClusterRouter`` carries two closed-loop client
threads; each client scans only its own four videos, so no shard batch can
merge the two clients' work.  Each shard's decode cache is half of an even
ring share of the decoded working set, so it evicts: tile decode and
eviction dominate, across a process boundary, with the router's scatter and
gather on top.  It is the only workload that loads the router.

Shard-side layers come from the shards' ``metrics`` and ``trace`` ops.  The
shards run no benchmark spans; what the router and its socket clients do in
this process is traced as in the other workloads.

Guards: the shards evict in the timed windows (they miss more often than a
cache that never evicts could), the router fails nothing over, and no scan
is shed or misses a deadline.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import statistics
import time

import numpy as np

from repro.cluster import ClusterRouter, ClusterSupervisor, HashRing
from repro.cluster.ring import sot_key
from repro.service import RemoteTasmClient

from checks import GuardError, result_digest
from inputs import FRAME_RATE, ShardDataset, base_config, mixed_sequence, peak_rss_mb
from ledger import Tracer
from probes import histogram_mean, ledger_metrics, trace_transport
from serving import (
    TRACES_KEPT,
    client_layers,
    closed_loop,
    counter_total,
    e2e_metrics,
    merge,
    reference_digests,
    round_plan,
    server_layers,
    server_send_ms,
    server_side,
)

SHARDS = 2
CLIENTS = 2
VIDEOS_PER_CLIENT = 4
RESOLUTION = "4K"
VIDEO_SECONDS = 6.0
#: Each shard's cache as a share of an even split of the working set.
CACHE_SHARE = 0.5


def _inputs(seed: int):
    rng = np.random.default_rng(seed)
    frame_count = int(VIDEO_SECONDS * FRAME_RATE)
    videos, sequences = [], []
    for client in range(CLIENTS):
        own = [
            (f"spill-{seed}-{client}-{index}", int(rng.integers(1, 2**31)))
            for index in range(VIDEOS_PER_CLIENT)
        ]
        videos.extend(own)
        sequences.append(mixed_sequence(rng, [name for name, _ in own], frame_count))
    distinct = list(dict.fromkeys(spec for sequence in sequences for spec in sequence))
    return videos, sequences, distinct


class _Cluster:
    """One set-up of the system under test: shards, router, warm-up."""

    def __init__(self, videos, distinct, expected, cache_bytes, report_dir):
        if report_dir.exists():
            shutil.rmtree(report_dir)
        report_dir.mkdir(parents=True)
        started = time.perf_counter()
        self.config = base_config(decode_cache_bytes=cache_bytes, cluster_replication_factor=1)
        dataset = ShardDataset(videos, RESOLUTION, VIDEO_SECONDS, distinct, report_dir)
        self.supervisor = ClusterSupervisor(self.config, shards=SHARDS, dataset=dataset).start()
        self.router = None
        #: One plain client per shard for its stats, metrics and traces.
        self.shard_clients = {}
        try:
            self.router = ClusterRouter(self.supervisor.addresses, config=self.config, timeout=60.0)
            # One scan per video opens the shard connections and caches the
            # router's video facts; the caches cannot hold the working set.
            first_per_video = {spec.video: spec for spec in reversed(distinct)}
            for spec in first_per_video.values():
                result = self.router.scan(
                    spec.video, list(spec.labels), spec.frame_start, spec.frame_stop
                )
                if result_digest(result.regions) != expected[spec]:
                    raise GuardError(f"output check: warm-up scan {spec} mismatched its reference")
            self.setup_seconds = time.perf_counter() - started
            for address in self.supervisor.addresses:
                self.shard_clients[f"{address[0]}:{address[1]}"] = RemoteTasmClient(
                    address, timeout=60.0, use_shm=False
                )
        except BaseException:
            self.close()
            raise
        self.reports = [json.loads(path.read_text()) for path in sorted(report_dir.glob("*.json"))]
        shutil.rmtree(report_dir)

    def scan_streaming(self, client: int, spec):
        return self.router.scan_streaming(
            spec.video, list(spec.labels), spec.frame_start, spec.frame_stop
        )

    def shard_stats(self) -> dict:
        return {name: client.stats() for name, client in self.shard_clients.items()}

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(child.pid for child in multiprocessing.active_children())

    def close(self) -> None:
        for client in self.shard_clients.values():
            client.close()
        if self.router is not None:
            self.router.close()
        self.supervisor.stop()


def _window(cluster: _Cluster, sequences, expected, seconds, tracer):
    before = cluster.shard_stats()
    failovers_before = cluster.router.failovers_total
    if tracer is not None:
        trace_transport(tracer)
    try:
        loop = closed_loop(
            cluster.scan_streaming, sequences, expected, seconds, tracer,
            "cluster.scatter", "cluster.gather",
        )
    finally:
        if tracer is not None:
            tracer.restore()
    return {
        "loop": loop,
        "before": before,
        "after": cluster.shard_stats(),
        "traces": [
            trace
            for client in cluster.shard_clients.values()
            for trace in client.traces(last=TRACES_KEPT)
        ],
        "failovers": cluster.router.failovers_total - failovers_before,
        "rss": cluster.peak_rss_mb(),
    }


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    videos, sequences, distinct = _inputs(seed)
    expected, requested = reference_digests(videos, RESOLUTION, VIDEO_SECONDS, distinct)
    working_set = {key: max(sizes) for key, sizes in requested.items()}
    total_bytes = sum(working_set.values())
    cache_bytes = int(CACHE_SHARE * total_bytes / SHARDS)
    windows, setups, retiles, ratios, shares = [], [], [], [], []
    tracer = Tracer() if trace else None
    for number, (window_seconds, traced) in enumerate(round_plan(seconds, trace)):
        cluster = _Cluster(
            videos, distinct, expected, cache_bytes, out_dir / f"shards-{seed}-{number}"
        )
        try:
            setups.append(cluster.setup_seconds)
            for report in cluster.reports:
                retiles.extend(report["retile_seconds"])
                ratios.append(report["stored_bytes"] / report["untiled_bytes"])
            shares.append(_ring_shares(cluster, working_set))
            window = _window(cluster, sequences, expected, window_seconds, tracer if traced else None)
            window["traced"] = traced
            windows.append(window)
        finally:
            cluster.close()
    merged = merge([w["loop"] for w in windows])
    # Without evictions a tile key misses only when a scan needs it deeper
    # into its GOP than cached, once per depth the queries ask for, plus once
    # per other runner waiting on that same decode.
    misses_without_eviction = base_config().service_runners * sum(
        len(sizes) for sizes in requested.values()
    )
    _guards(windows, misses_without_eviction)
    untraced = [w for w in windows if not w["traced"]]
    report = {
        "attempted": merged.attempted,
        "failed": merged.failed,
        "e2e": {
            **e2e_metrics([w["loop"] for w in untraced], setups),
            "retile_p50_ms": 1000.0 * statistics.median(retiles),
            "storage_ratio": statistics.median(ratios),
            "peak_rss_mb": max(w["rss"] for w in windows),
        },
        "info": {
            "clients": f"{CLIENTS} closed-loop threads on one router, {VIDEOS_PER_CLIENT} own videos each",
            "shards": f"{SHARDS} processes, replication factor 1",
            "scans per client sequence": len(sequences[0]),
            "distinct queries": len(distinct),
            "decoded working set bytes": total_bytes,
            "shard cache misses in the timed windows": server_side(windows)["cache_misses"],
            "most misses without an eviction": misses_without_eviction,
            "ring share bytes per shard (first round)": shares[0],
            "decode cache bytes per shard": cache_bytes,
            "errors": merged.errors[:5],
        },
    }
    if trace:
        traced_windows = [w for w in windows if w["traced"]]
        report["layers"] = _layers(traced_windows, tracer, merge([w["loop"] for w in untraced]))
        tracer.write(out_dir / f"spans-cluster_spill-{seed}.json")
    return report


def _ring_shares(cluster: _Cluster, working_set: dict) -> list[int]:
    ring = HashRing(cluster.router.shards, vnodes=cluster.config.cluster_ring_vnodes)
    shares = dict.fromkeys(cluster.router.shards, 0)
    for (video, frame_start, _), size in working_set.items():
        sot = frame_start // FRAME_RATE  # a SOT is one GOP
        shares[ring.nodes_for(sot_key(video, sot), 1)[0]] += size
    return [shares[name] for name in sorted(shares)]


def _guards(windows, misses_without_eviction: int) -> None:
    side = server_side(windows)
    if side["cache_misses"] <= misses_without_eviction:
        raise GuardError(
            f"guard cluster_spill.evictions: {side['cache_misses']:g} shard cache misses "
            f"do not exceed the {misses_without_eviction} a cache that never evicts allows"
        )
    failovers = sum(w["failovers"] for w in windows)
    if failovers:
        raise GuardError(f"guard cluster_spill.failovers: {failovers} failovers")
    for counter in ("tasm_queries_shed_total", "tasm_queries_deadline_exceeded_total"):
        refused = sum(
            counter_total(after, counter) - counter_total(w["before"][shard], counter)
            for w in windows
            for shard, after in w["after"].items()
        )
        if refused:
            raise GuardError(f"guard cluster_spill.refusals: {refused:g} scans in {counter}")


def _layers(windows, tracer: Tracer, untraced) -> dict:
    loop = merge([w["loop"] for w in windows])
    scans = len(loop.latencies)
    side = server_side(windows)
    chunks = list(side["chunks_by_server"].values())
    layers = client_layers(loop, tracer, untraced)
    layers.update(server_layers(side, loop))
    stages = side["stages"]
    layers.update(
        {
            "exec.warm_ms": 1000.0 * stages["warm"]["sum"] / scans,
            "exec.serve_ms": 1000.0 * stages["serve"]["sum"] / scans,
            "exec.batch_queries": histogram_mean(side["batch_size"]),
            # Past the few per tile key a never-evicting cache could take,
            # every miss re-decodes a tile the cache evicted.
            "cache.evictions": side["cache_misses"] / scans,
            "transport.server_send_ms": server_send_ms(windows),
            "router.scatter_ms": 1000.0 * statistics.fmean(loop.submit),
            "router.gather_ms": 1000.0 * statistics.fmean(loop.gather),
            "router.shard_skew": max(chunks) / statistics.fmean(chunks) if sum(chunks) else 0.0,
            "router.failovers": float(sum(w["failovers"] for w in windows)),
        }
    )
    # Shards serve a scan's sub-queries in parallel: charge each scan the
    # shard-side time of one sub-query (the mean), not the sum over shards.
    per_subquery = scans / max(side["queries"], 1)
    external = {
        "scheduler": side["queue_wait"]["sum"] * per_subquery,
        "index": stages["plan"]["sum"] * per_subquery,
        "exec": (stages["warm"]["sum"] + stages["serve"]["sum"]) * per_subquery,
    }
    layers.update(ledger_metrics(tracer.spans, sum(loop.latencies), scans, external))
    return layers
