"""serve_hot: the warm serving path over the loopback socket.

A ``TasmServer`` behind a ``SocketTransport`` serves two closed-loop
``RemoteTasmClient`` connections.  Both clients scan the same four 2K
Visual Road stand-ins (6 s at 10 fps, tiled for the known queries) with
single-label, multi-label and temporal-window scans of many regions per
chunk.  The decoded working set fits the server's decode cache and is
warmed before timing, so decode does almost nothing: cache hits, region
assembly, the executor's serve pass, the scheduler hand-off, chunk
framing, the wire and the client's parse carry the cost.

Guards: over the timed windows the cache hit ratio is at least 0.99 and the
pixels decoded are at most 1% of the pixels the scans drew on.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

from repro.core import TASM
from repro.service import RemoteTasmClient, SocketTransport, TasmServer

from checks import GuardError, result_digest
from inputs import (
    FRAME_RATE,
    base_config,
    build_scene,
    index_scene,
    mixed_sequence,
    peak_rss_mb,
    tile_for_queries,
)
from ledger import Tracer, self_times
from probes import (
    ledger_metrics,
    span_seconds,
    trace_decode_path,
    trace_index,
    trace_transport,
)
from serving import (
    TRACES_KEPT,
    client_layers,
    closed_loop,
    e2e_metrics,
    merge,
    reference_digests,
    round_plan,
    server_layers,
    server_send_ms,
    server_side,
)

CLIENTS = 2
VIDEOS = 4
RESOLUTION = "2K"
VIDEO_SECONDS = 6.0
CACHE_BYTES = 256 * 1024 * 1024
MIN_HIT_RATIO = 0.99
MAX_DECODED_SHARE = 0.01


def _inputs(seed: int):
    rng = np.random.default_rng(seed)
    videos = [(f"hot-{seed}-{index}", int(rng.integers(1, 2**31))) for index in range(VIDEOS)]
    frame_count = int(VIDEO_SECONDS * FRAME_RATE)
    names = [name for name, _ in videos]
    sequences = [mixed_sequence(rng, names, frame_count) for _ in range(CLIENTS)]
    distinct = list(dict.fromkeys(spec for sequence in sequences for spec in sequence))
    return videos, sequences, distinct


class _Server:
    """One set-up of the system under test: server, transport, clients."""

    def __init__(self, videos, distinct, expected):
        started = time.perf_counter()
        self.tasm = TASM(base_config(decode_cache_bytes=CACHE_BYTES))
        for name, seed in videos:
            index_scene(self.tasm, build_scene(name, seed, RESOLUTION, VIDEO_SECONDS))
        self.retiles, self.untiled_bytes = tile_for_queries(self.tasm, distinct)
        self.server = TasmServer(self.tasm).start()
        self.transport = None
        self.clients = []
        try:
            self.transport = SocketTransport(self.server).start()
            for _ in range(CLIENTS):
                self.clients.append(
                    RemoteTasmClient(self.transport.address, timeout=60.0, use_shm=False)
                )
            for spec in distinct:
                result = self.scan_streaming(0, spec).result()
                if result_digest(result.regions) != expected[spec]:
                    raise GuardError(f"output check: warm-up scan {spec} mismatched its reference")
        except BaseException:
            self.close()
            raise
        self.setup_seconds = time.perf_counter() - started

    def scan_streaming(self, client: int, spec):
        return self.clients[client].scan_streaming(
            spec.video, list(spec.labels), spec.frame_start, spec.frame_stop
        )

    def stored_bytes(self) -> int:
        return sum(self.tasm.video(name).total_size_bytes() for name in self.tasm.catalog.names())

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.transport is not None:
            self.transport.stop()
        self.server.stop()


def _window(system: _Server, sequences, expected, seconds, tracer):
    cache = system.tasm.tile_cache
    cache_before = cache.stats.snapshot()
    before = {"server": system.server.stats().as_dict()}
    if tracer is not None:
        trace_decode_path(tracer)
        trace_index(tracer, system.tasm)
        trace_transport(tracer)

        def count_batch(batch, args, kwargs):
            tracer.count("exec.batches")
            tracer.count("exec.batch_queries", len(batch.results))
            tracer.count("exec.warm_seconds", batch.warm_seconds)
            tracer.count("exec.serve_seconds", batch.serve_seconds)

        tracer.wrap(system.tasm, "execute_batch", "exec.execute_batch", count_batch)
    try:
        loop = closed_loop(
            system.scan_streaming, sequences, expected, seconds, tracer,
            "client.submit", "client.result",
        )
    finally:
        if tracer is not None:
            tracer.restore()
    return {
        "loop": loop,
        "evictions": cache.stats.since(cache_before).evictions,
        "before": before,
        "after": {"server": system.server.stats().as_dict()},
        "traces": system.server.traces(last=TRACES_KEPT),
    }


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    videos, sequences, distinct = _inputs(seed)
    expected, requested = reference_digests(videos, RESOLUTION, VIDEO_SECONDS, distinct)
    windows, setups, retiles, ratios = [], [], [], []
    tracer = Tracer() if trace else None
    for window_seconds, traced in round_plan(seconds, trace):
        system = _Server(videos, distinct, expected)
        try:
            setups.append(system.setup_seconds)
            retiles.extend(system.retiles)
            ratios.append(system.stored_bytes() / system.untiled_bytes)
            window = _window(
                system, sequences, expected, window_seconds, tracer if traced else None
            )
            window["traced"] = traced
            windows.append(window)
        finally:
            system.close()
            # Drop this round's system before the next one is built, so the
            # peak holds one set-up, not two.
            del system
            gc.collect()
    untraced = [w for w in windows if not w["traced"]]
    loops = [w["loop"] for w in windows]
    merged = merge(loops)
    _guards(windows)
    report = {
        "attempted": merged.attempted,
        "failed": merged.failed,
        "e2e": {
            **e2e_metrics([w["loop"] for w in untraced], setups),
            "retile_p50_ms": 1000.0 * statistics.median(retiles),
            "storage_ratio": statistics.median(ratios),
            "peak_rss_mb": peak_rss_mb(),
        },
        "info": {
            "clients": f"{CLIENTS} closed-loop socket connections",
            "scans per client sequence": len(sequences[0]),
            "distinct queries": len(distinct),
            "decoded working set bytes": sum(max(sizes) for sizes in requested.values()),
            "decode cache bytes": CACHE_BYTES,
            "re-tiles in set-up": len(retiles) // len(setups),
            "errors": merged.errors[:5],
        },
    }
    if trace:
        traced_windows = [w for w in windows if w["traced"]]
        report["layers"] = _layers(traced_windows, tracer, merge([w["loop"] for w in untraced]))
        tracer.write(out_dir / f"spans-serve_hot-{seed}.json")
    return report


def _guards(windows) -> None:
    side = server_side(windows)
    lookups = side["cache_hits"] + side["cache_misses"]
    ratio = side["cache_hits"] / lookups if lookups else 0.0
    if ratio < MIN_HIT_RATIO:
        raise GuardError(f"guard serve_hot.hit_ratio: cache hit ratio {ratio:.4f} < {MIN_HIT_RATIO}")
    loop = merge([w["loop"] for w in windows])
    drawn = loop.pixels_decoded + loop.pixels_from_cache
    if drawn == 0 or side["pixels_decoded"] > MAX_DECODED_SHARE * drawn:
        raise GuardError(
            f"guard serve_hot.decoded_pixels: {side['pixels_decoded']:g} pixels decoded "
            f"for {drawn} drawn on"
        )


def _layers(windows, tracer: Tracer, untraced) -> dict:
    loop = merge([w["loop"] for w in windows])
    scans = len(loop.latencies)
    spans = tracer.spans
    counters = tracer.counters
    side = server_side(windows)
    own = self_times(spans)
    layers = client_layers(loop, tracer, untraced)
    layers.update(server_layers(side, loop))
    layers.update(
        {
            "index.entries_per_region": counters.get("index.entries", 0.0) / max(loop.regions, 1),
            "codec.decode_ms": 1000.0 * span_seconds(spans, "video.codec.decode_tile") / scans,
            "decoder.assemble_ms": 1000.0 * own.get("video.decoder.decode_regions", 0.0) / scans,
            "exec.warm_ms": 1000.0 * counters.get("exec.warm_seconds", 0.0) / scans,
            "exec.serve_ms": 1000.0 * counters.get("exec.serve_seconds", 0.0) / scans,
            "exec.batch_queries": counters.get("exec.batch_queries", 0.0)
            / max(counters.get("exec.batches", 0.0), 1.0),
            "cache.evictions": sum(w["evictions"] for w in windows) / scans,
            "transport.frame_encode_ms": 1000.0
            * span_seconds(spans, "service.transport.chunk_parts")
            / scans,
            "transport.server_send_ms": server_send_ms(windows),
        }
    )
    layers.update(
        ledger_metrics(spans, sum(loop.latencies), scans, {"scheduler": side["queue_wait"]["sum"]})
    )
    return layers
